from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keytrack import kalman
from kalman_oracle import (
    FilterModel,
    FilterState,
    adaptive_alpha,
    initial_state,
    joseph_update,
    mitigation_gamma,
    predict,
    update_adaptive,
    update_standard,
)


def simplified_update(P: np.ndarray, K: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Short-form posterior covariance, valid only for the optimal gain;
    the reference for the Joseph form."""
    identity = np.eye(P.shape[0])
    return (identity - K @ H) @ P


def scalar_model(q=0.0, r=1.0):
    return FilterModel(phi=[[1.0]], H=[[1.0]], Q=[[q]], R=[[r]])


def cv_model():
    return FilterModel(
        phi=[[1.0, 1.0], [0.0, 1.0]],
        H=[[1.0, 0.0]],
        Q=np.diag([0.1, 0.2]),
        R=[[1.0]],
    )


class TestModelValidation:
    def test_accepts_consistent_shapes(self):
        model = cv_model()
        assert model.state_dim == 2
        assert model.obs_dim == 1

    def test_rejects_nonsquare_phi(self):
        with pytest.raises(ValueError, match="phi"):
            FilterModel(phi=np.ones((2, 3)), H=np.ones((1, 2)), Q=np.eye(2), R=np.eye(1))

    def test_rejects_mismatched_H(self):
        with pytest.raises(ValueError, match="H"):
            FilterModel(phi=np.eye(2), H=np.ones((1, 3)), Q=np.eye(2), R=np.eye(1))

    def test_rejects_mismatched_Q(self):
        with pytest.raises(ValueError, match="Q"):
            FilterModel(phi=np.eye(2), H=np.ones((1, 2)), Q=np.eye(3), R=np.eye(1))

    def test_rejects_mismatched_R(self):
        with pytest.raises(ValueError, match="R"):
            FilterModel(phi=np.eye(2), H=np.ones((1, 2)), Q=np.eye(2), R=np.eye(2))

    def test_initial_state_validation(self):
        model = cv_model()
        with pytest.raises(ValueError, match="x0"):
            initial_state(model, [1.0], np.eye(2))
        with pytest.raises(ValueError, match="P0"):
            initial_state(model, [1.0, 0.0], np.eye(3))
        with pytest.raises(ValueError, match="sign window"):
            initial_state(model, [1.0, 0.0], np.eye(2), sign_window=0)


class TestPredict:
    def test_state_and_covariance_propagation(self):
        model = cv_model()
        state = initial_state(model, [2.0, 3.0], np.eye(2))
        predict(model, state)
        np.testing.assert_allclose(state.x, [5.0, 3.0])
        np.testing.assert_allclose(state.P, [[2.1, 1.0], [1.0, 1.2]])

    def test_covariance_stays_symmetric(self):
        model = cv_model()
        state = initial_state(model, [0.0, 0.0], [[1.0, 0.3], [0.3, 2.0]])
        for _ in range(50):
            predict(model, state)
        np.testing.assert_array_equal(state.P, state.P.T)


class TestAdaptiveAlpha:
    def test_quiet_innovation_no_inflation(self):
        S = np.diag([4.0])
        assert adaptive_alpha(S, np.zeros((1, 1)), np.eye(1)) == 1.0
        assert adaptive_alpha(S, np.diag([3.0]), np.eye(1)) == 1.0

    def test_trace_ratio_discounting_noise(self):
        # (tr S - tr R) / (tr S_hat - tr R) = (4 - 1) / (16 - 1)
        alpha = adaptive_alpha(np.diag([4.0]), np.diag([16.0]), np.diag([1.0]))
        assert alpha == pytest.approx(3.0 / 15.0)

    def test_fallback_when_noise_dominates(self):
        # denominator non-positive: plain trace ratio 2/3
        alpha = adaptive_alpha(np.diag([2.0]), np.diag([3.0]), np.diag([5.0]))
        assert alpha == pytest.approx(2.0 / 3.0)

    def test_negative_ratio_clamped_to_tiny(self):
        alpha = adaptive_alpha(np.diag([2.0]), np.diag([10.0]), np.diag([3.0]))
        assert 0.0 < alpha < 1e-100

    def test_multidimensional_traces(self):
        S = np.diag([2.0, 2.0])
        S_hat = np.diag([10.0, 6.0])
        R = np.diag([1.0, 1.0])
        assert adaptive_alpha(S, S_hat, R) == pytest.approx((4.0 - 2.0) / (16.0 - 2.0))

    @settings(deadline=None, max_examples=100)
    @given(
        s=st.floats(1e-6, 1e6),
        s_hat=st.floats(0.0, 1e6),
        r=st.floats(1e-9, 1e5),
    )
    def test_always_in_unit_interval(self, s, s_hat, r):
        alpha = adaptive_alpha(np.diag([s]), np.diag([s_hat]), np.diag([r]))
        assert 0.0 < alpha <= 1.0


class TestMitigationGamma:
    def test_no_history_allows_full_adaptation(self):
        history = [deque(maxlen=8)]
        assert mitigation_gamma(history, [True]) == 1.0

    def test_sign_balance(self):
        history = [deque([1.0, 1.0, 1.0, -1.0], maxlen=8)]
        assert mitigation_gamma(history, [True]) == pytest.approx(0.5)

    def test_balanced_signs_suppress(self):
        history = [deque([1.0, -1.0, 1.0, -1.0], maxlen=8)]
        assert mitigation_gamma(history, [True]) == 0.0

    def test_mean_over_observed_dimensions(self):
        history = [
            deque([1.0, 1.0], maxlen=8),
            deque([1.0, -1.0], maxlen=8),
        ]
        assert mitigation_gamma(history, [True, True]) == pytest.approx(0.5)

    def test_unobserved_dimension_ignored(self):
        history = [
            deque([1.0, 1.0], maxlen=8),
            deque([1.0, -1.0], maxlen=8),
        ]
        assert mitigation_gamma(history, [True, False]) == 1.0

    def test_observed_but_empty_dimension_skipped(self):
        history = [deque([1.0, 1.0, -1.0], maxlen=8), deque(maxlen=8)]
        assert mitigation_gamma(history, [True, True]) == pytest.approx(1.0 / 3.0)


class TestCovarianceForms:
    def test_joseph_matches_simplified_for_optimal_gain(self, rng):
        A = rng.standard_normal((4, 4))
        P = A @ A.T + 0.5 * np.eye(4)
        H = rng.standard_normal((2, 4))
        R = np.diag(rng.uniform(0.5, 2.0, 2))
        S = H @ P @ H.T + R
        K = np.linalg.solve(S.T, (P @ H.T).T).T
        np.testing.assert_allclose(
            joseph_update(P, K, H, R), simplified_update(P, K, H), rtol=0, atol=1e-8
        )

    def test_joseph_stays_positive_for_suboptimal_gain(self):
        P = np.eye(2)
        H = np.array([[1.0, 0.0]])
        R = np.array([[1.0]])
        K = np.array([[0.9], [0.0]])  # deliberately not the optimal gain
        post = joseph_update(P, K, H, R)
        assert np.all(np.linalg.eigvalsh(post) > 0)


class TestStandardUpdate:
    def test_textbook_scalar_update(self):
        model = scalar_model()
        state = initial_state(model, [0.0], [[1.0]])
        update_standard(model, state, [2.0], [True])
        assert state.x[0] == pytest.approx(1.0)
        assert state.P[0, 0] == pytest.approx(0.5)
        assert state.step == 1
        assert state.last_alpha is None
        assert state.last_gamma is None

    def test_hand_computed_on_observed_dimension(self):
        # innovation y = 6 - 5 = 1 with S = 2.1 + 1 = 3.1, so K = [2.1, 1.0] / 3.1
        model = cv_model()
        state = initial_state(model, [5.0, 3.0], [[2.1, 1.0], [1.0, 1.2]])
        update_standard(model, state, [6.0], [True])
        np.testing.assert_allclose(state.x, [5.0 + 2.1 / 3.1, 3.0 + 1.0 / 3.1])
        np.testing.assert_allclose(
            state.P,
            [[2.1 - 2.1 * 2.1 / 3.1, 1.0 - 2.1 / 3.1], [1.0 - 2.1 / 3.1, 1.2 - 1.0 / 3.1]],
        )

    def test_observation_length_checked(self):
        model = cv_model()
        state = initial_state(model, [0.0, 0.0], np.eye(2))
        with pytest.raises(ValueError, match="observed entries"):
            update_standard(model, state, [1.0, 2.0], [True])

    def test_empty_mask_is_noop(self):
        model = cv_model()
        state = initial_state(model, [1.0, 2.0], np.eye(2))
        update_standard(model, state, [], [False])
        np.testing.assert_array_equal(state.x, [1.0, 2.0])
        assert state.step == 0

    def test_partial_mask_updates_observed_block(self):
        model = FilterModel(phi=np.eye(2), H=np.eye(2), Q=np.zeros((2, 2)), R=np.eye(2))
        state = initial_state(model, [0.0, 0.0], np.eye(2))
        update_standard(model, state, [4.0], [True, False])
        assert state.x[0] == pytest.approx(2.0)
        assert state.x[1] == 0.0
        assert state.P[1, 1] == 1.0

    def test_converges_to_constant_signal(self):
        model = scalar_model(q=0.0, r=1.0)
        state = initial_state(model, [0.0], [[100.0]])
        for _ in range(200):
            predict(model, state)
            update_standard(model, state, [7.0], [True])
        assert state.x[0] == pytest.approx(7.0, abs=1e-3)
        assert state.P[0, 0] < 0.2


class TestAdaptiveUpdate:
    def test_gamma_zero_matches_standard_bitwise(self):
        model = cv_model()
        rng = np.random.default_rng(3)
        adaptive = initial_state(model, [0.0, 0.0], np.eye(2))
        standard = initial_state(model, [0.0, 0.0], np.eye(2))
        for _ in range(25):
            z = [float(rng.normal(5.0, 2.0))]
            predict(model, adaptive)
            predict(model, standard)
            update_adaptive(model, adaptive, z, [True], gamma_override=0.0)
            update_standard(model, standard, z, [True])
        assert np.array_equal(adaptive.x, standard.x)
        assert np.array_equal(adaptive.P, standard.P)

    def test_first_update_hand_computed(self):
        # fresh history: gamma 1 (only the current sign), raw alpha 1/3
        model = scalar_model()
        state = initial_state(model, [0.0], [[1.0]])
        update_adaptive(model, state, [2.0], [True])
        assert state.last_gamma == pytest.approx(1.0)
        assert state.last_alpha == pytest.approx(1.0 / 3.0)
        assert state.x[0] == pytest.approx(1.5)
        assert state.P[0, 0] == pytest.approx(0.75)

    def test_sign_window_includes_current_innovation(self):
        model = scalar_model()
        state = initial_state(model, [0.0], [[1.0]])
        update_adaptive(model, state, [2.0], [True])
        # second innovation is negative: window [+1, -1] -> gamma 0 -> alpha 1
        update_adaptive(model, state, [-10.0], [True])
        assert state.last_gamma == pytest.approx(0.0)
        assert state.last_alpha == pytest.approx(1.0)

    def test_unmitigated_override(self):
        model = scalar_model()
        mitigated = initial_state(model, [0.0], [[1.0]])
        unmitigated = initial_state(model, [0.0], [[1.0]])
        for z in (1.0, -1.2, 1.1, -0.9, 8.0):
            update_adaptive(model, mitigated, [z], [True])
            update_adaptive(model, unmitigated, [z], [True], gamma_override=1.0)
        # alternating signs suppress the mitigated filter's adaptation
        assert unmitigated.last_alpha < mitigated.last_alpha

    def test_unmitigated_tracks_jump_faster(self):
        model = scalar_model(q=1e-4, r=1.0)
        state = initial_state(model, [0.0], [[1.0]])
        for _ in range(30):
            predict(model, state)
            update_adaptive(model, state, [0.0], [True], gamma_override=1.0)
        predict(model, state)
        update_adaptive(model, state, [50.0], [True], gamma_override=1.0)
        # huge innovation inflates the prior, so the gain is close to 1
        assert state.x[0] > 40.0

    def test_sign_window_truncates(self):
        model = scalar_model()
        state = initial_state(model, [0.0], [[1.0]], sign_window=3)
        for z in (5.0, 5.0, 5.0, 5.0, 5.0):
            predict(model, state)
            update_adaptive(model, state, [z], [True])
        assert len(state.sign_history[0]) == 3

    def test_alpha_recorded_only_when_adaptive(self):
        model = scalar_model()
        state = initial_state(model, [0.0], [[1.0]])
        update_adaptive(model, state, [1.0], [True])
        assert state.last_alpha is not None
        update_standard(model, state, [1.0], [True])
        assert state.last_alpha is None


def cv_bank(sign_window=8):
    """Constant-velocity bank of one row and one dimension: r = 1, no
    process noise, unit initial variances, born at 0."""
    bank = kalman.FilterBank([1.0], (0.0, 0.0), (1.0, 1.0), sign_window)
    bank.resize([], np.zeros((1, 1)))
    return bank


def bank_update(bank, z, gamma=None):
    """Update the bank's one row with observation ``z``; returns (alpha, gamma)."""
    rows = np.zeros(1, dtype=np.intp)
    alpha, applied = kalman.update_adaptive(bank, rows, np.array([[z]]), gamma)
    return float(alpha[0]), float(applied[0])


class TestFilterBank:
    """The production per-axis filter on hand-computed cases."""

    def test_rejects_empty_sign_window(self):
        with pytest.raises(ValueError, match="sign_window"):
            kalman.FilterBank([1.0], (0.1, 0.1), (1.0, 1.0), 0)

    def test_first_update_hand_computed(self):
        # fresh history: gamma 1 (only the current sign), raw alpha
        # (2 - 1) / (4 - 1); the inflated prior is diag(3, 3) and the gain
        # [3/4, 0], so the unobserved velocity keeps its inflated variance
        bank = cv_bank()
        alpha, gamma = bank_update(bank, 2.0)
        assert gamma == pytest.approx(1.0)
        assert alpha == pytest.approx(1.0 / 3.0)
        np.testing.assert_allclose(bank.mean[0, 0], [1.5, 0.0])
        np.testing.assert_allclose(bank.cov[0, 0], [[0.75, 0.0], [0.0, 3.0]])

    def test_sign_window_includes_current_innovation(self):
        bank = cv_bank()
        bank_update(bank, 2.0)
        # second innovation is negative: window [+1, -1] -> gamma 0 -> alpha 1
        alpha, gamma = bank_update(bank, -10.0)
        assert gamma == pytest.approx(0.0)
        assert alpha == pytest.approx(1.0)

    def test_sign_window_truncates(self):
        # each observation lies beyond all earlier ones, so the innovation
        # signs are + - + + +; a window of 3 sees only the last three
        observations = (1.0, -10.0, 100.0, 1e3, 1e4)
        short, long = cv_bank(sign_window=3), cv_bank(sign_window=8)
        for z in observations:
            _, short_gamma = bank_update(short, z)
            _, long_gamma = bank_update(long, z)
        assert short.signs.shape[-1] == 3
        assert short.counts[0, 0] == len(observations)
        assert short_gamma == 1.0
        assert long_gamma == pytest.approx(3.0 / 5.0)

    def test_gamma_zero_gives_alpha_exactly_one(self):
        bank = kalman.FilterBank([1.0, 2.0], (0.1, 0.2), (1.0, 1.0), 8)
        bank.resize([], np.zeros((2, 2)))
        rng = np.random.default_rng(3)
        for _ in range(25):
            kalman.predict(bank)
            z = rng.normal(5.0, 20.0, size=(2, 2))
            alpha, gamma = kalman.update_adaptive(bank, np.array([1, 0]), z, gamma=0.0)
            assert (alpha == 1.0).all()
            assert (gamma == 0.0).all()

    def test_forced_gamma_one(self):
        mitigated, unmitigated = cv_bank(), cv_bank()
        for z in (1.0, -1.2, 1.1, -0.9, 8.0):
            mitigated_alpha, _ = bank_update(mitigated, z)
            unmitigated_alpha, gamma = bank_update(unmitigated, z, gamma=1.0)
            assert gamma == 1.0
        # alternating signs suppress the mitigated filter's adaptation
        assert unmitigated_alpha < mitigated_alpha


def _assert_close(actual, expected, what):
    """Equal within 1e-9 relative to the largest entry of ``expected``."""
    expected = np.asarray(expected, dtype=np.float64)
    scale = float(np.abs(expected).max(initial=0.0))
    np.testing.assert_allclose(actual, expected, rtol=1e-9, atol=1e-9 * scale, err_msg=what)


_variance = st.floats(1e-2, 1e2)
_coordinate = st.floats(-100.0, 100.0)


def _matrix(data, rows, cols, elements, label):
    """(rows, cols) float array drawn from ``data``."""
    row = st.lists(elements, min_size=cols, max_size=cols)
    drawn = data.draw(st.lists(row, min_size=rows, max_size=rows), label=label)
    return np.array(drawn, dtype=float)


class TestFilterBankOracleParity:
    """The per-axis bank against the dense oracle on the block-diagonal model."""

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_matches_dense_oracle(self, data):
        rows = data.draw(st.integers(1, 4), label="rows")
        dims = data.draw(st.integers(1, 6), label="dims")
        q = (data.draw(_variance, label="q_pos"), data.draw(_variance, label="q_vel"))
        p0 = (data.draw(_variance, label="p0_pos"), data.draw(_variance, label="p0_vel"))
        r = _matrix(data, 1, dims, _variance, "r")[0]
        window = data.draw(st.integers(1, 4), label="sign_window")
        gamma = data.draw(st.sampled_from([None, 0.0, 1.0]), label="gamma")
        born = _matrix(data, rows, dims, _coordinate, "born")

        bank = kalman.FilterBank(r, q, p0, window)
        bank.resize([], born)
        eye, zero = np.eye(dims), np.zeros((dims, dims))
        model = FilterModel(
            phi=np.block([[eye, eye], [zero, eye]]),
            H=np.hstack([eye, zero]),
            Q=np.diag(np.repeat(q, dims)),
            R=np.diag(r),
        )
        P0 = np.diag(np.repeat(p0, dims))
        dense = [
            initial_state(model, np.concatenate([row, np.zeros(dims)]), P0, window)
            for row in born
        ]

        for _ in range(data.draw(st.integers(1, 12), label="steps")):
            kalman.predict(bank)
            for state in dense:
                predict(model, state)
            updated = data.draw(
                st.lists(st.integers(0, rows - 1), unique=True, max_size=rows), label="updated"
            )
            if updated:
                masks = np.array(data.draw(st.lists(
                    st.lists(st.booleans(), min_size=dims, max_size=dims).filter(any),
                    min_size=len(updated), max_size=len(updated),
                ), label="masks"))
                z = _matrix(data, len(updated), dims, _coordinate, "z")
                z[~masks] = np.nan
                alpha, applied = kalman.update_adaptive(
                    bank, np.array(updated, dtype=np.intp), z, gamma
                )
                for m, row in enumerate(updated):
                    state = dense[row]
                    update_adaptive(model, state, z[m, masks[m]], masks[m], gamma_override=gamma)
                    _assert_close(alpha[m], state.last_alpha, "alpha")
                    _assert_close(applied[m], state.last_gamma, "gamma")
            for row, state in enumerate(dense):
                _assert_close(bank.mean[row, :, 0], state.x[:dims], "position")
                _assert_close(bank.mean[row, :, 1], state.x[dims:], "velocity")
                blocks = np.zeros((2 * dims, 2 * dims))
                for d in range(dims):
                    blocks[np.ix_([d, dims + d], [d, dims + d])] = bank.cov[row, d]
                _assert_close(blocks, state.P, "covariance")
