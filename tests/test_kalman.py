from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keytrack.kalman import (
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
