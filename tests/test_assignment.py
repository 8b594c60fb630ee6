import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from keytrack.assignment import greedy_assign, hungarian


def brute_force(costs: np.ndarray) -> tuple[float, list[tuple[int, int]]]:
    """Exhaustive minimum-cost assignment over all injections.

    Injections with the fewest forbidden (inf) pairs compete on the total of
    their finite pairs; the forbidden pairs are left out of the result.
    """
    n_rows, n_cols = costs.shape
    transposed = n_rows > n_cols
    if transposed:
        costs = costs.T
        n_rows, n_cols = n_cols, n_rows
    best = (math.inf, math.inf)
    best_pairs: list[tuple[int, int]] = []
    for cols in itertools.permutations(range(n_cols), n_rows):
        pairs = [(row, col) for row, col in enumerate(cols) if math.isfinite(costs[row, col])]
        key = (n_rows - len(pairs), sum(costs[row, col] for row, col in pairs))
        if key < best:
            best = key
            best_pairs = pairs
    if transposed:
        best_pairs = [(c, r) for r, c in best_pairs]
    return best[1], best_pairs


def total_cost(costs, pairs):
    return sum(costs[i, j] for i, j in pairs)


class TestHungarian:
    def test_identity_is_optimal(self):
        costs = np.array([[1.0, 5.0], [5.0, 1.0]])
        assert sorted(hungarian(costs)) == [(0, 0), (1, 1)]

    def test_rectangular(self):
        costs = np.array([[1.0, 9.0, 9.0], [9.0, 9.0, 2.0]])
        assert sorted(hungarian(costs)) == [(0, 0), (1, 2)]

    def test_forbidden_pairs_dropped(self):
        costs = np.array([[np.inf, 1.0], [np.inf, np.inf]])
        assert hungarian(costs) == [(0, 1)]

    def test_all_forbidden(self):
        costs = np.full((2, 2), np.inf)
        assert hungarian(costs) == []

    def test_gate_applied_after_solving(self):
        # gating post-solve keeps the cheap pair even though a global
        # re-solve under the gate could match differently
        costs = np.array([[1.0, 100.0], [100.0, 1.0]])
        assert sorted(hungarian(costs, gate=10.0)) == [(0, 0), (1, 1)]
        assert hungarian(costs, gate=0.5) == []

    def test_gate_boundary_kept(self):
        costs = np.array([[5.0]])
        assert hungarian(costs, gate=5.0) == [(0, 0)]

    def test_empty(self):
        assert hungarian(np.zeros((0, 3))) == []
        assert hungarian(np.zeros((3, 0))) == []

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            hungarian(np.array([[np.nan]]))

    @pytest.mark.parametrize(
        "costs, pairs",
        [
            ([[1.0, 1.0, 1.0]] * 3, [(0, 0), (1, 1), (2, 2)]),
            ([[1, 1, 2], [1, 1, 1]], [(0, 0), (1, 1)]),
            ([[0, 0], [0, 0], [1, 0]], [(0, 0), (1, 1)]),
            ([[1, 2], [1, 3]], [(0, 1), (1, 0)]),
            ([[np.inf] * 3, [1, 2, 3], [2, 1, 3]], [(1, 0), (2, 1)]),
        ],
        ids=["constant", "ties", "tall", "shared_argmin", "forbidden_row"],
    )
    def test_tied_optima_resolve_as_before(self, costs, pairs):
        # among equal-cost matchings, the pairs linear_sum_assignment chose
        assert hungarian(np.array(costs, dtype=float)) == pairs

    def test_matches_brute_force_small_batch(self, rng):
        for trial in range(300):
            shape = rng.integers(1, 7 if trial % 3 else 5, size=2)
            if trial % 3 == 0:
                costs = rng.uniform(0, 10, size=shape)
            elif trial % 3 == 1:
                costs = rng.integers(0, 3, size=shape).astype(float)
            else:
                costs = np.full(shape, float(rng.integers(0, 3)))
            if rng.random() < 0.3:
                mask = rng.random(size=shape) < 0.2
                costs[mask] = np.inf
            expected, best_pairs = brute_force(costs)
            pairs = hungarian(costs)
            assert len(pairs) == len(best_pairs)
            assert total_cost(costs, pairs) == pytest.approx(expected)


class TestGreedy:
    def test_takes_global_minimum_first(self):
        costs = np.array([[2.0, 3.0], [1.0, 8.0]])
        pairs = greedy_assign(costs)
        assert pairs[0] == (1, 0)
        assert sorted(pairs) == [(0, 1), (1, 0)]

    def test_tie_breaks_lowest_row_then_column(self):
        costs = np.array([[5.0, 1.0], [1.0, 5.0]])
        pairs = greedy_assign(costs)
        assert pairs[0] == (0, 1)

    def test_stops_at_inf(self):
        costs = np.array([[1.0, np.inf], [np.inf, np.inf]])
        assert greedy_assign(costs) == [(0, 0)]

    def test_gate(self):
        costs = np.array([[1.0, 50.0], [50.0, 20.0]])
        assert greedy_assign(costs, gate=10.0) == [(0, 0)]

    def test_empty(self):
        assert greedy_assign(np.zeros((0, 0))) == []

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            greedy_assign(np.array([[np.nan]]))

    def test_never_beats_hungarian(self, rng):
        for _ in range(300):
            shape = rng.integers(1, 7, size=2)
            costs = rng.uniform(0, 10, size=shape)
            h = hungarian(costs)
            g = greedy_assign(costs)
            assert len(g) == len(h)
            assert total_cost(costs, g) >= total_cost(costs, h) - 1e-12


@settings(deadline=None, max_examples=60)
@given(
    costs=arrays(
        np.float64,
        st.tuples(st.integers(1, 4), st.integers(1, 4)),
        elements=st.floats(0, 100, allow_nan=False),
    )
)
def test_hungarian_optimal_property(costs):
    expected, _ = brute_force(costs)
    pairs = hungarian(costs)
    assert total_cost(costs, pairs) == pytest.approx(expected)


@settings(deadline=None, max_examples=60)
@given(
    costs=arrays(
        np.float64,
        st.tuples(st.integers(1, 5), st.integers(1, 5)),
        elements=st.floats(0, 100, allow_nan=False),
    )
)
def test_greedy_geq_hungarian_property(costs):
    assert total_cost(costs, greedy_assign(costs)) >= total_cost(
        costs, hungarian(costs)
    ) - 1e-9
