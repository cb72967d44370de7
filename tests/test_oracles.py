import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwcuts.errors import (
    DimensionMismatchError,
    EnumerationCapacityError,
    InfeasibleFixingError,
    InfeasibleOracleError,
)
from fwcuts.oracles import (
    EnumerationOracle,
    KnapsackOracle,
    KnapsackSubproblem,
    knapsack_dp_max,
    reduce_row,
)

from conftest import brute_force_max, brute_force_min, feasible_points, random_knapsack


class TestEnumerationOracle:
    def test_zero_direction_gives_lexicographic_smallest(self):
        assert np.array_equal(EnumerationOracle(4).minimize(np.zeros(4)), np.zeros(4))

    def test_square_sign_inspection(self):
        assert np.array_equal(EnumerationOracle(2).minimize(np.array([0.5, -0.5])), [0, 1])

    def test_knapsack_brute_force_cross_check(self):
        w, cap = [2, 3, 4], 5
        direction = np.array([-3.0, -4.0, -2.0])
        pts = feasible_points(w, cap)
        ref_val, ref_vec = brute_force_min(pts, direction)
        got = EnumerationOracle.for_knapsack(w, cap).minimize(direction)
        assert ref_val == -7.0
        assert np.array_equal(got, ref_vec)
        assert np.array_equal(got, [1, 1, 0])

    def test_dimension_guard(self):
        with pytest.raises(EnumerationCapacityError):
            EnumerationOracle(26)

    def test_infeasible_predicate(self):
        oracle = EnumerationOracle(3, batch_predicate=lambda pts: np.zeros(len(pts), bool))
        with pytest.raises(InfeasibleOracleError):
            oracle.minimize(np.zeros(3))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            EnumerationOracle(3).minimize(np.zeros(4))

    def test_feasible_vertices_sorted_and_feasible(self, rng):
        w, cap = random_knapsack(rng, k_max=8)
        V = EnumerationOracle.for_knapsack(w, cap).feasible_vertices()
        assert np.all(V @ w <= cap)
        assert np.array_equal(V, feasible_points(w, cap))


class TestKnapsackDp:
    def test_nonnegative_direction_returns_zero(self):
        sub = KnapsackSubproblem.plain([2, 3, 4], 5)
        v = KnapsackOracle(sub).minimize(np.array([0.0, 1.0, 2.0]))
        assert np.array_equal(v, [0, 0, 0])

    def test_minimization_example(self):
        sub = KnapsackSubproblem.plain([2, 3, 4], 5)
        v = KnapsackOracle(sub).minimize(np.array([-3.0, -4.0, -2.0]))
        assert np.array_equal(v, [1, 1, 0])

    def test_item_too_heavy(self):
        sub = KnapsackSubproblem.plain([5], 4)
        assert np.array_equal(KnapsackOracle(sub).minimize(np.array([-10.0])), [0])

    def test_max_all_nonpositive_profits(self):
        sub = KnapsackSubproblem.plain([2, 3], 4)
        value, sol = knapsack_dp_max(sub, np.array([-1.0, 0.0]))
        assert value == 0.0 and np.array_equal(sol, [0, 0])

    def test_max_example(self):
        sub = KnapsackSubproblem.plain([2, 3, 4], 5)
        value, sol = knapsack_dp_max(sub, np.array([3.0, 4.0, 2.0]))
        assert value == 7.0
        assert np.array_equal(sol, [1, 1, 0])

    def test_max_fractional_profits(self):
        sub = KnapsackSubproblem.plain([1, 1], 2)
        value, _ = knapsack_dp_max(sub, np.array([0.5, 0.25]))
        assert value == 0.75

    def test_zero_weight_items(self):
        sub = KnapsackSubproblem.plain([0, 3], 2)
        value, sol = knapsack_dp_max(sub, np.array([2.5, 7.0]))
        assert value == 2.5 and np.array_equal(sol, [1, 0])
        assert np.array_equal(KnapsackOracle(sub).minimize(np.array([-1.0, -1.0])), [1, 0])

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 10_000))
    def test_dp_value_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        w, cap = random_knapsack(rng, k_min=1, k_max=10, w_max=30)
        direction = rng.uniform(-1.0, 1.0, size=len(w))
        pts = feasible_points(w, cap)
        sub = KnapsackSubproblem.plain(w, cap)

        # evaluate both argmins with one evaluator so that "equal optimal
        # value" is not blurred by summation order
        _, ref_vec = brute_force_min(pts, direction)
        v = KnapsackOracle(sub).minimize(direction)
        assert v @ w <= cap
        assert float(v @ direction) == float(ref_vec @ direction)

        profits = rng.uniform(-2.0, 2.0, size=len(w))
        _, ref_sol = brute_force_max(pts, profits)
        value, sol = knapsack_dp_max(sub, profits)
        assert sol @ w <= cap
        assert float(sol @ profits) == pytest.approx(value, abs=1e-12)
        assert float(sol @ profits) == float(ref_sol @ profits)


class TestReduceRow:
    def test_integral_point_gives_empty_sentinel(self):
        sub, target = reduce_row([3, 5], 7, np.array([1.0, 0.0]))
        assert sub.size == 0 and len(target) == 0
        assert sub.fixed_one == (0,) and sub.fixed_zero == (1,)

    def test_documented_reduction(self):
        sub, target = reduce_row([3, 5, 4, 2], 10, np.array([1.0, 0.5, 0.0, 0.5]))
        assert sub.index_map == (1, 3)
        assert sub.fixed_one == (0,) and sub.fixed_zero == (2,)
        assert sub.capacity == 7
        assert np.array_equal(sub.weights, [5, 2])
        assert np.allclose(target, [0.5, 0.5])
        # the reduced point satisfies the reduced row
        assert float(sub.weights @ target) <= sub.capacity

    def test_heavy_fractional_item_stays_free(self):
        # item 1 weighs more than the reduced capacity but is fractional
        sub, target = reduce_row([3, 9], 10, np.array([1.0, 0.7]))
        assert sub.size == 1 and sub.capacity == 7
        assert sub.fixed_zero == () and sub.fixed_one == (0,)
        assert sub.index_map == (1,) and np.array_equal(target, [0.7])

    def test_point_violating_row_rejected(self):
        with pytest.raises(ValueError):
            reduce_row([3, 5], 7, np.array([1.0, 1.0]))

    def test_infeasible_fixing_detected(self):
        # both near-1 within integrality tolerance, loads sum past the capacity
        w = [10_000_000, 10_000_000]
        cap = 19_999_998
        x = np.array([1.0 - 1e-7, 1.0 - 1e-7])
        with pytest.raises(InfeasibleFixingError):
            reduce_row(w, cap, x)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10_000))
    def test_reembedded_points_stay_feasible(self, seed):
        rng = np.random.default_rng(seed)
        w, cap = random_knapsack(rng, k_min=2, k_max=10)
        # build an LP-like point: random coords, some integral
        x = rng.uniform(0.0, 1.0, size=len(w))
        x[rng.random(len(w)) < 0.5] = rng.integers(0, 2)
        if float(w @ x) > cap:
            x = x * (cap / float(w @ x))  # scale into the row
        sub, _ = reduce_row(w, cap, x)
        if sub.size == 0:
            return
        oracle = KnapsackOracle(sub)
        inner = oracle.minimize(rng.uniform(-1.0, 1.0, size=sub.size))
        full = np.zeros(len(w))
        full[list(sub.fixed_one)] = 1.0
        full[list(sub.index_map)] = inner
        assert float(w @ full) <= cap


def test_dp_runtime_scales_like_items_times_capacity():
    # smoke benchmark only: quadrupling k*C should not blow up superlinearly
    import time

    rng = np.random.default_rng(7)

    def timed(k, cap):
        w = rng.integers(1, 50, size=k)
        sub = KnapsackSubproblem.plain(w, cap)
        profits = rng.uniform(0.0, 1.0, size=k)
        t0 = time.perf_counter()
        for _ in range(5):
            knapsack_dp_max(sub, profits)
        return time.perf_counter() - t0

    small = timed(20, 2_000)
    big = timed(40, 4_000)
    assert big < 40 * max(small, 1e-4)  # very loose: linear would be ~4x
