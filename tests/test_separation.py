import dataclasses
import hashlib
import struct

import numpy as np
import pytest

from fwcuts.driver import LoopConfig, root_cut_loop
from fwcuts.errors import DimensionMismatchError, UndefinedBoundError
from fwcuts.oracles import (
    EnumerationOracle,
    KnapsackOracle,
    KnapsackSubproblem,
    knapsack_dp_max,
)
from fwcuts.separation import (
    MEMBERSHIP_EPSILON,
    FwConfig,
    Membership,
    Separated,
    early_stop_check,
    fw_gap,
    iteration_bound,
    separate_min_norm_point,
    separate_vanilla,
)

from conftest import (
    brute_force_min,
    feasible_points,
    hull_projection,
    membership_test,
    random_knapsack,
    random_small_instance,
    single_row_problem,
    squared_diameter,
)


def make_oracle(weights, capacity):
    return KnapsackOracle(KnapsackSubproblem.plain(weights, capacity))


def cut_is_valid(cut, weights, capacity, tol=1e-9):
    V = feasible_points(weights, capacity)
    return float(np.max(V @ cut.alpha)) <= cut.beta + tol


class TestFwGap:
    def test_zero_at_a_matched_vertex(self):
        v = np.array([1.0, 0.0])
        assert fw_gap(v, v, v) == 0.0

    def test_unit_square_value(self):
        # over the 4 square vertices, (0,1) minimizes <(0.5,-0.5), .>
        square = feasible_points([0, 0], 0)
        _, argmin = brute_force_min(square, np.array([0.5, -0.5]))
        assert np.array_equal(argmin, [0, 1])
        assert fw_gap([1.0, 0.0], [0.5, 0.5], argmin) == 1.0

    def test_constrained_square(self):
        pts = feasible_points([1, 1], 1)
        assert len(pts) == 3
        _, argmin = brute_force_min(pts, np.array([-0.25, 0.0]))
        assert np.array_equal(argmin, [1, 0]) or np.array_equal(argmin, [0, 0])
        # gradient at iterate (0,0) is (-0.25, 0); its oracle answer is (1,0)
        _, v = brute_force_min(pts, np.array([0.0, 0.0]) - np.array([0.25, 0.0]))
        assert fw_gap([0.0, 0.0], [0.25, 0.0], [0.0, 0.0]) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            fw_gap([0.0, 1.0], [0.0], [0.0, 1.0])


class TestEarlyStopCheck:
    def test_unit_interval_example(self):
        fires, cut = early_stop_check(np.array([1.0]), np.array([1.5]), np.array([1.0]))
        assert fires
        assert np.allclose(cut.alpha, [0.5]) and cut.beta == pytest.approx(0.5)
        for v in (0.0, 1.0):  # valid on both vertices of {0,1}
            assert cut.alpha[0] * v <= cut.beta + 1e-12
        assert cut.violation_at_target == pytest.approx(0.25)
        assert cut.violation_at_target >= 0.5 * 0.25 - 1e-12

    def test_does_not_fire_without_margin(self):
        # gap equals the half squared distance exactly: must not fire
        assert fw_gap([0.0], [1.0], [0.5]) == 0.5 * 1.0
        fires, cut = early_stop_check(np.array([0.0]), np.array([1.0]), np.array([0.5]))
        assert not fires and cut is None

    def test_interior_target_never_separates(self, rng):
        for _ in range(20):
            w, cap = random_knapsack(rng, k_max=8)
            V = feasible_points(w, cap)
            lam = rng.dirichlet(np.ones(min(len(V), 4)))
            picks = rng.choice(len(V), size=len(lam), replace=False)
            target = lam @ V[picks]
            out = separate_min_norm_point(target, make_oracle(w, cap))
            assert isinstance(out.result, Membership)

    def test_knapsack_run_until_fires(self):
        w, cap = [2, 3, 4], 5
        out = separate_min_norm_point(np.array([1.0, 1.0, 1.0]), make_oracle(w, cap))
        assert isinstance(out.result, Separated)
        assert out.stats.stop_reason == "early-criterion"
        cut = out.result.cut
        assert cut_is_valid(cut, w, cap)
        assert cut.violation_at_target >= out.stats.final_f - 1e-9


class TestIterationBound:
    def test_unit_case(self):
        assert iteration_bound(1.0, 1.0) == 5

    def test_arithmetic(self):
        assert iteration_bound(2.0, 0.5) == 29

    def test_zero_distance_is_undefined(self):
        with pytest.raises(UndefinedBoundError):
            iteration_bound(1.0, 0.0)

    def test_floor_at_one(self):
        assert iteration_bound(1.0, 100.0) == 1


class TestVanilla:
    def test_feasible_vertex_is_membership(self):
        w, cap = [2, 3, 4], 5
        out = separate_vanilla(np.array([1.0, 1.0, 0.0]), make_oracle(w, cap))
        assert isinstance(out.result, Membership)
        assert out.stats.stop_reason == "zero-gradient"
        assert out.stats.iterations == 0

    def test_one_dimensional_bound(self):
        # hull of {0, 1}: diameter^2 = 1; target 2 has distance^2 = 1
        out = separate_vanilla(np.array([2.0]), make_oracle([1], 1))
        assert isinstance(out.result, Separated)
        assert out.stats.iterations <= iteration_bound(1.0, 1.0) == 5

    def test_midpoint_of_two_vertices_is_never_cut(self):
        # agnostic steps approach an inside point only at rate O(1/t), so a
        # small cap ends undecided, never with a cut
        target = np.array([0.5, 0.5])
        for max_iters in (1, 2, 5, 50):
            out = separate_vanilla(target, make_oracle([1, 1], 2), FwConfig(max_iters=max_iters))
            assert out.cut is None
            assert out.stats.stop_reason == "iteration-limit"


class TestLazyAfw:
    """Wolfe's min-norm-point method, the separator the root loop calls as
    `fwcuts.driver.separate_lazy_afw`."""

    def test_inside_target_from_convex_combination(self, rng):
        w = rng.integers(1, 15, size=8)
        cap = int(0.5 * w.sum())
        V = feasible_points(w, cap)
        picks = rng.choice(len(V), size=5, replace=False)
        target = rng.dirichlet(np.ones(5)) @ V[picks]
        out = separate_min_norm_point(target, make_oracle(w, cap))
        assert isinstance(out.result, Membership)
        assert out.result.final_f < 1e-9

    def test_all_ones_outside(self, rng):
        for _ in range(10):
            w = rng.integers(1, 12, size=int(rng.integers(3, 13)))
            cap = int(0.6 * w.sum())
            target = np.ones(len(w))
            out = separate_min_norm_point(target, make_oracle(w, cap))
            assert isinstance(out.result, Separated)
            assert cut_is_valid(out.result.cut, w, cap)

    def test_bit_identical_reruns(self):
        target = np.array([0.9, 0.8, 0.7, 0.4])
        oracle = make_oracle([3, 5, 4, 2], 8)
        a = separate_min_norm_point(target, oracle)
        b = separate_min_norm_point(target, oracle)
        assert a.stats == b.stats
        assert type(a.result) is type(b.result)
        if isinstance(a.result, Separated):
            assert np.array_equal(a.result.cut.alpha, b.result.cut.alpha)
            assert a.result.cut.beta == b.result.cut.beta
            assert a.result.cut.violation_at_target == b.result.cut.violation_at_target

    def test_f_strictly_decreases_across_major_cycles(self, rng):
        # each major cycle calls the oracle once, at its iterate y with
        # direction y - x, so the oracle sees f = 0.5*||y - x||^2 of each cycle
        seen = []

        class RecordingOracle(KnapsackOracle):
            def minimize(self, direction):
                seen.append(0.5 * float(direction @ direction))
                return super().minimize(direction)

        minor_cycles = 0
        for _ in range(30):
            w, cap = random_knapsack(rng, k_max=12)
            target = rng.uniform(-0.3, 1.3, size=len(w))
            seen.clear()
            oracle = RecordingOracle(KnapsackSubproblem.plain(w, cap))
            out = separate_min_norm_point(target, oracle)
            assert len(seen) == out.stats.oracle_calls
            f = seen[1:]  # the first call, for the starting vertex, gets -x
            assert all(after < before for before, after in zip(f, f[1:]))
            minor_cycles += out.stats.lazy_hits
        assert minor_cycles > 0

    def test_validity_and_violation_margin(self, rng):
        separated = 0
        for _ in range(60):
            w, cap = random_knapsack(rng, k_max=10)
            target = rng.uniform(-0.3, 1.3, size=len(w))
            out = separate_min_norm_point(target, make_oracle(w, cap))
            if not isinstance(out.result, Separated):
                continue
            separated += 1
            cut = out.result.cut
            assert cut_is_valid(cut, w, cap)
            if out.stats.stop_reason == "early-criterion":
                assert cut.violation_at_target >= out.stats.final_f - 1e-9
        assert separated > 10

    def test_membership_soundness_against_exact_lp(self, rng):
        for _ in range(25):
            w, cap = random_knapsack(rng, k_max=9)
            target = rng.uniform(0.0, 1.0, size=len(w))
            out = separate_min_norm_point(target, make_oracle(w, cap))
            V = feasible_points(w, cap)
            exact = membership_test(target, V)
            if isinstance(out.result, Membership):
                # distance can be at most sqrt(2 eps)
                assert exact.distance_lb <= np.sqrt(2e-9) + 1e-9
            elif exact.inside:
                pytest.fail("separator cut off a point inside the hull")

    def test_target_dimension_validated(self):
        with pytest.raises(DimensionMismatchError):
            separate_min_norm_point(np.ones(4), make_oracle([1, 2], 2))


class TestIterationLimitCut:
    """A run that hits `max_iters` still returns a cut when one last oracle
    call shows the target violates <x - y, u> <= <x - y, v>; the driver
    lifts and pools such cuts like early-stop cuts."""

    @staticmethod
    def assert_valid_and_violated(out, w, cap, target):
        cut = out.cut
        assert out.stats.stop_reason == "iteration-limit"
        assert cut.source == "fw-converged"
        best, _ = knapsack_dp_max(KnapsackSubproblem.plain(w, cap), cut.alpha)
        assert best <= cut.beta + 1e-9
        assert cut.violation(target) > 1e-9
        assert cut.violation_at_target == pytest.approx(cut.violation(target), abs=1e-12)

    def test_stalled_production_run(self):
        # without the cap, the duality test certifies the cut in major cycle 20
        w, cap, target = single_row_problem(0)
        out = separate_min_norm_point(target, make_oracle(w, cap), FwConfig(max_iters=15))
        assert out.is_separated
        self.assert_valid_and_violated(out, w, cap, target)

    def test_small_caps_on_random_knapsacks(self, rng):
        cuts = {separate_min_norm_point: 0, separate_vanilla: 0}
        for _ in range(40):
            w, cap = random_knapsack(rng, k_max=10)
            target = rng.uniform(-0.3, 1.3, size=len(w))
            for max_iters in range(1, 6):
                for solver in cuts:
                    out = solver(target, make_oracle(w, cap), FwConfig(max_iters=max_iters))
                    if out.stats.stop_reason == "iteration-limit" and out.is_separated:
                        self.assert_valid_and_violated(out, w, cap, target)
                        cuts[solver] += 1
        assert min(cuts.values()) >= 20


def _verdict_cases(seed, count):
    """(weights, capacity, target, inside) of `count` seeded knapsacks with
    k <= 12.  Even cases are convex combinations of up to k + 1 feasible
    points; odd ones lie 1e-3 to 0.3 outside the hull, measured by
    `hull_projection`, so both verdicts are clear of the membership
    tolerance sqrt(2 * MEMBERSHIP_EPSILON)."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        w, cap = random_knapsack(rng, k_min=2, k_max=12)
        V = feasible_points(w, cap)
        if len(cases) % 2 == 0:
            m = int(rng.integers(1, min(len(V), len(w) + 1) + 1))
            picks = rng.choice(len(V), size=m, replace=False)
            cases.append((w, cap, rng.dirichlet(np.ones(m)) @ V[picks], True))
            continue
        z = rng.uniform(-0.3, 1.3, size=len(w))
        p, dist = hull_projection(z, V)
        if dist < 1e-3:
            continue
        # every point on the ray from p through z projects to p
        target = p + (z - p) * (10.0 ** rng.uniform(-3.0, np.log10(0.3)) / dist)
        if hull_projection(target, V)[1] >= 1e-3:
            cases.append((w, cap, target, False))
    return cases


def test_verdicts_match_exact_hull_distance():
    assert np.sqrt(2 * MEMBERSHIP_EPSILON) < 1e-3
    config = FwConfig(max_iters=500)
    for w, cap, target, inside in _verdict_cases(20240611, 240):
        out = separate_min_norm_point(target, make_oracle(w, cap), config)
        if inside:
            assert isinstance(out.result, Membership), out.stats
            continue
        assert out.is_separated, out.stats
        best, _ = knapsack_dp_max(KnapsackSubproblem.plain(w, cap), out.cut.alpha)
        assert best <= out.cut.beta + 1e-9
        assert out.cut.violation(target) > 0.0


def test_gradient_matches_central_differences(rng):
    # f(y) = 0.5 ||y - x||^2 and its gradient y - x, checked by finite differences
    h = 1e-6
    for _ in range(100):
        k = int(rng.integers(1, 12))
        x = rng.normal(size=k)
        y = rng.normal(size=k)

        def f(z):
            return 0.5 * float((z - x) @ (z - x))

        grad = y - x
        for i in rng.choice(k, size=min(3, k), replace=False):
            e = np.zeros(k)
            e[i] = h
            fd = (f(y + e) - f(y - e)) / (2 * h)
            denom = max(1.0, abs(grad[i]))
            assert abs(fd - grad[i]) / denom < 1e-6


def test_vanilla_bound_smoke(rng):
    # small version of the worst-case certification bound check
    checked = 0
    while checked < 15:
        w, cap = random_knapsack(rng, k_min=2, k_max=8)
        V = feasible_points(w, cap)
        if len(V) < 2:
            continue
        target = rng.uniform(-0.4, 1.4, size=len(w))
        _, dist = hull_projection(target, V)
        if dist < 0.2:
            continue
        checked += 1
        out = separate_vanilla(target, make_oracle(w, cap))
        assert isinstance(out.result, Separated)
        assert out.stats.stop_reason == "early-criterion"
        T = iteration_bound(squared_diameter(V), dist * dist)
        assert out.stats.iterations <= T


# ---------------------------------------------------------------- pinned outputs
#
# Exact outputs of the separator and the root loop, frozen from a run of
# Wolfe's min-norm-point separator, which solves the KKT system of the
# support afresh in each cycle from the KKT matrix it keeps up to date.
# Storage and temporaries may change; the floating-point operations and
# their order may not, so every counter, verdict and cut byte must repeat.
# The digests hold for one numpy/BLAS build: a BLAS whose dot kernels round
# differently will change them.


def _separation_fingerprint(outcome):
    s = outcome.stats
    h = hashlib.sha256(struct.pack("<d", s.final_f))
    cut = outcome.cut
    if cut is not None:
        h.update(cut.alpha.tobytes())
        h.update(struct.pack("<dd", cut.beta, cut.violation_at_target))
    return (
        s.iterations,
        s.oracle_calls,
        s.lazy_hits,
        s.away_steps,
        s.stop_reason,
        h.hexdigest()[:16],
    )


def _root_loop_fingerprint(report):
    h = hashlib.sha256(np.asarray(report.bound_history, dtype=np.float64).tobytes())
    for rec in report.cut_pool:
        h.update(struct.pack("<qq", rec.row_index, rec.round_added))
        h.update(rec.alpha.tobytes())
        h.update(struct.pack("<dd", rec.beta, rec.violation_at_add))
    return (
        report.rounds,
        report.cuts_added,
        report.loop_stop,
        tuple(report.stop_reason_counts.items()),
        h.hexdigest()[:16],
    )


PINNED_SEPARATIONS = {
    0: (20, 22, 9, 9, 'early-criterion', '4810bb8a49f31c32'),
    1: (13, 15, 3, 3, 'early-criterion', 'aadeff52b2792894'),
    2: (17, 18, 2, 2, 'epsilon-membership', 'e8fae76c0416f952'),
    3: (7, 9, 1, 1, 'early-criterion', '3110b0a5fe46722a'),
    4: (13, 14, 0, 0, 'epsilon-membership', '2af7886f21774212'),
    5: (14, 15, 0, 0, 'epsilon-membership', 'fe5fbca5966f4652'),
    6: (14, 16, 6, 6, 'early-criterion', '453a9b19c06787bd'),
    7: (33, 35, 19, 19, 'early-criterion', 'ed3e8c86ebc05425'),
    8: (17, 18, 3, 3, 'epsilon-membership', '4eb5960d6a08cc7c'),
    9: (13, 15, 3, 3, 'early-criterion', '556acb245728a96c'),
    10: (10, 12, 1, 1, 'early-criterion', '9cbbd61832d882f8'),
    11: (7, 9, 3, 3, 'early-criterion', '98ec890530fc4109'),
    12: (7, 9, 1, 1, 'early-criterion', '3e601aa610fc4ce7'),
    13: (16, 17, 1, 1, 'epsilon-membership', '9d3db63728ecd3c3'),
    14: (13, 15, 6, 6, 'early-criterion', '91ee06f3bd420e85'),
    15: (21, 22, 5, 5, 'epsilon-membership', '4ddc0da417f1cf84'),
    16: (6, 8, 1, 1, 'early-criterion', '8d87acd3b453798a'),
    17: (19, 20, 5, 5, 'epsilon-membership', '2da32cf2a882ab2c'),
    18: (32, 33, 16, 16, 'epsilon-membership', 'a5d1b24d0e266baa'),
    19: (12, 13, 0, 0, 'epsilon-membership', '003cfb511d1659e0'),
    20: (33, 35, 19, 19, 'early-criterion', 'bfd2e137ffc2b494'),
    21: (10, 11, 0, 0, 'epsilon-membership', '015dcec4e402943b'),
    22: (24, 26, 11, 11, 'early-criterion', '8454e4d10ebc9fe6'),
    23: (9, 11, 2, 2, 'early-criterion', '90967f2ff99d8502'),
    24: (21, 23, 11, 11, 'early-criterion', 'acddd567057a40be'),
    25: (19, 21, 8, 8, 'early-criterion', 'fa499a605da98dca'),
    26: (6, 8, 1, 1, 'early-criterion', '9c803453cf352f8f'),
    27: (10, 12, 3, 3, 'early-criterion', '3fd7c8ab23cf3e58'),
    28: (18, 20, 6, 6, 'early-criterion', '2eb56ef6b8067c63'),
    29: (16, 18, 4, 4, 'early-criterion', '337f377205a4a63a'),
    30: (10, 12, 3, 3, 'early-criterion', '9e86f7767095160a'),
    31: (11, 13, 2, 2, 'early-criterion', '22dc508ec6abed6b'),
    32: (17, 19, 7, 7, 'early-criterion', 'face03892e68d029'),
    33: (8, 10, 2, 2, 'early-criterion', 'fdf9b549c707830c'),
    34: (5, 7, 1, 1, 'early-criterion', '9cc3d46d51b2cbcf'),
    35: (7, 9, 0, 0, 'early-criterion', '0127098f6a14203d'),
    36: (17, 19, 7, 7, 'early-criterion', 'fe788a632cc18bf4'),
    37: (10, 11, 1, 1, 'epsilon-membership', '70286cc4f743d318'),
    38: (23, 25, 14, 14, 'early-criterion', '32728af745e5bf7a'),
    39: (8, 10, 1, 1, 'early-criterion', '07369d37c0ef2057'),
}

# recorded with the bounded dual simplex of fwcuts.lp: an LP change that picks
# another optimum among ties changes these pins, not the separations above
PINNED_ROOT_LOOPS = {
    3: (
        9, 21, 'no-cuts',
        (('early-criterion', 21), ('epsilon-membership', 6)),
        'b3b06eb68b1996f5',
    ),
    4: (
        9, 22, 'no-cuts',
        (('early-criterion', 22), ('epsilon-membership', 5)),
        '6f4c45f74af15d1a',
    ),
}


class TestPinnedOutputs:
    def test_single_row_separations_repeat_exactly(self):
        config = FwConfig(max_iters=500)
        got = {}
        for seed in PINNED_SEPARATIONS:
            w, cap, x = single_row_problem(seed)
            outcome = separate_min_norm_point(x, make_oracle(w, cap), config)
            got[seed] = _separation_fingerprint(outcome)
        assert got == PINNED_SEPARATIONS

    def test_root_loops_repeat_exactly(self):
        got = {}
        for seed in PINNED_ROOT_LOOPS:
            inst = random_small_instance(np.random.default_rng(seed), n=12, m=3)
            report = root_cut_loop(inst, FwConfig(max_iters=500), LoopConfig(max_rounds=15))
            got[seed] = _root_loop_fingerprint(report)
        assert got == PINNED_ROOT_LOOPS
