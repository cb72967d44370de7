import dataclasses
import hashlib
import struct

import numpy as np
import pytest

from fwcuts.driver import LoopConfig, root_cut_loop
from fwcuts.errors import DimensionMismatchError, UndefinedBoundError
from fwcuts.lp import membership_test
from fwcuts.oracles import EnumerationOracle, KnapsackOracle, KnapsackSubproblem
from fwcuts.separation import (
    ActiveSet,
    ConvergenceBound,
    FwConfig,
    Membership,
    Separated,
    early_stop_check,
    fw_gap,
    iteration_bound,
    separate_lazy_afw,
    separate_vanilla,
)

from conftest import (
    brute_force_min,
    feasible_points,
    hull_projection,
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
            out = separate_lazy_afw(target, make_oracle(w, cap))
            assert isinstance(out.result, Membership)

    def test_knapsack_run_until_fires(self):
        w, cap = [2, 3, 4], 5
        out = separate_lazy_afw(np.array([1.0, 1.0, 1.0]), make_oracle(w, cap))
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

    def test_bound_dataclass(self):
        assert ConvergenceBound(diameter_sq=2.0, dist_sq=0.5).T == 29


class TestVanilla:
    def test_feasible_vertex_is_membership(self):
        w, cap = [2, 3, 4], 5
        out = separate_vanilla(np.array([1.0, 1.0, 0.0]), make_oracle(w, cap))
        assert isinstance(out.result, Membership)
        assert out.stats.stop_reason == "zero-gradient"
        assert out.stats.iterations == 0

    def test_one_dimensional_bound(self):
        # hull of {0, 1}: diameter^2 = 1; target 2 has distance^2 = 1
        config = FwConfig(step_rule="agnostic")
        out = separate_vanilla(np.array([2.0]), make_oracle([1], 1), config)
        assert isinstance(out.result, Separated)
        assert out.stats.iterations <= iteration_bound(1.0, 1.0) == 5

    def test_midpoint_of_two_vertices_is_membership(self):
        out = separate_vanilla(np.array([0.5, 0.5]), make_oracle([1, 1], 2))
        assert isinstance(out.result, Membership)


class TestLazyAfw:
    def test_inside_target_from_convex_combination(self, rng):
        w = rng.integers(1, 15, size=8)
        cap = int(0.5 * w.sum())
        V = feasible_points(w, cap)
        picks = rng.choice(len(V), size=5, replace=False)
        target = rng.dirichlet(np.ones(5)) @ V[picks]
        out = separate_lazy_afw(target, make_oracle(w, cap))
        assert isinstance(out.result, Membership)
        assert out.result.final_f < 1e-9

    def test_all_ones_outside(self, rng):
        for _ in range(10):
            w = rng.integers(1, 12, size=int(rng.integers(3, 13)))
            cap = int(0.6 * w.sum())
            target = np.ones(len(w))
            out = separate_lazy_afw(target, make_oracle(w, cap))
            assert isinstance(out.result, Separated)
            assert cut_is_valid(out.result.cut, w, cap)

    def test_bit_identical_reruns(self):
        target = np.array([0.9, 0.8, 0.7, 0.4])
        oracle = make_oracle([3, 5, 4, 2], 8)
        a = separate_lazy_afw(target, oracle)
        b = separate_lazy_afw(target, oracle)
        assert a.stats == b.stats
        assert type(a.result) is type(b.result)
        if isinstance(a.result, Separated):
            assert np.array_equal(a.result.cut.alpha, b.result.cut.alpha)
            assert a.result.cut.beta == b.result.cut.beta
            assert a.result.cut.violation_at_target == b.result.cut.violation_at_target

    def test_monotone_progress_on_non_dual_steps(self, rng):
        config = FwConfig(record_trace=True)
        for _ in range(15):
            w, cap = random_knapsack(rng, k_max=10)
            target = rng.uniform(-0.3, 1.3, size=len(w))
            out = separate_lazy_afw(target, make_oracle(w, cap), config)
            trace = out.stats.trace
            for (f_now, kind), (f_next, _) in zip(trace, trace[1:]):
                if kind != "dual":
                    assert f_next <= f_now + 1e-12

    def test_validity_and_violation_margin(self, rng):
        separated = 0
        for _ in range(60):
            w, cap = random_knapsack(rng, k_max=10)
            target = rng.uniform(-0.3, 1.3, size=len(w))
            out = separate_lazy_afw(target, make_oracle(w, cap))
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
            out = separate_lazy_afw(target, make_oracle(w, cap))
            V = feasible_points(w, cap)
            exact = membership_test(target, V)
            if isinstance(out.result, Membership):
                # distance can be at most sqrt(2 eps)
                assert exact.distance_lb <= np.sqrt(2e-9) + 1e-9
            elif exact.inside:
                pytest.fail("separator cut off a point inside the hull")

    def test_target_dimension_validated(self):
        with pytest.raises(DimensionMismatchError):
            separate_lazy_afw(np.ones(4), make_oracle([1, 2], 2))


class TestActiveSetInvariants:
    def test_random_update_sequences_stay_consistent(self, rng):
        for _ in range(30):
            k = int(rng.integers(2, 8))
            aset = ActiveSet(rng.integers(0, 2, size=k).astype(float))
            reference = {tuple(v): lam for lam, v in [(1.0, tuple(aset.vertex(0)))]}
            for _ in range(60):
                if rng.random() < 0.6 or len(aset) == 1:
                    gamma = float(rng.uniform(0.0, 1.0))
                    aset.fw_update(gamma, rng.integers(0, 2, size=k).astype(float))
                else:
                    i = int(rng.integers(0, len(aset)))
                    lam = aset.weight(i)
                    gamma_max = lam / (1.0 - lam) if lam < 1.0 else 0.0
                    aset.away_update(float(rng.uniform(0.0, gamma_max)), i)
                weights = [wt for wt, _ in aset.entries]
                assert abs(sum(weights) - 1.0) <= 1e-9
                recombined = sum(wt * v for wt, v in aset.entries)
                assert np.allclose(recombined, aset.iterate, atol=1e-9)
                vertices = [tuple(v) for _, v in aset.entries]
                assert len(set(vertices)) == len(vertices)  # pairwise distinct


class _ListActiveSet:
    """The active set as Python lists of weights and vertex arrays: the
    reference the matrix-backed ActiveSet must match bit for bit."""

    def __init__(self, vertex):
        self.weights = [1.0]
        self.vertices = [np.asarray(vertex, dtype=np.float64)]

    @property
    def iterate(self):
        return np.asarray(self.weights) @ np.stack(self.vertices)

    def extremes(self, gradient):
        dots = np.stack(self.vertices) @ gradient
        return int(np.argmin(dots)), int(np.argmax(dots))

    def fw_update(self, gamma, vertex):
        self.weights = [w * (1.0 - gamma) for w in self.weights]
        keys = [v.tobytes() for v in self.vertices]
        if vertex.tobytes() in keys:
            self.weights[keys.index(vertex.tobytes())] += gamma
        else:
            self.vertices.append(vertex)
            self.weights.append(gamma)
        self._prune()

    def away_update(self, gamma, i):
        self.weights = [w * (1.0 + gamma) for w in self.weights]
        self.weights[i] -= gamma
        self._prune()

    def _prune(self):
        keep = [i for i, w in enumerate(self.weights) if w >= 1e-12]
        self.weights = [self.weights[i] for i in keep]
        self.vertices = [self.vertices[i] for i in keep]


def _assert_same_set(aset, reference):
    assert len(aset) == len(reference.vertices)
    for i, (wt, v) in enumerate(aset.entries):
        assert wt == reference.weights[i]
        assert np.array_equal(v, reference.vertices[i])
        assert np.array_equal(aset.vertex(i), v)
    assert aset.iterate.tobytes() == reference.iterate.tobytes()


class TestActiveSetStorage:
    def test_matches_list_reference_through_growth_and_pruning(self, rng):
        grown = pruned = 0
        for _ in range(20):
            k = int(rng.integers(5, 21))
            start = rng.integers(0, 2, size=k).astype(float)
            aset, reference = ActiveSet(start), _ListActiveSet(start)
            for t in range(120):
                if rng.random() < 0.65 or len(aset) == 1:
                    gamma = 1.0 / (t + 2.0) if rng.random() < 0.9 else 1.0
                    v = rng.integers(0, 2, size=k).astype(float)
                    aset.fw_update(gamma, v)
                    reference.fw_update(gamma, v)
                else:
                    i = int(rng.integers(0, len(aset)))
                    lam = aset.weight(i)
                    gamma_max = lam / (1.0 - lam) if lam < 1.0 else 0.0
                    # a full step drops vertex i; a partial one only shrinks it
                    gamma = gamma_max if rng.random() < 0.5 else 0.5 * gamma_max
                    before = len(aset)
                    aset.away_update(gamma, i)
                    reference.away_update(gamma, i)
                    pruned += len(aset) < before
                grown = max(grown, len(aset))
                _assert_same_set(aset, reference)
                g = rng.normal(size=k)
                assert aset.extremes(g) == reference.extremes(g)
        assert grown > 16 and pruned > 0

    def test_prune_then_regrow_keeps_the_index(self):
        k = 20
        vertices = [np.eye(k)[i] for i in range(k)]
        aset = ActiveSet(vertices[0])
        for t, v in enumerate(vertices[1:], start=1):
            aset.fw_update(1.0 / (t + 1.0), v)
        assert len(aset) == 20  # past the initial 16 rows
        order = list(range(20))
        for dropped in (3, 0):  # drop rows, so later ones move up
            i = order.index(dropped)
            lam = aset.weight(i)
            aset.away_update(lam / (1.0 - lam), i)
            order.remove(dropped)
            # compaction keeps the order
            assert [int(np.argmax(v)) for _, v in aset.entries] == order
        assert len(aset) == 18
        # a vertex already present merges into its own row after compaction
        for i, j in enumerate(order):
            w_before = [wt for wt, _ in aset.entries]
            aset.fw_update(0.25, vertices[j])
            assert len(aset) == 18
            w_after = [wt for wt, _ in aset.entries]
            expected = [wt * 0.75 for wt in w_before]
            expected[i] += 0.25
            assert w_after == expected
        # and new vertices regrow the set past the old size
        for j in (0, 3):
            aset.fw_update(0.1, vertices[j])
        assert len(aset) == 20
        assert sorted(int(np.argmax(v)) for _, v in aset.entries) == list(range(20))
        assert abs(aset.weight_sum() - 1.0) < 1e-12

    def test_entries_are_copies(self):
        aset = ActiveSet(np.array([1.0, 0.0, 1.0]))
        aset.fw_update(0.5, np.array([0.0, 1.0, 0.0]))
        for _, v in aset.entries:
            v[:] = 7.0
        assert np.array_equal(aset.vertex(0), [1.0, 0.0, 1.0])
        assert np.array_equal(aset.iterate, [0.5, 0.5, 0.5])

    def test_vertex_views_are_read_only(self):
        aset = ActiveSet(np.array([1.0, 0.0]))
        aset.fw_update(0.5, np.array([0.0, 1.0]))
        for i in range(len(aset)):
            with pytest.raises(ValueError):
                aset.vertex(i)[0] = 3.0
        with pytest.raises(IndexError):
            aset.vertex(2)

    def test_extreme_ties_go_to_the_lowest_index(self):
        aset = ActiveSet(np.array([0.0, 0.0, 1.0]))
        aset.fw_update(0.5, np.array([1.0, 0.0, 0.0]))
        aset.fw_update(0.25, np.array([0.0, 1.0, 0.0]))
        aset.fw_update(0.1, np.array([0.0, 0.0, 0.0]))
        # rows 0-2 tie at the max, row 3 (the origin) is the unique min
        assert aset.extremes(np.array([1.0, 1.0, 1.0])) == (3, 0)
        # all four tie
        assert aset.extremes(np.zeros(3)) == (0, 0)
        # rows 0 and 3 tie at the min, rows 1 and 2 at the max
        assert aset.extremes(np.array([1.0, 1.0, 0.0])) == (0, 1)


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
    config = FwConfig(step_rule="agnostic")
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
        out = separate_vanilla(target, make_oracle(w, cap), config)
        assert isinstance(out.result, Separated)
        assert out.stats.stop_reason == "early-criterion"
        T = iteration_bound(squared_diameter(V), dist * dist)
        assert out.stats.iterations <= T


# ---------------------------------------------------------------- pinned outputs
#
# Exact outputs of the separator and the root loop, frozen from a run of the
# list-based active set with np.where in the knapsack DP.  Storage and
# temporaries may change; the floating-point operations and their order may
# not, so every counter, verdict and cut byte must repeat.  The digests hold
# for one numpy/BLAS build: a BLAS whose dot kernels round differently will
# change them.


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
        s.dual_steps,
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
    0: (73, 23, 14, 38, 6, 'early-criterion', '64ed1e45e176fb9d'),
    1: (16, 11, 0, 5, 4, 'early-criterion', 'e1e1b6e1f9bdee2f'),
    2: (500, 42, 319, 139, 9, 'iteration-limit', 'cd939d98a03cbfcd'),
    3: (17, 10, 0, 7, 4, 'early-criterion', '14c3531a6ccc6b37'),
    4: (110, 29, 31, 49, 11, 'epsilon-membership', '530d856b49d7ea26'),
    5: (117, 32, 38, 45, 12, 'epsilon-membership', '40641308894ad577'),
    6: (46, 19, 16, 14, 5, 'early-criterion', 'e9520a98a6739ef5'),
    7: (500, 38, 323, 140, 8, 'iteration-limit', '808511f70bb76c42'),
    8: (500, 42, 224, 233, 13, 'iteration-limit', '32c4badfb5f3f6af'),
    9: (61, 20, 17, 24, 8, 'early-criterion', '52f6c8e1aab9cd59'),
    10: (13, 10, 3, 0, 3, 'early-criterion', '54deffd11f6484b3'),
    11: (14, 8, 2, 5, 3, 'early-criterion', '4f0498954a3bb8bf'),
    12: (18, 11, 3, 4, 5, 'early-criterion', '1e92c74aee4fae7e'),
    13: (159, 32, 44, 83, 12, 'epsilon-membership', '0592b37830586c67'),
    14: (75, 17, 23, 36, 6, 'early-criterion', '50df895040eb4ea5'),
    15: (500, 43, 210, 248, 12, 'iteration-limit', 'a90494ff15c6643c'),
    16: (11, 9, 0, 2, 4, 'early-criterion', 'b9b654309b7e515e'),
    17: (500, 42, 250, 209, 11, 'iteration-limit', '4ed71a5ba64872c6'),
    18: (500, 39, 232, 229, 9, 'iteration-limit', 'da6a6959e1c9e1ff'),
    19: (93, 28, 34, 30, 11, 'epsilon-membership', '42626d9763d88425'),
    20: (500, 32, 262, 207, 8, 'iteration-limit', 'b34749f684c59a69'),
    21: (374, 32, 232, 110, 13, 'epsilon-membership', 'c2b6786e119906d5'),
    22: (322, 68, 148, 146, 7, 'early-criterion', 'aa6d5be786564303'),
    23: (112, 22, 45, 45, 10, 'early-criterion', '87eee10b05c7f33b'),
    24: (500, 27, 247, 226, 7, 'iteration-limit', 'fa7953a125e9c6fd'),
    25: (500, 29, 277, 195, 8, 'iteration-limit', '7750f1a537aad956'),
    26: (13, 9, 1, 4, 3, 'early-criterion', 'f44def48e5747d57'),
    27: (303, 18, 142, 145, 7, 'early-criterion', '1b5cfd5f394ecbd2'),
    28: (465, 38, 190, 236, 17, 'early-criterion', '358828978a0cc4ce'),
    29: (74, 28, 26, 26, 6, 'early-criterion', 'd2948e7e2c2d5d8b'),
    30: (135, 17, 42, 76, 7, 'early-criterion', 'da700c59577fa6a1'),
    31: (24, 14, 4, 8, 4, 'early-criterion', 'bdc3d1af15209f7b'),
    32: (26, 16, 3, 8, 4, 'early-criterion', 'ceca46b5f79148c6'),
    33: (23, 14, 5, 7, 4, 'early-criterion', '52b2a2668eb1145b'),
    34: (10, 7, 1, 3, 3, 'early-criterion', '7edfb79ed139afa1'),
    35: (34, 15, 9, 9, 8, 'early-criterion', '4370defa6beb5438'),
    36: (363, 29, 154, 180, 11, 'early-criterion', 'a215598a88056082'),
    37: (136, 24, 45, 67, 12, 'epsilon-membership', 'b0dbb0c848119a72'),
    38: (500, 31, 244, 226, 7, 'iteration-limit', '64ac7aa651856c8e'),
    39: (22, 14, 3, 6, 5, 'early-criterion', '15f01c6caf02c777'),
}

PINNED_ROOT_LOOPS = {
    3: (
        15, 36, 'round-limit',
        (('early-criterion', 34), ('iteration-limit', 11)),
        'e9c3c807a16419fb',
    ),
    4: (
        13, 30, 'no-cuts',
        (('early-criterion', 30), ('iteration-limit', 9)),
        '19aaeb2363446c18',
    ),
}


class TestPinnedOutputs:
    def test_single_row_separations_repeat_exactly(self):
        config = FwConfig(max_iters=500)
        got = {}
        for seed in PINNED_SEPARATIONS:
            w, cap, x = single_row_problem(seed)
            outcome = separate_lazy_afw(x, make_oracle(w, cap), config)
            got[seed] = _separation_fingerprint(outcome)
        assert got == PINNED_SEPARATIONS

    def test_root_loops_repeat_exactly(self):
        got = {}
        for seed in PINNED_ROOT_LOOPS:
            inst = random_small_instance(np.random.default_rng(seed), n=12, m=3)
            report = root_cut_loop(inst, FwConfig(max_iters=500), LoopConfig(max_rounds=15))
            got[seed] = _root_loop_fingerprint(report)
        assert got == PINNED_ROOT_LOOPS
