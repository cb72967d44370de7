import numpy as np
import pytest

import fwcuts.driver as driver
from fwcuts.driver import LoopConfig, root_cut_loop
from fwcuts.lifting import lift_cut
from fwcuts.oracles import KnapsackOracle, KnapsackSubproblem, knapsack_dp_max, reduce_row
from fwcuts.separation import Cut, FwConfig, separate_min_norm_point

from conftest import MICROBENCH_SEED, cb_style_instance, feasible_points, reference_lift_cut


def make_cut(alpha, beta, violation=1.0):
    return Cut(np.asarray(alpha, dtype=float), float(beta), violation, source="early-stop")


def max_lhs(alpha, weights, capacity):
    V = feasible_points(weights, capacity)
    return float(np.max(V @ np.asarray(alpha, dtype=float)))


class TestLiftCut:
    def test_identity_when_nothing_fixed(self):
        sub = KnapsackSubproblem.plain([2, 3], 4)
        lifted = lift_cut(make_cut([1.0, 0.5], 1.0), sub)
        assert np.array_equal(lifted.alpha_full, [1.0, 0.5])
        assert lifted.beta_full == 1.0
        assert lifted.row_max == 1.0

    def test_embedded_downlift_example(self):
        sub, target = reduce_row([3, 3, 3], 6, np.array([1.0, 0.5, 0.5]))
        assert sub.fixed_one == (0,) and sub.index_map == (1, 2)
        lifted = lift_cut(make_cut([1.0, 1.0], 1.0), sub)
        assert np.allclose(lifted.alpha_full, [1.0, 1.0, 1.0])
        assert lifted.beta_full == pytest.approx(2.0)
        assert max_lhs(lifted.alpha_full, [3, 3, 3], 6) <= lifted.beta_full + 1e-9

    def test_beta_full_accounts_for_one_fixings(self):
        sub, _ = reduce_row([2, 5, 4], 9, np.array([1.0, 0.5, 0.0]))
        cut = make_cut([0.7], 0.2)
        lifted = lift_cut(cut, sub)
        down = sum(lifted.alpha_full[j] for j in sub.fixed_one)
        assert lifted.beta_full == pytest.approx(cut.beta + down)
        assert np.allclose(lifted.alpha_full[list(sub.index_map)], cut.alpha)


def _random_pipeline_case(rng, n_max=14):
    """Random row + LP-like point whose reduction separates, or None."""
    n = int(rng.integers(4, n_max + 1))
    w = rng.integers(1, 10, size=n)
    cap = int(0.55 * w.sum())
    x = np.empty(n)
    for j in range(n):
        u = rng.random()
        x[j] = 0.0 if u < 0.3 else (1.0 if u < 0.55 else rng.uniform(0.05, 0.95))
    if float(w @ x) > cap:
        return None
    sub, target = reduce_row(w, cap, x)
    if sub.size == 0:
        return None
    outcome = separate_min_norm_point(target, KnapsackOracle(sub))
    if not outcome.is_separated:
        return None
    return w, cap, x, sub, target, outcome.cut


class TestLiftingPipeline:
    def test_validity_and_violation_preserved(self, rng):
        done = 0
        while done < 25:
            case = _random_pipeline_case(rng)
            if case is None:
                continue
            done += 1
            w, cap, x, sub, target, reduced = case
            reduced_violation = float(reduced.alpha @ target - reduced.beta)
            V = feasible_points(w, cap)
            lifted = lift_cut(reduced, sub)
            assert float(np.max(V @ lifted.alpha_full)) <= lifted.beta_full + 1e-9
            assert float(lifted.alpha_full @ x - lifted.beta_full) == pytest.approx(
                reduced_violation, abs=1e-9
            )

    def test_dp_certificate_on_larger_rows(self, rng):
        done = 0
        while done < 10:
            case = _random_pipeline_case(rng, n_max=30)
            if case is None:
                continue
            done += 1
            w, cap, _, sub, _, reduced = case
            lifted = lift_cut(reduced, sub)
            best, _ = knapsack_dp_max(KnapsackSubproblem.plain(w, cap), lifted.alpha_full)
            assert best <= lifted.beta_full + 1e-9
            assert lifted.row_max == best

    def test_each_partial_step_stays_valid(self, rng):
        # every prefix of the lifting sequence is valid for the partially
        # freed knapsack: the free and introduced items, with the weight of
        # the one-fixed items not yet introduced still taken off the capacity
        done = 0
        while done < 8:
            case = _random_pipeline_case(rng, n_max=10)
            if case is None or len(case[3].fixed_one) == 0:
                continue
            done += 1
            w, cap, _, sub, _, reduced = case
            lifted = lift_cut(reduced, sub)
            alpha = lifted.alpha_full
            rhs = float(reduced.beta)
            capacity = sub.capacity
            processed = list(sub.index_map)
            for j in sub.fixed_one:
                rhs += alpha[j]
                capacity += int(w[j])
                processed.append(j)
                V = feasible_points(w[processed], capacity)
                assert float(np.max(V @ alpha[processed])) <= rhs + 1e-9
            assert rhs == lifted.beta_full
            for j in sub.fixed_zero:
                processed.append(j)
                V = feasible_points(w[processed], capacity)
                assert float(np.max(V @ alpha[processed])) <= rhs + 1e-9


def _same_bits(lifted, reference):
    alpha_full, beta_full = reference
    assert lifted.alpha_full.tobytes() == alpha_full.tobytes()
    assert np.float64(lifted.beta_full).tobytes() == np.float64(beta_full).tobytes()


def _random_lifting_case(seed):
    """Seeded (subproblem, reduced cut) with zero weights, items heavier than
    the row capacity, and a right-hand side that is often above the reduced
    maximum (which makes down-lifting coefficients negative).  The cut need
    not be valid: only the arithmetic is compared."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 16))
    labels = rng.choice(3, size=n, p=[0.5, 0.25, 0.25])  # free, at one, at zero
    labels[int(rng.integers(n))] = 0
    w = rng.integers(1, 25, size=n)
    w[rng.random(n) < rng.choice([0.1, 0.5])] = 0
    cap = int(w[labels == 1].sum() + rng.integers(0, 40))
    heavy = (rng.random(n) < 0.15) & (labels != 1)
    w[heavy] = cap + rng.integers(1, 20, size=int(heavy.sum()))
    free, one, zero = (tuple(np.flatnonzero(labels == i).tolist()) for i in range(3))
    sub = KnapsackSubproblem(
        w[list(free)], cap - int(w[list(one)].sum()), free, zero, one,
        row_weights=w, row_capacity=cap,
    )
    alpha = rng.normal(size=len(free))
    alpha[rng.random(len(free)) < 0.2] = 0.0
    alpha[0] = abs(alpha[0]) + 0.1
    beta = float(rng.uniform(-0.5, 1.5) * np.abs(alpha).sum())
    return sub, make_cut(alpha, beta)


class TestIncrementalTableMatchesFreshDp:
    """`lift_cut` against `reference_lift_cut`, byte for byte."""

    def test_random_subproblems(self):
        seen = {"zero-weight": 0, "heavier-than-row": 0, "negative-down-lifting": 0}
        for seed in range(240):
            sub, cut = _random_lifting_case(seed)
            lifted = lift_cut(cut, sub)
            _same_bits(lifted, reference_lift_cut(cut, sub))
            w = sub.row_weights
            seen["zero-weight"] += int(np.any(w == 0))
            seen["heavier-than-row"] += int(np.any(w > sub.row_capacity))
            negative = any(lifted.alpha_full[j] < 0 for j in sub.fixed_one)
            seen["negative-down-lifting"] += int(negative)
        assert min(seen.values()) >= 20, seen

    def test_cuts_of_real_separations(self, monkeypatch):
        calls = []

        def recording(reduced, sub):
            calls.append((reduced, sub))
            return lift_cut(reduced, sub)

        monkeypatch.setattr(driver, "lift_cut", recording)
        instance = cb_style_instance(MICROBENCH_SEED)
        root_cut_loop(instance, FwConfig(max_iters=500), LoopConfig(max_rounds=4))
        assert len(calls) >= 10
        for reduced, sub in calls:
            _same_bits(lift_cut(reduced, sub), reference_lift_cut(reduced, sub))


class TestRowMaxCertificate:
    def test_row_max_is_the_enumerated_maximum(self):
        checked = 0
        for seed in range(300, 400):
            sub, cut = _random_lifting_case(seed)
            if sub.original_dimension > 12:
                continue
            checked += 1
            lifted = lift_cut(cut, sub)
            best = max_lhs(lifted.alpha_full, sub.row_weights, sub.row_capacity)
            assert lifted.row_max == pytest.approx(best, rel=1e-12, abs=1e-12)
        assert checked >= 30
