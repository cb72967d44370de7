import dataclasses

import numpy as np
import pytest
from scipy.optimize import LinearConstraint, linprog, milp

import fwcuts.driver as driver
from fwcuts.driver import (
    LoopConfig,
    audit_report,
    build_relaxation,
    gap_closed,
    root_cut_loop,
)
from fwcuts.errors import GapUndefinedError, InvalidCutError
from fwcuts.instances import MkpInstance, parse_gap
from fwcuts.lp import SimplexSolver
from fwcuts.oracles import KnapsackSubproblem, knapsack_dp_max
from fwcuts.separation import Cut, FwConfig, SeparationOutcome, SeparationStats, Separated

from conftest import enumerate_optimum, feasible_points, random_small_instance


def micro_instance() -> MkpInstance:
    inst = MkpInstance("micro", 2, 1, [6, 4], [[3, 5]], [7])
    return dataclasses.replace(inst, known_optimum=enumerate_optimum(inst))


class TestGapClosed:
    def test_no_progress(self):
        assert gap_closed(8.0, 9.2, 9.2) == 0.0

    def test_fully_closed(self):
        assert gap_closed(8.0, 9.2, 8.0) == 100.0

    def test_halfway(self):
        assert gap_closed(8.0, 9.2, 8.6) == pytest.approx(50.0)

    def test_integral_root_is_undefined(self):
        with pytest.raises(GapUndefinedError):
            gap_closed(9.2, 9.2, 9.2)

    def test_ordering_validated(self):
        with pytest.raises(ValueError):
            gap_closed(10.0, 9.2, 8.6)


class TestRootLoop:
    def test_micro_instance_closes_the_gap(self):
        report = root_cut_loop(micro_instance())
        assert report.d_lp == pytest.approx(9.2, abs=1e-9)
        assert report.d_r == pytest.approx(6.0, abs=1e-6)
        assert report.gap_closed_pct == pytest.approx(100.0, abs=1e-6)
        assert report.cuts_added == 1
        assert report.loop_stop == "integral"

    def test_integral_relaxation_stops_immediately(self):
        inst = MkpInstance("easy", 2, 1, [1, 1], [[1, 1]], [2], known_optimum=2)
        report = root_cut_loop(inst)
        assert report.integral_root
        assert report.rounds == 0 and report.cuts_added == 0
        assert report.timings["lifting_s"] == 0.0
        assert report.gap_closed_pct is None  # undefined: d_lp equals the optimum

    def test_monotone_bounds_and_audit(self, rng):
        for _ in range(5):
            inst = random_small_instance(rng)
            report = root_cut_loop(inst, loop_config=LoopConfig(max_rounds=30))
            hist = np.asarray(report.bound_history)
            assert np.all(np.diff(hist) <= 1e-9)
            assert hist[-1] >= inst.known_optimum - 1e-6
            checks = audit_report(inst, report)
            assert all(c.passed for c in checks), [c for c in checks if not c.passed]

    def test_every_pool_cut_valid_for_its_row(self, rng):
        inst = random_small_instance(rng, n=14, m=3)
        report = root_cut_loop(inst, loop_config=LoopConfig(max_rounds=25))
        assert report.cuts_added > 0
        for rec in report.cut_pool:
            V = feasible_points(inst.weights[rec.row_index], inst.capacities[rec.row_index])
            assert float(np.max(V @ rec.alpha)) <= rec.beta + 1e-9
            assert rec.violation_at_add >= 1e-6

    def test_reports_are_reproducible(self, rng):
        inst = random_small_instance(rng, n=12, m=3)
        a = root_cut_loop(inst, loop_config=LoopConfig(max_rounds=15))
        b = root_cut_loop(inst, loop_config=LoopConfig(max_rounds=15))
        assert a.bound_history == b.bound_history
        assert a.stop_reason_counts == b.stop_reason_counts
        assert a.cuts_added == b.cuts_added
        for ra, rb in zip(a.cut_pool, b.cut_pool):
            assert ra.row_index == rb.row_index and ra.round_added == rb.round_added
            assert np.array_equal(ra.alpha, rb.alpha) and ra.beta == rb.beta

    def test_lifting_time_is_counted_inside_separation_time(self, rng):
        lifted = 0
        for _ in range(3):
            inst = random_small_instance(rng, n=12, m=3)
            report = root_cut_loop(inst, loop_config=LoopConfig(max_rounds=10))
            t = report.timings
            if report.cut_pool:
                lifted += 1
                assert 0.0 < t["lifting_s"] <= t["separation_s"]
        assert lifted > 0

    def test_round_without_cuts_and_with_undecided_rows_stops_undecided(self, rng):
        # one major cycle decides few rows; a loop that then finds no cut
        # says that rows were left undecided, while a full budget decides
        # every row and ends with no-cuts
        inst = random_small_instance(rng)
        short = root_cut_loop(inst, FwConfig(max_iters=1))
        assert short.loop_stop == "undecided"
        assert short.stop_reason_counts["iteration-limit"] > 0
        full = root_cut_loop(inst, FwConfig(max_iters=500))
        assert full.loop_stop == "no-cuts"
        assert "iteration-limit" not in full.stop_reason_counts

    def test_invalid_lifted_cut_raises_before_reaching_the_lp(self, rng, monkeypatch):
        # sum(x) <= -1 cuts off the origin of every reduced knapsack, and
        # lifting keeps a reduced cut invalid
        def invalid_cut(target, oracle, config=None):
            cut = Cut(np.ones(len(target)), -1.0, float(np.sum(target)) + 1.0, "early-stop")
            stats = SeparationStats(0, 1, 0, 0, "early-criterion", 0.0)
            return SeparationOutcome(Separated(cut), stats)

        lp_rows_added = []
        monkeypatch.setattr(driver, "separate_lazy_afw", invalid_cut)
        monkeypatch.setattr(driver.SimplexSolver, "add_rows", lp_rows_added.append)
        with pytest.raises(InvalidCutError, match="row 0"):
            root_cut_loop(random_small_instance(rng))
        assert lp_rows_added == []

    def test_audit_flags_a_bound_that_is_too_low(self, rng):
        # the monotone and sandwich checks cannot see this; a fresh re-solve can
        inst = random_small_instance(rng)
        report = root_cut_loop(inst, loop_config=LoopConfig(max_rounds=10))
        checks = {c.name: c.passed for c in audit_report(inst, report)}
        assert checks["lp-resolve"]
        low = dataclasses.replace(report, d_r=report.d_r - 1.0)
        failed = [c.name for c in audit_report(inst, low) if not c.passed]
        assert failed == ["lp-resolve"]

    def test_audit_flags_corrupted_cut(self, rng):
        inst = random_small_instance(rng)
        report = root_cut_loop(inst, loop_config=LoopConfig(max_rounds=10))
        assert report.cuts_added > 0
        rec = report.cut_pool[0]
        corrupted = dataclasses.replace(rec, beta=rec.beta - 50.0)
        bad_report = dataclasses.replace(report, cut_pool=(corrupted,) + report.cut_pool[1:])
        checks = audit_report(inst, bad_report)
        failed = [c.name for c in checks if not c.passed]
        assert "cut-validity-dp" in failed


class TestGapInstances:
    def test_assignment_rows_enter_lp_but_are_not_separated(self):
        # two agents, two jobs; knapsacks loose enough to leave a fractional LP
        data = "1  2 2  9 2 2 9  6 4 4 6  5 5"
        inst = parse_gap(data)[0]
        sol = SimplexSolver(build_relaxation(inst)).solve()
        assert sol.status == "optimal"
        for coeffs, rhs in inst.eq_rows:
            assert float(coeffs @ sol.x) == pytest.approx(rhs, abs=1e-7)
        report = root_cut_loop(inst, loop_config=LoopConfig(max_rounds=5))
        assert all(rec.row_index < inst.m for rec in report.cut_pool)
        for rec in report.cut_pool:  # validity via the exact knapsack bound
            best, _ = knapsack_dp_max(
                KnapsackSubproblem.plain(
                    inst.weights[rec.row_index], int(inst.capacities[rec.row_index])
                ),
                rec.alpha,
            )
            assert best <= rec.beta + 1e-6

    def test_infeasible_assignment_surfaces_at_lp_stage(self):
        from fwcuts.errors import InfeasibleRelaxationError

        data = "1  1 1  4  9  3"  # the single agent cannot host the job
        inst = parse_gap(data)[0]
        with pytest.raises(InfeasibleRelaxationError):
            root_cut_loop(inst)


def martello_toth_c(rng):
    """(costs, resources, capacities) of one 5-agent, 20-job GAP instance of
    Martello-Toth type C, drawn as the gap-assign benchmark draws it."""
    costs = rng.integers(10, 51, size=(5, 20))
    res = rng.integers(5, 26, size=(5, 20))
    caps = np.floor(0.8 * res.sum(axis=1) / 5).astype(np.int64)
    return costs, res, caps


def highs_bound(instance, cut_pool) -> float:
    problem = build_relaxation(instance)
    rows = [a for a, _ in problem.rows] + [rec.alpha for rec in cut_pool]
    rhs = [r for _, r in problem.rows] + [rec.beta for rec in cut_pool]
    res = linprog(-problem.objective, A_ub=np.array(rows), b_ub=np.array(rhs),
                  bounds=(0, 1), method="highs")
    assert res.status == 0
    return -float(res.fun)


def test_gap_instance_that_made_the_primal_simplex_singular():
    # the third type C instance of seed 601 ended "basis is singular" under
    # the primal simplex with eta updates that the dual simplex replaced
    rng = np.random.default_rng(601)
    for _ in range(3):
        costs, res, caps = martello_toth_c(rng)
    lines = ["1", "5 20"] + [" ".join(map(str, r)) for r in (*costs, *res, caps)]
    inst = parse_gap("\n".join(lines))[0]
    E = np.stack([coeffs for coeffs, _ in inst.eq_rows]).astype(float)
    optimum = milp(
        -inst.profits.astype(float),
        integrality=np.ones(inst.n),
        bounds=(0, 1),
        constraints=[
            LinearConstraint(inst.weights.astype(float), -np.inf, inst.capacities),
            LinearConstraint(E, 1.0, 1.0),
        ],
        options={"mip_rel_gap": 0.0},
    )
    assert optimum.status == 0
    inst = dataclasses.replace(inst, known_optimum=round(-optimum.fun))

    report = root_cut_loop(inst, FwConfig(max_iters=500))
    assert report.loop_stop in ("no-cuts", "integral") and report.cuts_added > 0
    checks = audit_report(inst, report)
    assert all(c.passed for c in checks), [c for c in checks if not c.passed]
    assert report.d_lp == pytest.approx(highs_bound(inst, ()), rel=1e-6)
    assert report.d_r == pytest.approx(highs_bound(inst, report.cut_pool), rel=1e-6)
