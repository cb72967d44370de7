import dataclasses

import numpy as np
import pytest

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
from fwcuts.lp import solve
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

    def test_invalid_lifted_cut_raises_before_reaching_the_lp(self, rng, monkeypatch):
        # sum(x) <= -1 cuts off the origin of every reduced knapsack, and
        # lifting keeps a reduced cut invalid
        def invalid_cut(target, oracle, config=None):
            cut = Cut(np.ones(len(target)), -1.0, float(np.sum(target)) + 1.0, "early-stop")
            stats = SeparationStats(0, 1, 0, 0, 0, "early-criterion", 0.0)
            return SeparationOutcome(Separated(cut), stats)

        lp_rows_added = []
        monkeypatch.setattr(driver, "separate_lazy_afw", invalid_cut)
        monkeypatch.setattr(driver.SimplexSolver, "add_rows", lp_rows_added.append)
        with pytest.raises(InvalidCutError, match="row 0"):
            root_cut_loop(random_small_instance(rng))
        assert lp_rows_added == []

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
        sol = solve(build_relaxation(inst))
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
