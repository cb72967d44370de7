"""Root-node cutting-plane loop for knapsack-structured 0/1 programs.

Each round solves the relaxation, reduces every knapsack row onto the
fractional support of the solution, separates the reduced point with the
lazy away-step solver, lifts any cut back to the full row, and appends the
cuts that are violated by at least the acceptance threshold and are not
near-duplicates of pooled cuts.  The loop stops when the relaxation solution
is integral, a round adds no cut, or the round budget is exhausted.

Assignment equalities (for GAP-style instances) enter the relaxation as
pairs of inequalities but are never separated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import GapUndefinedError, InfeasibleRelaxationError, InvalidCutError
from .instances import MkpInstance
from .lifting import lift_cut
from .lp import STATUS_OPTIMAL, LpProblem, SimplexSolver
from .oracles import INTEGRALITY_TOL, KnapsackOracle, reduce_row
from .separation import FwConfig, separate_lazy_afw

STOP_INTEGRAL = "integral"
STOP_NO_CUTS = "no-cuts"
STOP_ROUND_LIMIT = "round-limit"

# absolute slack allowed between a cut's right-hand side and the exact
# maximum of its left-hand side over the integer points of its row
CUT_VALIDITY_TOL = 1e-6
# absolute violation <alpha, x> - beta a cut needs at the LP point to enter
# the pool
VIOLATION_THRESHOLD = 1e-6
# a cut whose unit normal (alpha, beta) / ||(alpha, beta)|| has cosine above
# 1 - DUPLICATE_COS_TOL with a pooled cut's is a duplicate
DUPLICATE_COS_TOL = 1e-9


@dataclass(frozen=True)
class LoopConfig:
    """Root loop settings: at most `max_rounds` separation rounds."""

    max_rounds: int = 1000

    def __post_init__(self):
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")


@dataclass(frozen=True)
class CutRecord:
    row_index: int
    alpha: np.ndarray
    beta: float
    violation_at_add: float
    round_added: int


@dataclass(frozen=True)
class RootRunReport:
    name: str
    n: int
    m: int
    d_lp: float
    d_r: float
    known_optimum: int | None
    gap_closed_pct: float | None
    integral_root: bool
    loop_stop: str
    rounds: int
    cuts_added: int
    separation_calls: int
    stop_reason_counts: dict[str, int]
    bound_history: tuple[float, ...]
    # lp_s, separation_s (reduction, separation and lifting), lifting_s (the
    # part of separation_s spent in lift_cut) and total_s, in seconds
    timings: dict[str, float]
    cut_pool: tuple[CutRecord, ...]
    final_x: np.ndarray


def gap_closed(p: float, d_lp: float, d_r: float) -> float:
    """Percentage of the root integrality gap closed by the cuts:
    100 - 100 * (p - d_r) / (p - d_lp)."""
    if not (p <= d_r + 1e-6 and d_r <= d_lp + 1e-6):
        raise ValueError(f"expected p <= d_r <= d_lp, got p={p}, d_r={d_r}, d_lp={d_lp}")
    if abs(d_lp - p) <= 1e-12:
        raise GapUndefinedError("first relaxation already matches the optimum")
    return 100.0 - 100.0 * (p - d_r) / (p - d_lp)


def build_relaxation(instance: MkpInstance) -> LpProblem:
    rows = [
        (instance.weights[i].astype(np.float64), float(instance.capacities[i]))
        for i in range(instance.m)
    ]
    for coeffs, rhs in instance.eq_rows:
        rows.append((coeffs.astype(np.float64), float(rhs)))
        rows.append((-coeffs.astype(np.float64), -float(rhs)))
    return LpProblem(instance.profits.astype(np.float64), tuple(rows))


class _CutPool:
    """Accepted cuts plus near-duplicate rejection on cosine similarity."""

    def __init__(self):
        self.records: list[CutRecord] = []
        self._normals: list[np.ndarray] = []

    def is_duplicate(self, alpha: np.ndarray, beta: float) -> bool:
        vec = np.concatenate([alpha, [beta]])
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            return True
        unit = vec / norm
        return any(float(unit @ u) > 1.0 - DUPLICATE_COS_TOL for u in self._normals)

    def add(self, record: CutRecord) -> None:
        vec = np.concatenate([record.alpha, [record.beta]])
        self._normals.append(vec / float(np.linalg.norm(vec)))
        self.records.append(record)


def _separate_one_row(instance, row, x, fw_config, timings):
    """Reduce one knapsack row against x and try to cut x off.

    Returns (attempted, stop_reason, lifted) where lifted is the LiftedCut,
    valid for this row, or None.  Time spent lifting is added to
    timings["lifting_s"].  Raises InvalidCutError when the lifted cut cuts
    off an integer point of the row.
    """
    sub, target = reduce_row(instance.weights[row], int(instance.capacities[row]), x)
    if sub.size == 0:
        return False, None, None
    outcome = separate_lazy_afw(target, KnapsackOracle(sub), fw_config)
    reason = outcome.stats.stop_reason
    if not outcome.is_separated:
        return True, reason, None
    t0 = time.perf_counter()
    lifted = lift_cut(outcome.cut, sub)
    timings["lifting_s"] += time.perf_counter() - t0
    if lifted.row_max > lifted.beta_full + CUT_VALIDITY_TOL:
        raise InvalidCutError(
            f"row {row}: lifted cut reaches {lifted.row_max!r} at an integer point "
            f"of the row, above its right-hand side {lifted.beta_full!r}"
        )
    return True, reason, lifted


def root_cut_loop(
    instance: MkpInstance,
    fw_config: FwConfig | None = None,
    loop_config: LoopConfig | None = None,
) -> RootRunReport:
    fw_config = fw_config or FwConfig()
    loop_config = loop_config or LoopConfig()
    timings = {"lp_s": 0.0, "separation_s": 0.0, "lifting_s": 0.0}
    t_total = time.perf_counter()

    solver = SimplexSolver(build_relaxation(instance))
    t0 = time.perf_counter()
    sol = solver.solve()
    timings["lp_s"] += time.perf_counter() - t0
    if sol.status != STATUS_OPTIMAL:
        raise InfeasibleRelaxationError(f"initial relaxation ended {sol.status}")
    d_lp = sol.objective_value
    bound_history = [d_lp]

    pool = _CutPool()
    stop_reason_counts: dict[str, int] = {}
    separation_calls = 0
    integral_root = False
    loop_stop = STOP_ROUND_LIMIT
    rounds = 0

    for round_no in range(1, loop_config.max_rounds + 1):
        x = sol.x
        frac = np.abs(x - np.round(x)) > INTEGRALITY_TOL
        if not np.any(frac):
            integral_root = round_no == 1
            loop_stop = STOP_INTEGRAL
            break
        rounds = round_no

        t0 = time.perf_counter()
        results = [
            _separate_one_row(instance, row, x, fw_config, timings)
            for row in range(instance.m)
        ]
        timings["separation_s"] += time.perf_counter() - t0

        new_records = []
        for row, (attempted, reason, lifted) in enumerate(results):
            if not attempted:
                continue
            separation_calls += 1
            stop_reason_counts[reason] = stop_reason_counts.get(reason, 0) + 1
            if lifted is None:
                continue
            alpha_full, beta = lifted.alpha_full, lifted.beta_full
            violation = float(alpha_full @ x - beta)
            if violation < VIOLATION_THRESHOLD:
                continue
            if pool.is_duplicate(alpha_full, beta):
                continue
            record = CutRecord(row, alpha_full, beta, violation, round_no)
            pool.add(record)
            new_records.append(record)

        if not new_records:
            loop_stop = STOP_NO_CUTS
            break

        solver.add_rows([(rec.alpha, rec.beta) for rec in new_records])
        t0 = time.perf_counter()
        sol = solver.solve()
        timings["lp_s"] += time.perf_counter() - t0
        if sol.status != STATUS_OPTIMAL:
            raise InvalidCutError(
                f"relaxation ended {sol.status} after adding cuts; a cut must be invalid"
            )
        if sol.objective_value > bound_history[-1] + 1e-6:
            raise InvalidCutError(
                "bound increased after adding cuts; a cut must be invalid"
            )
        bound_history.append(sol.objective_value)
    else:
        loop_stop = STOP_ROUND_LIMIT

    d_r = bound_history[-1]
    gap_pct: float | None = None
    if instance.known_optimum is not None:
        try:
            gap_pct = gap_closed(float(instance.known_optimum), d_lp, d_r)
        except GapUndefinedError:
            gap_pct = None
    timings["total_s"] = time.perf_counter() - t_total

    return RootRunReport(
        name=instance.name,
        n=instance.n,
        m=instance.m,
        d_lp=d_lp,
        d_r=d_r,
        known_optimum=instance.known_optimum,
        gap_closed_pct=gap_pct,
        integral_root=integral_root,
        loop_stop=loop_stop,
        rounds=rounds,
        cuts_added=len(pool.records),
        separation_calls=separation_calls,
        stop_reason_counts=dict(sorted(stop_reason_counts.items())),
        bound_history=tuple(bound_history),
        timings=timings,
        cut_pool=tuple(pool.records),
        final_x=sol.x,
    )


@dataclass(frozen=True)
class AuditCheck:
    name: str
    passed: bool
    checked: int
    detail: str = ""


def audit_report(instance: MkpInstance, report: RootRunReport) -> list[AuditCheck]:
    """Re-verify a finished run with checks independent of the search path."""
    from .oracles import KnapsackSubproblem, knapsack_dp_max

    checks = []

    bad = 0
    for rec in report.cut_pool:
        row = rec.row_index
        sub = KnapsackSubproblem.plain(
            instance.weights[row], int(instance.capacities[row])
        )
        best, _ = knapsack_dp_max(sub, rec.alpha)
        if best > rec.beta + CUT_VALIDITY_TOL:
            bad += 1
    checks.append(
        AuditCheck(
            "cut-validity-dp",
            bad == 0,
            len(report.cut_pool),
            f"{bad} cut(s) violated by an integer point of their source row",
        )
    )

    weak = sum(1 for rec in report.cut_pool if rec.violation_at_add < VIOLATION_THRESHOLD)
    checks.append(
        AuditCheck(
            "cut-violation-at-add",
            weak == 0,
            len(report.cut_pool),
            f"{weak} cut(s) entered without the required violation",
        )
    )

    hist = np.asarray(report.bound_history)
    monotone = bool(np.all(np.diff(hist) <= 1e-6)) if len(hist) > 1 else True
    checks.append(
        AuditCheck("monotone-bound", monotone, max(len(hist) - 1, 0), "bound increased")
    )

    if report.known_optimum is not None:
        p = float(report.known_optimum)
        ok = bool(np.all(hist >= p - 1e-6)) and report.d_lp >= report.d_r - 1e-6
        checks.append(
            AuditCheck(
                "lp-sandwich",
                ok,
                len(hist),
                f"expected d_lp >= d_r >= {p}",
            )
        )
    return checks
