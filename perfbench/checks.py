"""Output checks run beside every timed call, outside the timed region.

Each check returns {check name: passed}, so every failure is counted and
printed by name.
"""

from __future__ import annotations

import dataclasses

import numpy as np

BOUND_TOL = 1e-6  # relative, on LP bounds re-solved by HiGHS
CUT_TOL = 1e-6  # absolute, on max <alpha, x> - beta over a knapsack row


def _highs_bound(instance, cuts) -> float | None:
    """max <c, x> over the relaxation of `instance` plus `cuts`, x in [0,1]^n,
    solved by scipy's HiGHS; None if HiGHS does not report an optimum."""
    from scipy.optimize import linprog

    from fwcuts.driver import build_relaxation

    problem = build_relaxation(instance)
    rows = [a for a, _ in problem.rows] + [rec.alpha for rec in cuts]
    rhs = [r for _, r in problem.rows] + [rec.beta for rec in cuts]
    res = linprog(
        -problem.objective,
        A_ub=np.array(rows) if rows else None,
        b_ub=np.array(rhs) if rows else None,
        bounds=(0, 1),
        method="highs",
    )
    return -float(res.fun) if res.status == 0 else None


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= BOUND_TOL * max(1.0, abs(a), abs(b))


def check_root_report(instance, report, optimum: int) -> dict[str, bool]:
    """The driver's own audit with the reference optimum attached, plus an
    independent HiGHS re-solve of the first and the final relaxation (the
    audit's sandwich test cannot see a bound that is too low)."""
    from fwcuts.driver import audit_report

    audited = dataclasses.replace(report, known_optimum=optimum)
    results = {c.name: c.passed for c in audit_report(instance, audited)}
    first = _highs_bound(instance, ())
    results["highs-first-relaxation"] = first is not None and _close(first, report.d_lp)
    final = _highs_bound(instance, report.cut_pool)
    results["highs-final-relaxation"] = final is not None and _close(final, report.d_r)
    return results


def check_separation(weights, capacity, target, outcome) -> dict[str, bool]:
    """A returned cut must hold for every 0/1 point of the row (exact DP
    maximum) and be violated by the target; other verdicts carry no cut."""
    from fwcuts.oracles import KnapsackSubproblem, knapsack_dp_max

    cut = outcome.cut
    if cut is None:
        return {}
    best, _ = knapsack_dp_max(KnapsackSubproblem.plain(weights, capacity), cut.alpha)
    return {
        "cut-validity-dp": best <= cut.beta + CUT_TOL,
        "cut-violated-at-target": cut.violation(target) > 0.0,
    }
