"""Dense bounded dual simplex.

The solver handles exactly the shape the cutting-plane driver needs:
maximize <c, x> over rows <a_i, x> <= b_i with every structural variable in
[0, 1].  Rows with negative right-hand sides (used to encode equalities as
pairs of inequalities) need no special treatment.

It is one algorithm, the dual simplex with bounded variables (Koberstein
2005, "The dual simplex method", PhD thesis, Univ. Paderborn).  Because every
structural variable is boxed, the all-slack basis with x_j at 1 exactly when
c_j > 0 is dual feasible, so no phase 1 is needed and the LP can never be
unbounded: a solve ends optimal or proves the rows infeasible.  Each
iteration takes the most infeasible basic variable, picks the entering
column by the dual ratio test (ties go to the largest |pivot|, then to the
lowest column index), and refactorizes the m x m basis from scratch, so no
update error carries from one iteration to the next.  Rows and the objective
are scaled to unit max-norm once, so the tolerances below are relative to
the data.

A solver instance is stateful: the basis found by one `solve` warm-starts the
next.  `add_rows` appends rows whose slacks join the basis; this keeps the
basis dual feasible, which is why the dual simplex is the standard way to
re-solve after adding cuts (Bixby 2002, "Solving real-world linear
programs", Operations Research 50(1)).  Distinct instances share nothing and
may run in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NumericalInstabilityError

# a basic variable further than this outside its bounds is infeasible
_FEASIBILITY_TOL = 1e-9
# smallest |entry| of the pivot row that may enter the basis
_PIVOT_TOL = 1e-9
# dual ratios within this of the smallest one count as tied
_RATIO_TIE = 1e-12
_MAX_ITERATIONS = 20_000

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class LpProblem:
    """maximize <objective, x> s.t. rows (coeffs, rhs) as <=, x in [0,1]^n."""

    objective: np.ndarray
    rows: tuple[tuple[np.ndarray, float], ...]

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=np.float64)
        object.__setattr__(self, "objective", c)
        rows = tuple(
            (np.asarray(a, dtype=np.float64), float(r)) for a, r in self.rows
        )
        object.__setattr__(self, "rows", rows)
        if not np.all(np.isfinite(c)):
            raise ValueError("objective must be finite")
        for a, r in rows:
            if a.shape != c.shape:
                raise DimensionMismatchError("row dimension differs from objective")
            if not (np.all(np.isfinite(a)) and np.isfinite(r)):
                raise ValueError("row data must be finite")

    @property
    def n(self) -> int:
        return len(self.objective)


@dataclass(frozen=True)
class LpSolution:
    status: str
    x: np.ndarray
    objective_value: float


def _unit_scale(v: np.ndarray) -> float:
    return float(np.max(np.abs(v), initial=0.0)) or 1.0


class SimplexSolver:
    """Columns are [structurals | slacks]: column j < n is x_j in [0, 1] and
    column n + i is the slack of row i in [0, inf)."""

    def __init__(self, problem: LpProblem):
        self._n = problem.n
        self._objective = problem.objective
        self._cost = problem.objective / _unit_scale(problem.objective)
        self._rows: list[np.ndarray] = []  # scaled to unit max-norm
        self._rhs: list[float] = []
        self._basis = np.zeros(0, dtype=np.intp)  # one basic column per row
        self._at_upper = problem.objective > 0  # nonbasic structurals at 1
        self._append_rows(problem.rows)

    @property
    def m(self) -> int:
        return len(self._rows)

    def add_rows(self, rows) -> None:
        """Append <=-rows (e.g. cut rows); their slacks join the basis."""
        self._append_rows(rows)

    def _append_rows(self, rows) -> None:
        for coeffs, rhs in rows:
            coeffs = np.asarray(coeffs, dtype=np.float64)
            if coeffs.shape != (self._n,):
                raise DimensionMismatchError("row dimension differs from the LP")
            scale = _unit_scale(coeffs)
            self._rows.append(coeffs / scale)
            self._rhs.append(float(rhs) / scale)
        slacks = np.arange(self._n + len(self._basis), self._n + self.m)
        self._basis = np.concatenate([self._basis, slacks])

    def solve(self) -> LpSolution:
        """Optimize from the basis the last solve ended in (all-slack at first)."""
        return self._dual_simplex()

    def _dual_simplex(self) -> LpSolution:
        n, m = self._n, self.m
        A = np.hstack([np.reshape(self._rows, (m, n)), np.eye(m)])
        b = np.asarray(self._rhs, dtype=np.float64)
        cost = np.concatenate([self._cost, np.zeros(m)])
        upper = np.concatenate([np.ones(n), np.full(m, np.inf)])
        # the pivots below update the solver's state in place: `basis` is the
        # solver's array and `self._at_upper` a view of `at_upper`
        basis = self._basis
        at_upper = np.concatenate([self._at_upper, np.zeros(m, dtype=bool)])
        self._at_upper = at_upper[:n]
        for _ in range(_MAX_ITERATIONS):
            try:
                B_inv = np.linalg.inv(A[:, basis])
            except np.linalg.LinAlgError as exc:
                raise NumericalInstabilityError("basis is singular") from exc
            x_basic = B_inv @ (b - A[:, at_upper].sum(axis=1))
            excess = np.maximum(-x_basic, x_basic - upper[basis])
            if not np.any(excess > _FEASIBILITY_TOL):
                break
            r = int(np.argmax(excess))
            to_upper = bool(x_basic[r] > upper[basis[r]])
            # d >= 0 at upper and d <= 0 at lower: the basis is dual feasible
            d = cost - (cost[basis] @ B_inv) @ A
            alpha = B_inv[r] @ A if to_upper else -(B_inv[r] @ A)
            eligible = np.where(at_upper, alpha < -_PIVOT_TOL, alpha > _PIVOT_TOL)
            eligible[basis] = False
            candidates = np.flatnonzero(eligible)
            if len(candidates) == 0:
                return LpSolution(STATUS_INFEASIBLE, np.full(n, np.nan), np.nan)
            ratios = np.maximum(-d[candidates] / alpha[candidates], 0.0)
            tied = candidates[ratios <= ratios.min() + _RATIO_TIE]
            q = int(tied[np.argmax(np.abs(alpha[tied]))])
            at_upper[basis[r]] = to_upper
            at_upper[q] = False
            basis[r] = q
        else:
            raise NumericalInstabilityError(
                f"no optimum after {_MAX_ITERATIONS} dual simplex iterations"
            )
        x = at_upper.astype(np.float64)
        x[basis] = x_basic
        x = np.clip(x[:n], 0.0, 1.0)
        return LpSolution(STATUS_OPTIMAL, x, float(self._objective @ x))


def solve_from_scratch(problem: LpProblem) -> LpSolution:
    """Solve `problem` from the all-slack basis, for a one-off solve that is
    no step of a cut loop.  It skips `SimplexSolver.solve`, the loop's LP
    step, which the benchmark's trace hooks and times as loop work."""
    return SimplexSolver(problem)._dual_simplex()
