"""Dense bounded-variable primal simplex and a convex-hull membership test.

The solver handles exactly the shape the cutting-plane driver needs:
maximize <c, x> over rows <a_i, x> <= b_i with every structural variable in
[0, 1].  Rows with negative right-hand sides (used to encode equalities as
pairs of inequalities) are handled by a phase-1 pass with artificial columns.
Pivoting is deterministic: Dantzig pricing with lowest-index tie-breaks,
switching to Bland's rule after a budget of degenerate pivots.  The basis
inverse is updated per pivot and refactorized every 50 pivots; if feasibility
has drifted beyond 1e-5 at a refactorization the solve restarts from a fresh
factorization once and then fails.

A solver instance is stateful: the basis found by one `solve` warm-starts the
next, and `add_rows` extends the basis with the new slacks, so appending cut
rows between solves is cheap.  Distinct instances share nothing and may run
in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, NumericalInstabilityError

_REDUCED_COST_TOL = 1e-9
_FEASIBILITY_TOL = 1e-7
_RATIO_EPS = 1e-11
_DEGENERATE_STEP = 1e-10
_REFACTOR_EVERY = 50
_DRIFT_LIMIT = 1e-5
_MAX_PIVOTS = 200_000

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"


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


class SimplexSolver:
    def __init__(self, problem: LpProblem):
        self._n = problem.n
        self._c_struct = problem.objective.copy()
        self._rows: list[np.ndarray] = []  # structural coefficients per row
        self._rhs: list[float] = []
        # Columns are [structurals | units]; each unit column is +-e_r for one
        # row (slacks and phase-1 artificials, in creation order).
        self._units: list[tuple[int, float]] = []
        self._ub: list[float] = [1.0] * self._n
        self._is_artificial: list[bool] = [False] * self._n
        self._basis: list[int] = []
        self._at_upper = np.zeros(self._n, dtype=bool)
        self._A: np.ndarray | None = None
        self._B_inv: np.ndarray | None = None
        for coeffs, rhs in problem.rows:
            self._append_row(coeffs, rhs)

    # -- construction ------------------------------------------------------

    @property
    def m(self) -> int:
        return len(self._rows)

    @property
    def ncols(self) -> int:
        return self._n + len(self._units)

    def _new_column(self, row: int, sign: float, ub: float, artificial: bool) -> int:
        idx = self.ncols
        self._units.append((row, sign))
        self._ub.append(ub)
        self._is_artificial.append(artificial)
        self._at_upper = np.append(self._at_upper, False)
        self._A = None
        return idx

    def _append_row(self, coeffs, rhs: float) -> None:
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if coeffs.shape != (self._n,):
            raise DimensionMismatchError("row dimension differs from the LP")
        row = self.m
        self._rows.append(coeffs)
        self._rhs.append(float(rhs))
        slack = self._new_column(row, 1.0, np.inf, artificial=False)
        self._basis.append(slack)
        self._B_inv = None

    def add_rows(self, rows) -> None:
        """Append <=-rows (e.g. cut rows); their slacks join the basis."""
        for coeffs, rhs in rows:
            self._append_row(coeffs, rhs)

    # -- dense data --------------------------------------------------------

    def _matrix(self) -> np.ndarray:
        if self._A is None or self._A.shape != (self.m, self.ncols):
            A = np.zeros((self.m, self.ncols))
            if self.m:
                A[:, : self._n] = np.stack(self._rows)
            for offset, (row, sign) in enumerate(self._units):
                A[row, self._n + offset] = sign
            self._A = A
        return self._A

    # -- solving -----------------------------------------------------------

    def solve(self) -> LpSolution:
        self._matrix()
        if self.m == 0:
            self._at_upper[: self._n] = self._c_struct > 0
            x = self._structural_solution()
            return LpSolution(STATUS_OPTIMAL, x, float(self._c_struct @ x))
        self._refactor()
        x_basic = self._basic_values()
        if np.any(x_basic < -_FEASIBILITY_TOL):
            status = self._phase_one(x_basic < -_FEASIBILITY_TOL)
            if status == STATUS_INFEASIBLE:
                return LpSolution(STATUS_INFEASIBLE, np.full(self._n, np.nan), np.nan)
        costs = np.zeros(self.ncols)
        costs[: self._n] = self._c_struct
        status = self._optimize(costs, allow_artificial=False)
        if status == STATUS_UNBOUNDED:
            return LpSolution(STATUS_UNBOUNDED, np.full(self._n, np.nan), np.inf)
        x = self._structural_solution()
        return LpSolution(STATUS_OPTIMAL, x, float(self._c_struct @ x))

    def _phase_one(self, violated: np.ndarray) -> str:
        for slot in np.flatnonzero(violated):
            art = self._new_column(int(slot), -1.0, np.inf, artificial=True)
            displaced = self._basis[slot]
            self._at_upper[displaced] = False  # displaced slack rests at 0
            self._basis[slot] = art
        self._matrix()
        self._refactor()
        costs = np.zeros(self.ncols)
        costs[np.asarray(self._is_artificial)] = -1.0  # maximize -sum(artificials)
        status = self._optimize(costs, allow_artificial=True)
        if status != STATUS_OPTIMAL:
            raise NumericalInstabilityError("phase 1 did not reach an optimum")
        resid = sum(
            float(v)
            for v, j in zip(self._basic_values(), self._basis)
            if self._is_artificial[j]
        )
        for j in range(self.ncols):
            if self._is_artificial[j]:
                self._ub[j] = 0.0  # pinned: artificials can never re-enter
        if resid > _FEASIBILITY_TOL:
            return STATUS_INFEASIBLE
        return STATUS_OPTIMAL

    def _structural_solution(self) -> np.ndarray:
        x = np.zeros(self.ncols)
        ubs = np.asarray(self._ub)
        x[self._at_upper] = ubs[self._at_upper]
        if self.m:
            x[self._basis] = self._basic_values()
        return np.clip(x[: self._n], 0.0, 1.0)

    def _basic_values(self) -> np.ndarray:
        A = self._matrix()
        rhs = np.asarray(self._rhs, dtype=np.float64).copy()
        upper_cols = np.flatnonzero(self._at_upper)
        if len(upper_cols):
            rhs -= A[:, upper_cols] @ np.asarray(self._ub)[upper_cols]
        return self._B_inv @ rhs

    def _refactor(self) -> None:
        B = self._matrix()[:, self._basis]
        try:
            self._B_inv = np.linalg.inv(B)
        except np.linalg.LinAlgError as exc:
            raise NumericalInstabilityError("basis is singular") from exc

    def _optimize(self, costs: np.ndarray, allow_artificial: bool) -> str:
        A = self._matrix()
        m, ncols = self.m, self.ncols
        bland = False
        degenerate = 0
        restarted = False
        basis_mask = np.zeros(ncols, dtype=bool)
        basis_mask[self._basis] = True
        ub_arr = np.asarray(self._ub, dtype=np.float64)
        artificial = np.asarray(self._is_artificial)
        blocked = artificial & ((ub_arr <= 0.0) | (not allow_artificial))

        for pivot in range(_MAX_PIVOTS):
            if pivot and pivot % _REFACTOR_EVERY == 0:
                before = self._basic_values()
                self._refactor()
                drift = float(np.max(np.abs(before - self._basic_values()), initial=0.0))
                if drift > _DRIFT_LIMIT:
                    if restarted:
                        raise NumericalInstabilityError(
                            f"feasibility drift {drift:.2e} persists after restart"
                        )
                    restarted = True
            x_basic = self._basic_values()
            y = costs[self._basis] @ self._B_inv
            d = costs - y @ A
            improving = (~basis_mask) & (~blocked) & (
                ((~self._at_upper) & (d > _REDUCED_COST_TOL))
                | (self._at_upper & (d < -_REDUCED_COST_TOL))
            )
            candidates = np.flatnonzero(improving)
            if len(candidates) == 0:
                return STATUS_OPTIMAL
            if bland:
                q = int(candidates[0])
            else:
                q = int(candidates[np.argmax(np.abs(d[candidates]))])
            sigma = -1.0 if self._at_upper[q] else 1.0
            w = self._B_inv @ A[:, q]
            delta = sigma * w

            best_t = ub_arr[q]  # bound-flip distance (every lower bound is 0)
            best_slot = -1
            for i in range(m):
                if delta[i] > _RATIO_EPS:
                    t = x_basic[i] / delta[i]
                elif delta[i] < -_RATIO_EPS:
                    cap = ub_arr[self._basis[i]]
                    if not np.isfinite(cap):
                        continue
                    t = (cap - x_basic[i]) / (-delta[i])
                else:
                    continue
                t = max(t, 0.0)
                if best_slot < 0:
                    take = t <= best_t + _RATIO_EPS  # prefer a pivot over a flip
                elif bland:
                    take = t < best_t - _RATIO_EPS or (
                        t <= best_t + _RATIO_EPS
                        and self._basis[i] < self._basis[best_slot]
                    )
                else:
                    take = t < best_t - _RATIO_EPS
                if take:
                    best_t, best_slot = min(t, best_t), i
            if not np.isfinite(best_t):
                return STATUS_UNBOUNDED
            if best_t < _DEGENERATE_STEP:
                degenerate += 1
                if degenerate > 2 * (m + ncols):
                    bland = True
            if best_slot < 0:
                self._at_upper[q] = not self._at_upper[q]
                continue
            leaving = self._basis[best_slot]
            self._basis[best_slot] = q
            basis_mask[leaving] = False
            basis_mask[q] = True
            self._at_upper[leaving] = bool(delta[best_slot] < 0)
            self._at_upper[q] = False
            self._eta_update(best_slot, w)
        raise NumericalInstabilityError("pivot limit exceeded")

    def _eta_update(self, slot: int, w: np.ndarray) -> None:
        piv = w[slot]
        if abs(piv) < 1e-12:
            raise NumericalInstabilityError("pivot element vanished")
        self._B_inv[slot, :] /= piv
        others = np.arange(self.m) != slot
        self._B_inv[others, :] -= np.outer(w[others], self._B_inv[slot, :])


class MembershipResult(NamedTuple):
    inside: bool
    distance_lb: float


def membership_test(point, vertices) -> MembershipResult:
    """Exact test whether `point` lies in the convex hull of `vertices`.

    Minimizes the max-norm deviation ||point - V' lambda||_inf over the
    simplex via an LP; the optimum is 0 iff the point is inside (within 1e-7)
    and otherwise lower-bounds the Euclidean distance to the hull.
    """
    V = np.asarray(vertices, dtype=np.float64)
    if V.ndim != 2 or len(V) == 0:
        raise ValueError("vertices must be a nonempty matrix")
    p = np.asarray(point, dtype=np.float64)
    if p.shape != (V.shape[1],):
        raise DimensionMismatchError("point dimension differs from the vertices")
    nv, k = V.shape
    U = max(1.0, float(np.max(np.abs(p))) + 1.0)  # scale so t lives in [0,1]
    nvar = nv + 1  # simplex weights plus the scaled deviation bound t
    c = np.zeros(nvar)
    c[-1] = -U
    rows = []
    for i in range(k):
        rows.append((np.concatenate([V[:, i], [-U]]), float(p[i])))
        rows.append((np.concatenate([-V[:, i], [-U]]), -float(p[i])))
    ones = np.concatenate([np.ones(nv), [0.0]])
    rows.append((ones, 1.0))
    rows.append((-ones, -1.0))
    sol = SimplexSolver(LpProblem(c, tuple(rows))).solve()
    if sol.status != STATUS_OPTIMAL:
        raise NumericalInstabilityError(f"membership LP ended {sol.status}")
    t = max(-sol.objective_value, 0.0)
    return MembershipResult(inside=t <= 1e-7, distance_lb=t)
