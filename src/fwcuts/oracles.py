"""Linear minimization oracles over implicitly-described 0/1 polytopes.

Two oracle families are provided: an enumeration oracle that works for any
bounded feasibility predicate on {0,1}^k (meant for testing and small
subproblems), and a dynamic-programming oracle for single-row 0/1 knapsacks,
which is the one used by the cutting-plane driver.  Both are exact and
deterministic; ties are broken towards the lexicographically smallest vector
(enumeration) respectively towards not taking an item (dynamic programming).
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from .errors import (
    DimensionMismatchError,
    EnumerationCapacityError,
    InfeasibleFixingError,
    InfeasibleOracleError,
)

MAX_ENUM_DIMENSION = 25
# an LP value within this distance of 0 or 1 counts as integral: the driver
# stops on such points and `reduce_row` fixes such variables
INTEGRALITY_TOL = 1e-6
_CHUNK = 1 << 20
_CACHE_DIMENSION = 20


@runtime_checkable
class LinearMinimizationOracle(Protocol):
    """Black box returning an exact minimizer of <direction, x> over a 0/1 set."""

    dimension: int

    def minimize(self, direction: np.ndarray) -> np.ndarray: ...


def binary_vectors(k: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Rows `start..stop` of the lexicographic listing of {0,1}^k.

    Row i is the k-bit binary expansion of i with the most significant bit
    first, so ascending row index is ascending lexicographic order.
    """
    if stop is None:
        stop = 1 << k
    idx = np.arange(start, stop, dtype=np.int64)
    shifts = np.arange(k - 1, -1, -1, dtype=np.int64)
    return ((idx[:, None] >> shifts[None, :]) & 1).astype(np.int8)


class EnumerationOracle:
    """Exact LMO over {x in {0,1}^k : predicate(x)} by full enumeration.

    Guarded at k <= 25 to avoid blow-up.  The vertex listing and feasibility
    mask are cached for small k, so repeated `minimize` calls are two
    vectorized passes.  `minimize` calls are reentrant; the cache is built
    once and then only read.
    """

    def __init__(
        self,
        dimension: int,
        predicate: Callable[[np.ndarray], bool] | None = None,
        batch_predicate: Callable[[np.ndarray], np.ndarray] | None = None,
    ):
        if dimension < 1 or dimension > MAX_ENUM_DIMENSION:
            raise EnumerationCapacityError(
                f"enumeration supports 1 <= k <= {MAX_ENUM_DIMENSION}, got {dimension}"
            )
        self.dimension = int(dimension)
        self._predicate = predicate
        self._batch_predicate = batch_predicate
        self._vertices: np.ndarray | None = None

    @classmethod
    def for_knapsack(cls, weights, capacity) -> "EnumerationOracle":
        w = np.asarray(weights, dtype=np.int64)
        cap = int(capacity)
        return cls(len(w), batch_predicate=lambda pts: pts @ w <= cap)

    def _mask(self, pts: np.ndarray) -> np.ndarray:
        if self._batch_predicate is not None:
            return np.asarray(self._batch_predicate(pts), dtype=bool)
        if self._predicate is not None:
            return np.fromiter(
                (bool(self._predicate(p)) for p in pts), dtype=bool, count=len(pts)
            )
        return np.ones(len(pts), dtype=bool)

    def feasible_vertices(self) -> np.ndarray:
        """All feasible 0/1 points in lexicographic order (rows of a matrix)."""
        if self._vertices is None:
            chunks = []
            for lo in range(0, 1 << self.dimension, _CHUNK):
                hi = min(lo + _CHUNK, 1 << self.dimension)
                pts = binary_vectors(self.dimension, lo, hi)
                chunks.append(pts[self._mask(pts)])
            vertices = np.concatenate(chunks, axis=0)
            if len(vertices) == 0:
                raise InfeasibleOracleError("no feasible 0/1 point")
            if self.dimension <= _CACHE_DIMENSION:
                self._vertices = vertices
            return vertices
        return self._vertices

    def minimize(self, direction: np.ndarray) -> np.ndarray:
        direction = np.asarray(direction, dtype=np.float64)
        if direction.shape != (self.dimension,):
            raise DimensionMismatchError(
                f"direction has shape {direction.shape}, oracle dimension is {self.dimension}"
            )
        vertices = self.feasible_vertices()
        values = vertices.astype(np.float64) @ direction
        best = int(np.argmin(values))  # first occurrence = lexicographically smallest
        return vertices[best].copy()


@dataclass(frozen=True)
class KnapsackSubproblem:
    """A reduced single-row 0/1 knapsack plus the maps back to the full row.

    `index_map` lists the original positions of the free (reduced) variables;
    `fixed_zero` and `fixed_one` are the original positions fixed at 0 / 1.
    Together the three sets partition the original index range.  Weights are
    nonnegative integers; zero weights are tolerated (such items never consume
    capacity).  The required keywords `row_weights`/`row_capacity` keep the
    unreduced row so that inequalities over the free variables can later be
    lifted back.
    """

    weights: np.ndarray
    capacity: int
    index_map: tuple[int, ...]
    fixed_zero: tuple[int, ...] = ()
    fixed_one: tuple[int, ...] = ()
    _: KW_ONLY
    row_weights: np.ndarray
    row_capacity: int

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.int64)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "capacity", int(self.capacity))
        if np.any(w < 0):
            raise ValueError("knapsack weights must be nonnegative")
        if self.capacity < 0:
            raise ValueError("knapsack capacity must be nonnegative")
        if len(self.index_map) != len(w):
            raise DimensionMismatchError("index_map length must match weights")
        n = self.original_dimension
        all_idx = sorted(self.index_map + self.fixed_zero + self.fixed_one)
        if all_idx != list(range(n)):
            raise ValueError("index_map/fixed_zero/fixed_one must partition the row")
        rw = np.asarray(self.row_weights, dtype=np.int64)
        object.__setattr__(self, "row_weights", rw)
        object.__setattr__(self, "row_capacity", int(self.row_capacity))
        if rw.shape != (n,):
            raise DimensionMismatchError("row_weights length must be the full row")
        if np.any(rw[list(self.index_map)] != w):
            raise ValueError("row_weights disagree with the reduced weights")
        fixed_load = int(rw[list(self.fixed_one)].sum())
        if self.row_capacity - fixed_load != self.capacity:
            raise ValueError("capacity does not match row_capacity minus fixings")

    @classmethod
    def plain(cls, weights, capacity) -> "KnapsackSubproblem":
        """A knapsack that is not a reduction of anything (no fixed variables)."""
        w = np.asarray(weights, dtype=np.int64)
        return cls(
            w, int(capacity), tuple(range(len(w))), row_weights=w, row_capacity=int(capacity)
        )

    @property
    def size(self) -> int:
        return len(self.weights)

    @property
    def original_dimension(self) -> int:
        return len(self.index_map) + len(self.fixed_zero) + len(self.fixed_one)


def knapsack_dp_max(sub: KnapsackSubproblem, profits) -> tuple[float, np.ndarray]:
    """Exact max of <profits, x> over {x in {0,1}^k : <w, x> <= C}.

    Profits are real-valued; the table is indexed by the integer capacity.
    Items with nonpositive profit are never taken (tie-break: prefer not
    taking), so they can be skipped up front without losing exactness.

    Storage: one value row `dp` of C + 1 floats, updated in place item by
    item with `np.maximum`, and a boolean matrix `take` (one row per item
    with positive profit, C + 1 columns) written by `np.greater`: an item is
    taken at a capacity only when that strictly improves the value.  The
    solution is read back from `take`, last item first.  O(k * C) time and
    O(k * C) bytes, all of it per-call scratch.
    """
    profits = np.asarray(profits, dtype=np.float64)
    if profits.shape != (sub.size,):
        raise DimensionMismatchError(
            f"profits has shape {profits.shape}, knapsack has {sub.size} items"
        )
    w = sub.weights
    cap = sub.capacity
    solution = np.zeros(sub.size, dtype=np.int8)
    value = 0.0
    # Zero-weight items are free: take exactly those with positive profit.
    free = (w == 0) & (profits > 0.0)
    solution[free] = 1
    value += float(profits[free].sum())
    active = np.flatnonzero((w >= 1) & (w <= cap) & (profits > 0.0))
    if len(active) == 0:
        return value, solution

    dp = np.zeros(cap + 1, dtype=np.float64)
    take = np.zeros((len(active), cap + 1), dtype=bool)
    for row, j in enumerate(active):
        wj = int(w[j])
        cand = dp[: cap + 1 - wj] + profits[j]
        np.greater(cand, dp[wj:], out=take[row, wj:])
        np.maximum(dp[wj:], cand, out=dp[wj:])
    c = cap
    for row in range(len(active) - 1, -1, -1):
        if take[row, c]:
            j = active[row]
            solution[j] = 1
            c -= int(w[j])
    return value + float(dp[cap]), solution


class KnapsackOracle:
    """Dynamic-programming LMO for a single 0/1 knapsack row.

    min <c, x> is solved as a max over the flipped profits of the items with
    c_j < 0; items with c_j >= 0 never help and are excluded a priori.
    Runs in O(k * C) time and space per call, with per-call scratch only.
    """

    def __init__(self, sub: KnapsackSubproblem):
        self.subproblem = sub
        self.dimension = sub.size

    def minimize(self, direction: np.ndarray) -> np.ndarray:
        direction = np.asarray(direction, dtype=np.float64)
        if direction.shape != (self.dimension,):
            raise DimensionMismatchError(
                f"direction has shape {direction.shape}, oracle dimension is {self.dimension}"
            )
        _, solution = knapsack_dp_max(self.subproblem, -direction)
        return solution


def enumerate_lmo(direction, predicate=None, batch_predicate=None) -> np.ndarray:
    """One-shot enumeration argmin of <direction, x> over feasible 0/1 points."""
    direction = np.asarray(direction, dtype=np.float64)
    oracle = EnumerationOracle(
        len(direction), predicate=predicate, batch_predicate=batch_predicate
    )
    return oracle.minimize(direction)


def knapsack_dp_lmo(sub: KnapsackSubproblem, direction) -> np.ndarray:
    """One-shot DP argmin of <direction, x> over the knapsack's 0/1 points."""
    return KnapsackOracle(sub).minimize(direction)


def reduce_row(row_weights, row_capacity: int, lp_point) -> tuple[KnapsackSubproblem, np.ndarray]:
    """Project one knapsack row onto the fractional support of an LP point.

    Variables within `INTEGRALITY_TOL` of 0 or 1 are fixed: the ones at 1
    reduce the capacity, the ones at 0 drop out, both in ascending index
    order.  Every fractional variable stays free, even one heavier than the
    reduced capacity: every reduced-space solution has it at 0, so a cut can
    charge it, and forcing it to zero would silently drop it from the cut.
    Returns the reduced knapsack and the LP point restricted to the free
    variables; a size-0 subproblem signals that nothing fractional remains.
    """
    w = np.asarray(row_weights, dtype=np.int64)
    x = np.asarray(lp_point, dtype=np.float64)
    if w.shape != x.shape:
        raise DimensionMismatchError("row and LP point dimensions differ")
    if np.any(w < 0):
        raise ValueError("row weights must be nonnegative")
    cap = int(row_capacity)
    if float(w @ x) > cap + 1e-6 * max(1.0, abs(cap)):
        raise ValueError("LP point violates the row it is being reduced against")

    at_one = x >= 1.0 - INTEGRALITY_TOL
    at_zero = x <= INTEGRALITY_TOL
    fractional = ~(at_one | at_zero)

    reduced_cap = cap - int(w[at_one].sum())
    if reduced_cap < 0:
        raise InfeasibleFixingError(
            "variables fixed at one exceed the row capacity; the LP point is not feasible"
        )

    sub = KnapsackSubproblem(
        weights=w[fractional],
        capacity=reduced_cap,
        index_map=tuple(np.flatnonzero(fractional)),
        fixed_zero=tuple(np.flatnonzero(at_zero)),
        fixed_one=tuple(np.flatnonzero(at_one)),
        row_weights=w,
        row_capacity=cap,
    )
    return sub, x[fractional].copy()
