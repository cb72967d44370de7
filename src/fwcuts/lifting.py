"""Sequential lifting of reduced-knapsack inequalities back to the full row.

A cut valid for the reduced knapsack (fixed variables removed) is extended to
a cut valid for the original single-row knapsack by introducing the fixed
variables one at a time, in the order the subproblem stores them.  Variables
fixed at 1 are "down-lifted" first: each release restores that item's weight
to the capacity, so every intermediate maximization runs over a nonnegative
integer capacity.  Variables fixed at 0 are "up-lifted" afterwards.

Each coefficient needs the exact maximum of <alpha, x> over the items
introduced so far at one capacity.  A single value table per `lift_cut` call
answers all of these (Gu, Nemhauser and Savelsbergh 2000, J. Comb. Optim.):
g[c] is the maximum over the processed items of weight at most c, for
c = 0..C with C the row capacity.  The table is seeded with the free
variables, every coefficient is one lookup, and releasing an item with
coefficient p and weight w is one O(C) update
g[w:] = max(g[w:], g[:C+1-w] + p).  Zero-weight items with positive
coefficient are kept apart as a list whose sum is added to g[c]; items with
coefficient <= 0 or weight > C never change any g[c] and are skipped.
Lifting k free and |F| fixed variables costs O((k + |F|) * C) time, plus one
O(n * C) knapsack DP over the finished row (`LiftedCut.row_max`), which
certifies the cut.

The table repeats the floating-point operations of a fresh per-query DP
(`knapsack_dp_max` over the processed items) exactly: that DP adds the items
in the same order with the same update, an item heavier than the query
capacity only touches cells above it, and a cell c only reads cells <= c.
So g[c] equals the fresh DP's value at capacity c bit for bit, and so do the
lifted coefficients.

The lifted right-hand side is the reduced one plus the sum of the
down-lifting coefficients, so at an LP point with the fixed variables at
their fixed values the violation of the lifted cut equals the violation of
the reduced cut.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .oracles import KnapsackSubproblem, knapsack_dp_max
from .separation import Cut


@dataclass(frozen=True)
class LiftedCut:
    """A full-row inequality <alpha_full, x> <= beta_full obtained by lifting.

    `row_max` is the exact maximum of <alpha_full, x> over the 0/1 points of
    the full row, so the cut is valid exactly when row_max <= beta_full.
    """

    alpha_full: np.ndarray
    beta_full: float
    row_max: float


class _ValueTable:
    """Knapsack value function of the items released so far.

    `value(c)` is the maximum of <profits, x> over the released items with
    total weight <= c, for 0 <= c <= capacity, and 0.0 for c < 0.
    """

    def __init__(self, capacity: int):
        self.capacity = max(int(capacity), 0)
        self._g = np.zeros(self.capacity + 1)
        self._free: list[float] = []  # zero-weight positive profits, in order

    def release(self, profit: float, weight: int) -> None:
        if not profit > 0.0 or weight > self.capacity:
            return
        if weight == 0:
            self._free.append(profit)
            return
        g = self._g
        np.maximum(g[weight:], g[: self.capacity + 1 - weight] + profit, out=g[weight:])

    def value(self, capacity: int) -> float:
        if capacity < 0:
            return 0.0
        free = float(np.array(self._free).sum()) if self._free else 0.0
        return free + float(self._g[capacity])

    @classmethod
    def over(cls, profits: np.ndarray, weights: np.ndarray, capacity: int) -> "_ValueTable":
        table = cls(capacity)
        for p, w in zip(profits, weights):
            table.release(float(p), int(w))
        return table


def lift_cut(reduced_cut: Cut, sub: KnapsackSubproblem) -> LiftedCut:
    """Lift a cut valid for the reduced knapsack to the full row.

    Down-lifts `sub.fixed_one` and then up-lifts `sub.fixed_zero`, each in
    its stored order.  The result carries `row_max`; lifting never raises on
    an invalid input cut, it is up to the caller to compare row_max with
    beta_full.
    """
    alpha = np.asarray(reduced_cut.alpha, dtype=np.float64)
    if alpha.shape != (sub.size,):
        raise DimensionMismatchError("cut dimension differs from the reduced knapsack")

    row_w = sub.row_weights
    alpha_full = np.zeros(sub.original_dimension)
    alpha_full[list(sub.index_map)] = alpha
    rhs = float(reduced_cut.beta)
    capacity = sub.capacity
    table = _ValueTable.over(alpha, sub.weights, sub.row_capacity)

    for j in sub.fixed_one:
        wj = int(row_w[j])
        capacity += wj
        beta_j = table.value(capacity) - rhs
        rhs += beta_j
        alpha_full[j] = beta_j
        table.release(beta_j, wj)
    assert capacity == sub.row_capacity

    for j in sub.fixed_zero:
        wj = int(row_w[j])
        beta_j = rhs - table.value(capacity - wj)
        alpha_full[j] = beta_j
        table.release(beta_j, wj)

    row_max, _ = knapsack_dp_max(KnapsackSubproblem.plain(row_w, capacity), alpha_full)
    return LiftedCut(alpha_full=alpha_full, beta_full=rhs, row_max=row_max)
