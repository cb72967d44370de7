"""Sequential lifting of reduced-knapsack inequalities back to the full row.

A cut valid for the reduced knapsack (fixed variables removed) is extended to
a cut valid for the original single-row knapsack by introducing the fixed
variables one at a time.  Variables fixed at 1 are "down-lifted" first: each
release restores that item's weight to the capacity, so every intermediate
maximization runs over a nonnegative integer capacity.  Variables fixed at 0
are "up-lifted" afterwards.

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
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError
from .oracles import KnapsackSubproblem, knapsack_dp_max
from .separation import Cut

ORDER_DOWN_UP = "down-up"
ORDER_DOWN_ONLY = "down"
_POLICIES = (ORDER_DOWN_UP, ORDER_DOWN_ONLY)


@dataclass(frozen=True)
class LiftedCut:
    """A full-row inequality <alpha_full, x> <= beta_full obtained by lifting.

    `lifted_coeffs` maps each originally-fixed index to its coefficient
    (0.0 for variables skipped by the down-only policy); `order_used` is the
    sequence in which fixed variables were introduced.  `row_max` is the
    exact maximum of <alpha_full, x> over the 0/1 points of the full row, so
    the cut is valid exactly when row_max <= beta_full.
    """

    alpha_full: np.ndarray
    beta_full: float
    lifted_coeffs: dict[int, float]
    order_used: tuple[int, ...]
    row_max: float
    source: str = "lifted"

    def __post_init__(self):
        object.__setattr__(
            self, "alpha_full", np.asarray(self.alpha_full, dtype=np.float64)
        )

    def violation(self, point) -> float:
        return float(self.alpha_full @ np.asarray(point, dtype=np.float64) - self.beta_full)


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
    def over(cls, profits, weights, capacity: int) -> "_ValueTable":
        profits = np.asarray(profits, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.int64)
        if profits.shape != weights.shape:
            raise DimensionMismatchError("profits and weights differ in length")
        if np.any(weights < 0):
            raise ValueError("knapsack weights must be nonnegative")
        table = cls(capacity)
        for p, w in zip(profits, weights):
            table.release(float(p), int(w))
        return table


def uplift(processed_alpha, processed_weights, rhs: float, capacity: int, item_weight: int) -> float:
    """Coefficient for releasing one variable fixed at zero.

    The inequality <alpha, x> <= rhs is valid over the processed items at
    `capacity` with the new item fixed at 0.  Setting the item to 1 leaves
    capacity - item_weight for the others, so the largest coefficient that
    keeps the inequality valid is rhs minus the maximum the others can still
    reach.
    """
    rest = int(capacity) - int(item_weight)
    z = _ValueTable.over(processed_alpha, processed_weights, rest).value(rest)
    return float(rhs) - z


def downlift(
    processed_alpha, processed_weights, rhs: float, capacity_when_fixed: int, item_weight: int
) -> tuple[float, float]:
    """Coefficient and updated rhs for releasing one variable fixed at one.

    The inequality is valid over the processed items at `capacity_when_fixed`
    (the item's weight already subtracted).  Freeing the item restores its
    weight; the x_j = 0 scenario then allows the others to reach z, so the
    coefficient is z - rhs and the right-hand side grows by the same amount.
    Returns (beta_j, new_rhs); beta_j may have either sign.
    """
    restored = int(capacity_when_fixed) + int(item_weight)
    z = _ValueTable.over(processed_alpha, processed_weights, restored).value(restored)
    beta = z - float(rhs)
    return beta, float(rhs) + beta


def lift_cut(
    reduced_cut: Cut,
    sub: KnapsackSubproblem,
    order_policy: str = ORDER_DOWN_UP,
    f1_order: Sequence[int] | None = None,
    f0_order: Sequence[int] | None = None,
) -> LiftedCut:
    """Lift a cut valid for the reduced knapsack to the full row.

    `f1_order` / `f0_order` override the default ascending introduction order
    within each group (validity holds for every order; coefficients may
    differ).  The down-only policy leaves the zero-fixed variables at
    coefficient 0, which is valid because the cut then does not constrain
    them.  The result carries `row_max`; lifting never raises on an invalid
    input cut, it is up to the caller to compare row_max with beta_full.
    """
    if order_policy not in _POLICIES:
        raise ValueError(f"unknown lifting order policy {order_policy!r}")
    if sub.row_weights is None:
        raise ValueError("subproblem does not carry the original row; cannot lift")
    alpha = np.asarray(reduced_cut.alpha, dtype=np.float64)
    if alpha.shape != (sub.size,):
        raise DimensionMismatchError("cut dimension differs from the reduced knapsack")

    f1 = tuple(f1_order) if f1_order is not None else sub.fixed_one
    f0 = tuple(f0_order) if f0_order is not None else sub.fixed_zero
    if sorted(f1) != sorted(sub.fixed_one) or sorted(f0) != sorted(sub.fixed_zero):
        raise ValueError("lifting orders must permute the fixed index sets")

    n = sub.original_dimension
    row_w = sub.row_weights
    alpha_full = np.zeros(n)
    alpha_full[list(sub.index_map)] = alpha
    rhs = float(reduced_cut.beta)
    capacity = sub.capacity
    table = _ValueTable.over(alpha, sub.weights, sub.row_capacity)
    lifted: dict[int, float] = {}
    order_used: list[int] = []

    for j in f1:
        wj = int(row_w[j])
        capacity += wj
        beta_j = table.value(capacity) - rhs
        rhs += beta_j
        alpha_full[j] = beta_j
        lifted[j] = beta_j
        table.release(beta_j, wj)
        order_used.append(j)
    assert capacity == sub.row_capacity

    if order_policy == ORDER_DOWN_UP:
        for j in f0:
            wj = int(row_w[j])
            beta_j = rhs - table.value(capacity - wj)
            alpha_full[j] = beta_j
            lifted[j] = beta_j
            table.release(beta_j, wj)
            order_used.append(j)
    else:
        for j in f0:
            lifted[j] = 0.0

    row_max, _ = knapsack_dp_max(KnapsackSubproblem.plain(row_w, capacity), alpha_full)
    return LiftedCut(
        alpha_full=alpha_full,
        beta_full=rhs,
        lifted_coeffs=lifted,
        order_used=tuple(order_used),
        row_max=row_max,
    )
