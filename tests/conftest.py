"""Shared test helpers.

Reference computations here are deliberately independent of the package
internals they are used to check: brute force enumerates {0,1}^k directly,
and the hull projection is a min-norm-point active-set iteration whose result
is certified a posteriori (feasible convex weights plus the variational
inequality over every vertex), so its correctness does not depend on the
solver under test.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from fwcuts.instances import MkpInstance
from fwcuts.oracles import KnapsackSubproblem, knapsack_dp_max


def all_binary_points(k: int) -> np.ndarray:
    return np.array(list(itertools.product((0, 1), repeat=k)), dtype=np.int64)


def feasible_points(weights, capacity) -> np.ndarray:
    """All 0/1 points of one knapsack row, lexicographic order."""
    w = np.asarray(weights, dtype=np.int64)
    pts = all_binary_points(len(w))
    return pts[pts @ w <= int(capacity)]


def brute_force_min(points: np.ndarray, direction) -> tuple[float, np.ndarray]:
    vals = points @ np.asarray(direction, dtype=np.float64)
    i = int(np.argmin(vals))
    return float(vals[i]), points[i]


def brute_force_max(points: np.ndarray, direction) -> tuple[float, np.ndarray]:
    vals = points @ np.asarray(direction, dtype=np.float64)
    i = int(np.argmax(vals))
    return float(vals[i]), points[i]


def enumerate_optimum(instance: MkpInstance) -> int:
    pts = all_binary_points(instance.n)
    keep = np.ones(len(pts), dtype=bool)
    for i in range(instance.m):
        keep &= pts @ instance.weights[i] <= instance.capacities[i]
    for coeffs, rhs in instance.eq_rows:
        keep &= pts @ coeffs == rhs
    return int((pts[keep] @ instance.profits).max())


def random_small_instance(rng, n=10, m=2) -> MkpInstance:
    A = rng.integers(1, 20, size=(m, n))
    b = (0.5 * A.sum(axis=1)).astype(int)
    c = (A.sum(axis=0) / m + 10 * rng.random(n)).astype(int) + 1
    inst = MkpInstance(f"rand{rng.integers(1e9)}", n, m, c, A, b)
    return dataclasses.replace(inst, known_optimum=enumerate_optimum(inst))


def random_knapsack(rng, k_min=3, k_max=12, w_max=20, tight_lo=0.3, tight_hi=0.7):
    k = int(rng.integers(k_min, k_max + 1))
    w = rng.integers(1, w_max + 1, size=k)
    total = int(w.sum())
    lo = max(1, int(tight_lo * total))
    hi = max(lo + 1, int(tight_hi * total) + 1)
    cap = int(rng.integers(lo, hi))
    return w, cap


def single_row_problem(seed):
    """(weights, capacity, target) of a seeded single-row separation problem:
    k in [8, 16], weights 1-1000, capacity 25-60 % of the weight sum, and a
    uniform target scaled to 0.8-1.3 times the capacity, clipped to [0, 1]."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(8, 17))
    w = rng.integers(1, 1001, size=k)
    cap = int(rng.uniform(0.25, 0.6) * w.sum())
    x = rng.uniform(0.0, 1.0, size=k)
    x = np.clip(x * rng.uniform(0.8, 1.3) * cap / float(w @ x), 0.0, 1.0)
    return w, cap, x


MICROBENCH_SEED = 20240611  # the instance of tests/test_microbench.py


def cb_style_instance(seed, n=30, m=5, tightness=0.25) -> MkpInstance:
    """Seeded Chu-Beasley-style instance: weights 1-1000, capacities a
    `tightness` share of each row's weight sum, and profits correlated with
    the mean column weight (the shape of the benchmark's mkp-cb workload)."""
    rng = np.random.default_rng(seed)
    A = rng.integers(1, 1001, size=(m, n))
    b = np.floor(tightness * A.sum(axis=1)).astype(np.int64)
    c = (A.sum(axis=0) / m + 500.0 * rng.random(n)).astype(np.int64)
    return MkpInstance(f"micro-cb-{seed}", n, m, c, A, b)


def _fresh_dp_value(profits, weights, capacity: int) -> float:
    if capacity < 0 or len(profits) == 0:
        return 0.0
    value, _ = knapsack_dp_max(
        KnapsackSubproblem.plain(weights, capacity), np.asarray(profits, dtype=np.float64)
    )
    return value


def reference_lift_cut(reduced_cut, sub):
    """Sequential lifting with one fresh knapsack DP per fixed variable.

    This is the direct O(n^2 * C) algorithm that `fwcuts.lifting.lift_cut`
    must reproduce bit for bit: `sub.fixed_one` is down-lifted and then
    `sub.fixed_zero` up-lifted, in stored order.  Returns (alpha_full,
    beta_full).
    """
    row_w = sub.row_weights
    alpha_full = np.zeros(sub.original_dimension)
    alpha_full[list(sub.index_map)] = np.asarray(reduced_cut.alpha, dtype=np.float64)
    rhs = float(reduced_cut.beta)
    capacity = sub.capacity
    processed = list(sub.index_map)
    for j in sub.fixed_one:
        z = _fresh_dp_value(alpha_full[processed], row_w[processed], capacity + int(row_w[j]))
        beta_j = z - rhs
        rhs = rhs + beta_j
        capacity += int(row_w[j])
        alpha_full[j] = beta_j
        processed.append(j)
    for j in sub.fixed_zero:
        z = _fresh_dp_value(alpha_full[processed], row_w[processed], capacity - int(row_w[j]))
        beta_j = rhs - z
        alpha_full[j] = beta_j
        processed.append(j)
    return alpha_full, rhs


def _affine_min(P: np.ndarray, point: np.ndarray) -> np.ndarray:
    """argmin ||point - P' lam|| subject to sum(lam) = 1 (lam unconstrained)."""
    s = len(P)
    G = P @ P.T
    kkt = np.zeros((s + 1, s + 1))
    kkt[:s, :s] = G
    kkt[:s, s] = 1.0
    kkt[s, :s] = 1.0
    rhs = np.concatenate([P @ point, [1.0]])
    sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    return sol[:s]


def hull_projection(point, vertices, tol=1e-12, max_rounds=500):
    """Euclidean projection of `point` onto conv(vertices).

    Min-norm-point style major/minor cycles with exact affine solves on the
    support.  Returns (projection, distance).  The result is certified: the
    weights are a convex combination and <x - point, x - v> <= 1e-8 holds for
    every vertex; the test fails loudly if certification fails.
    """
    V = np.asarray(vertices, dtype=np.float64)
    point = np.asarray(point, dtype=np.float64)
    start = int(np.argmin(((V - point) ** 2).sum(axis=1)))
    support = [start]
    weights = np.array([1.0])

    for _ in range(max_rounds):
        x = weights @ V[support]
        g = x - point
        scores = V @ g
        j = int(np.argmin(scores))
        if float(g @ x) - float(scores[j]) <= tol * max(1.0, float(g @ g)):
            break
        if j in support:
            break
        support.append(j)
        weights = np.append(weights, 0.0)
        for _ in range(len(V) + 1):  # minor cycle
            lam = _affine_min(V[support], point)
            if np.all(lam > 1e-12):
                weights = lam
                break
            shrink = weights - lam
            movable = shrink > 1e-15
            theta = min(1.0, float(np.min(weights[movable] / shrink[movable])))
            weights = weights + theta * (lam - weights)
            weights[weights < 1e-12] = 0.0
            keep = weights > 0.0
            if keep.all():
                weights = lam  # numerical corner: accept the affine solution
                break
            support = [s for s, k in zip(support, keep) if k]
            weights = weights[keep]
            weights = weights / weights.sum()

    x = weights @ V[support]
    assert np.all(weights >= -1e-12) and abs(weights.sum() - 1.0) < 1e-9
    vi = float(np.max((x - point) @ (x[None, :] - V).T))
    assert vi <= 1e-8, f"projection not certified: variational inequality {vi}"
    return x, float(np.linalg.norm(point - x))


def squared_diameter(points: np.ndarray) -> float:
    P = points.astype(np.float64)
    sq = (P**2).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (P @ P.T)
    return float(np.max(d2))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
