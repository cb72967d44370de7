"""Seeded input generators and reference optima for the benchmark workloads.

Every input is a pure function of (workload, seed, index); none of it calls
into `fwcuts`, so a change to the program cannot change what it is fed.

* mkp-cb: Chu-Beasley-style correlated multi-knapsack (Chu & Beasley,
  J. Heuristics 1998), the same formula as `tests/_cb_fixture.py` but with
  a smaller item count, emitted as mknap text.
* gap-assign: generalized assignment in Martello-Toth type C shape, emitted
  as gap text.  Instances without an integer solution are skipped at
  generation time, because gap closed is undefined for them.
* separate-stream: single-row knapsack separation problems whose targets
  sit near the boundary of the row's integer hull.

Reference optima come from scipy's HiGHS `milp` with the relative gap pinned
to 0.  They are preparation, not set-up: they are solved once per
(workload, seed, index), checked, and cached in `.cache/` beside this file.
"""

from __future__ import annotations

import ctypes
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

CACHE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".cache")

MKP_ITEMS = 30
MKP_ROWS = 5
MKP_TIGHTNESS = 0.25

GAP_AGENTS = 5
GAP_JOBS = 20

STREAM_K = (8, 16)
STREAM_CAP_SHARE = (0.25, 0.60)
STREAM_MAX_STEP = 0.2


@dataclass(frozen=True)
class Reference:
    optimum: int
    incumbent: np.ndarray


# ---------------------------------------------------------------- mkp-cb


def mkp_arrays(rng: np.random.Generator):
    """One correlated instance: profits tied to the mean weight plus noise."""
    A = rng.integers(1, 1001, size=(MKP_ROWS, MKP_ITEMS))
    b = np.floor(MKP_TIGHTNESS * A.sum(axis=1)).astype(np.int64)
    c = (A.sum(axis=0) / MKP_ROWS + 500.0 * rng.random(MKP_ITEMS)).astype(np.int64)
    return c, A, b


def mknap_text(instances) -> str:
    """mknap text for (profits, weights, capacities) triples; optimum unknown."""
    parts = [str(len(instances))]
    for c, A, b in instances:
        parts.append(f"{len(c)} {len(b)} 0")
        parts.append(" ".join(map(str, c)))
        parts.extend(" ".join(map(str, row)) for row in A)
        parts.append(" ".join(map(str, b)))
    return "\n".join(parts) + "\n"


# ------------------------------------------------------------ gap-assign


def gap_arrays(rng: np.random.Generator):
    """Martello-Toth type C: costs 10-50 (maximized), resources 5-25,
    capacity floor(0.8 * sum_j r_ij / m)."""
    costs = rng.integers(10, 51, size=(GAP_AGENTS, GAP_JOBS))
    res = rng.integers(5, 26, size=(GAP_AGENTS, GAP_JOBS))
    caps = np.floor(0.8 * res.sum(axis=1) / GAP_AGENTS).astype(np.int64)
    return costs, res, caps


def gap_text(instances) -> str:
    parts = [str(len(instances))]
    for costs, res, caps in instances:
        parts.append(f"{costs.shape[0]} {costs.shape[1]}")
        parts.extend(" ".join(map(str, row)) for row in costs)
        parts.extend(" ".join(map(str, row)) for row in res)
        parts.append(" ".join(map(str, caps)))
    return "\n".join(parts) + "\n"


def gap_as_mip(costs, res, caps):
    """(c, A_ub, b_ub, A_eq) in the variable layout of `parse_gap`
    (agent-major: variable (i, j) at i*n + j)."""
    m, n = costs.shape
    A = np.zeros((m, m * n), dtype=np.int64)
    for i in range(m):
        A[i, i * n : (i + 1) * n] = res[i]
    E = np.zeros((n, m * n), dtype=np.int64)
    for j in range(n):
        E[j, j::n] = 1
    return costs.reshape(-1), A, caps, E


# ------------------------------------------------------- separate-stream


def _greedy_packing(rng, w, cap) -> np.ndarray:
    """A maximal 0/1 packing: items in random order, each taken if it fits."""
    x = np.zeros(len(w))
    load = 0
    for j in rng.permutation(len(w)):
        if load + w[j] <= cap:
            x[j] = 1.0
            load += int(w[j])
    return x


def stream_problem(rng: np.random.Generator):
    """(weights, capacity, target) for one separation problem.

    The target is a random convex combination of k+1 maximal packings,
    pushed along a random unit direction by a step in [0, 0.2], clipped to
    the unit cube and scaled back onto the row if it overloads it.
    """
    k = int(rng.integers(STREAM_K[0], STREAM_K[1] + 1))
    w = rng.integers(1, 1001, size=k)
    cap = int(rng.uniform(*STREAM_CAP_SHARE) * w.sum())
    vertices = np.array([_greedy_packing(rng, w, cap) for _ in range(k + 1)])
    x = rng.dirichlet(np.ones(k + 1)) @ vertices
    d = rng.normal(size=k)
    x = np.clip(x + rng.uniform(0.0, STREAM_MAX_STEP) * d / np.linalg.norm(d), 0.0, 1.0)
    load = float(w @ x)
    if load > cap:
        x = x * (cap / load)
    return w, cap, x


# ------------------------------------------------------ reference optima


@contextmanager
def _quiet_stdout():
    """HiGHS's MIP solver prints some lines straight to file descriptor 1;
    keep them off the benchmark's standard output, whose last line is the
    result."""
    sys.stdout.flush()
    saved = os.dup(1)
    try:
        with open(os.devnull, "w") as sink:
            os.dup2(sink.fileno(), 1)
            try:
                yield
            finally:
                libc = ctypes.CDLL(None)
                libc.fflush.argtypes = [ctypes.c_void_p]
                libc.fflush(None)
                os.dup2(saved, 1)
    finally:
        os.close(saved)


def _solve_mip(c, A, b, E=None) -> Reference | None:
    """Exact max <c, x> over 0/1 x with Ax <= b (and Ex = 1); None when no
    integer solution exists.  The incumbent is verified before returning."""
    from scipy.optimize import LinearConstraint, milp

    cons = [LinearConstraint(A.astype(float), -np.inf, b.astype(float))]
    if E is not None:
        cons.append(LinearConstraint(E.astype(float), 1.0, 1.0))
    with _quiet_stdout():
        res = milp(
            c=-c.astype(float),
            integrality=np.ones(len(c)),
            bounds=(0, 1),
            constraints=cons,
            options={"mip_rel_gap": 0.0},
        )
    if res.status == 2:  # infeasible
        return None
    if res.status != 0:
        raise RuntimeError(f"reference solve failed: {res.message}")
    x = np.round(res.x).astype(np.int64)
    ref = Reference(int(c @ x), x)
    problem = verify_reference(ref, c, A, b, E)
    if problem:
        raise RuntimeError(f"reference incumbent rejected: {problem}")
    if abs(-res.fun - ref.optimum) >= 0.5:
        raise RuntimeError("reference bound disagrees with its incumbent")
    return ref


def verify_reference(ref: Reference, c, A, b, E=None) -> str:
    """Empty string if the incumbent is a feasible 0/1 point of value
    `optimum`; otherwise what is wrong with it."""
    x = ref.incumbent
    if x.shape != (len(c),) or not np.all((x == 0) | (x == 1)):
        return "incumbent is not a 0/1 vector of the right length"
    if np.any(A @ x > b):
        return "incumbent violates a knapsack row"
    if E is not None and np.any(E @ x != 1):
        return "incumbent violates an assignment row"
    if int(c @ x) != ref.optimum:
        return "incumbent value differs from the stored optimum"
    return ""


class ReferenceCache:
    """Reference optima keyed by (workload, seed, index), kept as JSON."""

    def __init__(self, workload: str, seed: int):
        self.path = os.path.join(CACHE_DIR, f"optima-{workload}-{seed}.json")
        self.entries: dict[str, dict | None] = {}
        if os.path.exists(self.path):
            with open(self.path) as fh:
                self.entries = json.load(fh)
        self.solved = 0  # references computed in this process (not cached)
        self.solve_s = 0.0

    def get(self, index: int, c, A, b, E=None) -> Reference | None:
        key = str(index)
        if key not in self.entries:
            t0 = time.perf_counter()
            ref = _solve_mip(c, A, b, E)
            self.solve_s += time.perf_counter() - t0
            self.solved += 1
            self.entries[key] = (
                None if ref is None else {"optimum": ref.optimum, "incumbent": ref.incumbent.tolist()}
            )
        entry = self.entries[key]
        if entry is None:
            return None
        return Reference(int(entry["optimum"]), np.asarray(entry["incumbent"], dtype=np.int64))

    def save(self) -> None:
        if not self.solved:
            return
        os.makedirs(CACHE_DIR, exist_ok=True)
        tmp = self.path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.entries, fh)
        os.replace(tmp, self.path)
