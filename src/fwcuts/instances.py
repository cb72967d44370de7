"""Parsers for whitespace-separated knapsack and assignment instance files.

mknap format: `K` instances, each `n m opt`, then n profits, then the m x n
weight matrix row-major, then m capacities.  A header optimum of 0 is the
usual marker for "unknown" and is parsed as absent.

gap format: `K` instances, each `m n` (agents, jobs), then the m x n cost
matrix, the m x n resource matrix, and m capacities.  Costs are maximized.
Each job must go to exactly one agent; those equalities are kept separately
from the knapsack rows so the driver never tries to separate them.  Optima
are not part of the file; `load_gap_optima` reads a sidecar stream of K
values in instance order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParseError

_INT64 = np.iinfo(np.int64)


@dataclass(frozen=True)
class MkpInstance:
    """A 0/1 program max <c, x> s.t. Ax <= b (+ optional equality rows)."""

    name: str
    n: int
    m: int
    profits: np.ndarray
    weights: np.ndarray
    capacities: np.ndarray
    known_optimum: int | None = None
    eq_rows: tuple[tuple[np.ndarray, int], ...] = ()

    def __post_init__(self):
        c = np.asarray(self.profits, dtype=np.int64)
        A = np.asarray(self.weights, dtype=np.int64)
        b = np.asarray(self.capacities, dtype=np.int64)
        object.__setattr__(self, "profits", c)
        object.__setattr__(self, "weights", A)
        object.__setattr__(self, "capacities", b)
        if c.shape != (self.n,) or A.shape != (self.m, self.n) or b.shape != (self.m,):
            raise ValueError("instance dimensions are inconsistent")
        if np.any(A < 0):
            raise ValueError("weights must be nonnegative")
        if np.any(b < 0):
            raise ValueError("capacities must be nonnegative")


class _Tokens:
    def __init__(self, data: str | bytes):
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        self._tokens = data.split()
        self._pos = 0

    def next_int(self, what: str) -> int:
        """The next token as an int64 value; integral float spellings such as
        `7.0` or `1e3` are accepted, `2.5`, `inf` and `nan` are not."""
        if self._pos >= len(self._tokens):
            raise ParseError(f"stream ended while reading {what}", self._pos)
        token = self._tokens[self._pos]
        try:
            value = int(token)
        except ValueError:
            try:
                number = float(token)
            except ValueError:
                raise ParseError(f"expected a number for {what}, got {token!r}", self._pos)
            if not number.is_integer():
                raise ParseError(f"expected an integer for {what}, got {token!r}", self._pos)
            value = int(number)
        if not _INT64.min <= value <= _INT64.max:
            raise ParseError(f"{what} {token!r} is outside the int64 range", self._pos)
        self._pos += 1
        return value

    def next_dim(self, what: str) -> int:
        """The next token as an instance dimension, which must be at least 1."""
        offset = self._pos
        value = self.next_int(what)
        if value < 1:
            raise ParseError(f"{what} must be at least 1, got {value}", offset)
        return value

    def next_ints(self, count: int, what: str) -> np.ndarray:
        return np.array([self.next_int(what) for _ in range(count)], dtype=np.int64)

    def remaining(self) -> int:
        return len(self._tokens) - self._pos


def parse_mknap(data: str | bytes, name: str = "mknap") -> list[MkpInstance]:
    tok = _Tokens(data)
    count = tok.next_int("instance count")
    instances = []
    for idx in range(count):
        n = tok.next_dim(f"n of instance {idx}")
        m = tok.next_dim(f"m of instance {idx}")
        opt = tok.next_int(f"optimum of instance {idx}")
        profits = tok.next_ints(n, f"profit c[j] of instance {idx}")
        weights = np.stack(
            [tok.next_ints(n, f"weight A[{i}][j] of instance {idx}") for i in range(m)]
        )
        caps = tok.next_ints(m, f"capacity b[i] of instance {idx}")
        instances.append(
            MkpInstance(
                name=f"{name}#{idx}",
                n=n,
                m=m,
                profits=profits,
                weights=weights,
                capacities=caps,
                known_optimum=opt if opt != 0 else None,
            )
        )
    return instances


def format_mknap(instances) -> str:
    """Inverse of parse_mknap (used to build fixtures)."""
    parts = [str(len(instances))]
    for inst in instances:
        parts.append(f"{inst.n} {inst.m} {inst.known_optimum or 0}")
        parts.append(" ".join(map(str, inst.profits)))
        for row in inst.weights:
            parts.append(" ".join(map(str, row)))
        parts.append(" ".join(map(str, inst.capacities)))
    return "\n".join(parts) + "\n"


def parse_gap(data: str | bytes, name: str = "gap") -> list[MkpInstance]:
    """Assignment instances: one knapsack row per agent over that agent's
    variables, plus one equality row per job (kept in eq_rows)."""
    tok = _Tokens(data)
    count = tok.next_int("instance count")
    instances = []
    for idx in range(count):
        m = tok.next_dim(f"agent count of instance {idx}")
        n = tok.next_dim(f"job count of instance {idx}")
        costs = np.stack(
            [tok.next_ints(n, f"cost c[{i}][j] of instance {idx}") for i in range(m)]
        )
        resources = np.stack(
            [tok.next_ints(n, f"resource r[{i}][j] of instance {idx}") for i in range(m)]
        )
        caps = tok.next_ints(m, f"capacity b[i] of instance {idx}")
        nvar = m * n
        weights = np.zeros((m, nvar), dtype=np.int64)
        for i in range(m):
            weights[i, i * n : (i + 1) * n] = resources[i]
        eq_rows = []
        for j in range(n):
            coeffs = np.zeros(nvar, dtype=np.int64)
            coeffs[j::n] = 1  # variable (i, j) sits at index i*n + j
            eq_rows.append((coeffs, 1))
        instances.append(
            MkpInstance(
                name=f"{name}#{idx}",
                n=nvar,
                m=m,
                profits=costs.reshape(-1),
                weights=weights,
                capacities=caps,
                eq_rows=tuple(eq_rows),
            )
        )
    return instances


def load_gap_optima(data: str | bytes) -> list[int]:
    """Sidecar stream of known optima, one value per instance in file order."""
    tok = _Tokens(data)
    values = []
    while tok.remaining():
        values.append(tok.next_int("optimum"))
    return values
