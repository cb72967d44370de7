"""Separation of a point from an oracle-described 0/1 polytope.

The projection of a target point onto the polytope is computed by conditional
gradients: minimize f(y) = 0.5*||y - target||^2 using only a linear
minimization oracle.  Two solvers are provided;

* `separate_vanilla` is the plain method (one oracle call per iteration),
  kept mainly to exercise the worst-case iteration bound, and
* `separate_lazy_afw` is the production solver: away steps over an explicit
  active set, lazification (reuse of cached vertices below a decaying
  threshold phi), and the same early-termination test.

Both stop as soon as the duality test
``<y - target, y - v> < 0.5*||target - y||^2`` holds for a genuine oracle
minimizer v: that certifies the target lies outside the polytope and directly
yields a valid inequality ``<target - y, x> <= <target - y, v>`` violated by
the target by at least ``0.5*||target - y||^2``.  Membership is certified by
f dropping below the tolerance.  The test is sound only against a true oracle
answer.  `separate_lazy_afw` runs it on every iteration that calls the oracle
anyway (forward and dual steps).  A lazy step runs it only when the cached
vertex's gap is below f, since the true gap is at least that large and the
test could not fire otherwise; it then pays one confirming oracle call.  Away
steps never run the test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    ActiveSetConsistencyError,
    DimensionMismatchError,
    UndefinedBoundError,
)
from .oracles import LinearMinimizationOracle

STOP_EPSILON_MEMBERSHIP = "epsilon-membership"
STOP_EARLY_CRITERION = "early-criterion"
STOP_ZERO_GRADIENT = "zero-gradient"
STOP_ITERATION_LIMIT = "iteration-limit"

STEP_LINE_SEARCH = "line-search"
STEP_AGNOSTIC = "agnostic"

_DROP_WEIGHT = 1e-12
_WEIGHT_DRIFT_ERROR = 1e-6
_INITIAL_ROWS = 16
# divides phi in the cached-step thresholds and in the dual-step update
LAZIFICATION_FACTOR = 2.0


@dataclass(frozen=True)
class FwConfig:
    """Solver knobs.

    `step_rule` is "line-search" (closed form, since f is quadratic) or
    "agnostic" (2/(t+2)).  Both solvers stop on membership (f below
    `epsilon`), on the duality test, or after `max_iters` iterations.  Every
    run starts at the vertex maximizing <target, v>.
    """

    max_iters: int = 10_000
    epsilon: float = 1e-9
    step_rule: str = STEP_LINE_SEARCH
    record_trace: bool = False  # per-iteration (f, step kind) in the stats

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.step_rule not in (STEP_LINE_SEARCH, STEP_AGNOSTIC):
            raise ValueError(f"unknown step rule {self.step_rule!r}")


@dataclass(frozen=True)
class Cut:
    """A valid inequality <alpha, x> <= beta with provenance."""

    alpha: np.ndarray
    beta: float
    violation_at_target: float
    source: str  # "fw-converged" | "early-stop" | "lifted"
    sense: str = "<="

    def __post_init__(self):
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=np.float64))
        if not np.linalg.norm(self.alpha) > 0:
            raise ValueError("cut normal must be nonzero")

    def violation(self, point) -> float:
        return float(self.alpha @ np.asarray(point, dtype=np.float64) - self.beta)

    def normalized(self) -> "Cut":
        """Copy scaled so that ||alpha||_inf = 1 (for reporting)."""
        scale = float(np.max(np.abs(self.alpha)))
        return replace(
            self,
            alpha=self.alpha / scale,
            beta=self.beta / scale,
            violation_at_target=self.violation_at_target / scale,
        )


@dataclass(frozen=True)
class Membership:
    final_f: float


@dataclass(frozen=True)
class Separated:
    cut: Cut


@dataclass(frozen=True)
class Undecided:
    """Iteration limit hit without a membership or separation certificate."""

    final_f: float


@dataclass(frozen=True)
class SeparationStats:
    iterations: int  # 0-based index of the iteration in which the run stopped
    oracle_calls: int
    lazy_hits: int
    away_steps: int
    dual_steps: int
    stop_reason: str
    final_f: float
    trace: tuple[tuple[float, str], ...] | None = None


@dataclass(frozen=True)
class SeparationOutcome:
    result: Membership | Separated | Undecided
    stats: SeparationStats

    @property
    def is_separated(self) -> bool:
        return isinstance(self.result, Separated)

    @property
    def is_membership(self) -> bool:
        return isinstance(self.result, Membership)

    @property
    def cut(self) -> Cut | None:
        return self.result.cut if isinstance(self.result, Separated) else None


class ActiveSet:
    """Explicit convex combination of oracle vertices representing the iterate.

    Vertices are pairwise distinct; weights live on the unit simplex and are
    pruned below 1e-12.  Argmin/argmax ties go to the lowest index.

    Storage: vertex i is row i of one preallocated float64 matrix and its
    weight is entry i of a matching array, for i < len(self); the rows past
    that are unused.  The matrix starts with 16 rows and doubles when full.
    Pruning compacts the kept rows in order.  A dict from each vertex's
    bytes to its row makes merging a vertex that is already present O(k).
    `vertex(i)` returns a read-only view into the matrix, which is valid only
    until the next `fw_update` or `away_update`; `entries` returns copies.
    """

    def __init__(self, vertex: np.ndarray):
        v = np.asarray(vertex, dtype=np.float64)
        self._size = 1
        self._weights = np.empty(_INITIAL_ROWS)
        self._weights[0] = 1.0
        self._vertices = np.empty((_INITIAL_ROWS, v.shape[0]))
        self._vertices[0] = v
        self._index: dict[bytes, int] = {v.tobytes(): 0}

    def __len__(self) -> int:
        return self._size

    @property
    def entries(self) -> list[tuple[float, np.ndarray]]:
        s = self._size
        return [(float(w), v.copy()) for w, v in zip(self._weights[:s], self._vertices[:s])]

    @property
    def iterate(self) -> np.ndarray:
        s = self._size
        return self._weights[:s] @ self._vertices[:s]

    def vertex(self, i: int) -> np.ndarray:
        """Read-only view of vertex i, valid until the next update."""
        view = self._vertices[: self._size][i]
        view.flags.writeable = False
        return view

    def weight(self, i: int) -> float:
        return float(self._weights[: self._size][i])

    def extremes(self, gradient: np.ndarray) -> tuple[int, int]:
        """(argmin, argmax) of <gradient, v> over the set, lowest index on ties."""
        dots = self._vertices[: self._size] @ gradient
        return int(dots.argmin()), int(dots.argmax())

    def fw_update(self, gamma: float, vertex: np.ndarray) -> None:
        """y <- y + gamma * (vertex - y): scale all weights, merge the vertex in."""
        vertex = np.asarray(vertex, dtype=np.float64)
        s = self._size
        self._weights[:s] *= 1.0 - gamma
        key = vertex.tobytes()
        if key in self._index:
            self._weights[self._index[key]] += gamma
        else:
            if s == len(self._weights):
                self._weights = np.concatenate([self._weights, np.empty(s)])
                self._vertices = np.concatenate(
                    [self._vertices, np.empty_like(self._vertices)]
                )
            self._vertices[s] = vertex
            self._weights[s] = gamma
            self._index[key] = s
            self._size = s + 1
        self._prune()

    def away_update(self, gamma: float, away_index: int) -> None:
        """y <- y + gamma * (y - v_A): move weight away from one vertex."""
        weights = self._weights[: self._size]
        weights *= 1.0 + gamma
        weights[away_index] -= gamma
        self._prune()

    def _prune(self) -> None:
        weights = self._weights[: self._size]
        if weights.min() < _DROP_WEIGHT:
            keep = np.flatnonzero(weights >= _DROP_WEIGHT)
            s = len(keep)
            self._weights[:s] = weights[keep]
            self._vertices[:s] = self._vertices[keep]
            self._size = s
            self._index = {self._vertices[i].tobytes(): i for i in range(s)}
        total = self.weight_sum()
        if abs(total - 1.0) > _WEIGHT_DRIFT_ERROR:
            raise ActiveSetConsistencyError(
                f"active-set weights sum to {total!r}; drift exceeds {_WEIGHT_DRIFT_ERROR}"
            )

    def weight_sum(self) -> float:
        return math.fsum(self._weights[: self._size].tolist())


def fw_gap(iterate, target, lmo_vertex) -> float:
    """<iterate - target, iterate - lmo_vertex>; the dual gap when the vertex
    is a true oracle minimizer of the gradient iterate - target."""
    y = np.asarray(iterate, dtype=np.float64)
    x = np.asarray(target, dtype=np.float64)
    v = np.asarray(lmo_vertex, dtype=np.float64)
    if y.shape != x.shape or y.shape != v.shape:
        raise DimensionMismatchError("iterate, target and vertex must share a dimension")
    return float((y - x) @ (y - v))


def early_stop_check(iterate, target, candidate_vertex) -> tuple[bool, Cut | None]:
    """Duality test certifying non-membership, plus the cut it induces.

    Fires iff <y - x, y - v> < 0.5*||x - y||^2.  Sound only when
    `candidate_vertex` is a genuine oracle minimizer of the gradient y - x;
    then the returned inequality <x - y, u> <= <x - y, v> holds for every
    feasible point u and is violated at x by at least 0.5*||x - y||^2.
    """
    y = np.asarray(iterate, dtype=np.float64)
    x = np.asarray(target, dtype=np.float64)
    v = np.asarray(candidate_vertex, dtype=np.float64)
    half_sq = 0.5 * float((x - y) @ (x - y))
    if not fw_gap(y, x, v) < half_sq:
        return False, None
    alpha = x - y
    beta = float(alpha @ v)
    return True, Cut(
        alpha=alpha,
        beta=beta,
        violation_at_target=float(alpha @ x - beta),
        source="early-stop",
    )


def iteration_bound(diameter_sq: float, dist_sq: float) -> int:
    """Worst-case number of agnostic-step iterations before non-membership is
    certified: ceil(8 * D^2 / dist^2 - 3), at least 1."""
    if not diameter_sq > 0:
        raise ValueError("diameter_sq must be positive")
    if not dist_sq > 0:
        raise UndefinedBoundError("dist_sq must be positive (the point is inside)")
    return max(1, math.ceil(8.0 * diameter_sq / dist_sq - 3.0))


@dataclass(frozen=True)
class ConvergenceBound:
    """Certification horizon for the agnostic-step solver."""

    diameter_sq: float
    dist_sq: float

    @property
    def T(self) -> int:
        return iteration_bound(self.diameter_sq, self.dist_sq)


@dataclass
class _RunState:
    target: np.ndarray
    oracle: LinearMinimizationOracle
    config: FwConfig
    oracle_calls: int = 0
    lazy_hits: int = 0
    away_steps: int = 0
    dual_steps: int = 0
    memo_y: np.ndarray | None = None
    memo_v: np.ndarray | None = None
    trace: list[tuple[float, str]] | None = None

    def __post_init__(self):
        if self.config.record_trace:
            self.trace = []

    def record(self, f: float, kind: str) -> None:
        if self.trace is not None:
            self.trace.append((f, kind))

    def call_oracle(self, y: np.ndarray, gradient: np.ndarray) -> np.ndarray:
        """Genuine LMO call, memoized on the iterate (the init call and the
        first iteration share a gradient)."""
        if self.memo_y is not None and np.array_equal(self.memo_y, y):
            return self.memo_v
        v = np.asarray(self.oracle.minimize(gradient), dtype=np.float64)
        self.oracle_calls += 1
        self.memo_y = y.copy()
        self.memo_v = v
        return v

    def stats(self, iterations: int, stop_reason: str, final_f: float) -> SeparationStats:
        return SeparationStats(
            iterations=iterations,
            oracle_calls=self.oracle_calls,
            lazy_hits=self.lazy_hits,
            away_steps=self.away_steps,
            dual_steps=self.dual_steps,
            stop_reason=stop_reason,
            final_f=final_f,
            trace=tuple(self.trace) if self.trace is not None else None,
        )


def _validate_inputs(target, oracle) -> np.ndarray:
    x = np.asarray(target, dtype=np.float64)
    if x.ndim != 1:
        raise DimensionMismatchError("target must be a flat vector")
    if x.shape[0] != oracle.dimension:
        raise DimensionMismatchError(
            f"target has dimension {x.shape[0]}, oracle has {oracle.dimension}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("target must be finite")
    return x


def _initial_vertex(x: np.ndarray, state: _RunState) -> np.ndarray:
    v = np.asarray(state.oracle.minimize(-x), dtype=np.float64)
    state.oracle_calls += 1
    return v


def _step_size(config: FwConfig, t: int, x, y, direction, gamma_max: float) -> float:
    if config.step_rule == STEP_AGNOSTIC:
        return min(2.0 / (t + 2.0), gamma_max)
    denom = float(direction @ direction)
    if denom <= 0.0:
        return 0.0
    gamma = float((x - y) @ direction) / denom
    return min(max(gamma, 0.0), gamma_max)


def _limit_outcome(state: _RunState, y: np.ndarray, f: float) -> SeparationOutcome:
    """Decide what an iteration-limited run can still certify.

    One final genuine oracle call turns the last iterate into a valid
    inequality; if the target violates it we can return a cut after all.
    """
    x = state.target
    if f < state.config.epsilon:
        stats = state.stats(state.config.max_iters, STOP_EPSILON_MEMBERSHIP, f)
        return SeparationOutcome(Membership(f), stats)
    gradient = y - x
    v = state.call_oracle(y, gradient)
    alpha = x - y
    beta = float(alpha @ v)
    violation = float(alpha @ x - beta)
    stats = state.stats(state.config.max_iters, STOP_ITERATION_LIMIT, f)
    if violation > 1e-9:
        cut = Cut(alpha, beta, violation, source="fw-converged")
        return SeparationOutcome(Separated(cut), stats)
    return SeparationOutcome(Undecided(f), stats)


def _membership_outcome(state, t, f) -> SeparationOutcome:
    reason = STOP_ZERO_GRADIENT if f == 0.0 else STOP_EPSILON_MEMBERSHIP
    return SeparationOutcome(Membership(f), state.stats(t, reason, f))


def separate_vanilla(
    target, oracle: LinearMinimizationOracle, config: FwConfig | None = None
) -> SeparationOutcome:
    """Plain conditional-gradient separation (one oracle call per iteration)."""
    config = config or FwConfig()
    state = _RunState(target=np.empty(0), oracle=oracle, config=config)
    x = _validate_inputs(target, oracle)
    state.target = x
    y = _initial_vertex(x, state)

    for t in range(config.max_iters):
        diff = x - y
        f = 0.5 * float(diff @ diff)
        if f == 0.0 or f < config.epsilon:
            return _membership_outcome(state, t, f)
        gradient = y - x
        v = state.call_oracle(y, gradient)
        fired, cut = early_stop_check(y, x, v)
        if fired:
            return SeparationOutcome(Separated(cut), state.stats(t, STOP_EARLY_CRITERION, f))
        state.record(f, "fw")
        direction = v - y
        gamma = _step_size(config, t, x, y, direction, 1.0)
        y = y + gamma * direction

    diff = x - y
    return _limit_outcome(state, y, 0.5 * float(diff @ diff))


def separate_lazy_afw(
    target, oracle: LinearMinimizationOracle, config: FwConfig | None = None
) -> SeparationOutcome:
    """Away-step conditional gradients with an explicit active set, lazy
    vertex reuse, and duality-based early termination."""
    config = config or FwConfig()
    state = _RunState(target=np.empty(0), oracle=oracle, config=config)
    x = _validate_inputs(target, oracle)
    state.target = x

    y = _initial_vertex(x, state)
    active = ActiveSet(y)
    gradient = y - x
    v0 = state.call_oracle(y, gradient)
    phi = float(gradient @ (y - v0))

    for t in range(config.max_iters):
        diff = x - y
        f = 0.5 * float(diff @ diff)
        if f == 0.0 or f < config.epsilon:
            return _membership_outcome(state, t, f)
        gradient = y - x

        i_local, i_away = active.extremes(gradient)
        v_local = active.vertex(i_local)
        v_away = active.vertex(i_away)
        gap_local = float(gradient @ (y - v_local))
        gap_away = float(gradient @ (v_away - y))
        threshold = phi / LAZIFICATION_FACTOR

        # choose the step: cached forward vertex, away vertex, or oracle call
        kind = "fw"
        step_vertex = None
        gamma_max = 1.0
        fresh_v = None  # a genuine oracle answer for this iterate, if any
        if gap_local > 0.0 and gap_local >= max(gap_away, threshold):
            kind, step_vertex = "lazy", v_local
            state.lazy_hits += 1
        elif 0.0 < gap_away > gap_local and gap_away >= threshold:
            kind = "away"
            state.away_steps += 1
        else:
            fresh_v = state.call_oracle(y, gradient)
            gap_true = float(gradient @ (y - fresh_v))
            if gap_true < threshold:
                kind = "dual"
                phi = min(gap_true, phi / LAZIFICATION_FACTOR)
                state.dual_steps += 1
            else:
                step_vertex = fresh_v
        if kind == "away":
            lam = active.weight(i_away)
            gamma_max = lam / (1.0 - lam) if lam < 1.0 else 0.0
        elif kind == "dual":
            gamma_max = 0.0

        # non-membership test: sound only against a true oracle answer, so a
        # lazy step that looks like it would fire pays one confirming call
        check_v = fresh_v
        if check_v is None and kind == "lazy" and gap_local < f:
            check_v = state.call_oracle(y, gradient)
        if check_v is not None:
            fired, cut = early_stop_check(y, x, check_v)
            if fired:
                return SeparationOutcome(
                    Separated(cut), state.stats(t, STOP_EARLY_CRITERION, f)
                )

        if kind == "away" and gamma_max > 0.0:
            direction = y - v_away
            gamma = _step_size(config, t, x, y, direction, gamma_max)
            active.away_update(gamma, i_away)
            y = active.iterate
        elif kind != "dual":
            direction = step_vertex - y
            gamma = _step_size(config, t, x, y, direction, gamma_max)
            active.fw_update(gamma, step_vertex)
            y = active.iterate
        state.record(f, kind)

    diff = x - y
    return _limit_outcome(state, y, 0.5 * float(diff @ diff))
