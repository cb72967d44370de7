"""Separation of a point from an oracle-described 0/1 polytope.

The projection of a target point x onto the polytope is computed with only a
linear minimization oracle: minimize f(y) = 0.5*||y - x||^2 over the convex
hull of the oracle's vertices.  Two solvers are provided:

* `separate_min_norm_point` is the production solver, Wolfe's min-norm-point
  method (Wolfe 1976, "Finding the nearest point in a polytope", Math.
  Prog. 11), a fully corrective conditional-gradient variant.  Each major
  cycle makes one oracle call at the iterate y, adds the returned vertex to
  the support and projects x exactly onto the support's affine hull, from
  the KKT system over the support's Gram matrix.  While that projection
  lies outside the support's convex hull, a minor cycle takes Wolfe's ratio
  step, which drops the vertices whose weight reaches zero, and projects
  again.  It ends in finitely many major cycles in exact arithmetic.
* `separate_vanilla` is the plain method (one oracle call per iteration)
  with the agnostic step 2/(t+2), for which `iteration_bound` is stated.

Both run the duality test ``<y - x, y - v> < 0.5*||x - y||^2`` against every
oracle answer v at y, and only against a genuine oracle answer, the only one
for which it is sound.  When it holds, x lies outside the polytope and
``<x - y, u> <= <x - y, v>`` is a valid inequality violated at x by at least
``0.5*||x - y||^2``; the run stops at the first such cut.  Membership is
certified by f dropping below `MEMBERSHIP_EPSILON`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatchError, UndefinedBoundError
from .oracles import LinearMinimizationOracle

STOP_EPSILON_MEMBERSHIP = "epsilon-membership"
STOP_EARLY_CRITERION = "early-criterion"
STOP_ZERO_GRADIENT = "zero-gradient"
STOP_ITERATION_LIMIT = "iteration-limit"

# a run certifies membership once f = 0.5*||target - y||^2 falls below this,
# i.e. once the iterate is within sqrt(2e-9) of the target
MEMBERSHIP_EPSILON = 1e-9


@dataclass(frozen=True)
class FwConfig:
    """Solver budget.

    Both solvers stop on membership (f below `MEMBERSHIP_EPSILON`), on the
    duality test, or after `max_iters` iterations (major cycles of
    `separate_min_norm_point`).  Every run starts at the vertex maximizing
    <target, v>.
    """

    max_iters: int = 10_000

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


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
    """Counters of one separation run.

    `iterations` is the 0-based index of the iteration in which the run
    stopped, or `max_iters` when it ran out of iterations; an iteration of
    `separate_min_norm_point` is one major cycle.  `oracle_calls` counts the
    genuine oracle calls, the one for the starting vertex included.
    `lazy_hits` counts minor cycles: steps on the cached support that make no
    oracle call.  `away_steps` counts the vertices those minor cycles dropped
    from the support.  `separate_vanilla` takes neither kind of step.  The two
    names are the benchmark's per-layer counters (perfbench/tracing.py).
    """

    iterations: int
    oracle_calls: int
    lazy_hits: int
    away_steps: int
    stop_reason: str
    final_f: float


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


@dataclass
class _RunState:
    target: np.ndarray
    oracle: LinearMinimizationOracle
    oracle_calls: int = 0
    lazy_hits: int = 0
    away_steps: int = 0

    def call_oracle(self, gradient: np.ndarray) -> np.ndarray:
        """Genuine LMO call: a vertex minimizing <gradient, v>."""
        self.oracle_calls += 1
        return np.asarray(self.oracle.minimize(gradient), dtype=np.float64)

    def stats(self, iterations: int, stop_reason: str, final_f: float) -> SeparationStats:
        return SeparationStats(
            iterations=iterations,
            oracle_calls=self.oracle_calls,
            lazy_hits=self.lazy_hits,
            away_steps=self.away_steps,
            stop_reason=stop_reason,
            final_f=final_f,
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


def _limit_outcome(
    state: _RunState, iterations: int, y: np.ndarray, f: float
) -> SeparationOutcome:
    """Decide what a run that cannot go on can still certify.

    One final genuine oracle call turns the last iterate into a valid
    inequality; if the target violates it we can return a cut after all.
    """
    x = state.target
    if f < MEMBERSHIP_EPSILON:
        stats = state.stats(iterations, STOP_EPSILON_MEMBERSHIP, f)
        return SeparationOutcome(Membership(f), stats)
    v = state.call_oracle(y - x)
    alpha = x - y
    beta = float(alpha @ v)
    violation = float(alpha @ x - beta)
    stats = state.stats(iterations, STOP_ITERATION_LIMIT, f)
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
    """Plain conditional-gradient separation: one oracle call and the agnostic
    step 2/(t+2) per iteration."""
    config = config or FwConfig()
    x = _validate_inputs(target, oracle)
    state = _RunState(target=x, oracle=oracle)
    y = state.call_oracle(-x)

    for t in range(config.max_iters):
        diff = x - y
        f = 0.5 * float(diff @ diff)
        if f < MEMBERSHIP_EPSILON:
            return _membership_outcome(state, t, f)
        v = state.call_oracle(y - x)
        fired, cut = early_stop_check(y, x, v)
        if fired:
            return SeparationOutcome(Separated(cut), state.stats(t, STOP_EARLY_CRITERION, f))
        gamma = 2.0 / (t + 2.0)
        y = y + gamma * (v - y)

    diff = x - y
    return _limit_outcome(state, config.max_iters, y, 0.5 * float(diff @ diff))


def _affine_weights(kkt: np.ndarray) -> np.ndarray:
    """Weights mu of the point of the support's affine hull nearest the
    target, from kkt @ [tau; mu] = [1; 0]: the first row says sum(mu) = 1,
    the others that G mu is constant, i.e. that the nearest point minus the
    target is orthogonal to the hull."""
    rhs = np.zeros(len(kkt))
    rhs[0] = 1.0
    return np.linalg.solve(kkt, rhs)[1:]


def separate_min_norm_point(
    target, oracle: LinearMinimizationOracle, config: FwConfig | None = None
) -> SeparationOutcome:
    """Wolfe's min-norm-point method with duality-based early termination.

    An oracle vertex that is already in the support fails the duality test
    only by rounding; the run then ends as if it had run out of iterations.
    """
    config = config or FwConfig()
    x = _validate_inputs(target, oracle)
    state = _RunState(target=x, oracle=oracle)

    y = state.call_oracle(-x)
    # Support vertex i minus the target is row i of `shifted`, its bytes are
    # keys[i] and its convex weight is weights[i].  `kkt` is the KKT matrix
    # [[0, 1'], [1, G]] of the affine projection on the support, where
    # G = shifted @ shifted.T is the support's Gram matrix, updated as
    # vertices enter and leave.  It is regular exactly when the support is
    # affinely independent, which Wolfe's method maintains.
    q = y - x
    shifted = q[None, :]
    kkt = np.array([[0.0, 1.0], [1.0, q @ q]])
    keys = [y.tobytes()]
    weights = np.ones(1)

    for t in range(config.max_iters):
        diff = x - y
        f = 0.5 * float(diff @ diff)
        if f < MEMBERSHIP_EPSILON:
            return _membership_outcome(state, t, f)
        v = state.call_oracle(y - x)
        fired, cut = early_stop_check(y, x, v)
        if fired:
            return SeparationOutcome(Separated(cut), state.stats(t, STOP_EARLY_CRITERION, f))
        key = v.tobytes()
        if key in keys:
            # y is the affine projection on the support, so a support vertex
            # has gap 0 and fires the test above; here rounding decided
            return _limit_outcome(state, t, y, f)

        q = v - x
        n = len(kkt)
        grown = np.empty((n + 1, n + 1))
        grown[:n, :n] = kkt
        grown[n, 0] = grown[0, n] = 1.0
        grown[n, 1:n] = grown[1:n, n] = shifted @ q
        grown[n, n] = q @ q
        kkt, shifted = grown, np.vstack([shifted, q])
        keys.append(key)
        weights = np.append(weights, 0.0)

        mu = _affine_weights(kkt)
        while mu.min() <= 0.0:
            # minor cycle: move from the weights towards mu until the first
            # weight reaches 0, and drop the vertices at 0
            state.lazy_hits += 1
            ratios = np.zeros(len(mu))
            # weights[i] = mu[i] = 0 happens only to a just-added vertex, by
            # rounding; its ratio stays 0
            np.divide(weights, weights - mu, out=ratios, where=weights > mu)
            ratios[mu > 0.0] = np.inf
            i = int(ratios.argmin())
            weights = weights + ratios[i] * (mu - weights)
            weights[i] = 0.0
            keep = weights > 0.0
            state.away_steps += len(keep) - int(keep.sum())
            weights, shifted = weights[keep], shifted[keep]
            rows = np.concatenate(([True], keep))
            kkt = kkt[rows][:, rows]
            keys = [k for k, kept in zip(keys, keep) if kept]
            mu = _affine_weights(kkt)
        weights = mu
        y = x + weights @ shifted

    diff = x - y
    return _limit_outcome(state, config.max_iters, y, 0.5 * float(diff @ diff))
