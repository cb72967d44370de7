"""Spans and counters recorded around calls into each `fwcuts` layer.

Nothing in `src/` is edited: `Hooks` swaps module attributes for timed
wrappers while it is installed and puts the originals back afterwards.

Layers and the names that are wrapped (all public except the cut pool's
duplicate test, which is the only place a rejected duplicate can be seen):

    instances   the parsers (spans opened by the benchmark around its calls)
    lp          fwcuts.lp.SimplexSolver.solve
    oracles     fwcuts.driver.reduce_row; fwcuts.driver.KnapsackOracle, replaced
                by a subclass whose `minimize` is timed (it runs knapsack_dp_max)
    separation  fwcuts.driver.separate_lazy_afw
    lifting     fwcuts.driver.lift_cut, and fwcuts.lifting.knapsack_dp_max inside it
    driver      root_cut_loop (span opened by the benchmark),
                fwcuts.driver._CutPool.is_duplicate (counted, not timed)

A span is [name, start, end, parent index]; spans stay in memory until the
run ends.  Self time is a span's duration minus the time its children cover.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager

STALL_REASON = "iteration-limit"


class TraceError(RuntimeError):
    """A hook target is gone or a layer the workload must use stayed idle."""


def _resolve(module, attr: str):
    try:
        return getattr(module, attr)
    except AttributeError:
        raise TraceError(f"trace target {module.__name__}.{attr} no longer exists") from None


class SeparateTimer:
    """The one hook of an untraced run: the duration of every
    `separate_lazy_afw` call made through fwcuts.driver, for the per-call
    percentiles, and how many calls stalled at the iteration limit.  Costs
    two clock reads per call."""

    def __init__(self, driver_module):
        self._module = driver_module
        self._original = _resolve(driver_module, "separate_lazy_afw")
        self.durations: list[float] = []
        self.stalls = 0

    def __enter__(self):
        original, durations = self._original, self.durations

        @functools.wraps(original)
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                outcome = original(*args, **kwargs)
            finally:
                durations.append(time.perf_counter() - t0)
            self.stalls += outcome.stats.stop_reason == STALL_REASON
            return outcome

        self._module.separate_lazy_afw = timed
        return self

    def __exit__(self, *exc):
        self._module.separate_lazy_afw = self._original
        return False


class Tracer:
    """In-memory spans plus integer counters."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.separate_durations: list[float] = []
        self.stall_s = 0.0
        self.lp_rows_last: int | None = None  # LP row count after the latest solve

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> float:
        end = time.perf_counter()
        self.spans[idx][2] = end
        self._stack.pop()
        return end - self.spans[idx][1]

    def wrap(self, name: str, fn, after=None):
        """`fn` timed as span `name`; `after(args, result, seconds)` updates
        counters on success, an exception counts as `<name>.failures`."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(idx)
                tracer.counts[f"{name}.failures"] += 1
                raise
            seconds = tracer._close(idx)
            if after is not None:
                after(args, result, seconds)
            return result

        return traced

    # ------------------------------------------------------------ analysis

    def span_seconds(self, start: int = 0, stop: int | None = None) -> tuple[Counter, Counter]:
        """(total, self) seconds per span name over spans[start:stop]."""
        spans = self.spans[start:stop]
        child = [0.0] * len(spans)
        for i, (_, t0, t1, parent) in enumerate(spans):
            p = parent - start
            if 0 <= p < len(spans):
                child[p] += t1 - t0
        total, own = Counter(), Counter()
        for i, (name, t0, t1, _) in enumerate(spans):
            total[name] += t1 - t0
            own[name] += (t1 - t0) - child[i]
        return total, own


class Hooks:
    """Installs the tracer's wrappers into fwcuts; a context manager."""

    def __init__(self, tracer: Tracer):
        import fwcuts.driver as driver
        import fwcuts.lifting as lifting
        import fwcuts.lp as lp

        self.tracer = tracer
        self._patches = [
            (driver, "reduce_row", "oracles.reduce", self._after_reduce),
            (driver, "separate_lazy_afw", "separation", self._after_separate),
            (driver, "lift_cut", "lifting", self._after_lift),
            (lifting, "knapsack_dp_max", "lifting.dp", self._after_lift_dp),
            (lp.SimplexSolver, "solve", "lp", self._after_lp),
        ]
        self._originals = [(obj, attr, _resolve(obj, attr)) for obj, attr, _, _ in self._patches]
        self._originals.append((driver, "KnapsackOracle", _resolve(driver, "KnapsackOracle")))
        pool = _resolve(driver, "_CutPool")
        self._originals.append((pool, "is_duplicate", _resolve(pool, "is_duplicate")))
        self._driver = driver

    def __enter__(self):
        tracer = self.tracer
        for (obj, attr, name, after), (_, _, original) in zip(self._patches, self._originals):
            setattr(obj, attr, tracer.wrap(name, original, after))

        base = self._driver.KnapsackOracle
        timed_minimize = tracer.wrap("oracles.lmo", base.minimize, self._after_lmo)

        class TracedKnapsackOracle(base):
            minimize = timed_minimize

        self._driver.KnapsackOracle = TracedKnapsackOracle

        pool_cls = self._driver._CutPool
        is_duplicate = pool_cls.is_duplicate

        @functools.wraps(is_duplicate)
        def counted(pool_self, alpha, beta):
            duplicate = is_duplicate(pool_self, alpha, beta)
            tracer.counts["driver.dup_checks"] += 1
            tracer.counts["driver.rejected_duplicate"] += int(duplicate)
            return duplicate

        pool_cls.is_duplicate = counted
        return self

    def __exit__(self, *exc):
        for obj, attr, original in self._originals:
            setattr(obj, attr, original)
        return False

    # ------------------------------------------------------------ counters

    def _after_reduce(self, args, result, seconds):
        sub, _ = result
        self.tracer.counts["oracles.reduce_calls"] += 1
        self.tracer.counts["oracles.reduced_k_sum"] += sub.size

    def _after_separate(self, args, outcome, seconds):
        c = self.tracer.counts
        stats = outcome.stats
        c["separation.calls"] += 1
        c["separation.iterations"] += stats.iterations
        c["separation.lazy_hits"] += stats.lazy_hits
        c["separation.away_steps"] += stats.away_steps
        c["separation.oracle_calls"] += stats.oracle_calls
        c[f"separation.stop.{stats.stop_reason}"] += 1
        c["separation.separated"] += int(outcome.is_separated)
        self.tracer.separate_durations.append(seconds)
        if stats.stop_reason == STALL_REASON:
            self.tracer.stall_s += seconds

    def _after_lift(self, args, lifted, seconds):
        sub = args[1]
        self.tracer.counts["lifting.calls"] += 1
        self.tracer.counts["lifting.fixed_vars"] += len(sub.fixed_one) + len(sub.fixed_zero)

    def _after_lift_dp(self, args, result, seconds):
        sub = args[0]
        self.tracer.counts["lifting.dp_cells"] += sub.size * (sub.capacity + 1)

    def _after_lmo(self, args, result, seconds):
        sub = args[0].subproblem
        self.tracer.counts["oracles.lmo_calls"] += 1
        self.tracer.counts["oracles.dp_cells"] += sub.size * (sub.capacity + 1)

    def _after_lp(self, args, solution, seconds):
        self.tracer.counts["lp.solves"] += 1
        self.tracer.lp_rows_last = args[0].m
