"""Benchmark of the fwcuts root cut loop and its separation layer.

Run from the repository root:

    python3 perfbench/run.py --workload mkp-cb --seed 1 --seconds 45 --trace 0

Load is a closed loop with one caller in one thread: the next instance (or
separation problem) starts only when the previous one has finished.  Inputs
are generated from `--seed` (see workloads.py) and handed to the program as
instance text or arrays.  The loop runs until the timed calls have used
`--seconds` seconds; generation, reference optima and output checks happen
between timed calls and are not counted.

`--trace 0` reports the end-to-end metrics; its timed calls run in a child
process that holds only numpy and fwcuts (worker.py), while this process
prepares the inputs and checks the results.  `--trace 1` runs the loop
with every layer hooked (tracing.py) and reports the per-layer metrics; it
then replays the first quarter of that work without the hooks and with them
again, to measure the tracing overhead and to check that the counters repeat
exactly.  Lines before the last describe the run; the last line of standard
output is one JSON object with the keys correct, attempted, failed, metrics.

Exit codes: 0 with a result, 2 on a usage error or when the fwcuts sources
are missing, 3 when the trace cannot be trusted (a hook target is gone, a
layer stayed idle, spans disagree with the driver's own timings).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import statistics
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

import worker
from worker import HERE, SRC, STREAM

SETUP_REPEATS = 9
SETUP_BATCH = {"mkp-cb": 50, "gap-assign": 50, STREAM: 1000}
REPLAY_SHARE = 0.25  # share of the traced loop replayed for overhead and exact repeat
SGM_SHIFT_S = 1.0
TIME_UNITS = ("s", "ms", "us")

_ROOT_LAYERS = ("lp.solves", "separation.calls", "oracles.lmo_calls", "oracles.reduce_calls",
                "lifting.calls", "lifting.dp_cells", "driver.dup_checks")
REQUIRED_LAYERS = {
    "mkp-cb": _ROOT_LAYERS,
    "gap-assign": _ROOT_LAYERS,
    STREAM: ("separation.calls", "oracles.lmo_calls"),
}
IDLE_LAYERS = {STREAM: ("lp.solves", "lifting.calls", "oracles.reduce_calls")}
REPEAT_NAMED = ("lp.solves", "separation.iterations", "oracles.lmo_calls",
                "lifting.calls", "driver.dup_checks", "driver.rejected_duplicate")

E2E_UNITS = {
    "setup_s": "s",
    "solved_per_min": "1/min",
    "sgm_s": "s",
    "gap_closed_pct": "%",
    "separations_per_s": "1/s",
    "separate_ms.p50": "ms",
    "separate_ms.p95": "ms",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "separation.calls": "count",
    "separation.self_s": "s",
    "separation.iterations": "count",
    "separation.lazy_hits": "count",
    "separation.away_steps": "count",
    "separation.stop.early-criterion": "count",
    "separation.stop.epsilon-membership": "count",
    "separation.stop.iteration-limit": "count",
    "separation.stall_s": "s",
    "separation.cut_yield": "ratio",
    "separation.lmo_per_call": "count",
    "oracles.lmo_calls": "count",
    "oracles.lmo_s": "s",
    "oracles.lmo_us_per_call": "us",
    "oracles.dp_cells": "count",
    "oracles.reduce_calls": "count",
    "oracles.reduce_s": "s",
    "oracles.reduced_k_mean": "count",
    "lifting.calls": "count",
    "lifting.s": "s",
    "lifting.fixed_vars": "count",
    "lifting.dp_cells": "count",
    "lp.solves": "count",
    "lp.s": "s",
    "lp.ms_per_solve": "ms",
    "lp.rows_final": "count",
    "lp.failures": "count",
    "driver.rounds": "count",
    "driver.candidates": "count",
    "driver.cuts_added": "count",
    "driver.rejected_duplicate": "count",
    "driver.rejected_below_threshold": "count",
    "driver.accept_ratio": "ratio",
    "driver.other_s": "s",
    "instances.parse_s": "s",
    "trace.overhead_pct": "%",
    "trace.repeat_mismatches": "count",
    "failed_share": "ratio",
    "undecided_share": "ratio",
}


@dataclass
class Unit:
    """One prepared input: an instance (root workloads) or a problem (stream)."""

    index: int
    payload: tuple  # what the program is handed: (text, name) or (weights, capacity, target)
    reference: object = None
    mip: tuple = ()


@dataclass
class Outcome:
    index: int
    seconds: float
    error: str | None = None
    checks: dict = field(default_factory=dict)
    gap_closed: float | None = None
    decided: bool = True  # False: the separator hit its limit without a certificate
    rounds: int = 0
    timings: dict = field(default_factory=dict)
    calls: list = field(default_factory=list)  # seconds of each separation call
    stalls: int = 0  # separation calls that ended at the iteration limit

    @property
    def failed_checks(self) -> list[str]:
        return sorted(name for name, ok in self.checks.items() if not ok)

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.failed_checks)

    @property
    def solved(self) -> bool:
        return self.decided and not self.failed


# ------------------------------------------------------------- workloads


class Workload:
    """Seeded inputs of one workload, the timed call on one of them
    (worker.timed_call) and the untimed checks of its result."""

    is_stream = False

    def __init__(self, name: str, seed: int, fwcuts, workloads, checks):
        self.name, self.seed = name, seed
        self.fwcuts, self.wl, self.checks = fwcuts, workloads, checks
        self.fw_config, self.loop_config = worker.configs(fwcuts)

    def call(self, unit: Unit, tracer=None):
        return worker.timed_call(
            self.fwcuts, self.name, unit.payload, self.fw_config, self.loop_config, tracer
        )


class RootWorkload(Workload):
    """Closed loop of `root_cut_loop` calls on generated instance text."""

    def __init__(self, name: str, seed: int, fwcuts, workloads, checks):
        super().__init__(name, seed, fwcuts, workloads, checks)
        self.is_gap = name == "gap-assign"
        self.cache = workloads.ReferenceCache(name, seed)

    def _arrays(self, rng):
        return self.wl.gap_arrays(rng) if self.is_gap else self.wl.mkp_arrays(rng)

    def _text(self, batch) -> str:
        return self.wl.gap_text(batch) if self.is_gap else self.wl.mknap_text(batch)

    def _mip(self, arrays):
        if self.is_gap:
            return self.wl.gap_as_mip(*arrays)
        c, A, b = arrays
        return c, A, b, None

    def setup_input(self) -> str:
        rng = np.random.default_rng(self.seed)
        return self._text([self._arrays(rng) for _ in range(SETUP_BATCH[self.name])])

    def setup_code(self) -> str:
        parser = "parse_gap" if self.is_gap else "parse_mknap"
        return f"fwcuts.{parser}(data)"

    def units(self):
        rng = np.random.default_rng(self.seed)
        index = 0
        while True:
            arrays = self._arrays(rng)
            mip = self._mip(arrays)
            reference = self.cache.get(index, *mip)
            if reference is not None:
                name = f"{self.name}-{self.seed}#{index}"
                yield Unit(index, (self._text([arrays]), name), reference=reference, mip=mip)
            index += 1

    def judge(self, unit: Unit, call) -> Outcome:
        seconds, instance, report, error = call
        out = Outcome(unit.index, seconds, error=error)
        out.checks["reference-incumbent"] = not self.wl.verify_reference(unit.reference, *unit.mip)
        if report is None:
            return out
        optimum = unit.reference.optimum
        out.checks.update(self.checks.check_root_report(instance, report, optimum))
        try:
            out.gap_closed = self.fwcuts.gap_closed(float(optimum), report.d_lp, report.d_r)
        except self.fwcuts.GapUndefinedError:
            out.gap_closed = None  # the first relaxation was already integral-tight
        except ValueError:
            out.checks["gap-closed-ordering"] = False
        out.rounds = report.rounds
        out.timings = dict(report.timings)
        return out


class StreamWorkload(Workload):
    """Closed loop of single-row separation calls, as `fwcuts separate` runs."""

    is_stream = True

    def __init__(self, seed: int, fwcuts, workloads, checks):
        super().__init__(STREAM, seed, fwcuts, workloads, checks)

    def setup_input(self) -> str:
        rng = np.random.default_rng(self.seed)
        problems = [self.wl.stream_problem(rng) for _ in range(SETUP_BATCH[self.name])]
        return json.dumps([[w.tolist(), cap] for w, cap, _ in problems])

    def setup_code(self) -> str:
        return (
            "[fwcuts.KnapsackOracle(fwcuts.KnapsackSubproblem.plain(w, c))"
            " for w, c in json.loads(data)]"
        )

    def units(self):
        rng = np.random.default_rng(self.seed)
        index = 0
        while True:
            yield Unit(index, self.wl.stream_problem(rng))
            index += 1

    def judge(self, unit: Unit, call) -> Outcome:
        seconds, _, outcome, error = call
        out = Outcome(unit.index, seconds, error=error)
        if outcome is None:
            out.decided = False
            return out
        out.decided = outcome.is_separated or outcome.is_membership
        w, cap, target = unit.payload
        out.checks.update(self.checks.check_separation(w, cap, target, outcome))
        return out


WORKLOADS = ("mkp-cb", "gap-assign", STREAM)


def make_workload(name: str, seed: int):
    import fwcuts

    import checks
    import workloads

    if name == STREAM:
        return StreamWorkload(seed, fwcuts, workloads, checks)
    return RootWorkload(name, seed, fwcuts, workloads, checks)


# ------------------------------------------------------------ measuring


# numpy is imported before the clock starts: its import time is the host's,
# not the program's, and it varies between runs by more than the whole rest.
# After the timed part the child imports a fixed set of standard-library
# modules that neither numpy nor fwcuts loads; that time is the host's import
# speed, by which set-up is scaled.
_SETUP_CHILD = """
import json, sys, time
import numpy
data = sys.stdin.read()
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import fwcuts
t1 = time.perf_counter()
{build}
t2 = time.perf_counter()
import csv, decimal, email.mime.multipart, fractions, http.client, xml.dom.minidom
t3 = time.perf_counter()
print(t1 - t0, t2 - t1, t3 - t2)
"""
SETUP_REFERENCE_NOMINAL_S = 0.045


def measure_setup(workload) -> tuple[float, float, float]:
    """Medians over fresh interpreters of (import fwcuts + build the input),
    of the build alone and of the reference imports; the parent waits for
    each child.

    The host's speed drifts between runs by more than the set-up itself
    changes, and the calibration kernel does not follow import time, so
    set-up is scaled by SETUP_REFERENCE_NOMINAL_S / (reference import time).
    Over eight repetitions minutes apart this cut the quartile spread of the
    set-up time from 0.14 to 0.05 of its median."""
    code = _SETUP_CHILD.format(src=SRC, build=workload.setup_code())
    data = workload.setup_input()
    totals, builds, references = [], [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", code], input=data, capture_output=True,
            text=True, timeout=120, check=True,
        )
        import_s, build_s, reference_s = map(float, proc.stdout.split())
        totals.append(import_s + build_s)
        builds.append(build_s)
        references.append(reference_s)
    return statistics.median(totals), statistics.median(builds), statistics.median(references)


class Child:
    """The process that makes the timed calls of an untraced run (worker.py)."""

    def __init__(self, workload: str):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), workload],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )

    def send(self, message):
        pickle.dump(message, self.proc.stdin)
        self.proc.stdin.flush()
        return pickle.load(self.proc.stdout)

    def close(self) -> tuple[float, float]:
        """End the child's loop; returns its peak resident memory in MB
        after its imports and at the end."""
        peaks = self.send(None)
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        return peaks

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        return False


def in_child(workload, child):
    """Runs a unit in the child and judges its result here."""

    def execute(unit: Unit) -> Outcome:
        call, calls, stalls = child.send(unit.payload)
        out = workload.judge(unit, call)
        out.calls, out.stalls = calls, stalls
        return out

    return execute


def in_process(workload, tracer):
    """Runs a unit under the tracer's hooks and judges its result."""

    def execute(unit: Unit) -> Outcome:
        start = len(tracer.separate_durations)
        out = workload.judge(unit, workload.call(unit, tracer))
        out.calls = tracer.separate_durations[start:]
        return out

    return execute


def closed_loop(execute, units, seconds, calibrator, on_done=None):
    """Run units one after another until the timed calls used `seconds`,
    sampling the calibration kernel between them.  Returns (outcomes, units run)."""
    outcomes, seen, busy = [], [], 0.0
    while busy < seconds:
        calibrator.tick(busy)
        unit = next(units)
        out = execute(unit)
        busy += out.seconds
        outcomes.append(out)
        seen.append(unit)
        if on_done is not None:
            on_done(out)
    return outcomes, seen


def sgm(values, shift: float = SGM_SHIFT_S) -> float:
    return math.exp(sum(math.log(v + shift) for v in values) / len(values)) - shift


def end_to_end(stream, outcomes, setup_s, rss_mb, scale=1.0) -> dict[str, float]:
    """Every loop time is multiplied by `scale` (see calibrate.py);
    `setup_s` comes scaled by its own factor (see measure_setup)."""
    busy = scale * sum(o.seconds for o in outcomes)
    if stream:  # share of problems given a certified verdict: membership or a checked cut
        gap = 100.0 * sum(o.solved for o in outcomes) / len(outcomes)
    else:  # mean gap closed, a failed instance counting as 0; undefined gaps left out
        scored = [o for o in outcomes if not (o.solved and o.gap_closed is None)]
        gap = sum(o.gap_closed if o.solved else 0.0 for o in scored) / max(len(scored), 1)
    ms = np.asarray([t for o in outcomes for t in o.calls]) * (1e3 * scale)
    return {
        "setup_s": setup_s,
        "solved_per_min": 60.0 * sum(o.solved for o in outcomes) / busy,
        "sgm_s": sgm([scale * o.seconds for o in outcomes]),
        "gap_closed_pct": gap,
        "separations_per_s": len(ms) / busy,
        "separate_ms.p50": float(np.percentile(ms, 50)) if len(ms) else 0.0,
        "separate_ms.p95": float(np.percentile(ms, 95)) if len(ms) else 0.0,
        "peak_rss_mb": rss_mb,
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(tracer, outcomes, rows_final, parse_s) -> dict[str, float]:
    c = tracer.counts
    total, own = tracer.span_seconds()
    calls = c["separation.calls"]
    candidates = c["separation.separated"] if c["lifting.calls"] else 0
    cuts_added = c["driver.dup_checks"] - c["driver.rejected_duplicate"]
    metrics = {
        "separation.calls": calls,
        "separation.self_s": own["separation"],
        "separation.iterations": c["separation.iterations"],
        "separation.lazy_hits": c["separation.lazy_hits"],
        "separation.away_steps": c["separation.away_steps"],
        "separation.stop.early-criterion": c["separation.stop.early-criterion"],
        "separation.stop.epsilon-membership": c["separation.stop.epsilon-membership"],
        "separation.stop.iteration-limit": c["separation.stop.iteration-limit"],
        "separation.stall_s": tracer.stall_s,
        "separation.cut_yield": _ratio(c["separation.separated"], calls),
        "separation.lmo_per_call": _ratio(c["oracles.lmo_calls"], calls),
        "oracles.lmo_calls": c["oracles.lmo_calls"],
        "oracles.lmo_s": total["oracles.lmo"],
        "oracles.lmo_us_per_call": 1e6 * _ratio(total["oracles.lmo"], c["oracles.lmo_calls"]),
        "oracles.dp_cells": c["oracles.dp_cells"],
        "oracles.reduce_calls": c["oracles.reduce_calls"],
        "oracles.reduce_s": total["oracles.reduce"],
        "oracles.reduced_k_mean": _ratio(c["oracles.reduced_k_sum"], c["oracles.reduce_calls"]),
        "lifting.calls": c["lifting.calls"],
        "lifting.s": total["lifting"],
        "lifting.fixed_vars": c["lifting.fixed_vars"],
        "lifting.dp_cells": c["lifting.dp_cells"],
        "lp.solves": c["lp.solves"],
        "lp.s": total["lp"],
        "lp.ms_per_solve": 1e3 * _ratio(total["lp"], c["lp.solves"]),
        "lp.rows_final": statistics.mean(rows_final) if rows_final else 0,
        "lp.failures": c["lp.failures"],
        "driver.rounds": sum(o.rounds for o in outcomes),
        "driver.candidates": candidates,
        "driver.cuts_added": cuts_added,
        "driver.rejected_duplicate": c["driver.rejected_duplicate"],
        "driver.rejected_below_threshold": candidates - c["driver.dup_checks"] if candidates else 0,
        "driver.accept_ratio": _ratio(cuts_added, candidates),
        "driver.other_s": own["driver"],
        "instances.parse_s": parse_s,
        "failed_share": sum(o.failed for o in outcomes) / len(outcomes),
        "undecided_share": _ratio(c["separation.stop.iteration-limit"], calls),
    }
    return metrics


# --------------------------------------------------------------- traced


class TraceIntegrityError(Exception):
    pass


def traced_run(workload, seconds, tracing, driver, calibrator):
    """A traced loop, then its first REPLAY_SHARE of units replayed untraced
    and traced, for the overhead and the exact-repeat check.

    Returns (outcomes, tracer, rows_final, overhead_pct, repeat) where
    `repeat` maps each counter to whether it repeated exactly.
    """
    tracer = tracing.Tracer()
    snapshots, spans_at, rows_final = [], [0], []

    def on_done(out):
        snapshots.append(dict(tracer.counts))
        spans_at.append(len(tracer.spans))
        if tracer.lp_rows_last is not None:
            rows_final.append(tracer.lp_rows_last)
            tracer.lp_rows_last = None

    with tracing.Hooks(tracer):
        outcomes, seen = closed_loop(
            in_process(workload, tracer), workload.units(), seconds, calibrator, on_done
        )
    if isinstance(workload, RootWorkload):
        reconcile(tracer, outcomes, spans_at)

    prefix, busy = 0, 0.0
    while busy < REPLAY_SHARE * seconds:
        busy += outcomes[prefix].seconds
        prefix += 1
    # untraced and traced replays alternate unit by unit, so a drift in host
    # speed hits both sides alike
    again, plain_s, traced_s = tracing.Tracer(), 0.0, 0.0
    for unit in seen[:prefix]:
        with tracing.SeparateTimer(driver):
            plain_s += workload.call(unit)[0]
        with tracing.Hooks(again):
            traced_s += workload.call(unit, again)[0]
    overhead_pct = 100.0 * (traced_s - plain_s) / plain_s
    first, second = snapshots[prefix - 1], again.counts
    repeat = {k: first.get(k, 0) == second.get(k, 0) for k in sorted(set(first) | set(second))}
    return outcomes, tracer, rows_final, overhead_pct, repeat


def reconcile(tracer, outcomes, spans_at) -> None:
    """Spans must agree with the driver's own timers: the lp spans sit inside
    the driver's lp timer, and reduce + separation + lifting spans inside its
    separation timer.  timings["lifting_s"] is never read (it is always 0)."""
    for k, out in enumerate(outcomes):
        if not out.timings:
            continue  # an aborted loop returns no timings
        total, _ = tracer.span_seconds(spans_at[k], spans_at[k + 1])
        lp_s = out.timings["lp_s"]
        if not (total["lp"] <= lp_s + 1e-6 and lp_s - total["lp"] <= 0.05 * lp_s + 2e-3):
            raise TraceIntegrityError(
                f"instance {out.index}: lp spans {total['lp']:.6f} s vs lp_s {lp_s:.6f} s"
            )
        inner = total["oracles.reduce"] + total["separation"] + total["lifting"]
        if inner > out.timings["separation_s"] + 1e-6:
            raise TraceIntegrityError(
                f"instance {out.index}: reduce+separation+lifting spans {inner:.6f} s"
                f" exceed separation_s {out.timings['separation_s']:.6f} s"
            )


def check_layers(name: str, counts) -> None:
    idle = [k for k in REQUIRED_LAYERS[name] if not counts[k]]
    if idle:
        raise TraceIntegrityError(f"{name}: layer counters stayed at zero: {', '.join(idle)}")
    busy = [k for k in IDLE_LAYERS.get(name, ()) if counts[k]]
    if busy:
        raise TraceIntegrityError(f"{name}: counters expected to stay at zero: {', '.join(busy)}")


# ---------------------------------------------------------------- report


def summarize_checks(outcomes) -> dict[str, list[int]]:
    table: dict[str, list[int]] = {}
    for o in outcomes:
        for check, ok in o.checks.items():
            table.setdefault(check, [0, 0])[0 if ok else 1] += 1
    return table


def print_report(workload, args, outcomes, metrics, raw, units, table, extra_lines):
    name, failed = workload.name, [o for o in outcomes if o.failed]
    print(f"workload {name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}"
          f"  (closed loop, 1 caller, max_iters={workload.fw_config.max_iters})")
    print(f"attempted {len(outcomes)}  failed {len(failed)}"
          f"  failed_share {len(failed) / len(outcomes):.4f}")
    for key, value in metrics.items():
        unscaled = f"  (unscaled {raw[key]:.6g})" if raw[key] != value else ""
        print(f"  {name}  {key} = {value:.6g} {units[key]}{unscaled}")
    for line in extra_lines:
        print(f"  {line}")
    for check, (ok, bad) in sorted(table.items()):
        print(f"check {check}: {'PASS' if not bad else 'FAIL'} ({ok} passed, {bad} failed)")
    for o in failed:
        why = o.error or "failed checks: " + ", ".join(o.failed_checks)
        print(f"failure #{o.index}: {why}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fwcuts", "__init__.py")):
        print(f"error: fwcuts sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import fwcuts.driver

    import calibrate
    import tracing

    workload = make_workload(args.workload, args.seed)
    setup_s, parse_s, reference_s = measure_setup(workload)
    setup_scale = SETUP_REFERENCE_NOMINAL_S / reference_s

    if args.trace == 0:
        with Child(args.workload) as child:
            calibrator = calibrate.Calibrator(lambda: child.send(worker.CALIBRATE))
            outcomes, _ = closed_loop(
                in_child(workload, child), workload.units(), args.seconds, calibrator
            )
            imported_mb, rss = child.close()
        metrics = end_to_end(
            workload.is_stream, outcomes, setup_scale * setup_s, rss, calibrator.factor
        )
        raw = end_to_end(workload.is_stream, outcomes, setup_s, rss)
        unit_names = E2E_UNITS
        calls = sum(len(o.calls) for o in outcomes)
        undecided = _ratio(sum(o.stalls for o in outcomes), calls)
        extra = [
            f"separate_ms percentiles over {calls} calls",
            f"peak_rss_mb of the process making the timed calls: {imported_mb:.6g} MB"
            f" after importing numpy and fwcuts, {rss:.6g} MB at the end",
            f"{args.workload}  failed_share = {sum(o.failed for o in outcomes) / len(outcomes):.6g}"
            " ratio (unbounded: zero when nothing fails)",
            f"{args.workload}  undecided_share = {undecided:.6g}"
            " ratio (iteration-limit verdicts per separation call)",
        ]
        correct = True
    else:
        calibrator = calibrate.Calibrator()
        try:
            outcomes, tracer, rows_final, overhead, repeat = traced_run(
                workload, args.seconds, tracing, fwcuts.driver, calibrator
            )
            check_layers(args.workload, tracer.counts)
        except (tracing.TraceError, TraceIntegrityError) as exc:
            print(f"error: trace rejected: {exc}", file=sys.stderr)
            return 3
        raw = per_layer(tracer, outcomes, rows_final, parse_s)
        named = [k for k in repeat if k in REPEAT_NAMED or k.startswith("separation.stop.")]
        mismatched = [k for k, same in repeat.items() if not same]
        raw["trace.overhead_pct"] = overhead
        raw["trace.repeat_mismatches"] = len(mismatched)
        raw = {k: raw[k] for k in LAYER_UNITS}
        metrics = {
            k: v * calibrator.factor if LAYER_UNITS[k] in TIME_UNITS else v
            for k, v in raw.items()
        }
        metrics["instances.parse_s"] = setup_scale * parse_s  # timed during set-up
        unit_names = LAYER_UNITS
        extra = [
            "exact-repeat counters: " + ", ".join(k for k, same in repeat.items() if same),
            "not repeated: " + (", ".join(mismatched) or "none"),
        ]
        correct = not any(k in mismatched for k in named)
    extra.append(
        f"loop time scale {calibrator.factor:.4f}: calibration kernel"
        f" {1e3 * statistics.fmean(calibrator.samples):.2f} ms measured over"
        f" {len(calibrator.samples)} samples, {1e3 * calibrate.NOMINAL_S:g} ms nominal"
    )
    extra.append(
        f"set-up time scale {setup_scale:.4f}: reference imports {1e3 * reference_s:.2f} ms"
        f" (median of {SETUP_REPEATS}), {1e3 * SETUP_REFERENCE_NOMINAL_S:g} ms nominal"
    )

    if isinstance(workload, RootWorkload):
        workload.cache.save()
        extra.append(
            f"reference optima: {workload.cache.solved} solved ({workload.cache.solve_s:.1f} s,"
            f" untimed), the rest from {os.path.relpath(workload.cache.path, os.getcwd())}"
        )
    table = summarize_checks(outcomes)
    correct = correct and not any(bad for _, bad in table.values())
    print_report(workload, args, outcomes, metrics, raw, unit_names, table, extra)
    result = {
        "correct": correct,
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {k: {"value": float(v), "unit": unit_names[k]} for k, v in metrics.items()},
    }
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
