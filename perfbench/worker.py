"""Timed calls into fwcuts, made in-process or in a child process of their own.

An untraced run makes its timed calls in a child started from this file

    python3 perfbench/worker.py <workload>

so that the child's peak resident memory is that of the interpreter, numpy
and fwcuts alone: scipy, which the parent loads for the reference optima and
the output checks, never enters it.  The parent writes one pickled input to
the child's standard input and reads the pickled result from its standard
output before it writes the next, so the load stays a closed loop with one
caller.  The message CALIBRATE asks for one sample of the calibration kernel
(calibrate.py), so that the kernel runs in the process whose speed it
stands for.  A pickled None ends the loop; the child then sends its peak
resident memory after its imports and at the end, and exits.

The traced run calls `timed_call` in its own process, inside the hooks.
"""

from __future__ import annotations

import os
import pickle
import resource
import sys
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# Separation is capped at 500 iterations (the CLI's `--max-iters 500`) on
# every workload; README.md says why and what the default limit measures.
MAX_ITERS = 500
STREAM = "separate-stream"
CALIBRATE = "calibrate"


def configs(fwcuts):
    """(FwConfig, LoopConfig) of every workload."""
    return fwcuts.FwConfig(max_iters=MAX_ITERS), fwcuts.LoopConfig()


def timed_call(fwcuts, workload, payload, fw_config, loop_config, tracer=None):
    """One call of the program on one input: (seconds, instance, result, error).

    Only the program call is timed: `root_cut_loop` on a root workload,
    `separate_lazy_afw` on the stream.  Parsing and oracle construction are
    not.  An exception is returned as "Class: message", never retried.
    """
    span = tracer.span if tracer else (lambda name: nullcontext())
    driver = fwcuts.driver  # looked up per call so that trace hooks apply
    instance, result, error = None, None, None
    if workload == STREAM:
        weights, capacity, target = payload
        oracle = driver.KnapsackOracle(fwcuts.KnapsackSubproblem.plain(weights, capacity))
        t0 = time.perf_counter()
        try:
            result = driver.separate_lazy_afw(target, oracle, fw_config)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        return time.perf_counter() - t0, instance, result, error
    text, name = payload
    parse = fwcuts.parse_gap if workload == "gap-assign" else fwcuts.parse_mknap
    with span("instances.parse"):
        instance = parse(text, name=name)[0]
    t0 = time.perf_counter()
    with span("driver"):
        try:
            result = driver.root_cut_loop(instance, fw_config, loop_config)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, instance, result, error


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv) -> int:
    workload = argv[0]
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import fwcuts.driver

    import calibrate
    import tracing

    fw_config, loop_config = configs(fwcuts)
    imported_mb = peak_rss_mb()
    source, sink = sys.stdin.buffer, sys.stdout.buffer
    with tracing.SeparateTimer(fwcuts.driver) as timer:
        while (payload := pickle.load(source)) is not None:
            if isinstance(payload, str) and payload == CALIBRATE:
                pickle.dump(calibrate.sample(), sink)
            else:
                start, stalls = len(timer.durations), timer.stalls
                result = timed_call(fwcuts, workload, payload, fw_config, loop_config)
                pickle.dump((result, timer.durations[start:], timer.stalls - stalls), sink)
            sink.flush()
    pickle.dump((imported_mb, peak_rss_mb()), sink)
    sink.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
