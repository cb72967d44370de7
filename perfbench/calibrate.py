"""A fixed CPU kernel timed between benchmark calls, to scale away host speed.

The benchmark host is a shared virtual machine whose speed drifts by a third
or more over minutes: one stream seed read 26.8 and 37.9 separations per
second in two runs a minute apart, with thread CPU time drifting exactly as
wall time does.  A run therefore times this kernel every `EVERY_S` seconds of
timed work, and every reported time is multiplied by
`NOMINAL_S / mean(kernel seconds)`: times are seconds on a machine where the
kernel takes `NOMINAL_S`.  Raw times are printed beside the scaled ones.
(Set-up is scaled differently: see `measure_setup` in run.py.)

The kernel mixes what the program spends its time on: a capacity-indexed
knapsack table over numpy rows, and active-set style steps (stacking small
vectors, dot products, Python lists of weights).  It does not call `fwcuts`,
so a change to the program cannot change the scale.  It runs in the process
that makes the timed calls (the child of an untraced run, see worker.py):
sampled in the parent instead, it followed the child's speed less well
(stream, seeds 502-510: quartile spread of `separate_ms.p50` 0.12 against
0.08 from the child, on a noisier host).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.020
EVERY_S = 0.5
_REPS = 4


def _kernel() -> float:
    rng = np.random.default_rng(12345)
    w = rng.integers(1, 400, size=16)
    p = rng.random(16)
    cap = 2000
    dp = np.zeros(cap + 1)
    for j in range(16):
        wj = int(w[j])
        cand = dp[: cap + 1 - wj] + p[j]
        better = cand > dp[wj:]
        dp[wj:] = np.where(better, cand, dp[wj:])
    vertices = [rng.random(12) for _ in range(20)]
    weights = [1.0 / 20] * 20
    x = rng.random(12)
    f = 0.0
    for _ in range(150):
        mat = np.stack(vertices)
        y = np.asarray(weights) @ mat
        i = int(np.argmin(mat @ (y - x)))
        weights = [wt * 0.99 for wt in weights]
        weights[i] += 0.01
        f = 0.5 * float((x - y) @ (x - y))
    return float(dp[-1]) + f


def sample() -> float:
    """Seconds taken by one sample of the kernel in this process."""
    t0 = time.perf_counter()
    for _ in range(_REPS):
        _kernel()
    return time.perf_counter() - t0


class Calibrator:
    """Samples the kernel as timed work accumulates; `factor` scales times.

    `measure` takes one sample in the process that makes the timed calls."""

    def __init__(self, measure=sample):
        self.samples: list[float] = []
        self._measure = measure
        self._next = 0.0

    def tick(self, busy_s: float) -> None:
        """Call between timed calls with the timed seconds so far."""
        if busy_s < self._next:
            return
        self.samples.append(self._measure())
        self._next = busy_s + EVERY_S

    @property
    def factor(self) -> float:
        return NOMINAL_S / statistics.fmean(self.samples)
