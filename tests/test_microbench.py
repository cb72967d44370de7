"""Micro-benchmarks of the hot calls, one per layer that the root loop spends
its time in: the knapsack DP, one separation call, lifting, and one LP solve.

The DP, lifting and LP inputs come from a seeded Chu-Beasley-style instance
(n=30, m=5, tightness 0.25, the shape of the benchmark's mkp-cb workload);
the separation call is a seeded single-row problem that runs to the
iteration limit.  Each benchmark runs a few fixed rounds so that the suite
stays fast; compare two versions with
`pytest tests/test_microbench.py --benchmark-autosave` on one and
`--benchmark-compare` on the other.  Each benchmark also checks its result,
so a benchmark that times a wrong answer fails.
"""

import numpy as np
import pytest

from fwcuts.driver import build_relaxation
from fwcuts.lifting import lift_cut
from fwcuts.lp import STATUS_OPTIMAL, SimplexSolver
from fwcuts.oracles import KnapsackOracle, KnapsackSubproblem, knapsack_dp_max, reduce_row
from fwcuts.separation import FwConfig, separate_lazy_afw

from conftest import MICROBENCH_SEED, cb_style_instance, single_row_problem

ROUNDS = 3


@pytest.fixture(scope="module")
def instance():
    return cb_style_instance(MICROBENCH_SEED)


@pytest.fixture(scope="module")
def row_cut(instance):
    """(subproblem, reduced cut) of the first row whose LP point the
    separator cuts off, reduced as the root loop reduces it."""
    x = SimplexSolver(build_relaxation(instance)).solve().x
    for row in range(instance.m):
        sub, target = reduce_row(instance.weights[row], int(instance.capacities[row]), x)
        if sub.size == 0:
            continue
        outcome = separate_lazy_afw(target, KnapsackOracle(sub), FwConfig(max_iters=500))
        if outcome.is_separated:
            return sub, outcome.cut
    pytest.fail("no row of the benchmark instance yields a cut")


def _run(benchmark, fn, *args):
    return benchmark.pedantic(fn, args=args, rounds=ROUNDS, iterations=1, warmup_rounds=1)


def test_knapsack_dp_max(benchmark, instance):
    sub = KnapsackSubproblem.plain(instance.weights[0], int(instance.capacities[0]))
    profits = np.random.default_rng(7).uniform(-0.5, 1.0, size=sub.size)
    value, x = _run(benchmark, knapsack_dp_max, sub, profits)
    assert int(sub.weights @ x) <= sub.capacity
    assert value == pytest.approx(float(profits @ x), abs=1e-9)


def test_separate_lazy_afw_500_iterations(benchmark):
    w, cap, target = single_row_problem(2)  # runs to the iteration limit
    oracle = KnapsackOracle(KnapsackSubproblem.plain(w, cap))
    outcome = _run(benchmark, separate_lazy_afw, target, oracle, FwConfig(max_iters=500))
    assert outcome.stats.stop_reason == "iteration-limit"


def test_lift_cut(benchmark, row_cut):
    sub, cut = row_cut
    lifted = _run(benchmark, lift_cut, cut, sub)
    full = KnapsackSubproblem.plain(sub.row_weights, sub.row_capacity)
    best, _ = knapsack_dp_max(full, lifted.alpha_full)
    assert best <= lifted.beta_full + 1e-6


def test_simplex_solve(benchmark, instance):
    problem = build_relaxation(instance)
    solution = benchmark.pedantic(
        lambda solver: solver.solve(),
        setup=lambda: ((SimplexSolver(problem),), {}),
        rounds=ROUNDS,
        iterations=1,
    )
    assert solution.status == STATUS_OPTIMAL
    assert np.all(instance.weights @ solution.x <= instance.capacities + 1e-6)
