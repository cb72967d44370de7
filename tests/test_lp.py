import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

from fwcuts.lp import LpProblem, SimplexSolver

from conftest import feasible_points, membership_test


def brute_force_lp_max(c, rows):
    """Enumerate candidate vertices of {x in [0,1]^n : Ax <= b} from all
    n-subsets of active constraints and maximize <c, x> over the feasible ones."""
    n = len(c)
    constraints = [(np.asarray(a, dtype=float), float(b)) for a, b in rows]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        constraints.append((e.copy(), 0.0))  # x_j = 0
        constraints.append((e, 1.0))  # x_j = 1
    best = None
    for combo in itertools.combinations(range(len(constraints)), n):
        A = np.stack([constraints[i][0] for i in combo])
        b = np.array([constraints[i][1] for i in combo])
        try:
            x = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            continue
        if np.any(x < -1e-9) or np.any(x > 1 + 1e-9):
            continue
        if any(float(a @ x) > r + 1e-9 for a, r in rows):
            continue
        val = float(np.asarray(c) @ x)
        if best is None or val > best:
            best = val
    return best


class TestSimplex:
    def test_single_row(self):
        problem = LpProblem(np.array([1.0, 1.0]), ((np.array([1.0, 1.0]), 1.0),))
        sol = SimplexSolver(problem).solve()
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(1.0, abs=1e-9)

    def test_no_rows_positive_objective(self):
        sol = SimplexSolver(LpProblem(np.array([2.0, -1.0, 3.0]), ())).solve()
        assert sol.status == "optimal"
        assert np.allclose(sol.x, [1.0, 0.0, 1.0])

    def test_equality_via_row_pair(self):
        ones = np.ones(3)
        rows = ((ones, 1.0), (-ones, -1.0))
        sol = SimplexSolver(LpProblem(np.array([3.0, 1.0, 2.0]), rows)).solve()
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(3.0, abs=1e-9)
        assert float(ones @ sol.x) == pytest.approx(1.0, abs=1e-9)

    def test_infeasible_detected(self):
        ones = np.ones(2)
        rows = ((ones, 0.5), (-ones, -1.5))  # 1.5 <= x1+x2 <= 0.5
        assert SimplexSolver(LpProblem(np.zeros(2), rows)).solve().status == "infeasible"

    def test_relaxation_bounds_integer_optimum(self, rng):
        for _ in range(10):
            n, m = 10, 3
            A = rng.integers(1, 30, size=(m, n))
            b = (0.5 * A.sum(axis=1)).astype(int)
            c = rng.integers(1, 50, size=n)
            pts = feasible_points(A[0], b[0])
            keep = np.ones(len(pts), dtype=bool)
            for i in range(1, m):
                keep &= pts @ A[i] <= b[i]
            ip_opt = float((pts[keep] @ c).max())
            rows = tuple((A[i].astype(float), float(b[i])) for i in range(m))
            sol = SimplexSolver(LpProblem(c.astype(float), rows)).solve()
            assert sol.status == "optimal"
            assert sol.objective_value >= ip_opt - 1e-7

    def test_matches_brute_force_and_reference(self, rng):
        for trial in range(40):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, 5))
            A = rng.uniform(-1.0, 1.0, size=(m, n))
            b = rng.uniform(0.0, 1.5, size=m)
            c = rng.uniform(-1.0, 1.0, size=n)
            rows = tuple((A[i], float(b[i])) for i in range(m))
            sol = SimplexSolver(LpProblem(c, rows)).solve()
            assert sol.status == "optimal"
            ref = brute_force_lp_max(c, rows)
            assert ref is not None
            assert sol.objective_value == pytest.approx(ref, abs=1e-7)
            hi = linprog(
                -c, A_ub=A, b_ub=b, bounds=[(0, 1)] * n, method="highs"
            )
            assert sol.objective_value == pytest.approx(-hi.fun, abs=1e-7)

    def test_warm_start_matches_cold_solve(self, rng):
        n = 6
        c = rng.uniform(0.0, 1.0, size=n)
        base = [(rng.uniform(0.0, 1.0, size=n), 2.0) for _ in range(2)]
        extra = [(rng.uniform(0.0, 1.0, size=n), 1.0) for _ in range(2)]
        warm = SimplexSolver(LpProblem(c, tuple(base)))
        first = warm.solve()
        warm.add_rows(extra)
        warm_sol = warm.solve()
        cold_sol = SimplexSolver(LpProblem(c, tuple(base + extra))).solve()
        assert warm_sol.objective_value == pytest.approx(
            cold_sol.objective_value, abs=1e-8
        )
        assert first.objective_value >= warm_sol.objective_value - 1e-9

        # GAP shape: one knapsack row per agent and each job's equality as a
        # row pair, then rounds of rows that cut off the last solution but
        # keep a feasible point z (the cheapest assignment) feasible
        agents, jobs = 3, 6
        n = agents * jobs
        c = rng.integers(10, 51, size=n).astype(float)
        rows = []
        for i in range(agents):
            a = np.zeros(n)
            a[i * jobs : (i + 1) * jobs] = rng.integers(5, 26, size=jobs)
            rows.append((a, float(np.floor(0.5 * a.sum()))))
        for j in range(jobs):
            e = np.zeros(n)
            e[j::jobs] = 1.0
            rows += [(e, 1.0), (-e, -1.0)]

        def highs(objective):
            res = linprog(-objective, A_ub=np.array([a for a, _ in rows]),
                          b_ub=np.array([r for _, r in rows]), bounds=(0, 1),
                          method="highs")
            assert res.status == 0
            return -res.fun, res.x

        _, z = highs(-c)
        warm = SimplexSolver(LpProblem(c, tuple(rows)))
        for round_no in range(4):
            if round_no:
                new = []
                for _ in range(2):
                    a = rng.uniform(0.0, 0.01, size=n) * (rng.random(n) < 0.6)
                    cut_rhs = float(a @ warm_sol.x) - 0.05 * float(a.sum())
                    new.append((a, max(float(a @ z), cut_rhs)))
                rows += new
                warm.add_rows(new)
            warm_sol = warm.solve()
            cold_sol = SimplexSolver(LpProblem(c, tuple(rows))).solve()
            best, _ = highs(c)
            assert warm_sol.status == cold_sol.status == "optimal"
            assert warm_sol.objective_value == pytest.approx(best, rel=1e-9)
            assert cold_sol.objective_value == pytest.approx(best, rel=1e-9)

    def test_valid_cut_never_raises_bound(self, rng):
        c = np.array([6.0, 4.0])
        rows = ((np.array([3.0, 5.0]), 7.0),)
        solver = SimplexSolver(LpProblem(c, rows))
        before = solver.solve()
        # valid for every feasible 0/1 point, violated at the LP optimum
        solver.add_rows([(np.array([1.0, 1.0]), 1.0)])
        after = solver.solve()
        assert after.objective_value <= before.objective_value + 1e-9
        assert after.objective_value < before.objective_value - 1e-6


class TestMembership:
    def test_listed_vertex_is_inside(self):
        V = np.array([[0, 0], [1, 0], [0, 1]])
        assert membership_test(np.array([1.0, 0.0]), V).inside

    def test_midpoint_is_inside(self):
        V = np.array([[0, 0, 1], [1, 1, 0]])
        res = membership_test(np.array([0.5, 0.5, 0.5]), V)
        assert res.inside and res.distance_lb <= 1e-7

    def test_missing_corner_is_outside(self):
        V = np.array([[0, 0], [1, 0], [0, 1]])
        res = membership_test(np.array([0.9, 0.9]), V)
        assert not res.inside
        assert res.distance_lb > 0.1  # (0.9,0.9) violates x1+x2 <= 1 by 0.8

    def test_distance_lower_bounds_euclidean(self, rng):
        for _ in range(20):
            k = int(rng.integers(2, 6))
            V = feasible_points(rng.integers(1, 9, size=k), int(rng.integers(3, 12)))
            point = rng.uniform(-0.5, 1.5, size=k)
            res = membership_test(point, V)
            # Euclidean distance to the nearest vertex upper-bounds the hull
            # distance, which the LP value must lower-bound
            nearest = float(np.min(np.linalg.norm(V - point, axis=1)))
            assert res.distance_lb <= nearest + 1e-7
