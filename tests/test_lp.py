import random
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from previsions import lp
from oracles import polytope_vertices

# Primes and prime powers up to 97: mixing coprime denominators makes the
# row lcms, and with them the integer tableau's common denominator, grow fast.
DENOMINATORS = (
    1, 2, 3, 4, 5, 7, 9, 11, 13, 16, 17, 19, 23, 25, 29,
    31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
)


def check_solution(rows, rhs, x):
    assert all(v >= 0 for v in x)
    for row, b in zip(rows, rhs):
        assert sum(c * v for c, v in zip(row, x)) == b


def check_certificate(rows, rhs, y):
    ncols = len(rows[0])
    for j in range(ncols):
        assert sum(y[i] * rows[i][j] for i in range(len(rows))) <= 0
    assert sum(y[i] * rhs[i] for i in range(len(rows))) > 0


class TestFeasibility:
    def test_simplex_point(self):
        rows = [[1, 1]]
        rhs = [1]
        result = lp.solve(rows, rhs)
        assert result.feasible
        check_solution(rows, rhs, result.solution)

    def test_infeasible_mass(self):
        # w1 = 1/2 and w2 = 3/5 cannot also sum to 1.
        rows = [[1, 0], [0, 1], [1, 1]]
        rhs = [F(1, 2), F(3, 5), 1]
        result = lp.solve(rows, rhs)
        assert result.status == lp.INFEASIBLE
        check_certificate(rows, rhs, result.certificate)

    def test_negative_rhs_handled(self):
        rows = [[1, -1]]
        rhs = [F(-2)]
        result = lp.solve(rows, rhs)
        assert result.feasible
        check_solution(rows, rhs, result.solution)

    def test_redundant_rows_dropped(self):
        rows = [[1, 1], [2, 2]]
        rhs = [1, 2]
        result = lp.solve(rows, rhs, objective=[1, 0], maximize=True)
        assert result.feasible
        assert result.objective == 1

    def test_inconsistent_duplicate_rows(self):
        rows = [[1, 1], [1, 1]]
        rhs = [1, 2]
        result = lp.solve(rows, rhs)
        assert result.status == lp.INFEASIBLE
        check_certificate(rows, rhs, result.certificate)


class TestOptimization:
    def test_maximize_coordinate_on_simplex(self):
        rows = [[1, 1, 1]]
        rhs = [1]
        result = lp.solve(rows, rhs, objective=[0, 1, 0], maximize=True)
        assert result.objective == 1

    def test_minimize_with_coupling(self):
        # x1 + x2 = 1, x1 - x3 = 1/4: minimize x1 gives x1 = 1/4 (x3 = 0).
        rows = [[1, 1, 0], [1, 0, -1]]
        rhs = [1, F(1, 4)]
        low = lp.solve(rows, rhs, objective=[1, 0, 0])
        high = lp.solve(rows, rhs, objective=[1, 0, 0], maximize=True)
        assert low.objective == F(1, 4)
        assert high.objective == 1

    def test_unbounded(self):
        rows = [[1, -1]]
        rhs = [1]
        result = lp.solve(rows, rhs, objective=[1, 0], maximize=True)
        assert result.status == lp.UNBOUNDED

    def test_exactness_no_drift(self):
        # Tenths stay exact; any float path would leak binary noise.
        rows = [[F(1, 10), F(3, 10)], [1, 1]]
        rhs = [F(1, 5), 1]
        result = lp.solve(rows, rhs, objective=[1, 0], maximize=True)
        assert result.feasible
        assert result.solution == (F(1, 2), F(1, 2))


class TestAgainstVertexEnumeration:
    def test_random_hull_problems(self):
        rng = random.Random(20240)
        for _ in range(120):
            n = rng.randint(1, 3)
            m = rng.randint(1, 6)
            points = [
                tuple(F(rng.randint(0, 4), rng.randint(1, 4)) for _ in range(n))
                for _ in range(m)
            ]
            target = tuple(F(rng.randint(0, 4), rng.randint(1, 4)) for _ in range(n))
            rows = [[p[i] for p in points] for i in range(n)]
            rows.append([F(1)] * m)
            rhs = list(target) + [F(1)]
            result = lp.solve(rows, rhs)
            expected = bool(polytope_vertices(points, target))
            assert result.feasible == expected
            if result.feasible:
                check_solution(rows, rhs, result.solution)
            else:
                check_certificate(rows, rhs, result.certificate)

    def test_random_objectives_match_vertex_maxima(self):
        rng = random.Random(77)
        for _ in range(60):
            n = rng.randint(1, 3)
            m = rng.randint(2, 6)
            points = [
                tuple(F(rng.randint(0, 3), 3) for _ in range(n)) for _ in range(m)
            ]
            target = tuple(F(rng.randint(0, 3), 3) for _ in range(n))
            vertices = polytope_vertices(points, target)
            if not vertices:
                continue
            cost = [F(rng.randint(-2, 2)) for _ in range(m)]
            rows = [[p[i] for p in points] for i in range(n)]
            rows.append([F(1)] * m)
            rhs = list(target) + [F(1)]
            result = lp.solve(rows, rhs, objective=cost, maximize=True)
            best = max(sum(c * w for c, w in zip(cost, v)) for v in vertices)
            assert result.objective == best


@st.composite
def rationals(draw, bound=1, nonzero=False):
    """A rational in [-bound, bound] over one of :data:`DENOMINATORS`."""
    q = draw(st.sampled_from(DENOMINATORS))
    p = draw(st.integers(-bound * q, bound * q).filter(lambda p: p or not nonzero))
    return F(p, q)


@st.composite
def hull_problems(draw):
    """A convex-hull system in disguise, plus a rational objective.

    The system ``sum(w_h * point_h) = target, sum(w) = 1, w >= 0`` is the
    one the vertex oracle solves.  Its rows are then multiplied by nonzero
    rationals (negative ones give negative right-hand sides), joined by
    duplicated and redundant combinations of rows, and shuffled; none of
    that changes the solution set.
    """
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 6))
    points = [tuple(draw(rationals()) for _ in range(n)) for _ in range(m)]
    if draw(st.booleans()):
        # A target inside the hull, often on a face of it.
        weights = [draw(st.integers(0, 3)) for _ in range(m)]
        if not any(weights):
            weights[0] = 1
        total = sum(weights)
        target = tuple(sum(F(w, total) * p[i] for w, p in zip(weights, points)) for i in range(n))
    else:
        target = tuple(draw(rationals()) for _ in range(n))
    rows = [[p[i] for p in points] for i in range(n)] + [[F(1)] * m]
    rhs = list(target) + [F(1)]
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, n)), draw(st.integers(0, n))
        u, v = draw(rationals(3, nonzero=True)), draw(rationals(3))
        rows.append([u * x + v * y for x, y in zip(rows[i], rows[j])])
        rhs.append(u * rhs[i] + v * rhs[j])
    for i in range(len(rows)):
        c = draw(rationals(2, nonzero=True))
        rows[i] = [c * x for x in rows[i]]
        rhs[i] *= c
    order = draw(st.permutations(range(len(rows))))
    rows = [rows[i] for i in order]
    rhs = [rhs[i] for i in order]
    cost = [draw(rationals(3)) for _ in range(m)]
    return points, target, rows, rhs, cost, draw(st.booleans())


class TestDifferentialAgainstVertexEnumeration:
    @settings(
        max_examples=250,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(hull_problems())
    def test_status_optimum_solution_and_certificate(self, problem):
        points, target, rows, rhs, cost, maximize = problem
        vertices = polytope_vertices(points, target)

        result = lp.solve(rows, rhs)
        assert result.feasible == bool(vertices)
        if result.feasible:
            check_solution(rows, rhs, result.solution)
        else:
            check_certificate(rows, rhs, result.certificate)

        result = lp.solve(rows, rhs, cost, maximize=maximize)
        if not vertices:
            assert result.status == lp.INFEASIBLE
            check_certificate(rows, rhs, result.certificate)
            return
        # Bounded: the mass row caps every weight at one.
        assert result.status == lp.OPTIMAL
        values = [sum(c * w for c, w in zip(cost, v)) for v in vertices]
        best = max(values) if maximize else min(values)
        assert result.objective == best
        check_solution(rows, rhs, result.solution)
        assert sum(c * x for c, x in zip(cost, result.solution)) == best


class TestValidation:
    def test_shape_errors(self):
        with pytest.raises(ValueError):
            lp.solve([], [])
        with pytest.raises(ValueError):
            lp.solve([[1, 2], [1]], [1, 1])
        with pytest.raises(ValueError):
            lp.solve([[1]], [1, 2])
        with pytest.raises(ValueError):
            lp.solve([[1]], [1], objective=[1, 2])
