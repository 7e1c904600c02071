import hashlib
import itertools
import random
from fractions import Fraction as F
from math import isqrt, lcm, prod
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import dense_lp
from previsions import lp
from previsions.coherence import LinearSystem, _reproduces, _scaled, upper_conditioning_masses
from oracles import brute_masses, brute_reproduces, polytope_vertices

# Primes and prime powers up to 97: mixing coprime denominators makes the
# row lcms, and with them the integer tableau's common denominator, grow fast.
DENOMINATORS = (
    1, 2, 3, 4, 5, 7, 9, 11, 13, 16, 17, 19, 23, 25, 29,
    31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
)


def scaled(rows, rhs, scales=None):
    """Rational rows and right-hand sides as the LP takes them: integer
    rows and right-hand sides, row ``i`` and ``rhs[i]`` times
    ``scales[i]``, by default the lcm of their denominators, and the
    scales."""
    if scales is None:
        scales = [_scaled([*row, b])[0] for row, b in zip(rows, rhs)]
    products = [[s * v for v in [*row, b]] for row, b, s in zip(rows, rhs, scales)]
    assert all(v.denominator == 1 for row in products for v in row)
    ints = [[int(v) for v in row] for row in products]
    return [row[:-1] for row in ints], [row[-1] for row in ints], list(scales)


def solve(rows, rhs):
    """:func:`lp.solve` on rational rows and right-hand sides, to which
    it adds ``sum(x) = 1``."""
    return lp.solve(*scaled(rows, rhs))


def optimize(first, objective, maximize=False):
    """:func:`lp.optimize` for a rational objective, optimal point included."""
    scale, costs = _scaled(objective)
    return lp.optimize(first, costs, scale, maximize, point=True)


def on_the_simplex(rows, rhs):
    """The rows and right-hand sides with ``sum(x) = 1`` appended, the
    system :func:`lp.solve` solves."""
    return [*rows, [1] * len(rows[0])], [*rhs, 1]


def check_solution(rows, rhs, x):
    rows, rhs = on_the_simplex(rows, rhs)
    assert all(v >= 0 for v in x)
    for row, b in zip(rows, rhs):
        assert sum(c * v for c, v in zip(row, x)) == b


def check_certificate(rows, rhs, y):
    rows, rhs = on_the_simplex(rows, rhs)
    assert len(y) == len(rows)
    ncols = len(rows[0])
    for j in range(ncols):
        assert sum(y[i] * rows[i][j] for i in range(len(rows))) <= 0
    assert sum(y[i] * rhs[i] for i in range(len(rows))) > 0


class TestFeasibility:
    def test_simplex_point(self):
        # The mean 3/2 of the values 1 and 2 is their midpoint.
        rows = [[1, 2]]
        rhs = [F(3, 2)]
        result = solve(rows, rhs)
        assert result.feasible
        assert result.solution == (F(1, 2), F(1, 2))
        check_solution(rows, rhs, result.solution)

    def test_infeasible_mass(self):
        # w1 = 1/2 and w2 = 3/5 cannot also sum to 1.
        rows = [[1, 0], [0, 1]]
        rhs = [F(1, 2), F(3, 5)]
        result = solve(rows, rhs)
        assert result.status == lp.INFEASIBLE
        check_certificate(rows, rhs, result.certificate)

    def test_negative_rhs_handled(self):
        rows = [[1, -1]]
        rhs = [F(-1, 2)]
        result = solve(rows, rhs)
        assert result.feasible
        assert result.solution == (F(1, 4), F(3, 4))
        check_solution(rows, rhs, result.solution)

    def test_redundant_rows_dropped(self):
        # The second row is a multiple of the first, the third of sum(x).
        rows = [[1, 3], [2, 6], [2, 2]]
        rhs = [2, 4, 2]
        result = optimize(solve(rows, rhs), [1, 0], maximize=True)
        assert result.feasible
        assert result.objective == F(1, 2)

    def test_inconsistent_duplicate_rows(self):
        rows = [[1, 2], [1, 2]]
        rhs = [1, F(3, 2)]
        result = solve(rows, rhs)
        assert result.status == lp.INFEASIBLE
        check_certificate(rows, rhs, result.certificate)


class TestOptimization:
    def test_maximize_coordinate_on_simplex(self):
        rows = [[0, 1, 2]]
        rhs = [1]
        result = optimize(solve(rows, rhs), [0, 1, 0], maximize=True)
        assert result.objective == 1

    def test_minimize_with_coupling(self):
        # x1 - x3 = 1/4 on the simplex: minimizing x1 gives x1 = 1/4 (x3 =
        # 0), maximizing it x1 = 5/8 (x2 = 0, x3 = 3/8).
        rows = [[1, 0, -1]]
        rhs = [F(1, 4)]
        low = optimize(solve(rows, rhs), [1, 0, 0])
        high = optimize(solve(rows, rhs), [1, 0, 0], maximize=True)
        assert low.objective == F(1, 4)
        assert high.objective == F(5, 8)

    def test_exactness_no_drift(self):
        # Tenths stay exact; any float path would leak binary noise.
        rows = [[F(1, 10), F(3, 10)]]
        rhs = [F(1, 5)]
        result = optimize(solve(rows, rhs), [1, 0], maximize=True)
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
            rhs = list(target)
            result = solve(rows, rhs)
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
            rhs = list(target)
            result = optimize(solve(rows, rhs), cost, maximize=True)
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
    one the vertex oracle solves.  Its rows are joined by duplicated and
    redundant combinations of rows, ``sum(w) = 1`` among them, which
    :func:`lp.solve` adds itself and so is then left out; the rows are
    multiplied by nonzero rationals (negative ones give negative
    right-hand sides) and shuffled.  None of that changes the solution
    set.
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
    del rows[n], rhs[n]
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

        result = solve(rows, rhs)
        assert result.feasible == bool(vertices)
        if result.feasible:
            check_solution(rows, rhs, result.solution)
        else:
            check_certificate(rows, rhs, result.certificate)

        result = optimize(solve(rows, rhs), cost, maximize)
        if not vertices:
            assert result.status == lp.INFEASIBLE
            check_certificate(rows, rhs, result.certificate)
            return
        # Bounded: on the simplex every weight is at most one.
        assert result.status == lp.OPTIMAL
        values = [sum(c * w for c, w in zip(cost, v)) for v in vertices]
        best = max(values) if maximize else min(values)
        assert result.objective == best
        check_solution(rows, rhs, result.solution)
        assert sum(c * x for c, x in zip(cost, result.solution)) == best


def seeded_systems(seed, count):
    """Level-like systems ``sum(w_h * point_h) = target`` on the simplex:
    targets on faces of the hull (zero weights make them degenerate) or
    drawn at random (often infeasible), repeated points (duplicate
    columns) and redundant combinations of rows, ``sum(w) = 1`` among
    them, which is then left out for :func:`lp.solve` to add."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 4)
        points = [
            tuple(F(rng.randint(0, 4), rng.randint(1, 4)) for _ in range(n))
            for _ in range(rng.randint(1, 7))
        ]
        points += [rng.choice(points) for _ in range(rng.randint(0, 2))]
        if rng.random() < 0.6:
            weights = [rng.choice((0, 0, 1, 2)) for _ in points]
            weights[rng.randrange(len(points))] += 1
            total = sum(weights)
            target = tuple(
                sum(F(w, total) * p[i] for w, p in zip(weights, points)) for i in range(n)
            )
        else:
            target = tuple(F(rng.randint(0, 4), rng.randint(1, 4)) for _ in range(n))
        rows = [[p[i] for p in points] for i in range(n)] + [[F(1)] * len(points)]
        rhs = list(target) + [F(1)]
        for _ in range(rng.randint(0, 2)):
            i, j = rng.randrange(n + 1), rng.randrange(n + 1)
            u, v = F(rng.randint(1, 3)), F(rng.randint(-3, 3), rng.randint(1, 3))
            rows.append([u * x + v * y for x, y in zip(rows[i], rows[j])])
            rhs.append(u * rhs[i] + v * rhs[j])
        del rows[n], rhs[n]
        yield rows, rhs


# sha256 of the phase-1 outcomes (status and the witness point or Farkas
# certificate) of ``seeded_systems(1, 400)``, recorded with the solver
# that took ``sum(w) = 1`` as an input row, on these systems with that
# row passed last.
PHASE_ONE_DIGEST = "7afa2626b14a6dd3d1bcbb4b8f9ae97057a4865d6456c898de729daf5debab19"


def phase_one_digest(systems):
    digest = hashlib.sha256()
    for rows, rhs in systems:
        result = solve(rows, rhs)
        digest.update(f"{result.status} {result.solution} {result.certificate}\n".encode())
    return digest.hexdigest()


@st.composite
def shared_systems(draw):
    """A hull problem with some points repeated, and one to three objectives."""
    points, target, rows, rhs, cost, _ = draw(hull_problems())
    for _ in range(draw(st.integers(0, 2))):
        h = draw(st.integers(0, len(points) - 1))
        points.append(points[h])
        for row in rows:
            row.append(row[h])
        cost.append(draw(rationals(3)))
    objectives = [cost]
    for _ in range(draw(st.integers(0, 2))):
        # Mass objectives like the coherence check's, or small integers.
        values = st.integers(0, 1) if draw(st.booleans()) else st.integers(-2, 2)
        objectives.append([F(draw(values)) for _ in points])
    return points, target, rows, rhs, objectives


@st.composite
def mass_systems(draw):
    """Level systems as ``build_system`` makes them: a point's coordinate
    is the member's value where the point lies in its conditioning and
    the member's prevision elsewhere."""
    n = draw(st.integers(1, 3))
    target = tuple(F(draw(st.integers(0, 4)), 4) for _ in range(n))
    points = []
    membership = []
    for _ in range(draw(st.integers(1, 6))):
        present = frozenset(i for i in range(n) if draw(st.booleans()))
        points.append(
            tuple(F(draw(st.integers(0, 2)), 2) if i in present else target[i] for i in range(n))
        )
        membership.append(present)
    return tuple(points), target, tuple(membership)


def assert_masses_match(points, target, membership):
    rows = tuple(zip(*points))
    indicators = tuple(
        tuple(int(i in present) for present in membership) for i in range(len(target))
    )
    # Each member scaled by the lcm of its row's and its prevision's denominators.
    ints, rhs, scales = scaled(rows, target)
    system = LinearSystem(tuple(map(tuple, ints)), tuple(rhs), tuple(scales), indicators)
    assert system.points == points
    try:
        expected = tuple(brute_masses(points, membership, target))
    except ValueError:
        with pytest.raises(ValueError, match="infeasible"):
            upper_conditioning_masses(system)
        return
    assert upper_conditioning_masses(system) == expected


def bland_solve(rows, rhs, objective, maximize):
    """Phase 1 then phase 2, with Bland's rule in phase 2 as well."""
    with mock.patch.object(lp, "DEGENERATE_RUN", 0):
        return optimize(solve(rows, rhs), objective, maximize)


class TestSharedPhaseOne:
    """Phase 2 from one shared phase 1, Dantzig's rule and the stop at the
    objective's extreme cost on the simplex against one-shot all-Bland
    solves and the vertex oracles."""

    def test_phase_one_outcomes_are_pinned(self):
        assert phase_one_digest(seeded_systems(1, 400)) == PHASE_ONE_DIGEST

    @settings(
        max_examples=200,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(shared_systems())
    def test_optimize_matches_one_shot_bland(self, problem):
        points, target, rows, rhs, objectives = problem
        vertices = polytope_vertices(points, target)
        first = solve(rows, rhs)
        assert first.feasible == bool(vertices)
        if first.feasible:
            check_solution(rows, rhs, first.solution)
        else:
            check_certificate(rows, rhs, first.certificate)
        for cost in objectives:
            for maximize in (False, True):
                reference = bland_solve(rows, rhs, cost, maximize)
                result = optimize(first, cost, maximize)
                assert result.status == reference.status
                assert result.objective == reference.objective
                if not result.feasible:
                    assert result.certificate == first.certificate
                    continue
                values = [sum(c * w for c, w in zip(cost, v)) for v in vertices]
                assert result.objective == (max(values) if maximize else min(values))
                check_solution(rows, rhs, result.solution)
                assert sum(c * x for c, x in zip(cost, result.solution)) == result.objective

    @settings(
        max_examples=200,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(mass_systems())
    def test_masses_match_vertex_enumeration(self, problem):
        assert_masses_match(*problem)

    def test_degenerate_cycle_falls_back_to_bland(self):
        # Beale's example cycles under Dantzig's rule from the slack basis
        # {x0, x1, x2}; the optimum is -5/4.  Its region is not on the
        # simplex, so phase 2 runs on its tableau built by hand, as solve
        # and optimize would build it: the rational rows
        #   x0 + x3/4 - 8 x4 - x5 + 9 x6 = 0
        #   x1 + x3/2 - 12 x4 - x5/2 + 3 x6 = 0
        #   x2 + x5 = 1
        # times d = 8, the product of their scales 4, 2 and 1, and below
        # them d times the reduced costs at scale 4, -3/4 x3 + 20 x4 - 1/2
        # x5 + 6 x6, at the objective 0; each row packed as the kernel packs it.
        # A floor makes it phase 2; at scale 4 the optimum is -5, so the
        # floor -6 is never reached and only optimality stops it.
        def beale():
            layout = lp._layout(64, 8)
            tableau = [
                layout.pack(row[:-1], row[-1])
                for row in [
                    [8, 0, 0, 2, -64, -8, 72, 0],
                    [0, 8, 0, 4, -96, -4, 24, 0],
                    [0, 0, 8, 0, 0, 8, 0, 8],
                    [0, 0, 0, -24, 640, -16, 192, 0],
                ]
            ]
            d = lp._minimize(tableau, [0, 1, 2], 8, layout, floor=-6)
            return F(-layout.unpack(tableau[-1])[-1], 4 * d)

        pivot = lp._pivot

        def guarded(*args):
            guarded.count += 1
            if guarded.count > 100:
                raise RuntimeError("cycling")
            return pivot(*args)

        with mock.patch.object(lp, "_pivot", guarded):
            guarded.count = 0
            assert beale() == F(-5, 4)
            guarded.count = 0
            with mock.patch.object(lp, "DEGENERATE_RUN", 10**9):
                with pytest.raises(RuntimeError, match="cycling"):
                    beale()

    @pytest.mark.parametrize("k", [1, F(3, 2), -2], ids=["unit", "non-unit", "negative"])
    def test_simplex_row_stops_at_once(self, k):
        # k * (x0 - x1) = k on the simplex: the only point is (1, 0, 0),
        # where phase 1 leaves a degenerate basis.  Maximizing x0 + x2
        # there, Dantzig's rule would still see x2 improve, but the
        # greatest cost 1 proves the point optimal without a pivot.
        first = solve([[k, -k, 0]], [k])
        assert first.solution == (1, 0, 0)
        pivot = lp._pivot
        with mock.patch.object(lp, "_pivot", side_effect=pivot) as counted:
            assert optimize(first, [1, 0, 1], maximize=True).objective == 1
        assert counted.call_count == 0

    @pytest.mark.parametrize(
        "rows, rhs, costs, maximize, value, point",
        [
            ([[0, 1, 2]], [1], [0, 1, 0], True, 1, (0, 1, 0)),
            ([[0, 1, 2]], [1], [1, 0, 1], False, 0, (0, 1, 0)),
            ([[2, 2]], [2], [0, 5], True, 5, (0, 1)),
        ],
        ids=["maximize", "minimize", "cheapest-copy"],
    )
    def test_phase_one_point_at_the_floor_settles_at_once(
        self, rows, rhs, costs, maximize, value, point
    ):
        # Phase 1's point already has the greatest (least) cost on the
        # simplex: optimize reads its value off the right-hand sides and
        # runs no phase 2.  Of two equal columns, where phase 1 leaves
        # (1, 0), the point is on the copy that the objective prices best.
        first = lp.solve(rows, rhs, [1] * len(rows))
        with mock.patch.object(lp, "_minimize", side_effect=AssertionError("phase 2 ran")):
            result = lp.optimize(first, costs, 1, maximize, point=True)
            assert (result.status, result.objective, result.solution) == (lp.OPTIMAL, value, point)
            assert lp.optimize(first, costs, 3, maximize).objective == F(value, 3)

    def test_phase_one_point_above_the_floor_still_pivots(self):
        # Phase 1 leaves (0, 1, 0), of cost 2 against the least cost 0:
        # phase 2 runs and pivots to the other vertex, (1/2, 0, 1/2).
        first = lp.solve([[0, 1, 2]], [1], [1])
        assert first.solution == (0, 1, 0)
        with mock.patch.object(lp, "_minimize", side_effect=lp._minimize) as phase_two:
            result, pivots = counted(lambda: lp.optimize(first, [1, 2, 0], 1, point=True))
        assert (result.objective, result.solution) == (F(1, 2), (F(1, 2), 0, F(1, 2)))
        assert phase_two.call_count == 1 and pivots > 0

    def test_optimize_needs_a_phase_one_result(self):
        result = optimize(solve([[0, 1]], [F(1, 2)]), [1, 0])
        with pytest.raises(ValueError, match="solve"):
            lp.optimize(result, [1, 0], 1)


@st.composite
def repeated_columns(draw):
    """A hull problem with copies of some columns, each inserted somewhere
    after its original, on the problem's scaled and negated rows.
    ``origin[j]`` is the column of the problem without copies that column
    ``j`` repeats; each copy draws a cost of its own."""
    points, target, rows, rhs, cost, maximize = draw(hull_problems())
    origin = list(range(len(points)))
    for _ in range(draw(st.integers(1, 3))):
        h = draw(st.integers(0, len(points) - 1))
        origin.insert(draw(st.integers(origin.index(h) + 1, len(origin))), h)
    firsts = {origin.index(h) for h in range(len(points))}
    copied = [[row[h] for h in origin] for row in rows]
    costs = [cost[h] if j in firsts else draw(rationals(3)) for j, h in enumerate(origin)]
    return points, target, rows, rhs, origin, copied, costs, maximize


@st.composite
def repeated_mass_systems(draw):
    """Level systems with equal points of different memberships.  A member
    whose value inside its conditioning equals its prevision has the same
    coordinate outside it, as a conditional event priced 0 or 1 does
    wherever its conditioning decides it; such copies toggle membership
    of some of those members."""
    points, target, membership = draw(mass_systems())
    points, membership = list(points), list(membership)
    for _ in range(draw(st.integers(1, 3))):
        h = draw(st.integers(0, len(points) - 1))
        ties = [i for i in range(len(target)) if points[h][i] == target[i]]
        flip = frozenset()
        if ties:
            flip = frozenset(draw(st.lists(st.sampled_from(ties), unique=True)))
        at = draw(st.integers(0, len(points)))
        points.insert(at, points[h])
        membership.insert(at, membership[h] ^ flip)
    return tuple(points), target, tuple(membership)


class TestRepeatedColumns:
    """Equal columns share one tableau column: phase 1 is that of the
    system without the copies, and phase 2 weights a cheapest copy."""

    @settings(
        max_examples=150,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(repeated_columns())
    def test_phase_one_is_that_without_copies(self, problem):
        _, _, rows, rhs, origin, copied, _, _ = problem
        plain = solve(rows, rhs)
        result = solve(copied, rhs)
        expected = None
        if plain.solution is not None:
            expected = tuple(
                plain.solution[h] if origin.index(h) == j else 0 for j, h in enumerate(origin)
            )
        assert result.status == plain.status
        assert result.solution == expected
        assert result.certificate == plain.certificate

    @settings(
        max_examples=150,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(repeated_columns())
    def test_optimize_weights_only_a_cheapest_copy(self, problem):
        points, target, _, rhs, origin, copied, costs, maximize = problem
        vertices = polytope_vertices([points[h] for h in origin], target)
        result = optimize(solve(copied, rhs), costs, maximize)
        if not vertices:
            assert result.status == lp.INFEASIBLE
            return
        values = [sum(c * w for c, w in zip(costs, v)) for v in vertices]
        assert result.objective == (max(values) if maximize else min(values))
        check_solution(copied, rhs, result.solution)
        groups = {}
        for j, column in enumerate(zip(*copied)):
            groups.setdefault(column, []).append(j)
        for group in groups.values():
            weighted = [j for j in group if result.solution[j]]
            cheapest = (max if maximize else min)(costs[j] for j in group)
            assert len(weighted) <= 1
            assert all(costs[j] == cheapest for j in weighted)

    @settings(
        max_examples=150,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(repeated_mass_systems())
    def test_masses_of_equal_points_with_other_memberships(self, problem):
        assert_masses_match(*problem)

    def test_mass_on_the_copy_inside_the_conditioning(self):
        # One member priced 1 and valued 1 inside its conditioning: both
        # points are (1,), but only the second lies in the conditioning,
        # and all the mass can go there.
        system = LinearSystem(((1, 1),), (1,), (1,), ((0, 1),))
        assert upper_conditioning_masses(system) == (1,)


@st.composite
def member_systems(draw):
    """Level systems as ``build_system`` scales them.  Each member has a
    few cell values and a prevision, any of them negative, over mixed
    denominators; each column takes one of its cell values or its
    prevision.  The member's scale is the lcm of all their denominators,
    so a cell value that no column takes can make it exceed the lcm of
    the member's row."""
    width = draw(st.integers(1, 7))
    value = st.builds(F, st.integers(-6, 6), st.sampled_from(DENOMINATORS[:12]))
    rows, target, scales, indicators = [], [], [], []
    for _ in range(draw(st.integers(1, 4))):
        cells = draw(st.lists(value, min_size=1, max_size=4))
        prevision = draw(value)
        used = len(cells) - draw(st.integers(0, len(cells) - 1))
        picks = [draw(st.sampled_from([None, *range(used)])) for _ in range(width)]
        rows.append([prevision if k is None else cells[k] for k in picks])
        target.append(prevision)
        scales.append(_scaled([*cells, prevision])[0])
        indicators.append([int(k is not None) for k in picks])
    return rows, target, scales, indicators


def counted(run):
    """The result of ``run()`` and the number of pivots it took."""
    with mock.patch.object(lp, "_pivot", side_effect=lp._pivot) as pivots:
        return run(), pivots.call_count


class TestIntegerEntry:
    """``lp.solve`` and ``lp.optimize`` on rows scaled per member, as the
    coherence check calls them, against the same rows scaled by the lcm
    of each row's denominators, the public entry's scaling before it took
    integers: the scales change the tableau's common denominator and
    nothing else."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(member_systems())
    def test_same_outcome_and_pivots_as_the_public_entry(self, system):
        rows, target, scales, indicators = system
        least, pivots = counted(lambda: solve(rows, target))
        member, member_pivots = counted(lambda: lp.solve(*scaled(rows, target, scales)))
        assert (member.status, member.solution, member.certificate) == (
            least.status,
            least.solution,
            least.certificate,
        )
        assert member_pivots == pivots
        if not least.feasible:
            return
        for indicator in indicators:
            mass, pivots = counted(lambda: optimize(least, indicator, maximize=True))
            found, member_pivots = counted(lambda: lp.optimize(member, indicator, 1, True))
            assert (found.status, found.objective) == (mass.status, mass.objective)
            assert found.solution is None
            assert member_pivots == pivots

    def test_a_member_scale_beyond_its_row(self):
        # Member 0's row is (1/2, 1/4), lcm 4; its unused cell value 1/3
        # makes its scale 12.  The prevision -1/4 orients the row.
        rows, target = [[F(1, 2), F(-1, 4)]], [F(-1, 4)]
        least = solve(rows, target)
        member = lp.solve([[6, -3]], [-3], [12])
        assert member.solution == least.solution == (F(0), F(1))


def bordered_square(matrix):
    """The square of the bordered Hadamard bound ``lp``'s docstring proves
    on ``|det matrix|``, an exact fraction: ``(n + 1)**(n + 1)`` times the
    product of ``max|R|**2`` over the ``n`` rows ``R``, over ``4**h`` for
    the ``h`` rows of one sign."""
    n = len(matrix)
    h = sum(min(row) >= 0 or max(row) <= 0 for row in matrix)
    return F((n + 1) ** (n + 1) * prod(max(map(abs, row)) ** 2 for row in matrix), 4**h)


def determinant(matrix):
    """The determinant of a square integer matrix, by Bareiss's elimination."""
    a, sign, d = [list(row) for row in matrix], 1, 1
    n = len(a)
    for k in range(n - 1):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot], sign = a[pivot], a[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) // d
        d = a[k][k]
    return sign * a[-1][-1]


def hadamard_square(rows, rhs, scales, costs=(), maximize=False):
    """The square of the bound that ``lp``'s docstring proves on every
    tableau entry of ``lp.solve(rows, rhs, scales)`` and of an
    ``lp.optimize`` with ``costs``, rounded down to an integer.  With
    ``m`` rows, ``sum(x) = 1`` appended as ``[1 ... 1 | 1 | 1]``, and the
    cost row ``c`` it is the lesser of Hadamard's bound, the product over
    the rows ``S_i`` of ``(m + 1) * max|S_i|**2`` times ``(m + 1) *
    max|c|**2``, and the bordered bound, the same products with ``m + 2``
    for ``m + 1``, over ``4**h`` for the ``h`` rows of one sign once each
    member row is oriented to a nonnegative right-hand side.  Phase 1's
    costs are 0 and 1; phase 2 keeps phase 1's width unless its own bound
    needs more.  Each group of equal columns is priced at its cheapest
    copy, as the tableau prices it."""
    m = len(rows) + 1
    product, h = 1, 1  # the sum row has one sign
    for row, b, s in zip(rows, rhs, scales):
        product *= max(*map(abs, row), s, abs(b)) ** 2
        orient = -1 if b < 0 else 1
        h += min(orient * v for v in row) >= 0

    def least(top, one_sign):
        plain = (m + 1) ** (m + 1) * product * top**2
        return min(plain, (m + 2) ** (m + 2) * product * top**2 // 4 ** (h + one_sign))

    sign = -1 if maximize else 1
    group = {}
    for column, cost in zip(zip(*rows), costs):
        group[column] = min(group.get(column, sign * cost), sign * cost)
    square = least(1, True)
    if group:
        values = group.values()
        one_sign = min(values) >= 0 or max(values) <= 0
        square = max(square, least(max(map(abs, values)), one_sign))
    return square


def stepped(module, run):
    """``run()`` and, after each of ``module``'s pivots, its new
    denominator, basis and tableau rows."""
    steps = []
    pivot = module._pivot

    def recording(tableau, basis, *args):
        d = pivot(tableau, basis, *args)
        steps.append((d, list(basis), list(tableau)))
        return d

    with mock.patch.object(module, "_pivot", recording):
        return run(), steps


def assert_same_steps(dense_steps, packed_steps, square):
    """Pivot by pivot, the packed tableau unpacks to the dense one, with
    fields of the least multiple of 32 bits that holds ``sqrt(square)``,
    and no entry exceeds that bound.  Only the drive-out of the
    artificials runs without the reduced-cost row in the packed kernel."""
    bits = 32 * (isqrt(square).bit_length() // 32 + 1)
    assert len(packed_steps) == len(dense_steps)
    for (d, basis, rows), (packed_d, packed_basis, packed) in zip(dense_steps, packed_steps):
        assert (packed_d, packed_basis) == (d, basis)
        assert len(packed) in (len(rows), len(basis))
        layout = lp._layout(bits, len(rows[0]))
        assert [layout.unpack(word) for word in packed] == list(map(list, rows[: len(packed)]))
        assert d * d <= square
        assert all(v * v <= square for row in rows for v in row)


def assert_kernels_agree(rows, rhs, scales, objectives=()):
    """``lp`` and the dense reference kernel in ``dense_lp`` take the same
    pivots through the same tableaux and return the same outcomes, for
    phase 1 and for each ``(costs, scale, maximize)`` objective; returns
    the packed kernel's phase-1 result and optimal values."""
    dense, dense_steps = stepped(dense_lp, lambda: dense_lp.solve(rows, rhs, scales))
    first, steps = stepped(lp, lambda: lp.solve(rows, rhs, scales))
    assert_same_steps(dense_steps, steps, hadamard_square(rows, rhs, scales))
    assert (first.status, first.solution, first.certificate) == (
        dense.status, dense.solution, dense.certificate
    )
    values = []
    for costs, scale, maximize in objectives:
        run = lambda module, start: module.optimize(start, costs, scale, maximize, point=True)
        want, dense_steps = stepped(dense_lp, lambda: run(dense_lp, dense))
        got, steps = stepped(lp, lambda: run(lp, first))
        square = hadamard_square(rows, rhs, scales, costs, maximize)
        assert_same_steps(dense_steps, steps, square)
        assert (got.status, got.objective, got.solution) == (want.status, want.objective, want.solution)
        values.append(got.objective)
    return first, values


def boundary_system(bits, above, mixed=False):
    """One member row ``[M, 1, 3] . x = 2`` at scale 1, of one sign, or
    ``[M, 1 - M, 3]`` when ``mixed``, two rows with ``sum(x) = 1``: the
    documented bound is the bordered one, ``2 * M``, or ``4 * M`` for the
    mixed row.  ``M`` puts it just below ``2**(bits - 1)``, or at it when
    ``above``."""
    factor = 4 if mixed else 2
    top = (1 << (bits - 1)) // factor - 1 + above
    return [[top, 1 - top if mixed else 1, 3]], [2], [1]


def phase_one_width(rows, rhs, scales):
    """The field width ``lp.solve(rows, rhs, scales)`` runs phase 1 at."""
    with mock.patch.object(lp, "_layout", wraps=lp._layout) as layouts:
        lp.solve(rows, rhs, scales)
    return layouts.call_args_list[0].args[0]


def optimize_widths(first, costs, maximize):
    """The widths ``lp.optimize`` widens phase 1's rows to, and whether it
    pivoted."""
    with mock.patch.object(lp, "_layout", wraps=lp._layout) as layouts:
        _, pivots = counted(lambda: lp.optimize(first, costs, 1, maximize))
    return [call.args[0] for call in layouts.call_args_list], pivots > 0


def assert_matches_the_oracle(rows, rhs, scales, objectives=()):
    """Both kernels agree, and their outcome is the vertex oracle's."""
    first, values = assert_kernels_agree(rows, rhs, scales, objectives)
    points = [tuple(F(v, s) for v, s in zip(column, scales)) for column in zip(*rows)]
    target = tuple(F(b, s) for b, s in zip(rhs, scales))
    vertices = polytope_vertices(points, target)
    assert first.feasible == bool(vertices)
    if not first.feasible:
        check_certificate([list(p) for p in zip(*points)], list(target), first.certificate)
    for (costs, scale, maximize), value in zip(objectives, values):
        if vertices:
            totals = [sum(F(c, scale) * w for c, w in zip(costs, v)) for v in vertices]
            assert value == (max(totals) if maximize else min(totals))


class TestPackedRows:
    """The packed kernel against the list-of-lists kernel it replaced
    (``tests/dense_lp.py``) pivot by pivot, every entry under the
    documented bound, and at the field widths' edges against the vertex
    oracle."""

    def test_seeded_systems_step_as_the_dense_kernel(self):
        rng = random.Random(26)
        for rows, rhs in seeded_systems(1, 400):
            ints, target, scales = scaled(rows, rhs)
            costs = [rng.randint(-3, 3) for _ in ints[0]]
            masses = [rng.randint(0, 1) for _ in ints[0]]
            assert_kernels_agree(
                ints, target, scales, [(costs, 1, False), (costs, 2, True), (masses, 1, True)]
            )

    @settings(
        max_examples=250,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(hull_problems())
    def test_hull_problems_step_as_the_dense_kernel(self, problem):
        _, _, rows, rhs, cost, maximize = problem
        scale, costs = _scaled(cost)
        assert_kernels_agree(*scaled(rows, rhs), [(costs, scale, maximize)])

    def test_field_width(self):
        # The least multiple of 32 bits whose signed fields hold sqrt(square).
        for bits in (32, 64, 96, 128, 160, 192):
            limit = 1 << (bits - 1)
            assert lp._bits((limit - 1) ** 2) == bits
            assert lp._bits(limit**2 - 1) == bits
            assert lp._bits(limit**2) == bits + 32

    @pytest.mark.parametrize(
        "bits, above",
        [(bits, above) for bits in (32, 64, 96, 128) for above in (False, True)],
        ids=[f"{side}-2**{bits - 1}" for bits in (32, 64, 96, 128) for side in ("below", "above")],
    )
    def test_bound_at_a_width_boundary(self, bits, above):
        # The row of one sign sits at the bordered bound's edge, where
        # Hadamard's bound, sqrt(27) * M, already needs 32 bits more.
        rows, rhs, scales = boundary_system(bits, above)
        assert (isqrt(hadamard_square(rows, rhs, scales)) >= 1 << (bits - 1)) == above
        assert isqrt(27 * rows[0][0] ** 2) >= 1 << (bits - 1)
        assert phase_one_width(rows, rhs, scales) == bits + 32 * above
        objectives = [([0, 1, 0], 1, True), ([1, 0, 1], 1, False), ([2, -1, 1], 3, True)]
        assert_matches_the_oracle(rows, rhs, scales, objectives)

    @pytest.mark.parametrize("bits", (32, 64, 96, 128))
    def test_a_mixed_row_keeps_its_full_factor(self, bits):
        # Row 0, [M, 1, 3] . x = 2, has one sign.  Row 1 has one sign in
        # the twin, [1, 1, 1] . x = 1, and both signs in the other, [1, -1,
        # 1] . x = 0.  With m = 3 the bordered bound is sqrt(3125 / 64) * M,
        # or half that in the twin: M puts the twin just below 2**(bits - 1)
        # and the mixed system just above it.
        top = isqrt(64 * 4 ** (bits - 1) // 3125) + 1
        mixed = [[top, 1, 3], [1, -1, 1]], [2, 0], [1, 1]
        twin = [[top, 1, 3], [1, 1, 1]], [2, 1], [1, 1]
        assert isqrt(hadamard_square(*twin)) < 1 << (bits - 1) <= isqrt(hadamard_square(*mixed))
        assert phase_one_width(*twin) == bits
        assert phase_one_width(*mixed) == bits + 32
        objectives = [([0, 1, 0], 1, True), ([1, 0, 2], 1, False)]
        assert_matches_the_oracle(*mixed, objectives)
        assert_matches_the_oracle(*twin, objectives)
        # The boundary system's one row, mixed, at the same edges.
        for above in (False, True):
            rows, rhs, scales = boundary_system(bits, above, mixed=True)
            assert phase_one_width(rows, rhs, scales) == bits + 32 * above
            assert_matches_the_oracle(rows, rhs, scales, objectives)

    def test_optimize_widens_the_rows_for_large_costs(self):
        # Phase 1 fits its fields with a bound just below 2**(bits - 1);
        # costs of 7 need 32 bits more, of one sign or not, and phase 2
        # pivots at that width from phase 1's point on the first two
        # columns to the vertex (0, 1/2, 1/2).
        for bits in (32, 64, 96, 128):
            rows, rhs, scales = boundary_system(bits, False)
            top = rows[0][0]
            first = lp.solve(rows, rhs, scales)
            assert first.solution == (F(1, top - 1), F(top - 2, top - 1), F(0))
            for costs, value in (([0, -5, 7], 1), ([0, 5, 7], 6)):
                assert optimize_widths(first, costs, True) == ([bits + 32], True)
                assert lp.optimize(first, costs, 1, True).objective == value
            objectives = [([0, -5, 7], 1, True), ([0, 5, -7], 1, False), ([0, 5, -7], 1, True)]
            assert_matches_the_oracle(rows, rhs, scales, objectives)

    def test_mixed_costs_widen_where_costs_of_one_sign_do_not(self):
        # Costs of at most 1 in size fit phase 1's headroom only when they
        # share a sign: mixed ones lose the cost row's halving.
        for bits in (32, 64, 96, 128):
            rows, rhs, scales = boundary_system(bits, False)
            first = lp.solve(rows, rhs, scales)
            for costs, maximize in (([1, 0, 1], True), ([0, 1, 0], False), ([-1, 0, -1], False)):
                assert optimize_widths(first, costs, maximize) == ([], True)
            for costs, maximize in (([1, 0, -1], False), ([-1, 1, 0], False)):
                assert optimize_widths(first, costs, maximize) == ([bits + 32], True)
            objectives = [([1, 0, -1], 1, False), ([-1, 1, 0], 1, False), ([1, 0, 1], 1, True)]
            assert_matches_the_oracle(rows, rhs, scales, objectives)

    def test_the_bordered_inequality(self):
        # |det A| <= sqrt(bordered_square(A)) on every 0/1 matrix of order
        # at most 4 and on seeded integer matrices whose rows have one
        # sign or both.
        for n in range(1, 5):
            for entries in itertools.product((0, 1), repeat=n * n):
                matrix = [entries[i * n : (i + 1) * n] for i in range(n)]
                assert determinant(matrix) ** 2 <= bordered_square(matrix)
        rng = random.Random(34)
        for _ in range(2000):
            n, top = rng.randint(1, 7), rng.choice([1, 2, 3, 10, 1000])
            ranges = [rng.choice([(0, top), (-top, 0), (-top, top)]) for _ in range(n)]
            matrix = [[rng.randint(*ranges[i]) for _ in range(n)] for i in range(n)]
            assert determinant(matrix) ** 2 <= bordered_square(matrix)
        # The order-7 core of Sylvester's Hadamard matrix of order 8, read
        # as 0/1, meets the bound: determinant 32 against sqrt(8**8 / 4**7).
        core = [[bin(i & j).count("1") % 2 for j in range(1, 8)] for i in range(1, 8)]
        assert abs(determinant(core)) == 32
        assert bordered_square(core) == 32**2

    @pytest.mark.parametrize("inside", [True, False], ids=["feasible", "infeasible"])
    def test_a_300_digit_scale(self, inside):
        q, r = 10**299 + 7, 10**299 + 9
        points = [(F(1, q), F(2, r)), (F(-3, q), F(1, r)), (F(2, q), F(-5, r)), (F(1, 7), F(0))]
        weights = [F(1, 4), F(1, 4), F(1, 2), F(0)] if inside else [F(2), F(0), F(-1), F(0)]
        target = [sum(w * p[i] for w, p in zip(weights, points)) for i in range(2)]
        rows = [[p[i] for p in points] for i in range(2)]
        ints, rhs, scales = scaled(rows, target)
        assert max(scales) > 10**299
        objectives = [([1, -1, 2, 0], 1, True), ([1, -1, 2, 0], 1, False), ([0, 0, 0, 1], 1, True)]
        assert_matches_the_oracle(ints, rhs, scales, objectives)


def least_entry(values):
    """Dantzig's entering column over the reduced costs ``values``: the
    first least one, or None if none is negative."""
    least = min(values)
    return values.index(least) if least < 0 else None


class TestEnteringRead:
    """``_Layout.entering``, Dantzig's read of the packed reduced costs as
    big-endian byte strings, against ``min`` and ``.index`` over the
    entries, and the packing it reads."""

    WIDTHS = (32, 64, 96, 128, 160)

    @pytest.mark.parametrize("bits", WIDTHS)
    def test_random_rows_biased_to_ties(self, bits):
        # Entries clustered around a few centres, each varied only in its
        # lowest word or repeated as it is, so fields share their top words
        # and equal fields come often; the extremes of the field included.
        rng = random.Random(bits)
        half = 1 << (bits - 1)
        for _ in range(400):
            centres = [rng.choice([-half, half - 1, 0, -1, rng.randrange(-half, half)])
                       for _ in range(3)]
            values = [
                min(max(rng.choice(centres) + rng.choice([0, rng.randint(-9, 9)]), -half), half - 1)
                for _ in range(rng.randint(1, 40))
            ]
            layout = lp._layout(bits, len(values) + 1)
            row = layout.pack(values, rng.randrange(-half, half))
            assert layout.entering(row + layout.bias) == least_entry(values)

    @pytest.mark.parametrize("bits", WIDTHS)
    def test_a_tie_on_the_top_word_goes_to_the_lower_words(self, bits):
        # Every field below is negative and shares its top word; the least
        # differs from the others only in its lowest byte, at index 1.
        base = -(1 << (bits - 8))
        values = [base - 1, base - 5, base - 2, base - 4]
        layout = lp._layout(bits, len(values) + 1)
        assert layout.entering(layout.pack(values) + layout.bias) == 1

    @pytest.mark.parametrize("bits", WIDTHS)
    def test_equal_least_fields_go_to_the_lowest_index(self, bits):
        low = -(1 << (bits - 1))
        for values in ([3, -7, 5, -7, -7], [0, low, 1, low], [-1, -1]):
            layout = lp._layout(bits, len(values) + 1)
            assert layout.entering(layout.pack(values, -3) + layout.bias) == least_entry(values)

    @pytest.mark.parametrize("bits", WIDTHS)
    def test_a_row_with_no_negative_field_enters_none(self, bits):
        # The right-hand side, negative here, is no column.
        for values in ([0], [0, 0, 0], [5, 0, (1 << (bits - 1)) - 1]):
            layout = lp._layout(bits, len(values) + 1)
            assert layout.entering(layout.pack(values, -1) + layout.bias) is None

    def test_32_bit_fields_round_trip(self):
        top = (1 << 31) - 1
        for values, rhs in [([top, -top, 0, -1, 1], top), ([-top, -top], -top), ([top], 0)]:
            layout = lp._layout(32, len(values) + 1)
            assert layout.unpack(layout.pack(values, rhs)) == [*values, rhs]


@st.composite
def witnessed_systems(draw):
    """Rational rows and a probability vector of weights over their
    columns, at least two of them."""
    width = draw(st.integers(2, 6))
    value = st.builds(F, st.integers(-5, 5), st.sampled_from(DENOMINATORS[:10]))
    row = st.lists(value, min_size=width, max_size=width)
    rows = [draw(row) for _ in range(draw(st.integers(1, 4)))]
    counts = draw(st.lists(st.integers(0, 4), min_size=width, max_size=width))
    counts[draw(st.integers(0, width - 1))] += 1
    return rows, [F(c, sum(counts)) for c in counts]


def reproduced(rows, weights):
    """The target ``rows . weights`` and the integer rows and target, each
    row with its target scaled by the lcm of their denominators."""
    target = [sum((c * w for c, w in zip(row, weights)), F(0)) for row in rows]
    ints, rhs, _ = scaled(rows, target)
    return target, ints, rhs


class TestIntegerWitnessCheck:
    """``coherence._reproduces`` on integer rows agrees with a Fraction
    oracle, and refuses each way a witness can fail: a weight shifted by
    ``1/d`` against the target of the weights before, and a negative
    weight or weights summing to ``1 +- epsilon`` that each reproduce
    their own target."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(witnessed_systems(), st.data())
    def test_agrees_with_the_fraction_oracle(self, system, data):
        rows, weights = system
        target, ints, rhs = reproduced(rows, weights)
        assert brute_reproduces(rows, target, weights)
        assert _reproduces(ints, rhs, weights)

        d = lcm(*[w.denominator for w in weights])
        h, g = data.draw(st.permutations(range(len(weights))))[:2]
        shifted = list(weights)
        shifted[h] += data.draw(st.sampled_from((1, -1))) * F(1, d)
        assert not brute_reproduces(rows, target, shifted)
        assert not _reproduces(ints, rhs, shifted)

        epsilon = F(1, data.draw(st.sampled_from((d, 2 * d, 97 * d, 10**12))))
        negative = list(weights)
        negative[h] -= weights[h] + epsilon
        negative[g] += weights[h] + epsilon
        sign = data.draw(st.sampled_from((1, -1)))
        off = [w * (1 + sign * epsilon) for w in weights]
        for wrong in (negative, off):
            target, ints, rhs = reproduced(rows, wrong)
            assert not brute_reproduces(rows, target, wrong)
            assert not _reproduces(ints, rhs, wrong)

    def test_target_rational_times_the_scale(self):
        # An endpoint row: integer costs, its target a scaled rational.
        assert _reproduces([[1, 3], [2, 2]], [2, F(5, 2)], [F(1, 2), F(1, 2)]) is False
        assert _reproduces([[1, 3], [2, 2]], [2, 2], [F(1, 2), F(1, 2)])
        assert _reproduces([[1, 2]], [F(4, 3)], [F(2, 3), F(1, 3)])
        assert not _reproduces([[1, 2]], [F(4, 3)], [F(2, 3), F(1, 3), F(0)])


class TestValidation:
    def test_shape_errors(self):
        with pytest.raises(ValueError, match="no constraints"):
            lp.solve([], [], [])
        with pytest.raises(ValueError, match="ragged"):
            lp.solve([[1, 2], [1]], [1, 1], [1, 1])
        with pytest.raises(ValueError, match="rhs length"):
            lp.solve([[1]], [1, 2], [1])
        with pytest.raises(ValueError, match="no variables"):
            lp.solve([[]], [0], [1])
        with pytest.raises(ValueError, match="objective length"):
            lp.optimize(lp.solve([[0]], [0], [1]), [1, 2], 1)

    # Input the integer tableau would get wrong: ``zip`` would drop a row
    # with no scale, ``//`` would floor a Fraction row into an infeasible
    # one, and a scale of 0 would divide by zero.
    @pytest.mark.parametrize(
        "rows, rhs, scales, message",
        [
            ([[1, 0], [2, 1]], [0, 1], [1], "scales length"),
            ([[1, 0], [2, 1]], [0, 1], [1, 1, 1], "scales length"),
            ([[1, 0]], [0], [0], "positive ints"),
            ([[1, 0]], [0], [-2], "positive ints"),
            ([[1, 0]], [0], [F(1)], "positive ints"),
            ([[F(1), F(0)]], [F(1, 2)], [1], "entries must be ints"),
            ([[1, 0]], [F(1, 2)], [1], "entries must be ints"),
            ([[1, 0.5]], [1], [1], "entries must be ints"),
        ],
        ids=["scale-missing", "scale-extra", "scale-zero", "scale-negative", "scale-fraction",
             "fraction-row", "fraction-rhs", "float-row"],
    )
    def test_solve_refuses_what_it_would_get_wrong(self, rows, rhs, scales, message):
        with pytest.raises(ValueError, match=message):
            lp.solve(rows, rhs, scales)

    @pytest.mark.parametrize(
        "costs, scale",
        [
            ([1, 1], 0),
            ([1, 1], -1),
            ([1, 1], F(1)),
            ([1, F(1, 2)], 1),
            ([1, 0.5], 2),
            ([1, "1"], 1),
        ],
        ids=["scale-zero", "scale-negative", "scale-fraction", "fraction-cost", "float-cost",
             "str-cost"],
    )
    def test_optimize_refuses_what_it_would_get_wrong(self, costs, scale):
        first = lp.solve([[1, 0]], [0], [1])
        with pytest.raises(ValueError, match="costs must be ints over a positive int scale"):
            lp.optimize(first, costs, scale)

    def test_the_refused_problems_scaled_to_ints(self):
        assert lp.solve([[1, 0]], [0], [1]).solution == (0, 1)
        assert lp.solve([[2, 0]], [1], [2]).solution == (F(1, 2), F(1, 2))
