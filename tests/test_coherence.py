import itertools
import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from previsions import bounds, coherence, events, lp
from previsions.coherence import (
    Assessment,
    CertificateVerificationError,
    build_system,
    check_coherence,
    random_gain,
    upper_conditioning_masses,
)
from previsions.crq import (
    ConditionalRandomQuantity,
    conditional_event,
    conjunction,
    iterated,
)
from previsions.events import Universe

from oracles import brute_coherent, brute_masses, brute_rows, lifted_blocks


def four_atoms():
    u = Universe()
    return u, u.atom("A"), u.atom("H"), u.atom("B"), u.atom("K")


def target(system):
    """The previsions the system's integer target stands for."""
    return tuple(F(t, s) for t, s in zip(system.scaled_target, system.scales))


def verify_witness(system, weights):
    assert all(w >= 0 for w in weights)
    assert sum(weights) == 1
    for i, t in enumerate(target(system)):
        assert sum(w * p[i] for w, p in zip(weights, system.points)) == t


class TestBuildSystem:
    def test_eight_points_of_the_conjunction_family(self):
        u, a, h, b, k = four_atoms()
        x, y, z = F(1, 2), F(1, 3), F(1, 4)
        first = conditional_event(a, h, x)
        second = conditional_event(b, k, y)
        compound = conjunction(first, second)
        assessment = Assessment([first, second, compound], [x, y, z])
        system = build_system(assessment)
        expected = {
            (1, 1, 1),
            (1, 0, 0),
            (0, 1, 0),
            (0, 0, 0),
            (1, y, y),
            (0, y, 0),
            (x, 1, x),
            (x, 0, 0),
        }
        assert {p for p in system.points} == {tuple(map(F, t)) for t in expected}
        assert target(system) == (x, y, z)
        assert assessment.partition.outside is not None

    def test_unconditional_member(self):
        u, a, h, b, k = four_atoms()
        assessment = Assessment([conditional_event(a, u.true())], [F(3, 10)])
        system = build_system(assessment)
        assert sorted(system.points) == [(F(0),), (F(1),)]
        assert target(system) == (F(3, 10),)
        assert assessment.partition.outside is None

    def test_void_event_member(self):
        u, a, h, b, k = four_atoms()
        system = build_system(Assessment([conditional_event(~h, h)], [F(1, 5)]))
        assert system.points == ((F(0),),)

    def test_membership_tracks_conditionings(self):
        u, a, h, b, k = four_atoms()
        assessment = Assessment(
            [conditional_event(a, h, F(1, 2)), conditional_event(b, k, F(1, 2))]
        )
        system = build_system(assessment)
        for h, block in enumerate(assessment.partition.inside):
            for indicator, label in zip(system.indicators, block.labels):
                assert indicator[h] == (label is not None)


def solve_feasibility(system):
    """The feasibility LP's witness weights, or None when it is infeasible."""
    result = system.feasibility
    return result.solution if result.feasible else None


class TestSolveFeasibility:
    """The level system's feasibility LP, solved as ``check_coherence`` does."""

    def test_midpoint_target(self):
        u, a, h, b, k = four_atoms()
        system = build_system(Assessment([conditional_event(a, u.true())], [F(1, 2)]))
        weights = solve_feasibility(system)
        assert weights == (F(1, 2), F(1, 2))

    def test_additivity_violation_is_infeasible(self):
        u, a, h, b, k = four_atoms()
        members = [
            conditional_event(a, u.true()),
            conditional_event(~a, u.true()),
        ]
        system = build_system(Assessment(members, [F(1, 2), F(3, 5)]))
        assert solve_feasibility(system) is None

    def test_reduced_solution_of_the_conjunction_system(self):
        u, a, h, b, k = four_atoms()
        x, y, z = F(1, 2), F(1, 2), F(1, 4)
        first = conditional_event(a, h, x)
        second = conditional_event(b, k, y)
        compound = conjunction(first, second)
        system = build_system(Assessment([first, second, compound], [x, y, z]))
        weights = solve_feasibility(system)
        verify_witness(system, weights)
        # The four vertex points alone already solve the system, with
        # weights (z, x-z, y-z, z-(x+y-1)).
        by_point = {p: i for i, p in enumerate(system.points)}
        manual = [F(0)] * len(system.points)
        manual[by_point[(F(1), F(1), F(1))]] = z
        manual[by_point[(F(1), F(0), F(0))]] = x - z
        manual[by_point[(F(0), F(1), F(0))]] = y - z
        manual[by_point[(F(0), F(0), F(0))]] = z - (x + y - 1)
        verify_witness(system, tuple(manual))


class TestUpperConditioningMasses:
    def test_single_member_mass_one(self):
        u, a, h, b, k = four_atoms()
        system = build_system(Assessment([conditional_event(a, h)], [F(1, 3)]))
        assert upper_conditioning_masses(system) == (F(1),)

    def test_incompatible_conditionings_interior(self):
        u = Universe()
        a, h, b = u.atom("A"), u.atom("H"), u.atom("B")
        members = [conditional_event(a, h), conditional_event(b, ~h)]
        assessment = Assessment(members, [F(1, 2), F(2, 5)])
        system = build_system(assessment)
        masses = upper_conditioning_masses(system)
        assert masses == (F(1), F(1))
        points, membership = brute_rows(assessment)
        assert brute_masses(points, membership, assessment.previsions) == [F(1), F(1)]

    def test_forced_zero_mass(self):
        u, a, h, b, k = four_atoms()
        members = [
            conditional_event(a, h),
            conditional_event(b, a & h),
        ]
        system = build_system(Assessment(members, [F(0), F(1, 3)]))
        masses = upper_conditioning_masses(system)
        assert masses[0] == 1
        assert masses[1] == 0

    def test_infeasible_system_raises(self):
        u, a, h, b, k = four_atoms()
        members = [conditional_event(a, u.true()), conditional_event(~a, u.true())]
        system = build_system(Assessment(members, [F(1, 2), F(3, 5)]))
        with pytest.raises(ValueError):
            upper_conditioning_masses(system)


class TestPhaseOneCount:
    """All LPs over one system share its phase 1, the only ``lp.solve``."""

    def count_solves(self, monkeypatch):
        calls = []
        solve = lp.solve

        def counting(rows, rhs, scales, /):
            calls.append(len(rows))
            return solve(rows, rhs, scales)

        monkeypatch.setattr(lp, "solve", counting)
        return calls

    def test_one_solve_per_level(self, monkeypatch):
        u, a, h, b, k = four_atoms()
        members = [conditional_event(a, h), conditional_event(b, a & h)]
        calls = self.count_solves(monkeypatch)
        report = check_coherence(Assessment(members, [F(0), F(1, 3)]))
        assert report.coherent
        assert [level.members for level in report.levels] == [(0, 1), (1,)]
        assert len(calls) == 2

    def test_one_solve_for_the_base_check_and_the_interval(self, monkeypatch):
        # Both endpoints are optimized on the base check's level-1 system.
        u, a, h, b, k = four_atoms()
        first = conditional_event(a, h, F(7, 10))
        second = conditional_event(b, k, F(3, 5))
        target = conjunction(first, second)
        calls = self.count_solves(monkeypatch)
        in_base_check = []

        def base_check(assessment):
            before = len(calls)
            report = check_coherence(assessment)
            in_base_check.append(len(calls) - before)
            return report

        monkeypatch.setattr(bounds, "check_coherence", base_check)
        interval = bounds.extension_interval(Assessment([first, second]), target)
        assert (interval.lower, interval.upper) == (F(3, 10), F(3, 5))
        assert in_base_check == [1]
        assert len(calls) == 1

    def test_a_second_check_solves_nothing(self):
        # The report is kept on the assessment; checking it again costs no LP.
        u, a, h, b, k = four_atoms()
        members = [conditional_event(a, h), conditional_event(b, a & h)]
        assessment = Assessment(members, [F(0), F(1, 3)])
        report = check_coherence(assessment)
        with mock.patch.object(lp, "solve", side_effect=AssertionError), mock.patch.object(
            lp, "optimize", side_effect=AssertionError
        ):
            assert check_coherence(assessment) is report

    def test_masses_build_no_point(self):
        # The witness is the only optimal point built per level.
        u, a, h, b, k = four_atoms()
        members = [conditional_event(a, h), conditional_event(b, a & h)]
        with mock.patch.object(lp, "_extract", wraps=lp._extract) as points:
            report = check_coherence(Assessment(members, [F(0), F(1, 3)]))
        assert len(report.levels) == points.call_count == 2

    def test_infeasible_system_still_raises(self, monkeypatch):
        u, a, h, b, k = four_atoms()
        members = [conditional_event(a, u.true()), conditional_event(~a, u.true())]
        system = build_system(Assessment(members, [F(1, 2), F(3, 5)]))
        calls = self.count_solves(monkeypatch)
        assert not system.feasibility.feasible
        with pytest.raises(ValueError, match="infeasible"):
            upper_conditioning_masses(system)
        assert len(calls) == 1


class TestAssessmentValidation:
    def test_refused_families(self):
        u, a, h, b, k = four_atoms()
        with pytest.raises(ValueError, match="nonempty"):
            Assessment([])
        with pytest.raises(ValueError, match="nonempty"):
            Assessment([conditional_event(a, h, F(1, 2))]).sub([])
        with pytest.raises(ValueError, match=r"members \[1\] have no prevision"):
            Assessment([conditional_event(a, h, F(1, 2)), conditional_event(b, k)])
        with pytest.raises(ValueError, match="equal length"):
            Assessment([conditional_event(a, h)], [F(1, 2), F(1, 3)])


class TestCheckCoherence:
    def test_single_conditional_event_any_unit_prevision(self):
        u, a, h, b, k = four_atoms()
        for tenths in range(11):
            assessment = Assessment([conditional_event(a, h)], [F(tenths, 10)])
            assert check_coherence(assessment).coherent

    def test_void_event_forces_zero(self):
        u, a, h, b, k = four_atoms()
        member = conditional_event(~h, h)
        assert not check_coherence(Assessment([member], [F(1, 5)])).coherent
        assert check_coherence(Assessment([member], [F(0)])).coherent

    def test_sure_event_forces_one(self):
        u, a, h, b, k = four_atoms()
        member = conditional_event(h, h)
        assert check_coherence(Assessment([member], [F(1)])).coherent
        assert not check_coherence(Assessment([member], [F(4, 5)])).coherent

    def test_constant_restricted_value_forces_it(self):
        u, a, h, b, k = four_atoms()
        member = ConditionalRandomQuantity(h, [(h, F(2, 3))])
        assert check_coherence(Assessment([member], [F(2, 3)])).coherent
        assert not check_coherence(Assessment([member], [F(1, 2)])).coherent

    def test_conjunction_above_upper_bound_is_incoherent(self):
        u, a, h, b, k = four_atoms()
        x = y = F(1, 2)
        first = conditional_event(a, h, x)
        second = conditional_event(b, k, y)
        compound = conjunction(first, second)
        assessment = Assessment([first, second, compound], [x, y, F(3, 5)])
        report = check_coherence(assessment)
        assert not report.coherent
        # Independent confirmation by exhaustive hull membership.
        assert not brute_coherent(assessment)

    def test_recursion_trace(self):
        u, a, h, b, k = four_atoms()
        members = [conditional_event(a, h), conditional_event(b, a & h)]
        report = check_coherence(Assessment(members, [F(0), F(1, 3)]))
        assert report.coherent
        assert len(report.levels) == 2
        assert report.levels[0].members == (0, 1)
        assert report.levels[0].zero_mass == (1,)
        assert report.levels[1].members == (1,)
        assert report.levels[1].zero_mass == ()

    def test_trace_invariants(self):
        u, a, h, b, k = four_atoms()
        members = [conditional_event(a, h), conditional_event(b, a & h)]
        for previsions in ([F(0), F(1, 3)], [F(1, 2), F(9, 10)]):
            report = check_coherence(Assessment(members, previsions))
            last = report.levels[-1]
            if report.coherent:
                assert last.solvable and last.zero_mass == ()
            else:
                assert not last.solvable
            assert len(report.levels) <= len(members)

    def test_import_export_counterexample(self):
        u = Universe()
        h, b = u.atom("H"), u.atom("B")
        a = b & ~h
        base = conditional_event(a, h, F(0))
        composite = iterated(base, ~h | a).with_prevision(F(0))
        material = conditional_event(~h | a, u.true(), F(9, 10))
        assert check_coherence(Assessment([base, composite, material])).coherent


class TestRandomGain:
    def test_zero_stakes(self):
        u, a, h, b, k = four_atoms()
        assessment = Assessment([conditional_event(a, h)], [F(1, 3)])
        assert set(random_gain(assessment, [0])) == {F(0)}

    def test_dutch_book_on_broken_additivity(self):
        u, a, h, b, k = four_atoms()
        members = [conditional_event(a, u.true()), conditional_event(~a, u.true())]
        assessment = Assessment(members, [F(1, 2), F(3, 5)])
        gains = random_gain(assessment, [1, 1])
        assert gains == (F(-1, 10), F(-1, 10))

    def test_coherent_single_bet_straddles_zero(self):
        u, a, h, b, k = four_atoms()
        assessment = Assessment([conditional_event(a, h)], [F(1, 3)])
        for stake in (F(-2), F(-1), F(1), F(2)):
            gains = random_gain(assessment, [stake])
            assert min(gains) <= 0 <= max(gains)

    def test_dimension_mismatch(self):
        u, a, h, b, k = four_atoms()
        assessment = Assessment([conditional_event(a, h)], [F(1, 3)])
        with pytest.raises(ValueError):
            random_gain(assessment, [1, 2])

    def test_dutch_book_reuses_the_level_system(self, monkeypatch):
        # Level 1 puts all mass outside H; level 2 prices A|H twice,
        # differently, and fails.  The members' events are folded once, when
        # the assessment is built (their frames differ), each level builds
        # its system once, and the Dutch Book comes from that system.
        u, a, h, b, k = four_atoms()
        members = [conditional_event(h, u.true())] + [conditional_event(a, h)] * 2
        folds, systems = [], []
        fold, build = events._fold, coherence.build_system

        def counting_folds(*args):
            folds.append(len(args[0]))
            return fold(*args)

        def counting_systems(sub):
            systems.append(len(sub))
            return build(sub)

        monkeypatch.setattr(events, "_fold", counting_folds)
        monkeypatch.setattr(coherence, "build_system", counting_systems)
        assessment = Assessment(members, [F(0), F(1, 2), F(1, 3)])
        report = check_coherence(assessment)
        assert not report.coherent
        assert len(report.levels) == 2
        assert folds == [9]  # one fold of 3 conditioning events and 6 cells
        assert systems == [3, 2]
        assert report.dutch_book.gains == random_gain(
            assessment.sub(report.dutch_book.members), report.dutch_book.coefficients
        )

    def test_grid_of_stakes_never_uniform_sign_when_coherent(self):
        u, a, h, b, k = four_atoms()
        members = [conditional_event(a, h), conditional_event(b, k)]
        assessment = Assessment(members, [F(1, 3), F(2, 3)])
        assert check_coherence(assessment).coherent
        for stakes in itertools.product((-1, 0, 1), repeat=2):
            gains = random_gain(assessment, stakes)
            assert not all(g > 0 for g in gains)
            assert not all(g < 0 for g in gains)


class TestTheorems:
    def test_sum_prevision_forced(self):
        # Pricing the sum of two bets is coherent exactly at the sum of
        # their prices.
        u, a, h, b, k = four_atoms()
        from previsions.crq import add

        x, y = F(1, 3), F(2, 5)
        first = conditional_event(a, h, x)
        second = conditional_event(b, k, y)
        total = add(first, second)
        members = [first, second, total]
        assert check_coherence(Assessment(members, [x, y, x + y])).coherent
        assert not check_coherence(Assessment(members, [x, y, x + y + F(1, 10)])).coherent
        assert not check_coherence(Assessment(members, [x, y, x + y - F(1, 10)])).coherent

    def test_compound_prevision_product(self):
        # {hypothesis given condition, quantity given both, scaled quantity
        # given condition} is coherent only when the third price is the
        # product of the first two.
        u = Universe()
        h, k, v = u.atom("H"), u.atom("K"), u.atom("V")
        x, y = F(1, 2), F(3, 4)
        quantity_cells = [(v, F(2)), (~v, F(0))]
        members = [
            conditional_event(h, k, x),
            ConditionalRandomQuantity(h & k, quantity_cells, y),
            ConditionalRandomQuantity(k, [(v & h, F(2)), (~(v & h), F(0))], x * y),
        ]
        assert check_coherence(Assessment(members)).coherent
        wrong = Assessment(
            [members[0], members[1], members[2].with_prevision(x * y + F(1, 10))]
        )
        assert not check_coherence(wrong).coherent

    def test_sub_assessments_of_coherent_are_coherent(self):
        rng = random.Random(99)
        for _ in range(25):
            assessment = _random_assessment(rng, coherent_only=True)
            if assessment is None:
                continue
            n = len(assessment)
            for size in range(1, n):
                for indices in itertools.combinations(range(n), size):
                    assert check_coherence(assessment.sub(indices)).coherent

    def test_solvable_level_keeps_positive_mass_part_coherent(self):
        # When the first-level system is solvable, the subfamily of members
        # with positive maximal mass is itself coherent.
        rng = random.Random(1234)
        tried = 0
        for _ in range(60):
            assessment = _random_assessment(rng)
            system = build_system(assessment)
            if solve_feasibility(system) is None:
                continue
            masses = upper_conditioning_masses(system)
            positive = [j for j, m in enumerate(masses) if m > 0]
            if not positive:
                continue
            tried += 1
            assert check_coherence(assessment.sub(positive)).coherent
        assert tried > 10

    def test_engine_matches_brute_force_oracle(self):
        rng = random.Random(4242)
        verdicts = {True: 0, False: 0}
        for _ in range(60):
            assessment = _random_assessment(rng)
            expected = brute_coherent(assessment)
            report = check_coherence(assessment)
            assert report.coherent == expected
            verdicts[report.coherent] += 1
            if not report.coherent:
                book = report.dutch_book
                gains = random_gain(assessment.sub(book.members), book.coefficients)
                assert gains == book.gains
                assert all(g < 0 for g in gains) or all(g > 0 for g in gains)
        assert verdicts[True] and verdicts[False]


def _random_event(rng, atoms, depth=2):
    if depth == 0 or rng.random() < 0.4:
        return rng.choice(atoms)
    op = rng.choice(("and", "or", "not"))
    if op == "not":
        return ~_random_event(rng, atoms, depth - 1)
    left = _random_event(rng, atoms, depth - 1)
    right = _random_event(rng, atoms, depth - 1)
    return (left & right) if op == "and" else (left | right)


def _random_assessment(rng, coherent_only=False):
    for _ in range(50):
        u = Universe()
        atoms = [u.atom(n) for n in "WXYZ"[: rng.randint(2, 4)]]
        members = []
        for _ in range(rng.randint(1, 3)):
            conditioning = _random_event(rng, atoms)
            while conditioning.is_impossible():
                conditioning = _random_event(rng, atoms)
            event = _random_event(rng, atoms)
            denominator = rng.randint(1, 8)
            prevision = F(rng.randint(0, denominator), denominator)
            members.append(conditional_event(event, conditioning, prevision))
        assessment = Assessment(members)
        if not coherent_only or check_coherence(assessment).coherent:
            return assessment
    return None


def kernel_vector(rows):
    """A nonzero ``v`` with ``rows . v = 0``, by exact elimination; the
    rows must have fewer independent rows than columns."""
    matrix = [[F(v) for v in row] for row in rows]
    pivots = []
    for c in range(len(matrix[0])):
        r = len(pivots)
        p = next((i for i in range(r, len(matrix)) if matrix[i][c]), None)
        if p is None:
            continue
        matrix[r], matrix[p] = matrix[p], matrix[r]
        matrix[r] = [v / matrix[r][c] for v in matrix[r]]
        for i, row in enumerate(matrix):
            if i != r and row[c]:
                matrix[i] = [a - row[c] * b for a, b in zip(row, matrix[r])]
        pivots.append(c)
    free = next(c for c in range(len(matrix[0])) if c not in pivots)
    v = [F(0)] * len(matrix[0])
    v[free] = F(1)
    for row, c in zip(matrix, pivots):
        v[c] = -row[free]
    return v


def negative_weight(w, rows):
    """Move the witness along the kernel of the member rows and the total
    mass row until one weight is -1/97: the same mass and points."""
    v = kernel_vector([*rows, [1] * len(w)])
    j = next(j for j, x in enumerate(v) if x)
    t = -(w[j] + F(1, 97)) / v[j]
    return tuple(a + t * b for a, b in zip(w, v))


def extra_mass(w, rows):
    """Add 1/97 at a column where every member's row is zero: the right
    points, mass above one."""
    j = next(j for j in range(len(w)) if not any(row[j] for row in rows))
    return w[:j] + (w[j] + F(1, 97),) + w[j + 1 :]


class TestCertificateVerification:
    """Reports are checked before they are returned; a solver that hands
    back a wrong witness or a wrong Farkas certificate is caught.  Each
    perturbed witness fails one guard alone: the weights' sum, their
    signs, or the rows."""

    def patch_solver(self, monkeypatch, perturb):
        solve = lp.solve

        def patched(rows, rhs, scales):
            return perturb(solve(rows, rhs, scales), rows)

        monkeypatch.setattr(lp, "solve", patched)

    def coherent_pair(self):
        u, a, h, b, k = four_atoms()
        return Assessment(
            [conditional_event(a, h, F(7, 10)), conditional_event(b, k, F(3, 5))]
        )

    def incoherent_pair(self):
        u, a, h, b, k = four_atoms()
        return Assessment(
            [conditional_event(a, u.true(), F(1, 2)), conditional_event(~a, u.true(), F(3, 5))]
        )

    def test_unperturbed_reports_pass(self):
        assert check_coherence(self.coherent_pair()).coherent
        assert not check_coherence(self.incoherent_pair()).coherent

    @pytest.mark.parametrize(
        "shift",
        [
            lambda w, rows: (w[0] + F(1, 97),) + w[1:],  # total mass above one
            extra_mass,
            lambda w, rows: w[1:] + w[:1],  # right mass, wrong points
            lambda w, rows: tuple(-v for v in w),  # negative weights
            negative_weight,
        ],
    )
    def test_perturbed_witness_is_refused(self, monkeypatch, shift):
        def perturb(result, rows):
            if not result.feasible:
                return result
            return lp.LPResult(lp.OPTIMAL, solution=shift(result.solution, rows))

        self.patch_solver(monkeypatch, perturb)
        with pytest.raises(CertificateVerificationError, match="witness"):
            check_coherence(self.coherent_pair())

    def test_a_refused_check_keeps_no_report(self, monkeypatch):
        # The witness is re-verified, and refused, on every call.
        def perturb(result, rows):
            return lp.LPResult(lp.OPTIMAL, solution=tuple(-v for v in result.solution))

        self.patch_solver(monkeypatch, perturb)
        assessment = self.coherent_pair()
        with mock.patch.object(coherence, "_reproduces", wraps=coherence._reproduces) as spy:
            for _ in range(2):
                with pytest.raises(CertificateVerificationError, match="witness"):
                    check_coherence(assessment)
        assert spy.call_count == 2

    @pytest.mark.parametrize(
        "shift",
        [
            lambda y: tuple(-v for v in y),  # every gain turns positive
            lambda y: (F(0),) * len(y),  # every gain is zero
        ],
    )
    def test_perturbed_certificate_is_refused(self, monkeypatch, shift):
        def perturb(result, rows):
            if result.feasible:
                return result
            return lp.LPResult(lp.INFEASIBLE, certificate=shift(result.certificate))

        self.patch_solver(monkeypatch, perturb)
        with pytest.raises(CertificateVerificationError, match="Dutch Book"):
            check_coherence(self.incoherent_pair())


PRICES = (F(0), F(1), F(0), F(1), F(1, 2), F(1, 3), F(2, 3))


@st.composite
def priced_families(draw):
    """Conditional events over three atoms, heavy in 0/1 previsions so that
    zero-mass levels occur, and their previsions."""
    u = Universe()
    atoms = [u.atom(name) for name in "ABC"]

    def literals(count):
        picked = draw(st.permutations(atoms))[:count]
        return [a if draw(st.booleans()) else ~a for a in picked]

    def formula(count):
        parts = literals(count)
        if not parts:
            return u.true()
        glue = draw(st.sampled_from(("and", "or")))
        acc = parts[0]
        for part in parts[1:]:
            acc = (acc & part) if glue == "and" else (acc | part)
        return acc

    members = [
        conditional_event(formula(draw(st.integers(1, 2))), formula(draw(st.integers(0, 2))))
        for _ in range(draw(st.integers(1, 4)))
    ]
    prices = st.lists(st.sampled_from(PRICES), min_size=len(members), max_size=len(members))
    return members, draw(prices)


class TestSharedPartition:
    """Sub-assessments reuse a known partition; their reports match fresh
    assessments of the same members and previsions."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_sub_matches_fresh_assessment(self, data):
        members, previsions = data.draw(priced_families())
        n = len(members)
        indices = data.draw(st.permutations(range(n)))[: data.draw(st.integers(1, n))]
        family = Assessment(members, previsions)
        family.partition  # folded here, and nowhere below
        sub = family.sub(indices)
        assert all(sub.members[k] is family.members[i] for k, i in enumerate(indices))
        assert all(sub.previsions[k] is family.previsions[i] for k, i in enumerate(indices))
        with mock.patch.object(events, "_fold", side_effect=AssertionError):
            shared = check_coherence(sub)
        alone = Assessment([members[i] for i in indices], [previsions[i] for i in indices])
        assert shared == check_coherence(alone)
        frame = sub.partition.atoms
        assert lifted_blocks(sub.partition, frame) == lifted_blocks(alone.partition, frame)
