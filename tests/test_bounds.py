import contextlib
import itertools
import json
from fractions import Fraction as F
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from oracles import brute_coherent, brute_rows, polytope_vertices
from previsions import bounds, crq, lp
from previsions.bounds import (
    ExtensionVerificationError,
    disjunction_bounds,
    extension_interval,
    frechet_conjunction_bounds,
    quasi_conjunction_bounds,
)
from previsions.cli import main
from previsions.coherence import Assessment, IncoherentAssessmentError, check_coherence
from previsions.crq import (
    ConditionalRandomQuantity,
    _conjoin,
    _disjoin,
    conditional_event,
    conjunction,
    disjunction,
    negation,
    quasi_conjunction,
)
from previsions.events import Universe


def pair(x, y):
    u = Universe()
    a, h, b, k = u.atom("A"), u.atom("H"), u.atom("B"), u.atom("K")
    first = conditional_event(a, h, x)
    second = conditional_event(b, k, y)
    return first, second


@contextlib.contextmanager
def counted_work():
    """Count refinements, phase 1s and phase 2s inside the block: the
    yielded function returns the three counts so far."""
    with mock.patch.object(crq, "refine", wraps=crq.refine) as refine, mock.patch.object(
        lp, "solve", wraps=lp.solve
    ) as solve, mock.patch.object(lp, "optimize", wraps=lp.optimize) as optimize:
        yield lambda: (refine.call_count, solve.call_count, optimize.call_count)


class TestClosedForms:
    def test_conjunction_bounds(self):
        assert frechet_conjunction_bounds(F(1, 2), F(1, 2)) == (0, F(1, 2))
        assert frechet_conjunction_bounds(1, 1) == (1, 1)
        assert frechet_conjunction_bounds(F(7, 10), F(3, 5)) == (F(3, 10), F(3, 5))

    def test_disjunction_bounds(self):
        assert disjunction_bounds(F(1, 2), F(1, 2)) == (F(1, 2), 1)
        assert disjunction_bounds(0, 0) == (0, 0)
        assert disjunction_bounds(F(7, 10), F(3, 5)) == (F(7, 10), 1)

    def test_quasi_conjunction_bounds(self):
        assert quasi_conjunction_bounds(F(1, 2), F(1, 2)) == (0, F(2, 3))
        assert quasi_conjunction_bounds(1, 1) == (1, 1)
        assert quasi_conjunction_bounds(1, 0) == (0, 1)

    def test_out_of_range_rejected(self):
        for fn in (
            frechet_conjunction_bounds,
            disjunction_bounds,
            quasi_conjunction_bounds,
        ):
            with pytest.raises(ValueError):
                fn(F(3, 2), F(1, 2))
            with pytest.raises(ValueError):
                fn(F(1, 2), F(-1, 10))


class TestExtensionInterval:
    def test_conjunction_interval_on_independent_atoms(self):
        first, second = pair(F(7, 10), F(3, 5))
        interval = extension_interval(
            Assessment([first, second]), conjunction(first, second)
        )
        assert (interval.lower, interval.upper) == (F(3, 10), F(3, 5))
        assert interval.attained

    def test_disjoint_conditionings_pin_the_product(self):
        u = Universe()
        a, h, b = u.atom("A"), u.atom("H"), u.atom("B")
        first = conditional_event(a, h, F(1, 2))
        second = conditional_event(b, ~h, F(2, 5))
        interval = extension_interval(
            Assessment([first, second]), conjunction(first, second)
        )
        assert (interval.lower, interval.upper) == (F(1, 5), F(1, 5))

    def test_nested_conditioning_pins_the_product(self):
        u = Universe()
        a, h, b = u.atom("A"), u.atom("H"), u.atom("B")
        x, y = F(3, 4), F(1, 3)
        first = conditional_event(a, h, x)
        second = conditional_event(b, a & h, y)
        interval = extension_interval(
            Assessment([first, second]), conjunction(first, second)
        )
        assert (interval.lower, interval.upper) == (x * y, x * y)

    def test_incoherent_base_rejected(self):
        u = Universe()
        a = u.atom("A")
        members = [
            conditional_event(a, u.true(), F(1, 2)),
            conditional_event(~a, u.true(), F(3, 5)),
        ]
        first, second = members
        with pytest.raises(IncoherentAssessmentError):
            extension_interval(Assessment(members), quasi_conjunction(first, second))

    def test_base_incoherent_only_at_a_deeper_level_rejected(self):
        # Level 1 puts all mass outside H and is solvable; level 2 prices
        # A|H twice, differently, and fails.  The base rows of the
        # extended system are feasible, so only the base check catches it.
        u = Universe()
        a, h = u.atom("A"), u.atom("H")
        members = [
            conditional_event(h, u.true(), F(0)),
            conditional_event(a, h, F(1, 2)),
            conditional_event(a, h, F(1, 3)),
        ]
        base = Assessment(members)
        report = check_coherence(base)
        assert report.levels[0].solvable and not report.coherent
        with pytest.raises(IncoherentAssessmentError):
            extension_interval(base, conjunction(members[0], members[1]))

    def test_coherent_base_costs_one_check_of_the_base(self, monkeypatch):
        # The endpoints are certified by their optimal points, not re-checked.
        calls = []

        def counting(assessment):
            calls.append(assessment.members)
            return check_coherence(assessment)

        monkeypatch.setattr(bounds, "check_coherence", counting)
        first, second = pair(F(7, 10), F(3, 5))
        interval = extension_interval(
            Assessment([first, second]), conjunction(first, second)
        )
        assert (interval.lower, interval.upper) == (F(3, 10), F(3, 5))
        # The operands' frames differ, so the base's members are rebuilt
        # on the shared frame, from the operands' own events and values.
        (members,) = calls
        for member, operand in zip(members, (first, second), strict=True):
            assert member.conditioning is operand.conditioning
            assert member.prevision is operand.prevision
            assert len(member.cells) == len(operand.cells)
            for cell, original in zip(member.cells, operand.cells):
                assert cell[0] is original[0] and cell[1] is original[1]

    def test_readme_tour_checks_its_base_once(self):
        # The tour checks ``base`` and extends it twice; the check is the
        # base's own, so the extensions reuse it and optimize only endpoints.
        first, second = pair(F(7, 10), F(3, 5))
        either = disjunction(first, second)
        neither = negation(either)
        base = Assessment([first, second])
        with counted_work() as work:
            report = check_coherence(base)
            interval = extension_interval(base, either)
            assert (interval.lower, interval.upper) == (F(7, 10), 1)
            interval = extension_interval(base, neither)
            assert (interval.lower, interval.upper) == (0, F(3, 10))
        assert work() == (1, 1, 6)
        assert check_coherence(base) is report

    def test_checked_base_is_not_checked_again(self):
        # The operands' own check runs when the conjunction is built; the
        # base is then checked once, and its extension reuses that check.
        first, second = pair(F(7, 10), F(3, 5))
        target = conjunction(first, second)
        base = Assessment([first, second])
        with counted_work() as work:
            assert check_coherence(base).coherent
            interval = extension_interval(base, target)
        assert (interval.lower, interval.upper) == (F(3, 10), F(3, 5))
        assert work() == (1, 1, 4)

    def test_uncovered_target_conditioning_rejected(self):
        # The target must be conditioned on something covering the base
        # conditionings, otherwise its unknown prevision enters the system.
        u = Universe()
        a, h, b = u.atom("A"), u.atom("H"), u.atom("B")
        base = Assessment([conditional_event(a, u.true(), F(1, 2))])
        target = conditional_event(b, h)
        with pytest.raises(ValueError):
            extension_interval(base, target)

    def test_interior_points_are_coherent(self):
        first, second = pair(F(7, 10), F(3, 5))
        base = Assessment([first, second])
        compound = conjunction(first, second)
        interval = extension_interval(base, compound)
        step = (interval.upper - interval.lower) / 4
        for i in range(5):
            z = interval.lower + i * step
            extended = Assessment(
                list(base.members) + [compound], list(base.previsions) + [z]
            )
            assert check_coherence(extended).coherent

    def test_just_outside_endpoints_incoherent(self):
        first, second = pair(F(7, 10), F(3, 5))
        base = Assessment([first, second])
        compound = conjunction(first, second)
        interval = extension_interval(base, compound)
        for z in (interval.lower - F(1, 100), interval.upper + F(1, 100)):
            extended = Assessment(
                list(base.members) + [compound], list(base.previsions) + [z]
            )
            assert not check_coherence(extended).coherent

    def test_sum_rule_links_the_two_intervals(self):
        x, y = F(2, 5), F(3, 5)
        first, second = pair(x, y)
        base = Assessment([first, second])
        conj = extension_interval(base, conjunction(first, second))
        disj = extension_interval(base, disjunction(first, second))
        assert disj.lower == x + y - conj.upper
        assert disj.upper == x + y - conj.lower

    def test_quasi_conjunction_point(self):
        first, second = pair(F(1, 2), F(1, 2))
        base = Assessment([first, second])
        interval = extension_interval(base, quasi_conjunction(first, second))
        assert (interval.lower, interval.upper) == (0, F(2, 3))

    def test_interval_membership_helper(self):
        first, second = pair(F(1, 2), F(1, 2))
        interval = extension_interval(
            Assessment([first, second]), conjunction(first, second)
        )
        assert F(1, 4) in interval
        assert F(3, 5) not in interval


PRICES = (F(0), F(1), F(0), F(1), F(1, 2), F(1, 3), F(2, 3))
BUILDERS = {"conjunction": _conjoin, "disjunction": _disjoin, "quasi": quasi_conjunction}
WORLDS = tuple(dict(zip("ABC", bits)) for bits in itertools.product((False, True), repeat=3))


@st.composite
def extensions(draw, beyond=False):
    """A base of conditional events over three atoms and a target: a
    compound of two of its members whose conditioning covers every other
    member's, or (always, when ``beyond``) a conditional event or value
    map conditioned beyond that cover.

    The base is priced by a sequence of distributions, each uniform on
    one to three drawn worlds (a world drawn twice counts twice): a
    member takes its conditional probability under the first one that
    gives its conditioning mass.  Such prices are coherent (a
    lexicographic sequence of probabilities defines a full conditional
    probability), and members priced after the first distribution make
    zero-mass levels.  One base in four has one price
    redrawn from :data:`PRICES`, which can make it incoherent."""
    u = Universe()
    atoms = [u.atom(name) for name in "ABC"]

    def formula(count):
        picked = draw(st.permutations(atoms))[:count]
        parts = [a if draw(st.booleans()) else ~a for a in picked]
        if not parts:
            return u.true()
        glue = draw(st.sampled_from(("and", "or")))
        acc = parts[0]
        for part in parts[1:]:
            acc = (acc & part) if glue == "and" else (acc | part)
        return acc

    sequence: list[list[dict]] = []

    def member(conditioning):
        quantity = formula(draw(st.integers(1, 2)))
        for support in sequence:
            given = [w for w in support if conditioning.evaluate(w)]
            if given:
                break
        else:
            # No distribution so far gives the conditioning mass: add one.
            world = draw(st.sampled_from([w for w in WORLDS if conditioning.evaluate(w)]))
            sequence.append([world, *draw(st.lists(st.sampled_from(WORLDS), max_size=2))])
            given = [w for w in sequence[-1] if conditioning.evaluate(w)]
        prevision = F(sum(quantity.evaluate(w) for w in given), len(given))
        return conditional_event(quantity, conditioning, prevision)

    first = member(formula(draw(st.integers(0, 2))))
    second = member(formula(draw(st.integers(0, 2))))
    cover = first.conditioning | second.conditioning
    extras = []
    for _ in range(draw(st.integers(0, 2))):
        inside = formula(draw(st.integers(0, 2))) & cover
        extras.append(member(cover if inside.is_impossible() else inside))
    members = draw(st.permutations([first, second, *extras]))
    previsions = [m.prevision for m in members]
    if draw(st.integers(0, 3)) == 0:
        previsions[draw(st.integers(0, len(members) - 1))] = draw(st.sampled_from(PRICES))
    base = Assessment(members, previsions)
    kind = "beyond" if beyond else draw(st.sampled_from([*sorted(BUILDERS), "beyond"]))
    if kind != "beyond":
        return base, BUILDERS[kind](first, second)
    # Its blocks outside every base conditioning event price the base at
    # its previsions, so each target value there is coherent.
    event = formula(draw(st.integers(1, 2)))
    cells = [(event, draw(st.sampled_from((F(1), F(1, 2), F(3))))), (~event, F(0))]
    target = ConditionalRandomQuantity(cover | formula(draw(st.integers(0, 2))), cells)
    return base, target


def assert_matches_brute_force(base, target):
    """The interval against brute-force vertex enumeration and the
    brute-force recursive coherence decision, which also shows it tight."""
    n = len(base)

    def priced(z):
        return Assessment(base.members + (target,), base.previsions + (z,))

    if not brute_coherent(base):
        with pytest.raises(IncoherentAssessmentError):
            extension_interval(base, target)
        return
    interval = extension_interval(base, target)

    points, _ = brute_rows(priced(F(0)))
    vertices = polytope_vertices([point[:n] for point in points], base.previsions)
    values = [sum(w * point[n] for w, point in zip(v, points)) for v in vertices]
    assert (interval.lower, interval.upper) == (min(values), max(values))
    assert brute_coherent(priced(interval.lower))
    assert brute_coherent(priced(interval.upper))
    delta = F(1, 1000)
    cells = [value for _, value in target.cells]
    if interval.lower - delta >= min(cells):
        assert not brute_coherent(priced(interval.lower - delta))
    if interval.upper + delta <= max(cells):
        assert not brute_coherent(priced(interval.upper + delta))


class TestExtensionAgainstOracle:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(extensions())
    def test_interval_matches_brute_force(self, case):
        assert_matches_brute_force(*case)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(extensions(beyond=True))
    def test_target_conditioned_beyond_the_base(self, case):
        """Target values outside every base conditioning event are each
        coherent, so the interval covers them."""
        assert_matches_brute_force(*case)


def shift_objective(result):
    return lp.LPResult(result.status, result.solution, result.objective + F(1, 1000))


def perturb_weight(result):
    weights = list(result.solution)
    j = next(j for j, w in enumerate(weights) if w)
    weights[j] += F(1, 1000)
    return lp.LPResult(result.status, tuple(weights), result.objective)


@pytest.mark.parametrize("mutate", [shift_objective, perturb_weight])
class TestEndpointCertificate:
    """A wrong optimal point fails the endpoint certificate: an internal
    error, never an interval."""

    @pytest.fixture(autouse=True)
    def mutant(self, monkeypatch, mutate):
        def optimize(*args, **kwargs):
            return mutate(lp.optimize(*args, **kwargs))

        # Only the interval's programs are mutated, not the base check's.
        monkeypatch.setattr(bounds, "lp", SimpleNamespace(optimize=optimize))

    def test_extension_interval_raises(self):
        first, second = pair(F(7, 10), F(3, 5))
        with pytest.raises(ExtensionVerificationError, match="certificate"):
            extension_interval(Assessment([first, second]), conjunction(first, second))

    def test_extend_command_exits_3(self, tmp_path, capsys):
        path = tmp_path / "pair.json"
        members = [
            {"quantity": "A", "given": "H", "prevision": "7/10"},
            {"quantity": "B", "given": "K", "prevision": "3/5"},
        ]
        path.write_text(json.dumps({"atoms": ["A", "H", "B", "K"], "members": members}))
        assert main(["extend", str(path), "--target", "conjunction:0,1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error: ExtensionVerificationError")
