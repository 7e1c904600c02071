from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import brute_value, lifted_blocks, truth_assignments
from previsions import crq, events
from previsions.cli import AssessmentDocument, DocumentError, realize
from previsions.coherence import Assessment, IncoherentAssessmentError, check_coherence
from previsions.crq import (
    ConditionalRandomQuantity,
    ImpossibleConditioningError,
    add,
    conditional_event,
    conjunction,
    disjunction,
    gn_inclusion,
    iterated,
    negation,
    quasi_conjunction,
    scale,
    values_agree_on_union,
)
from previsions.events import Universe, constituents, truth_tables, used_atoms


def four_atoms():
    u = Universe()
    return u, u.atom("A"), u.atom("H"), u.atom("B"), u.atom("K")


def union_values(quantity, names):
    """Value map restricted to the conditioning event, keyed by assignment."""
    table = {}
    for a in truth_assignments(names):
        if quantity.conditioning.evaluate(a):
            table[tuple(sorted(a.items()))] = quantity.value_at(a)
    return table


class TestConditionalEvent:
    def test_h_given_h_is_constant_one(self):
        u, a, h, b, k = four_atoms()
        ce = conditional_event(h, h, 1)
        assert ce.restricted_values == (F(1),)
        ce0 = conditional_event(~h, h, 0)
        assert ce0.restricted_values == (F(0),)

    def test_unconditional_indicator(self):
        u, a, h, b, k = four_atoms()
        ce = conditional_event(a, u.true())
        assert ce.value_at({"A": True}) == 1
        assert ce.value_at({"A": False}) == 0

    def test_impossible_conditioning(self):
        u, a, h, b, k = four_atoms()
        with pytest.raises(ImpossibleConditioningError):
            conditional_event(a, a & ~a)

    def test_values_and_prevision_slot(self):
        u, a, h, b, k = four_atoms()
        ce = conditional_event(a, h, F(1, 3))
        assert ce.value_at({"A": True, "H": True}) == 1
        assert ce.value_at({"A": False, "H": True}) == 0
        assert ce.value_at({"A": True, "H": False}) == F(1, 3)
        assert ce.is_event

    def test_unset_prevision_off_conditioning(self):
        u, a, h, b, k = four_atoms()
        ce = conditional_event(a, h)
        with pytest.raises(ValueError):
            ce.value_at({"A": True, "H": False})


class TestCellValidation:
    def test_cells_must_partition(self):
        u, a, h, b, k = four_atoms()
        with pytest.raises(ValueError):
            ConditionalRandomQuantity(h, [(a, 1), (u.true(), 0)])
        with pytest.raises(ValueError):
            ConditionalRandomQuantity(h, [(a & h, 1)])

    def test_empty_cells_dropped(self):
        u, a, h, b, k = four_atoms()
        quantity = ConditionalRandomQuantity(h, [(h, F(2, 3)), (~h & h, F(5))])
        assert quantity.restricted_values == (F(2, 3),)

    def test_multivalued_quantity(self):
        u, a, h, b, k = four_atoms()
        x = ConditionalRandomQuantity(h, [(a, 2), (~a, F(-1, 2))], F(1, 4))
        assert sorted(x.restricted_values) == [F(-1, 2), 2]
        assert not x.is_event


class TestScale:
    def test_zero(self):
        u, a, h, b, k = four_atoms()
        result = scale(0, conditional_event(a, h, F(1, 2)))
        assert set(result.restricted_values) == {F(0)}
        assert result.prevision == 0

    def test_identity(self):
        u, a, h, b, k = four_atoms()
        ce = conditional_event(a, h, F(1, 2))
        assert values_agree_on_union(scale(1, ce), ce)

    def test_doubling(self):
        u, a, h, b, k = four_atoms()
        result = scale(2, conditional_event(a, h, F(1, 2)))
        assert sorted(result.restricted_values) == [0, 2]
        assert result.prevision == 1


class TestAdd:
    def test_same_conditioning_adds_pointwise(self):
        u, a, h, b, k = four_atoms()
        lhs = add(conditional_event(a, h, F(1, 2)), conditional_event(b, h, F(1, 3)))
        direct = ConditionalRandomQuantity(
            h,
            [(a & b, 2), (a & ~b, 1), (~a & b, 1), (~a & ~b, 0)],
            F(5, 6),
        )
        assert values_agree_on_union(lhs, direct)
        assert lhs.conditioning.equivalent(h)

    def test_additive_identity(self):
        u, a, h, b, k = four_atoms()
        zero = ConditionalRandomQuantity(h, [(h, 0)], 0)
        ce = conditional_event(a, h, F(1, 2))
        assert values_agree_on_union(add(ce, zero), ce)

    def test_cross_conditioning_values(self):
        # Oracle: sum the filled-in operand values assignment by assignment.
        u, a, h, b, k = four_atoms()
        first = conditional_event(a, h, F(1, 2))
        second = conditional_event(b, k, F(1, 3))
        result = add(first, second)
        assert result.prevision == F(5, 6)
        on = {"A": True, "H": True, "B": True, "K": True}
        assert result.value_at(on) == 2
        off_h = {"A": False, "H": False, "B": True, "K": True}
        assert result.value_at(off_h) == F(1, 2) + 1
        for assignment in truth_assignments(("A", "H", "B", "K")):
            if (h | k).evaluate(assignment):
                expected = first.value_at(assignment) + second.value_at(assignment)
                assert result.value_at(assignment) == expected

    def test_requires_previsions(self):
        u, a, h, b, k = four_atoms()
        with pytest.raises(ValueError):
            add(conditional_event(a, h), conditional_event(b, k, F(1, 2)))


class TestIterated:
    def test_sub_conditioning_is_absorbed(self):
        u, a, h, b, k = four_atoms()
        x = conditional_event(a, h, F(2, 5))
        widened = iterated(x, h | b)
        for assignment in truth_assignments(("A", "H", "B")):
            if (h | b).evaluate(assignment):
                if h.evaluate(assignment):
                    assert widened.value_at(assignment) == x.value_at(assignment)
                else:
                    assert widened.value_at(assignment) == F(2, 5)
        assert values_agree_on_union(widened.with_prevision(F(2, 5)), x)

    def test_conditioning_on_everything(self):
        u, a, h, b, k = four_atoms()
        x = conditional_event(a, h, F(2, 5))
        assert values_agree_on_union(iterated(x, u.true()), x)

    def test_empty_intersection_collapses_to_zero(self):
        u = Universe()
        h, b = u.atom("H"), u.atom("B")
        a = b & ~h  # a & h is impossible
        x = conditional_event(a, h, 0)
        result = iterated(x, ~h | a)
        assert result.restricted_values == (F(0),)
        assert result.conditioning.equivalent(~h)

    def test_requires_prevision_and_possible_condition(self):
        u, a, h, b, k = four_atoms()
        with pytest.raises(ValueError):
            iterated(conditional_event(a, h), k)
        with pytest.raises(ImpossibleConditioningError):
            iterated(conditional_event(a, h, 1), k & ~k)


class TestConjunction:
    def test_common_conditioning_reduces_to_event(self):
        u, a, h, b, k = four_atoms()
        compound = conjunction(
            conditional_event(a, h, F(1, 2)), conditional_event(b, h, F(1, 3))
        )
        assert values_agree_on_union(compound, conditional_event(a & b, h))

    def test_case_table(self):
        u, a, h, b, k = four_atoms()
        x, y = F(1, 2), F(1, 3)
        compound = conjunction(conditional_event(a, h, x), conditional_event(b, k, y))
        assert compound.value_at({"A": True, "H": True, "B": True, "K": True}) == 1
        assert compound.value_at({"A": False, "H": True, "B": True, "K": True}) == 0
        assert compound.value_at({"A": True, "H": True, "B": False, "K": True}) == 0
        assert compound.value_at({"A": True, "H": False, "B": True, "K": True}) == x
        assert compound.value_at({"A": True, "H": True, "B": True, "K": False}) == y

    def test_value_set_law(self):
        u, a, h, b, k = four_atoms()
        x, y, z = F(2, 7), F(3, 5), F(1, 5)
        compound = conjunction(conditional_event(a, h, x), conditional_event(b, k, y))
        assert set(compound.restricted_values) <= {F(0), F(1), x, y}
        assessed = compound.with_prevision(z)
        full = set(assessed.restricted_values) | {assessed.prevision}
        assert full <= {F(0), F(1), x, y, z}

    def test_commutativity(self):
        u, a, h, b, k = four_atoms()
        x, y = F(1, 4), F(2, 3)
        one = conjunction(conditional_event(a, h, x), conditional_event(b, k, y))
        two = conjunction(conditional_event(b, k, y), conditional_event(a, h, x))
        assert values_agree_on_union(one, two)

    def test_product_identity(self):
        u, a, h, b, k = four_atoms()
        first = conditional_event(a, h, F(1, 2))
        second = conditional_event(b, k, F(1, 3))
        compound = conjunction(first, second)
        for assignment in truth_assignments(("A", "H", "B", "K")):
            if (h | k).evaluate(assignment):
                product = first.value_at(assignment) * second.value_at(assignment)
                assert compound.value_at(assignment) == product

    def test_certain_operands_give_quasi_conjunction(self):
        u, a, h, b, k = four_atoms()
        first = conditional_event(a, h, 1)
        second = conditional_event(b, k, 1)
        compound = conjunction(first, second)
        assert values_agree_on_union(
            compound, quasi_conjunction(first, second)
        )

    def test_goodman_nguyen_absorption(self):
        u, a, h, b, k = four_atoms()
        smaller = conditional_event(a & b, h, F(1, 3))
        larger = conditional_event(a, h, F(1, 2))
        assert gn_inclusion(smaller, larger)
        compound = conjunction(smaller, larger)
        assert values_agree_on_union(compound, iterated(smaller, h))
        flipped = conjunction(larger, smaller)
        assert values_agree_on_union(flipped, iterated(smaller, h))

    def test_absorption_without_inclusion(self):
        # The converse fails: a conjunction can equal its first operand even
        # though the inclusion does not hold.
        u, a, h, b, k = four_atoms()
        void_event = conditional_event(~h, h, 0)
        other = conditional_event(b, k, F(1, 2))
        assert not gn_inclusion(void_event, other)
        compound = conjunction(void_event, other)
        assert values_agree_on_union(compound, iterated(void_event, h | k))

    def test_incoherent_operands_rejected(self):
        u, a, h, b, k = four_atoms()
        for compound in (conjunction, disjunction):
            with pytest.raises(IncoherentAssessmentError):
                compound(
                    conditional_event(a, h, F(1, 4)), conditional_event(a, h, F(3, 4))
                )

    def test_operands_need_previsions(self):
        u, a, h, b, k = four_atoms()
        unpriced, priced = conditional_event(a, h), conditional_event(b, k, F(1, 2))
        outside = {"A": True, "H": False, "B": True, "K": True}
        for call in (
            lambda: conjunction(unpriced, priced),
            lambda: disjunction(priced, unpriced),
            lambda: add(priced, unpriced),
            lambda: iterated(unpriced, h | b),
            lambda: unpriced.value_at(outside),
        ):
            with pytest.raises(ValueError, match="^prevision is not set$"):
                call()

    def test_operands_must_be_events(self):
        u, a, h, b, k = four_atoms()
        multi = ConditionalRandomQuantity(h, [(a, 2), (~a, 0)], F(1, 2))
        with pytest.raises(ValueError):
            conjunction(multi, conditional_event(b, k, F(1, 2)))


class TestNegationAndDisjunction:
    def test_negation_flips_values(self):
        u, a, h, b, k = four_atoms()
        x, y = F(1, 2), F(1, 3)
        compound = conjunction(conditional_event(a, h, x), conditional_event(b, k, y))
        negated = negation(compound)
        for assignment in truth_assignments(("A", "H", "B", "K")):
            if (h | k).evaluate(assignment):
                assert (
                    negated.value_at(assignment)
                    == 1 - compound.value_at(assignment)
                )

    def test_double_negation(self):
        u, a, h, b, k = four_atoms()
        compound = conjunction(
            conditional_event(a, h, F(1, 2)), conditional_event(b, k, F(1, 3))
        ).with_prevision(F(1, 4))
        back = negation(negation(compound))
        assert values_agree_on_union(back, compound)
        assert back.prevision == compound.prevision

    def test_negation_of_certain_quasi_conjunction(self):
        u, a, h, b, k = four_atoms()
        first = conditional_event(a, h, 1)
        second = conditional_event(b, k, 1)
        negated = negation(conjunction(first, second))
        quasi = quasi_conjunction(first, second)
        for assignment in truth_assignments(("A", "H", "B", "K")):
            if (h | k).evaluate(assignment):
                assert (
                    negated.value_at(assignment)
                    == 1 - quasi.value_at(assignment)
                )

    def test_disjunction_case_table(self):
        u, a, h, b, k = four_atoms()
        x, y = F(1, 2), F(1, 3)
        compound = disjunction(conditional_event(a, h, x), conditional_event(b, k, y))
        assert compound.value_at({"A": True, "H": True, "B": False, "K": True}) == 1
        assert compound.value_at({"A": False, "H": True, "B": True, "K": True}) == 1
        assert compound.value_at({"A": False, "H": True, "B": False, "K": True}) == 0
        assert compound.value_at({"A": True, "H": False, "B": False, "K": True}) == x
        assert compound.value_at({"A": False, "H": True, "B": True, "K": False}) == y

    def test_sum_rule_pointwise(self):
        u, a, h, b, k = four_atoms()
        first = conditional_event(a, h, F(2, 5))
        second = conditional_event(b, k, F(3, 7))
        conj = conjunction(first, second)
        disj = disjunction(first, second)
        for assignment in truth_assignments(("A", "H", "B", "K")):
            if (h | k).evaluate(assignment):
                assert conj.value_at(assignment) + disj.value_at(assignment) == (
                    first.value_at(assignment) + second.value_at(assignment)
                )

    def test_disjunction_matches_de_morgan(self):
        u, a, h, b, k = four_atoms()
        x, y = F(2, 5), F(3, 7)
        direct = disjunction(conditional_event(a, h, x), conditional_event(b, k, y))
        dual = negation(
            conjunction(
                conditional_event(~a, h, 1 - x), conditional_event(~b, k, 1 - y)
            )
        )
        assert values_agree_on_union(direct, dual)

    def test_common_conditioning_disjunction(self):
        u, a, h, b, k = four_atoms()
        compound = disjunction(
            conditional_event(a, h, F(1, 2)), conditional_event(b, h, F(1, 3))
        )
        assert values_agree_on_union(compound, conditional_event(a | b, h))

    def test_disjunction_with_zero_previsions(self):
        u, a, h, b, k = four_atoms()
        compound = disjunction(conditional_event(a, h, 0), conditional_event(b, k, 0))
        indicator = conditional_event((a & h) | (b & k), h | k)
        assert values_agree_on_union(compound, indicator)


@st.composite
def dependent_operands(draw):
    """Two conditional events over 2-4 shared atoms, priced coherently.

    Formulas come from a pool that starts with the atoms and grows by
    combining earlier entries, so the operands share atoms and
    subformulas; the second conditioning often nests inside the first.
    Each operand is drawn with its reference ``(conditioning, cells,
    prevision)`` of predicates for :func:`oracles.brute_value`.  Previsions
    are exact conditional probabilities under one distribution that is
    positive at every assignment, so the pair is coherent.
    """
    names = ("A", "B", "C", "D")[: draw(st.integers(2, 4))]
    u = Universe()
    pool = [(u.atom(n), lambda a, n=n: a[n]) for n in names]
    for _ in range(draw(st.integers(2, 8))):
        op = draw(st.sampled_from(("not", "and", "or")))
        (e, p), (f, q) = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        if op == "not":
            pool.append((~e, lambda a, p=p: not p(a)))
        elif op == "and":
            pool.append((e & f, lambda a, p=p, q=q: p(a) and q(a)))
        else:
            pool.append((e | f, lambda a, p=p, q=q: p(a) or q(a)))
    weights = [draw(st.integers(1, 5)) for _ in range(2 ** len(names))]

    def mass(predicate):
        return sum(w for w, a in zip(weights, truth_assignments(names)) if predicate(a))

    operands = []
    for _ in range(2):
        (e, p), (h, ph) = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        if operands and draw(st.booleans()):
            outer, (outer_ph, _, _) = operands[0]
            h, ph = outer.conditioning & h, lambda a, f=outer_ph, g=ph: f(a) and g(a)
        assume(mass(ph) > 0)
        x = F(mass(lambda a: p(a) and ph(a)), mass(ph))
        cells = [(lambda a, p=p: p(a), F(1)), (lambda a, p=p: not p(a), F(0))]
        operands.append((conditional_event(e, h, x), (ph, cells, x)))
    return names, operands


class TestCompoundsOnDependentOperands:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(dependent_operands())
    def test_pointwise_definitions(self, drawn):
        names, ((first, first_ref), (second, second_ref)) = drawn
        conj = conjunction(first, second)
        disj = disjunction(first, second)
        for assignment in truth_assignments(names):
            x = brute_value(first_ref, assignment)
            y = brute_value(second_ref, assignment)
            assert negation(first).value_at(assignment) == 1 - x
            inside = first_ref[0](assignment) or second_ref[0](assignment)
            assert conj.conditioning.evaluate(assignment) == inside
            assert disj.conditioning.evaluate(assignment) == inside
            if inside:
                assert conj.value_at(assignment) == min(x, y)
                assert disj.value_at(assignment) == max(x, y)
                assert negation(conj).value_at(assignment) == 1 - min(x, y)


class TestQuasiConjunction:
    def test_point_values(self):
        u, a, h, b, k = four_atoms()
        quasi = quasi_conjunction(conditional_event(a, h), conditional_event(b, k))
        assert quasi.value_at({"A": True, "H": True, "B": True, "K": True}) == 1
        assert quasi.value_at({"A": True, "H": False, "B": True, "K": True}) == 1
        assert quasi.value_at({"A": False, "H": True, "B": True, "K": False}) == 0
        assert quasi.is_event

    def test_common_conditioning(self):
        u, a, h, b, k = four_atoms()
        quasi = quasi_conjunction(conditional_event(a, h), conditional_event(b, h))
        assert values_agree_on_union(quasi, conditional_event(a & b, h))


class TestValueMapOperands:
    def test_one_cell_reaching_outside_the_conditioning(self):
        # The 1-cell A of {A: 1, ~A: 0} given H reaches outside H; as an
        # operand it is the conditional event A | H, whose 1-cell is A & H.
        u, a, h, b, k = four_atoms()
        mapped = ConditionalRandomQuantity(h, [(a, 1), (~a, 0)], F(1, 3))
        plain = conditional_event(a, h, F(1, 3))
        other = conditional_event(b, k, F(1, 2))

        def texts(quantity):
            cells = [(event.to_text(), value) for event, value in quantity.cells]
            return quantity.conditioning.to_text(), cells

        for build in (conjunction, disjunction, quasi_conjunction):
            assert texts(build(mapped, other)) == texts(build(plain, other))
            assert texts(build(other, mapped)) == texts(build(other, plain))


class TestGoodmanNguyen:
    def test_conjunction_shrinks(self):
        u, a, h, b, k = four_atoms()
        assert gn_inclusion(conditional_event(a & b, h), conditional_event(a, h))

    def test_void_conditional_not_included(self):
        u, a, h, b, k = four_atoms()
        assert not gn_inclusion(conditional_event(~h, h), conditional_event(b, k))

    def test_reflexive(self):
        u, a, h, b, k = four_atoms()
        ce = conditional_event(a, h)
        assert gn_inclusion(ce, ce)

    def test_cross_conditioning_inclusion(self):
        u = Universe()
        a, h, d = u.atom("A"), u.atom("H"), u.atom("D")
        wider = conditional_event(a | ~h, h | d)
        assert gn_inclusion(conditional_event(a, h), wider)


class TestEqualValuesForceEqualPrevisions:
    def test_forced_equality(self):
        # Two quantities that pay identically wherever either bet is live can
        # only be priced identically.
        u, a, h, b, k = four_atoms()
        x = ConditionalRandomQuantity(h, [(a, F(3, 4)), (~a, F(1, 4))], F(1, 2))
        same = iterated(x, h | k)
        assert values_agree_on_union(x, same.with_prevision(F(1, 2)))
        agreeing = Assessment([x, same], [F(1, 2), F(1, 2)])
        assert check_coherence(agreeing).coherent
        disagreeing = Assessment([x, same], [F(1, 2), F(2, 5)])
        assert not check_coherence(disagreeing).coherent

    def test_unpriced_member_needs_its_prevision_outside_its_conditioning(self):
        u, a, h, b, k = four_atoms()
        unpriced = conditional_event(a, h)
        assert values_agree_on_union(unpriced, conditional_event(a, h, F(1, 2)))
        with pytest.raises(ValueError, match="prevision is not set"):
            values_agree_on_union(unpriced, conditional_event(b, k, F(1, 2)))


def two_universes():
    """A|H at 1/2 in each of two universes with the same atom names, so
    both quantities are on the frame ("A", "H")."""
    pair = []
    for _ in range(2):
        u = Universe()
        pair.append(conditional_event(u.atom("A"), u.atom("H"), F(1, 2)))
    return pair


COMBINATIONS = {
    "Assessment": lambda p, q: Assessment([p, q]),
    "partition": lambda p, q: Assessment([p, q]).partition,
    "check_coherence": lambda p, q: check_coherence(Assessment([p, q])),
    "values_agree_on_union": values_agree_on_union,
    "add": add,
    "gn_inclusion": gn_inclusion,
    "conjunction": conjunction,
    "disjunction": disjunction,
    "quasi_conjunction": quasi_conjunction,
    "_conjoin": crq._conjoin,
    "_disjoin": crq._disjoin,
}


@pytest.mark.parametrize("name", sorted(COMBINATIONS))
def test_quantities_of_two_universes_do_not_combine(name):
    first, second = two_universes()
    assert first._atoms == second._atoms and first.universe is not second.universe
    with pytest.raises(ValueError, match="^events belong to different universes$"):
        COMBINATIONS[name](first, second)


@st.composite
def documents(draw):
    """Documents of 2-4 members over 3-5 listed atoms, each member on some
    of them: conditional events, {0, 1} value maps whose 1-cell reaches
    outside the conditioning, and value maps with a cell that is empty
    inside it.  Conditioning events are sometimes impossible."""
    atoms = ["A", "B", "C", "D", "E"][: draw(st.integers(3, 5))]

    def formula(depth=2):
        if depth == 0 or draw(st.booleans()):
            return draw(st.sampled_from(["", "~"])) + draw(st.sampled_from(atoms))
        glue = draw(st.sampled_from([" & ", " | "]))
        return f"({formula(depth - 1)}{glue}{formula(depth - 1)})"

    members = []
    for _ in range(draw(st.integers(2, 4))):
        given, f, g = formula(), formula(), formula()
        quantity = draw(
            st.sampled_from(
                [
                    f,
                    {f: "1", f"~{f}": "0"},
                    {
                        f"{f} & {g}": "2",
                        f"{f} & ~{g}": "-1/2",
                        f"~{f}": "1",
                        f"~{given} & {g}": "5",
                    },
                ]
            )
        )
        prevision = draw(st.sampled_from(["0", "1/3", "1/2", "1"]))
        members.append({"quantity": quantity, "given": given, "prevision": prevision})
    return {"atoms": atoms, "members": members}


@st.composite
def failing_documents(draw):
    """Documents listing 3-5 atoms in any order: a value-map member on
    some of them, whose cells overlap or leave a gap in its conditioning
    unless the draw happens to partition it, and a conditional event on
    the others before or after it."""
    atoms = draw(st.permutations(["A", "B", "C", "D", "E"]))[: draw(st.integers(3, 5))]
    own = draw(st.lists(st.sampled_from(atoms), min_size=1, max_size=len(atoms) - 1, unique=True))
    others = [name for name in atoms if name not in own]

    def formula(depth=2):
        if depth == 0 or draw(st.booleans()):
            return draw(st.sampled_from(["", "~"])) + draw(st.sampled_from(own))
        glue = draw(st.sampled_from([" & ", " | "]))
        return f"({formula(depth - 1)}{glue}{formula(depth - 1)})"

    f, g = formula(), formula()
    cells = draw(
        st.sampled_from([{f: "1", f"({f} | {g})": "2"}, {f"{f} & {g}": "1", f"~{f} & {g}": "0"}])
    )
    members = [{"quantity": cells, "given": formula(), "prevision": "1/2"}]
    other = {"quantity": draw(st.sampled_from(others)), "given": draw(st.sampled_from(others))}
    members.insert(draw(st.integers(0, 1)), {**other, "prevision": "1/3"})
    return {"atoms": atoms, "members": members}


def shown(quantity):
    cells = [(event.to_text(), value) for event, value in quantity.cells]
    return quantity.conditioning.to_text(), cells, quantity.prevision


def tabled(quantity):
    """Whether a quantity's tables are those of its events over its atoms."""
    events = [quantity.conditioning, *(event for event, _ in quantity.cells)]
    return (quantity._given, *quantity._raw) == truth_tables(events, quantity._atoms)


def same_partition(found, expected):
    """``found`` is ``expected`` with its blocks lifted to ``found``'s atoms."""
    assert set(expected.atoms) <= set(found.atoms)
    assert lifted_blocks(found, found.atoms) == lifted_blocks(expected, found.atoms)


def counting_folds():
    return mock.patch.object(events, "_fold", wraps=events._fold)


class TestSharedTables:
    """Members that ``realize`` builds from one fold, the compounds derived
    from their tables and the partition refined from them equal what the
    public constructor and :func:`constituents` give, the partition over
    the members' shared frame."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(documents())
    def test_against_public_path(self, document):
        try:
            _, members = realize(AssessmentDocument.from_payload(document))
        except DocumentError as exc:
            error = str(exc)
        else:
            error = None
        # The public constructor, member by member, in a universe of its own.
        reference = Universe()
        for name in document["atoms"]:
            reference.atom(name)
        expected = []
        for i, spec in enumerate(document["members"]):
            given_ = reference.parse(spec["given"])
            prevision = F(spec["prevision"])
            try:
                if isinstance(spec["quantity"], str):
                    event = reference.parse(spec["quantity"])
                    expected.append(conditional_event(event, given_, prevision))
                else:
                    cells = [(reference.parse(c), F(v)) for c, v in spec["quantity"].items()]
                    expected.append(ConditionalRandomQuantity(given_, cells, prevision))
            except ValueError as exc:
                assert error == f"member {i}: {exc}"
                return
        assert error is None
        assert [shown(m) for m in members] == [shown(m) for m in expected]
        used = used_atoms(
            e for m in members for e in (m.conditioning, *(c for c, _ in m.cells))
        )
        assert all(tabled(m) and set(used) <= set(m._atoms) for m in members)

        compounds = []
        for build in (crq._conjoin, crq._disjoin, quasi_conjunction):
            try:
                compound = build(members[0], members[1])
            except ValueError as exc:
                with pytest.raises(ValueError) as raised:
                    build(expected[0], expected[1])
                assert str(raised.value) == str(exc)
                continue
            assert shown(compound) == shown(build(expected[0], expected[1]))
            assert compound._atoms == members[0]._atoms and tabled(compound)
            priced = compound.with_prevision(F(1, 7))
            assert shown(priced)[:2] == shown(compound)[:2] and tabled(priced)
            assert tabled(negation(compound))
            compounds.append(priced)

        for family in (members, members[:2], members + compounds):
            with counting_folds() as fold:
                found = Assessment(family).partition
            assert fold.call_count == 0 and found.atoms == members[0]._atoms
            pairs = [([e for e, _ in m.cells], m.conditioning) for m in family]
            same_partition(found, constituents(pairs))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(failing_documents())
    def test_partition_error_costs_one_fold(self, document):
        """A member whose cells do not partition its conditioning fails on
        the document's tables, with no second fold, naming the assignment
        the public constructor names over the member's own atoms."""
        reference = Universe()
        for name in document["atoms"]:
            reference.atom(name)
        expected = None
        for i, spec in enumerate(document["members"]):
            if isinstance(spec["quantity"], dict):
                cells = [(reference.parse(c), F(v)) for c, v in spec["quantity"].items()]
                try:
                    ConditionalRandomQuantity(reference.parse(spec["given"]), cells)
                except ValueError as exc:
                    expected = f"member {i}: {exc}"
        with counting_folds() as fold:
            try:
                realize(AssessmentDocument.from_payload(document))
            except DocumentError as exc:
                error = str(exc)
            else:
                error = None
        assert error == expected
        assert fold.call_count == 1

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(documents())
    def test_add_takes_the_shared_frame(self, document):
        """The sum of two members of one document is built from their
        partition's block masks: no fold, on their frame, and the quantity
        the public constructor builds on the same events."""
        try:
            _, members = realize(AssessmentDocument.from_payload(document))
        except DocumentError:
            return
        with counting_folds() as fold:
            total = add(members[0], members[1])
        assert fold.call_count == 0
        assert total._atoms == members[0]._atoms and tabled(total)
        public = ConditionalRandomQuantity(total.conditioning, total.cells, total.prevision)
        assert shown(total) == shown(public)
        assert values_agree_on_union(total, public)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(documents())
    def test_iterated_takes_the_shared_frame(self, document):
        """Conditioning a member of one document anew on an event over the
        document's atoms folds that event alone, over the member's frame,
        and gives the quantity the public constructor builds."""
        try:
            _, members = realize(AssessmentDocument.from_payload(document))
        except DocumentError:
            return
        new = members[0].conditioning | members[1].conditioning
        with counting_folds() as fold:
            result = iterated(members[0], new)
        assert fold.call_count == 1 and len(fold.call_args.args[0]) == 1
        assert result._atoms == members[0]._atoms and tabled(result)
        public = ConditionalRandomQuantity(result.conditioning, result.cells, result.prevision)
        assert shown(result) == shown(public)
        assert values_agree_on_union(result.with_prevision(0), public.with_prevision(0))

    def test_iterated_lands_on_the_document_frame(self):
        document = {
            "atoms": ["A", "H", "B", "K"],
            "members": [
                {"quantity": "A", "given": "H", "prevision": "1/2"},
                {"quantity": "B", "given": "K", "prevision": "1/3"},
            ],
        }
        universe, (first, second) = realize(AssessmentDocument.from_payload(document))
        with counting_folds() as fold:
            result = iterated(first, universe.parse("H | K"))
            found = Assessment([result.with_prevision(F(1, 2)), second]).partition
        assert fold.call_count == 1
        assert result._atoms == found.atoms == ("A", "H", "B", "K")

    def test_pair_over_fewer_atoms_keeps_the_frame(self):
        document = {
            "atoms": ["A", "H", "B", "K"],
            "members": [
                {"quantity": "A", "given": "H", "prevision": "1/2"},
                {"quantity": {"A": "1", "~A": "0"}, "given": "H", "prevision": "1/2"},
                {"quantity": "B", "given": "K", "prevision": "1/3"},
            ],
        }
        universe, members = realize(AssessmentDocument.from_payload(document))
        pair = members[:2]
        with counting_folds() as fold:
            found = Assessment(pair).partition
        assert fold.call_count == 0
        assert found.atoms == ("A", "H", "B", "K")
        family = [([e for e, _ in m.cells], m.conditioning) for m in pair]
        same_partition(found, constituents(family))
        whole = Assessment(members).sub([0, 1]).partition
        assert (found.outside, found.inside) == (whole.outside, whole.inside)
        # A quantity on a frame of its own: the family's events fold once,
        # over the atoms they use.
        b, k = universe.parse("B"), universe.parse("K")
        mixed = [members[0], conditional_event(b, k, F(1, 3))]
        with counting_folds() as fold:
            found = Assessment(mixed).partition
        assert fold.call_count == 1
        assert found.atoms == ("A", "H", "B", "K")
        family = [([e for e, _ in m.cells], m.conditioning) for m in mixed]
        same_partition(found, constituents(family))

    def test_document_members_and_a_compound_stay_as_they_are(self):
        """A document's members and a compound of two of them share a frame,
        so an assessment keeps the very objects and neither it nor its
        partition folds an event."""
        document = {
            "atoms": ["A", "H", "B", "K", "C"],
            "members": [
                {"quantity": "A", "given": "H", "prevision": "1/2"},
                {"quantity": "B", "given": "K", "prevision": "1/3"},
                {"quantity": {"C": "2", "~C": "0"}, "given": "H | K", "prevision": "1"},
            ],
        }
        _, members = realize(AssessmentDocument.from_payload(document))
        family = [*members, crq._conjoin(members[0], members[1]).with_prevision(F(1, 6))]
        with counting_folds() as fold:
            assessment = Assessment(family)
            assessment.partition
        assert fold.call_count == 0
        assert all(kept is given for kept, given in zip(assessment.members, family, strict=True))

    def test_members_on_separate_frames_fold_once_when_assessed(self):
        """Members on frames of their own are rebuilt on one frame, from one
        fold when the assessment is built, with the same events and values;
        its partition, a sub-assessment's and a two-level check fold nothing
        more."""
        u, a, h, b, k = four_atoms()
        family = [
            conditional_event(h, u.true(), 0),
            conditional_event(a, h, F(1, 2)),
            conditional_event(b, k, F(1, 3)),
        ]
        with counting_folds() as fold:
            assessment = Assessment(family)
        assert fold.call_count == 1
        for kept, given in zip(assessment.members, family, strict=True):
            assert kept.conditioning is given.conditioning
            assert kept.cells == given.cells and kept.prevision == given.prevision
        with counting_folds() as fold:
            found = assessment.partition
            assessment.sub([1, 2]).partition
            report = check_coherence(assessment)
        assert fold.call_count == 0
        assert found.atoms == ("A", "H", "B", "K") and len(report.levels) == 2
