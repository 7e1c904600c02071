import itertools
import random
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from previsions.crq import ConditionalRandomQuantity, conditional_event, values_agree_on_union
from previsions.events import (
    MAX_EVENT_DEPTH,
    AtomLimitError,
    EventSyntaxError,
    Universe,
    _fold,
    _least,
    constituents,
    logically_independent,
    truth_tables,
)

from oracles import (
    brute_constituents,
    brute_equivalent,
    brute_implies,
    brute_is_impossible,
    brute_is_sure,
    brute_logically_independent,
    brute_values_agree,
    truth_assignments,
)


def fresh(*names, limit=20):
    u = Universe(atom_limit=limit)
    return u, [u.atom(n) for n in names]


class TestParsing:
    def test_and_not(self):
        u = Universe()
        e = u.parse("A & ~B")
        assert e.evaluate({"A": True, "B": False})
        assert not e.evaluate({"A": True, "B": True})
        assert not e.evaluate({"A": False, "B": False})

    def test_constants(self):
        u = Universe()
        assert u.parse("1").is_sure()
        assert u.parse("0").is_impossible()

    def test_precedence_not_and_or(self):
        u = Universe()
        e = u.parse("~A | B & C")
        # (~A) | (B & C), not ~(A | B) & C
        assert e.evaluate({"A": False, "B": False, "C": False})
        assert e.evaluate({"A": True, "B": True, "C": True})
        assert not e.evaluate({"A": True, "B": True, "C": False})

    def test_parentheses(self):
        u = Universe()
        e = u.parse("(A | B) & C")
        assert not e.evaluate({"A": True, "B": False, "C": False})
        assert e.evaluate({"A": True, "B": False, "C": True})

    def test_syntax_error_position(self):
        u = Universe()
        with pytest.raises(EventSyntaxError) as err:
            u.parse("A & (")
        assert err.value.position == 5

    def test_trailing_garbage(self):
        u = Universe()
        with pytest.raises(EventSyntaxError) as err:
            u.parse("A @ B")
        assert err.value.position == 2

    def test_empty_input(self):
        u = Universe()
        with pytest.raises(EventSyntaxError) as err:
            u.parse("   ")
        assert err.value.position == 3

    def test_missing_close_paren(self):
        u = Universe()
        with pytest.raises(EventSyntaxError) as err:
            u.parse("(A | B")
        assert err.value.position == 6

    def test_atom_cap(self):
        u = Universe(atom_limit=2)
        u.parse("A & B")
        with pytest.raises(AtomLimitError):
            u.parse("C")

    def test_atom_limit_is_kept(self):
        assert Universe(atom_limit=3).atom_limit == 3
        assert Universe().atom_limit == 20

    def test_combining_with_a_non_event_is_a_type_error(self):
        u, (a,) = fresh("A")
        with pytest.raises(TypeError):
            a & 1
        with pytest.raises(TypeError):
            1 | a

    def test_atom_limit_must_be_positive(self):
        with pytest.raises(ValueError, match="at least 1"):
            Universe(atom_limit=0)

    def test_missing_operand(self):
        with pytest.raises(EventSyntaxError, match="expected an atom") as err:
            Universe().parse("A & @")
        assert err.value.position == 4

    def test_atoms_registered(self):
        u = Universe()
        u.parse("X & (Y | ~Z)")
        assert u.atoms == ("X", "Y", "Z")

    def test_invalid_atom_name(self):
        u = Universe()
        with pytest.raises(ValueError):
            u.atom("not an identifier")

    @pytest.mark.parametrize(
        "text",
        [
            "&".join(["A"] * (MAX_EVENT_DEPTH + 1)),
            "|".join(["A"] * (MAX_EVENT_DEPTH + 1)),
            "~" * MAX_EVENT_DEPTH + "A",
            "(" * MAX_EVENT_DEPTH + "A" + ")" * MAX_EVENT_DEPTH,
        ],
        ids=["and-chain", "or-chain", "not-run", "parentheses"],
    )
    def test_deepest_accepted_formula_evaluates_and_renders(self, text):
        e = Universe().parse(text)
        assert e.evaluate({"A": True}) == (text.count("~") % 2 == 0)
        rendered = e.to_text()
        assert Universe().parse(rendered).to_text() == rendered

    @pytest.mark.parametrize(
        "text",
        [
            "&".join(["A"] * (MAX_EVENT_DEPTH + 2)),
            "|".join(["A"] * 3000),
            "~" * 3000 + "A",
            "(" * (MAX_EVENT_DEPTH + 1) + "A" + ")" * (MAX_EVENT_DEPTH + 1),
            "~(" * MAX_EVENT_DEPTH + "A" + ")" * MAX_EVENT_DEPTH,
        ],
        ids=["and-chain", "or-chain", "not-run", "parentheses", "not-parentheses"],
    )
    def test_too_deep_formula_is_a_syntax_error(self, text):
        with pytest.raises(EventSyntaxError, match="nested deeper"):
            Universe().parse(text)


class TestQueries:
    def test_implies_conjunction_elimination(self):
        u, (a, b) = fresh("A", "B")
        assert (a & b).implies(a)

    def test_implies_disjunction_introduction(self):
        u, (a, b) = fresh("A", "B")
        assert a.implies(a | b)

    def test_distinct_atoms_do_not_imply(self):
        u, (a, b) = fresh("A", "B")
        assert not a.implies(b)

    def test_is_impossible(self):
        u, (a, h, k) = fresh("A", "H", "K")
        assert (a & ~a).is_impossible()
        assert not u.true().is_impossible()
        assert not (h & k).is_impossible()

    def test_mixed_universes_rejected(self):
        u1 = Universe()
        u2 = Universe()
        with pytest.raises(ValueError):
            u1.atom("A") & u2.atom("A")

    def test_logical_independence(self):
        u, (a, b) = fresh("A", "B")
        assert logically_independent([a, b])
        assert not logically_independent([a, a | b])

    def test_four_atoms_independent(self):
        u, atoms = fresh("A", "H", "B", "K")
        assert logically_independent(atoms)

    def test_independence_needs_events(self):
        with pytest.raises(ValueError):
            logically_independent([])

    def test_deep_chain_built_through_the_api(self):
        # The parser refuses this depth; the API builds it, and every
        # query walks it without recursion.
        u, (a,) = fresh("A")
        e = a
        for _ in range(3000):
            e = e & a
        assert e.evaluate({"A": True}) and not e.evaluate({"A": False})
        assert not e.is_impossible() and not e.is_sure()
        assert e.implies(a) and a.implies(e)
        part = constituents([([e, ~e], u.true())])
        assert [(c.labels, c.assignments) for c in part.inside] == [
            ((1,), ((False,),)),
            ((0,), ((True,),)),
        ]
        assert conditional_event(e, a, F(1, 2)).restricted_values == (1,)

    @pytest.mark.parametrize("grow_left", [True, False], ids=["left", "right"])
    def test_deep_chain_renders(self, grow_left):
        # Rendering walks API-built chains without recursion too.
        u, (a, b) = fresh("A", "B")
        flat = nested = a
        for _ in range(3000):
            flat = (flat & b) if grow_left else (b & flat)
            nested = ~(nested | b) if grow_left else ~(b | nested)
        if grow_left:
            assert flat.to_text() == "A" + " & B" * 3000
            assert nested.to_text() == "~(" * 3000 + "A" + " | B)" * 3000
        else:
            assert flat.to_text() == "B & " * 3000 + "A"
            assert nested.to_text() == "~(B | " * 3000 + "A" + ")" * 3000
        assert repr(nested) == f"Event({nested.to_text()!r})"

    @pytest.mark.parametrize("grow_left", [True, False], ids=["left", "right"])
    def test_long_chain_holds_few_tables(self, grow_left):
        # Each table over 16 atoms takes 8 KiB; keeping every table of
        # this 9000-node chain alive would take over 70 MiB.
        u, atoms = fresh(*(f"X{i}" for i in range(16)))
        e = atoms[0]
        for i in range(3000):
            step = atoms[i % 16] & ~atoms[(i + 1) % 16]
            e = (e | step) if grow_left else (step | e)
        tracemalloc.start()
        try:
            assert not e.is_impossible()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


# Random formula trees over at most three atoms, for semantic properties.
def formulas(universe):
    atoms = st.sampled_from(["A", "B", "C"]).map(universe.atom)
    consts = st.sampled_from([universe.true(), universe.false()])
    return st.recursive(
        atoms | consts,
        lambda children: st.one_of(
            children.map(lambda e: ~e),
            st.tuples(children, children).map(lambda ab: ab[0] & ab[1]),
            st.tuples(children, children).map(lambda ab: ab[0] | ab[1]),
        ),
        max_leaves=8,
    )


@st.composite
def formula_pairs(draw):
    u = Universe()
    strategy = formulas(u)
    return draw(strategy), draw(strategy)


class TestSemanticProperties:
    @given(formula_pairs())
    def test_mutual_implication_is_equivalence(self, pair):
        a, b = pair
        assert (a.implies(b) and b.implies(a)) == a.equivalent(b)

    @given(formula_pairs())
    def test_de_morgan(self, pair):
        a, b = pair
        assert (~(a & b)).equivalent(~a | ~b)
        assert (~(a | b)).equivalent(~a & ~b)

    @given(formula_pairs())
    def test_double_negation(self, pair):
        a, _ = pair
        assert (~~a).equivalent(a)

    @given(formula_pairs())
    def test_text_round_trip(self, pair):
        a, _ = pair
        assert a.universe.parse(a.to_text()).equivalent(a)


class TestConstituents:
    def test_single_conditional_event(self):
        u, (a, h) = fresh("A", "H")
        part = constituents([([a & h, ~a & h], h)])
        assert part.outside is not None
        assert part.outside.labels == (None,)
        assert len(part.inside) == 2
        regions = [part.region(c) for c in part.inside]
        assert any(r.equivalent(a & h) for r in regions)
        assert any(r.equivalent(~a & h) for r in regions)
        assert part.region(part.outside).equivalent(~h)

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError, match="family must be nonempty"):
            constituents([])

    def test_unconditional_family_has_no_outside(self):
        u, (a,) = fresh("A")
        part = constituents([([a, ~a], u.true())])
        assert part.outside is None
        assert len(part.inside) == 2

    def test_two_conditional_events_full_expansion(self):
        u, (a, h, b, k) = fresh("A", "H", "B", "K")
        part = constituents([([a & h, ~a & h], h), ([b & k, ~b & k], k)])
        assert part.outside is not None
        assert part.region(part.outside).equivalent(~h & ~k)
        assert len(part.inside) == 8
        expected = [
            a & h & b & k,
            a & h & ~b & k,
            ~a & h & b & k,
            ~a & h & ~b & k,
            a & h & ~k,
            ~a & h & ~k,
            ~h & b & k,
            ~h & ~b & k,
        ]
        regions = [part.region(c) for c in part.inside]
        for wanted in expected:
            assert sum(r.equivalent(wanted) for r in regions) == 1

    def test_partition_properties(self):
        u, (a, h, b, k) = fresh("A", "H", "B", "K")
        part = constituents([([a & h, ~a & h], h), ([b & k, ~b & k], k)])
        blocks = list(part.inside)
        if part.outside is not None:
            blocks.append(part.outside)
        seen = [bits for c in blocks for bits in c.assignments]
        assert sorted(seen) == sorted(
            itertools.product((False, True), repeat=len(part.atoms))
        )

    def test_labels_agree_with_direct_evaluation(self):
        u, (a, h, b, k) = fresh("A", "H", "B", "K")
        family = [([a & h, ~a & h], h), ([b & k, ~b & k], k)]
        part = constituents(family)
        for block in part.inside:
            for bits in block.assignments:
                assignment = dict(zip(part.atoms, bits))
                for (cells, cond), label in zip(family, block.labels):
                    if label is None:
                        assert not cond.evaluate(assignment)
                    else:
                        assert cells[label].evaluate(assignment)

    def test_count_bound(self):
        u, (a, h, b, k) = fresh("A", "H", "B", "K")
        part = constituents([([a & h, ~a & h], h), ([b & k, ~b & k], k)])
        total = len(part.inside) + (1 if part.outside is not None else 0)
        assert total == 3**2  # independent atoms achieve the bound

    def test_count_bound_holds_under_dependencies(self):
        # With two conditional events the partition never exceeds 3^2
        # blocks, however the events overlap.
        import random

        rng = random.Random(5)
        for _ in range(25):
            u = Universe()
            atoms = [u.atom(n) for n in "XYZ"]
            def rand_event():
                e = rng.choice(atoms)
                for _ in range(rng.randint(0, 2)):
                    other = rng.choice(atoms)
                    e = (e & other) if rng.random() < 0.5 else (e | ~other)
                return e
            family = []
            for _ in range(2):
                h = rand_event()
                if h.is_impossible():
                    h = atoms[0]
                a = rand_event()
                family.append(([a & h, ~a & h], h))
            part = constituents(family)
            total = len(part.inside) + (1 if part.outside is not None else 0)
            assert total <= 3**2

    def test_canonical_order_is_deterministic(self):
        u, (a, h) = fresh("A", "H")
        first = constituents([([a & h, ~a & h], h)])
        second = constituents([([a & h, ~a & h], h)])
        assert [c.assignments for c in first.inside] == [
            c.assignments for c in second.inside
        ]
        keys = [c.assignments[0] for c in first.inside]
        assert keys == sorted(keys)

    def test_impossible_conditioning_rejected(self):
        u, (a, h) = fresh("A", "H")
        with pytest.raises(ValueError):
            constituents([([a], h & ~h)])

    def test_non_partition_rejected(self):
        u, (a, h) = fresh("A", "H")
        with pytest.raises(ValueError):
            constituents([([a, a], h)])

    # Families over sixteen atoms: their truth tables are 8 KiB, and the
    # least assignment of a block is looked up window by window (see
    # ``events._least``).
    WIDE = tuple(f"a{k}" for k in range(16))

    def test_blocks_past_the_first_windows(self):
        # Every conditioning implies a0 & a1, so every inside block starts
        # at assignment 3 * 2**14 or later, past the windows of 64 to
        # 2**14 assignments.
        u, a = fresh(*self.WIDE)
        members = [
            (a[2] | a[7] & ~a[15] | a[6] & a[9], a[0] & a[1]),
            (a[5] & a[11] | a[12] & ~a[13], a[0] & a[1] & ~a[3]),
            (a[14] | ~a[8], a[0] & a[1] & (a[4] | a[10])),
        ]
        predicates = [
            (
                lambda v: v["a2"] or v["a7"] and not v["a15"] or v["a6"] and v["a9"],
                lambda v: v["a0"] and v["a1"],
            ),
            (
                lambda v: v["a5"] and v["a11"] or v["a12"] and not v["a13"],
                lambda v: v["a0"] and v["a1"] and not v["a3"],
            ),
            (
                lambda v: v["a14"] or not v["a8"],
                lambda v: v["a0"] and v["a1"] and (v["a4"] or v["a10"]),
            ),
        ]
        brute = [
            ([lambda v, p=p, q=q: p(v) and q(v), lambda v, p=p, q=q: not p(v) and q(v)], q)
            for p, q in predicates
        ]
        part = constituents([([e & h, ~e & h], h) for e, h in members])
        outside, inside = brute_constituents(brute, self.WIDE)
        assert part.atoms == self.WIDE
        assert part.outside.assignments == outside
        assert [(c.labels, c.assignments) for c in part.inside] == inside
        assert len(inside) > 8 and all(_least(c.mask) >= 3 << 14 for c in part.inside)

    def test_wide_non_partition_names_the_least_assignment(self):
        # The cells overlap first at assignment 2**12 + 2**10 + 1 (a3, a5
        # and a15 true), past the windows of 64, 256, 1024 and 4096.
        u, a = fresh(*self.WIDE)
        first = a[3]
        for k in range(16):
            if k not in (3, 5, 15):
                first = first & ~a[k]
        second = ~first | a[3] & a[5] & a[15]
        with pytest.raises(ValueError) as expected:
            brute_constituents([([first.evaluate, second.evaluate], lambda v: True)], self.WIDE)
        with pytest.raises(ValueError, match="matched 2 cells") as raised:
            constituents([([first, second], u.true())])
        assert str(raised.value) == str(expected.value)


class TestLeastAssignment:
    """``_least`` is the index of the least set bit, as the negation
    ``(mask & -mask).bit_length() - 1`` finds it."""

    @pytest.mark.parametrize("width", range(1, 21))
    def test_agrees_with_negation(self, width):
        size = 1 << width
        rng = random.Random(width)
        edges = [1 << k for k in range(6, 21, 2)]  # window widths 64, 256, ...
        spots = {0, size - 1} | {e + d for e in edges for d in (-1, 0) if e + d < size}
        for i in sorted(spots):
            above = rng.getrandbits(size) >> (i + 1) << (i + 1)
            for mask in (1 << i, 1 << i | above, 1 << i | 1 << (size - 1)):
                assert _least(mask) == (mask & -mask).bit_length() - 1 == i


class TestAtomTables:
    """Atom ``k`` of ``width`` is true at assignment ``i`` exactly when bit
    ``width - 1 - k`` of ``i`` is set (first atom most significant)."""

    @staticmethod
    def atom_tables(width):
        u = Universe()
        atoms = [u.atom(f"x{k}") for k in range(width)]
        return truth_tables(atoms, u.atoms)

    @pytest.mark.parametrize("width", range(1, 13))
    def test_every_bit_up_to_twelve_atoms(self, width):
        expected = [
            sum(1 << i for i in range(1 << width) if i >> (width - 1 - k) & 1)
            for k in range(width)
        ]
        assert list(self.atom_tables(width)) == expected

    @pytest.mark.parametrize("width", range(13, 21))
    def test_sampled_bits_up_to_twenty_atoms(self, width):
        rng = random.Random(width)
        for k, table in enumerate(self.atom_tables(width)):
            assert table.bit_length() <= 1 << width
            assert table.bit_count() == 1 << (width - 1)
            for i in rng.sample(range(1 << width), 64):
                assert table >> i & 1 == i >> (width - 1 - k) & 1

    def test_last_of_twenty_atoms_alone(self):
        # The chain of atom tables runs from the sure event to the one atom
        # read, through the 19 before it.
        u = Universe()
        atoms = [u.atom(f"x{k}") for k in range(20)]
        expected = int("".join("1" if i & 1 else "0" for i in reversed(range(1 << 20))), 2)
        assert truth_tables([atoms[19]], u.atoms) == (expected,)

    def test_frame_wider_than_the_events(self):
        # As ``crq.iterated`` tables a new event over a quantity's frame:
        # the events use three of eight atoms, and either root goes first.
        u = Universe()
        x = [u.atom(f"x{k}") for k in range(8)]
        events = [x[6] & ~x[2], x[2] | x[4], ~x[4]]
        predicates = [
            lambda a: a["x6"] and not a["x2"],
            lambda a: a["x2"] or a["x4"],
            lambda a: not a["x4"],
        ]
        assignments = list(truth_assignments(u.atoms))
        expected = tuple(
            sum(1 << i for i, a in enumerate(assignments) if holds(a)) for holds in predicates
        )
        assert truth_tables(events, u.atoms) == expected
        assert truth_tables(events[::-1], u.atoms) == expected[::-1]


# Differential tests of the truth tables against per-assignment enumeration.


@st.composite
def formula_pools(draw, atoms=6, steps=14):
    """A pool of ``(event, predicate)`` pairs over one to ``atoms`` atoms.

    The pool starts with the atoms, in a drawn registration order, and
    both constants; each of up to ``steps`` further entries combines
    earlier ones, so later formulas share subformulas.  Each predicate
    computes its event's truth value directly from an assignment,
    independently of the library.
    """
    names = draw(st.permutations([f"X{i}" for i in range(draw(st.integers(1, atoms)))]))
    u = Universe()
    pool = [(u.atom(n), lambda a, n=n: a[n]) for n in names]
    pool += [(u.true(), lambda a: True), (u.false(), lambda a: False)]
    for _ in range(draw(st.integers(0, steps))):
        op = draw(st.sampled_from(("not", "and", "or")))
        e, p = draw(st.sampled_from(pool))
        f, q = draw(st.sampled_from(pool))
        if op == "not":
            pool.append((~e, lambda a, p=p: not p(a)))
        elif op == "and":
            pool.append((e & f, lambda a, p=p, q=q: p(a) and q(a)))
        else:
            pool.append((e | f, lambda a, p=p, q=q: p(a) or q(a)))
    return pool


@st.composite
def members(draw, pool):
    """``(cells, conditioning)`` as events and as predicates: a conditional
    event, a complementary pair, or cells drawn at random (which rarely
    partition the conditioning)."""
    h, ph = draw(st.sampled_from(pool))
    kind = draw(st.sampled_from(("conditional", "pair", "any")))
    e, p = draw(st.sampled_from(pool))
    if kind == "conditional":
        cells = [(e & h, lambda a: p(a) and ph(a)), (~e & h, lambda a: not p(a) and ph(a))]
    elif kind == "pair":
        cells = [(e, p), (~e, lambda a: not p(a))]
    else:
        cells = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    return ([c for c, _ in cells], h), ([q for _, q in cells], ph)


def names_of(*events):
    used = set().union(*(e.atoms for e in events))
    return tuple(n for n in events[0].universe.atoms if n in used)


DIFFERENTIAL = settings(max_examples=150, deadline=None, derandomize=True, database=None)


class TestTruthTablesAgainstEnumeration:
    @DIFFERENTIAL
    @given(st.data())
    def test_queries(self, data):
        pool = data.draw(formula_pools())
        (a, p), (b, q) = data.draw(st.sampled_from(pool)), data.draw(st.sampled_from(pool))
        names = names_of(a, b)
        for assignment in truth_assignments(names):
            assert a.evaluate(assignment) == p(assignment)
        assert a.is_impossible() == brute_is_impossible(p, names)
        assert a.is_sure() == brute_is_sure(p, names)
        assert a.implies(b) == brute_implies(p, q, names)
        assert a.equivalent(b) == brute_equivalent(p, q, names)
        picks = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
        events = [e for e, _ in picks]
        assert logically_independent(events) == brute_logically_independent(
            [p for _, p in picks], names_of(*events)
        )

    @DIFFERENTIAL
    @given(st.data())
    def test_shared_subformulas_fold_once(self, data):
        """Roots drawn from one pool share compound subformulas, repeat,
        and contain one another; one fold tables them all, each atom once."""
        pool = data.draw(formula_pools(atoms=4, steps=30))
        picks = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
        roots = [e for e, _ in picks]
        names = pool[0][0].universe.atoms
        assignments = list(truth_assignments(names))

        def brute_table(predicate):
            return sum(1 << i for i, a in enumerate(assignments) if predicate(a))

        expected = [brute_table(p) for _, p in picks]
        assert list(truth_tables(roots, names)) == expected
        tabled = []

        def atom(name):
            tabled.append(name)
            return brute_table(lambda a: a[name])

        assert list(_fold(roots, atom, (1 << len(assignments)) - 1)) == expected
        assert sorted(tabled) == sorted(set().union(*(e.atoms for e in roots)))
        for (e, _), table in zip(picks, expected):
            for i, assignment in enumerate(assignments):
                assert e.evaluate(assignment) == bool(table >> i & 1)

    @DIFFERENTIAL
    @given(st.data())
    def test_constituents(self, data):
        pool = data.draw(formula_pools())
        drawn = data.draw(st.lists(members(pool), min_size=1, max_size=3))
        family = [events for events, _ in drawn]
        names = names_of(*(e for cells, h in family for e in (h, *cells)))
        try:
            outside, inside = brute_constituents([preds for _, preds in drawn], names)
        except ValueError as expected:
            with pytest.raises(ValueError) as raised:
                constituents(family)
            if len(family) == 1:
                assert str(raised.value) == str(expected)
            return
        part = constituents(family)
        assert part.atoms == names
        if outside is None:
            assert part.outside is None
        else:
            assert part.outside.labels == (None,) * len(family)
            assert part.outside.assignments == outside
        assert [(c.labels, c.assignments) for c in part.inside] == inside

    @DIFFERENTIAL
    @given(st.data())
    def test_quantity_cells(self, data):
        pool = data.draw(formula_pools())
        (cells, h), (predicates, ph) = data.draw(members(pool))
        names = names_of(h, *cells)
        valued = [(cell, F(j)) for j, cell in enumerate(cells)]
        try:
            _, inside = brute_constituents([(predicates, ph)], names)
        except ValueError:
            with pytest.raises(ValueError):
                ConditionalRandomQuantity(h, valued)
            return
        kept = sorted(labels[0] for labels, _ in inside)
        assert ConditionalRandomQuantity(h, valued).restricted_values == tuple(kept)

    @DIFFERENTIAL
    @given(st.data())
    def test_values_agree_on_union(self, data):
        pool = data.draw(formula_pools())
        events, quantities, references = [], [], []
        for _ in range(2):
            (e, p), (h, ph) = data.draw(st.sampled_from(pool)), data.draw(st.sampled_from(pool))
            if brute_is_impossible(ph, names_of(h)):
                return
            prevision = data.draw(st.sampled_from((F(0), F(1, 2), F(1))))
            events += [e, h]
            quantities.append(conditional_event(e, h, prevision))
            cells = [(lambda a, p=p: p(a), F(1)), (lambda a, p=p: not p(a), F(0))]
            references.append((ph, cells, prevision))
        expected = brute_values_agree(*references, names_of(*events))
        assert values_agree_on_union(*quantities) == expected
