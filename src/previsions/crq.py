"""Conditional random quantities and compounds of two conditional events.

A conditional random quantity is the amount received in a conditional
bet: a finite quantity restricted to a conditioning event, together
with an optional agreed price (the prevision).  Once the prevision
``mu`` is attached, the bet pays the quantity when the conditioning
event is true and gives ``mu`` back when it is false, so the whole
object behaves like the unconditional amount ``quantity*H + mu*(1-H)``.
Conditional events are the {0,1}-valued special case, with the assessed
probability playing the role of the third value.

The compounds of two conditional events are conditional random
quantities too, built as exact value maps over the joint constituents:
the conjunction has its own case table, :func:`negation` is one minus a
quantity, and the disjunction is the negated conjunction of the negated
operands (De Morgan).  Apart from the quasi conjunction they are
generally *random quantities* rather than events: their values include
the operand previsions themselves.

Every quantity keeps the truth tables of its conditioning event and of
its kept cell events, over a tuple of atoms holding every atom they use.
Its checks read them, and so do the compounds: when both operands' tables
are over one tuple of atoms, a compound's tables are Boolean combinations
of theirs, computed bitwise, and no event is folded again.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Sequence

# The constructor raises ImpossibleConditioningError; it is importable here too.
from .events import Assignment, Event, ImpossibleConditioningError, constituents, cut, split

_ZERO = Fraction(0)
_ONE = Fraction(1)

Rational = Fraction | int | str


class ConditionalRandomQuantity:
    """A finite quantity restricted to a conditioning event.

    ``cells`` is a sequence of ``(event, value)`` pairs whose events
    partition the conditioning event; cells that are empty inside the
    conditioning event are dropped.  ``prevision`` is the optional agreed
    price, which also serves as the value taken when the conditioning
    event is false.  Instances are immutable.

    A quantity keeps the truth tables its checks read: its conditioning
    event's and each kept cell event's, over a tuple of atoms that holds
    every atom they use (its own, or those of the document it was built
    with; see :func:`_family`).
    """

    __slots__ = ("_conditioning", "_cells", "_prevision", "_atoms", "_given", "_raw")

    def __init__(
        self,
        conditioning: Event,
        cells: Iterable[tuple[Event, Rational]],
        prevision: Rational | None = None,
    ):
        staged = [(event, Fraction(value)) for event, value in cells]
        atoms, ((given, raw),) = split([([event for event, _ in staged], conditioning)])
        self._fill(conditioning, staged, prevision, atoms, given, raw)

    @classmethod
    def _from_tables(cls, conditioning, cells, prevision, atoms, given, raw):
        """The quantity the constructor builds, from the truth tables over
        ``atoms`` of its conditioning event (``given``) and of each cell
        event (``raw``) instead of a fold; the same checks run on them, and
        a failed one raises the constructor's error."""
        staged = [(event, Fraction(value)) for event, value in cells]
        quantity = cls.__new__(cls)
        try:
            quantity._fill(conditioning, staged, prevision, atoms, given, raw)
        except ValueError:
            # Raises again, naming an assignment over the quantity's own atoms.
            cls(conditioning, staged, prevision)
            raise
        return quantity

    def _fill(self, conditioning, staged, prevision, atoms, given, raw) -> None:
        """Check the cells on their tables and keep the nonempty ones."""
        parts = cut(given, raw, atoms)
        kept = [k for k, part in enumerate(parts) if part]
        self._conditioning = conditioning
        self._cells = tuple(staged[k] for k in kept)
        self._prevision = None if prevision is None else Fraction(prevision)
        self._atoms = atoms
        self._given = given
        self._raw = tuple(raw[k] for k in kept)

    def _split(self) -> tuple[int, tuple[int, ...]]:
        """Truth tables over ``_atoms``: the conditioning event's and its
        part inside each cell, as :func:`~previsions.events.refine` takes them."""
        return self._given, tuple(table & self._given for table in self._raw)

    @property
    def conditioning(self) -> Event:
        return self._conditioning

    @property
    def cells(self) -> tuple[tuple[Event, Fraction], ...]:
        return self._cells

    @property
    def prevision(self) -> Fraction | None:
        return self._prevision

    @property
    def universe(self):
        return self._conditioning.universe

    @property
    def restricted_values(self) -> tuple[Fraction, ...]:
        """Values attainable while the conditioning event is true."""
        return tuple(value for _, value in self._cells)

    @property
    def is_event(self) -> bool:
        """True when the quantity is (the indicator of) a conditional event."""
        return all(value in (_ZERO, _ONE) for value in self.restricted_values)

    def with_prevision(self, prevision: Rational) -> "ConditionalRandomQuantity":
        """A copy with the prevision slot (re)filled."""
        return self._with(self._cells, prevision)

    def _with(self, cells, prevision) -> "ConditionalRandomQuantity":
        """The quantity on the same conditioning and cell events, with
        these values and prevision, built from this one's truth tables."""
        return ConditionalRandomQuantity._from_tables(
            self._conditioning, cells, prevision, self._atoms, self._given, self._raw
        )

    def value_at(self, assignment: Assignment) -> Fraction:
        """The amount received at a total truth assignment.

        Outside the conditioning event this is the prevision, which must
        have been set.
        """
        if self._conditioning.evaluate(assignment):
            return next(value for event, value in self._cells if event.evaluate(assignment))
        if self._prevision is None:
            raise ValueError("prevision is not set")
        return self._prevision

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{e.to_text()}: {v}" for e, v in self._cells)
        return (
            f"ConditionalRandomQuantity({{{parts}}} | {self._conditioning.to_text()},"
            f" prevision={self._prevision})"
        )


def conditional_event(
    event: Event, conditioning: Event, prevision: Rational | None = None
) -> ConditionalRandomQuantity:
    """The indicator of ``event`` given ``conditioning``: 1 where both hold,
    0 where the conditioning holds without the event."""
    return ConditionalRandomQuantity(conditioning, _indicator(event, conditioning), prevision)


def _indicator(event: Event, conditioning: Event) -> list[tuple[Event, Fraction]]:
    """The cells of :func:`conditional_event`."""
    return [(event & conditioning, _ONE), (~event & conditioning, _ZERO)]


def _family(
    members: Sequence[tuple[Event, Sequence[tuple[Event, Rational]], Rational | None]],
) -> Iterator[ConditionalRandomQuantity]:
    """The quantities of ``(conditioning, cells, prevision)`` triples, in
    order, as the constructor builds them; every event is folded to its
    truth table in one pass, over the atoms the members use together."""
    if not members:
        return
    atoms, tables = split([([cell for cell, _ in cells], given) for given, cells, _ in members])
    for (conditioning, cells, prevision), (given, raw) in zip(members, tables):
        yield ConditionalRandomQuantity._from_tables(
            conditioning, cells, prevision, atoms, given, raw
        )


def scale(factor: Rational, quantity: ConditionalRandomQuantity) -> ConditionalRandomQuantity:
    """Multiply values (and the prevision, when set) by a constant."""
    factor = Fraction(factor)
    cells = [(event, factor * value) for event, value in quantity.cells]
    prevision = None if quantity.prevision is None else factor * quantity.prevision
    return ConditionalRandomQuantity(quantity.conditioning, cells, prevision)


def add(
    first: ConditionalRandomQuantity, second: ConditionalRandomQuantity
) -> ConditionalRandomQuantity:
    """Pointwise sum, conditioned on the disjunction of the conditionings.

    Each operand contributes its prevision where its own conditioning
    event fails, so both previsions must be set.  The result's prevision
    is the sum of the previsions, as coherence demands.
    """
    if first.prevision is None or second.prevision is None:
        raise ValueError("both previsions must be set to add conditional quantities")
    partition, paid = _joint_values(first, second)
    cells = [(partition.region(block), a + b) for block, (a, b) in zip(partition.inside, paid)]
    return ConditionalRandomQuantity(
        first.conditioning | second.conditioning, cells, first.prevision + second.prevision
    )


def iterated(
    quantity: ConditionalRandomQuantity, new_condition: Event
) -> ConditionalRandomQuantity:
    """Condition the filled-in quantity on a new event.

    The operand's prevision must be set; the result takes the operand's
    values where the old conditioning holds and the operand's prevision
    elsewhere inside the new conditioning event.  When the old
    conditioning implies the new one, the result coincides with the
    operand as a value map.
    """
    if quantity.prevision is None:
        raise ValueError("prevision must be set before iterating the conditioning")
    old = quantity.conditioning
    cells = [(event & old & new_condition, value) for event, value in quantity.cells]
    cells.append((~old & new_condition, quantity.prevision))
    return ConditionalRandomQuantity(new_condition, cells)


def values_agree_on_union(
    first: ConditionalRandomQuantity, second: ConditionalRandomQuantity
) -> bool:
    """True when both quantities pay the same amount at every assignment
    where at least one conditioning event holds (previsions fill in where
    one quantity's own conditioning fails)."""
    _, paid = _joint_values(first, second)
    return all(a == b for a, b in paid)


def _joint_values(first, second):
    """The constituents of two quantities and, per inside block, the pair
    of amounts they pay there (each prevision filling in outside its own
    conditioning event)."""
    pair = (first, second)
    partition = constituents([([e for e, _ in q.cells], q.conditioning) for q in pair])
    paid = [
        tuple(_filled(q, label) for q, label in zip(pair, block.labels))
        for block in partition.inside
    ]
    return partition, paid


def _filled(quantity, label):
    if label is not None:
        return quantity.cells[label][1]
    if quantity.prevision is None:
        raise ValueError("prevision is not set")
    return quantity.prevision


def gn_inclusion(
    first: ConditionalRandomQuantity, second: ConditionalRandomQuantity
) -> bool:
    """Goodman-Nguyen inclusion order on conditional events.

    The first conditional event is included in the second when the first
    being true forces the second true, and the second being false forces
    the first false.
    """
    first_true, first_cond, *_ = _event_parts(first)
    second_true, second_cond, *_ = _event_parts(second)
    first_false = first_cond & ~first_true
    second_false = second_cond & ~second_true
    return first_true.implies(second_true) and second_false.implies(first_false)


def conjunction(
    first: ConditionalRandomQuantity, second: ConditionalRandomQuantity
) -> ConditionalRandomQuantity:
    """Conjunction of two conditional events as a conditional random quantity.

    Realized on the disjunction of the conditioning events with value 1
    where both events hold, 0 where either fails inside its conditioning,
    and the operand previsions where exactly one bet is void.  Equals the
    pointwise minimum (and the pointwise product) of the filled-in
    operands, restricted to the disjunction.  The operand assessment must
    be coherent.
    """
    quantity = _conjoin(first, second)
    _require_coherent_operands(first, second)
    return quantity


def negation(quantity: ConditionalRandomQuantity) -> ConditionalRandomQuantity:
    """One minus the quantity, pointwise and in the prevision; an involution."""
    cells = [(event, _ONE - value) for event, value in quantity.cells]
    prevision = None if quantity.prevision is None else _ONE - quantity.prevision
    return quantity._with(cells, prevision)


def disjunction(
    first: ConditionalRandomQuantity, second: ConditionalRandomQuantity
) -> ConditionalRandomQuantity:
    """Disjunction of two conditional events, by De Morgan's law: the
    negation of the conjunction of the negated operands.

    Realized on the disjunction of the conditioning events with value 1
    where either event holds inside its conditioning, 0 where both fail,
    and the operand previsions where exactly one bet is void; the
    pointwise maximum of the filled-in operands.  The operand assessment
    must be coherent.
    """
    quantity = _disjoin(first, second)
    _require_coherent_operands(first, second)
    return quantity


def quasi_conjunction(
    first: ConditionalRandomQuantity, second: ConditionalRandomQuantity
) -> ConditionalRandomQuantity:
    """The three-valued conjunction: a genuine conditional event which is
    true when neither operand fails and at least one conditioning holds."""
    a_true, a_cond, ta, ca = _event_parts(first)
    b_true, b_cond, tb, cb = _event_parts(second)
    body = (a_true | ~a_cond) & (b_true | ~b_cond)
    conditioning, given = a_cond | b_cond, ca | cb
    table = (ta | ~ca) & (tb | ~cb)
    cells = _indicator(body, conditioning)
    return _joined(first, second, conditioning, cells, given, [table & given, ~table & given])


def _conjoin(
    first: ConditionalRandomQuantity, second: ConditionalRandomQuantity
) -> ConditionalRandomQuantity:
    """The cells of :func:`conjunction`, without its operand pair check;
    for operands coherent by construction or checked in a larger family."""
    x, y = first.prevision, second.prevision
    if x is None or y is None:
        raise ValueError("both operand previsions must be set")
    a_true, a_cond, ta, ca = _event_parts(first)
    b_true, b_cond, tb, cb = _event_parts(second)
    cells = [
        (a_true & b_true, _ONE),
        ((a_cond & ~a_true) | (b_cond & ~b_true), _ZERO),
        (~a_cond & b_true, x),
        (a_true & ~b_cond, y),
    ]
    raw = [ta & tb, (ca & ~ta) | (cb & ~tb), ~ca & tb, ta & ~cb]
    return _joined(first, second, a_cond | b_cond, cells, ca | cb, raw)


def _disjoin(
    first: ConditionalRandomQuantity, second: ConditionalRandomQuantity
) -> ConditionalRandomQuantity:
    """The cells of :func:`disjunction`, without its operand pair check."""
    return negation(_conjoin(negation(first), negation(second)))


def _joined(first, second, conditioning, cells, given, raw) -> ConditionalRandomQuantity:
    """The quantity of ``cells`` on ``conditioning``, events built from
    two operands.  ``given`` and ``raw`` are those events' truth tables,
    derived bitwise from the operands' (see :func:`_event_parts`); they are
    used when the operands' tables share one tuple of atoms, and otherwise
    the constructor folds the events itself."""
    if first._atoms != second._atoms:
        return ConditionalRandomQuantity(conditioning, cells)
    return ConditionalRandomQuantity._from_tables(
        conditioning, cells, None, first._atoms, given, raw
    )


def _event_parts(quantity: ConditionalRandomQuantity) -> tuple[Event, Event, int, int]:
    """Split a conditional event into (where it holds, its conditioning),
    as events and then as truth tables over the quantity's atoms."""
    if not quantity.is_event:
        raise ValueError("operand must be a conditional event (values in {0, 1})")
    conditioning, given = quantity.conditioning, quantity._given
    ones, table = None, 0
    for (event, value), raw in zip(quantity.cells, quantity._raw):
        if value == _ONE:
            ones = event if ones is None else ones | event
            table |= raw
    if ones is None:
        return conditioning.universe.false(), conditioning, 0, given
    if table & ~given:  # the cells reach outside the conditioning event
        ones, table = ones & conditioning, table & given
    return ones, conditioning, table, given


def _require_coherent_operands(first, second) -> None:
    from . import coherence

    report = coherence.check_coherence(coherence.Assessment((first, second)))
    if not report.coherent:
        raise coherence.IncoherentAssessmentError("operand previsions are not coherent")
