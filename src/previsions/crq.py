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

Every quantity keeps the truth tables of its conditioning event and kept
cell events over its *frame*, a tuple of atoms holding every atom they
use.  Whatever combines several quantities' tables (a compound, their
constituents) reads them off quantities on one frame, as
:func:`_shared` gives them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Sequence

# The constructor raises ImpossibleConditioningError; it is importable here too.
from .events import Assignment, Event, ImpossibleConditioningError, InputError, cut, refine
from .events import split, truth_tables

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

    A quantity keeps the truth tables its checks read, its conditioning
    event's and each kept cell event's, over its frame (see the module
    docstring): its own atoms, or those of the document it was built with.
    """

    __slots__ = ("_conditioning", "_cells", "_prevision", "_atoms", "_given", "_raw")

    def __init__(
        self,
        conditioning: Event,
        cells: Iterable[tuple[Event, Rational]],
        prevision: Rational | None = None,
    ):
        staged = [(event, Fraction(value)) for event, value in cells]
        prevision = None if prevision is None else Fraction(prevision)
        atoms, ((given, raw),) = split([([event for event, _ in staged], conditioning)])
        self._fill(conditioning, staged, prevision, atoms, given, raw)

    @classmethod
    def _from_tables(cls, conditioning, cells, prevision, atoms, given, raw):
        """The quantity the constructor builds, from the truth tables over
        ``atoms`` of its conditioning event (``given``) and of each cell
        event (``raw``) instead of a fold; the same checks run on them, and
        a failed one raises the constructor's error.  The cell values and
        a set prevision are taken as they are, already ``Fraction`` values."""
        quantity = cls.__new__(cls)
        quantity._fill(conditioning, cells, prevision, atoms, given, raw)
        return quantity

    def _fill(self, conditioning, cells, prevision, atoms, given, raw) -> None:
        """Check the cells on their tables and keep the nonempty ones; an
        error names an assignment over the atoms of the quantity's events."""
        parts = cut(
            given, raw, atoms, lambda: conditioning.atoms.union(*(e.atoms for e, _ in cells))
        )
        if not all(parts):
            kept = [k for k, part in enumerate(parts) if part]
            cells, raw = [cells[k] for k in kept], [raw[k] for k in kept]
        self._conditioning = conditioning
        self._cells = tuple(cells)
        self._prevision = prevision
        self._atoms = atoms
        self._given = given
        self._raw = tuple(raw)

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
        return self._with(self._cells, None if prevision is None else Fraction(prevision))

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
        return _filled(self, None)

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
    members: Sequence[tuple[Event, Sequence[tuple[Event, Fraction]], Fraction | None]],
) -> Iterator[ConditionalRandomQuantity]:
    """The quantities of ``(conditioning, cells, prevision)`` triples, in
    order, as the constructor builds them from the same ``Fraction``
    values; every event is folded to its truth table in one pass, over the
    atoms the members use together."""
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
    return quantity._with(cells, prevision)


def add(
    first: ConditionalRandomQuantity, second: ConditionalRandomQuantity
) -> ConditionalRandomQuantity:
    """Pointwise sum, conditioned on the disjunction of the conditionings.

    Each operand contributes its prevision where its own conditioning
    event fails, so both previsions must be set.  The result's prevision
    is the sum of the previsions, as coherence demands.
    """
    prevision = _filled(first, None) + _filled(second, None)
    partition, paid = _joint_values(first, second)
    cells = [(partition.region(block), a + b) for block, (a, b) in zip(partition.inside, paid)]
    # The blocks' masks are their regions' tables, and together the conditioning event's.
    masks = [block.mask for block in partition.inside]
    conditioning = first.conditioning | second.conditioning
    return ConditionalRandomQuantity._from_tables(
        conditioning, cells, prevision, partition.atoms, sum(masks), masks
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

    When the operand's frame holds the new event's atoms, only that event
    is folded, over the frame, and the result stays on it.
    """
    prevision = _filled(quantity, None)
    old = quantity.conditioning
    cells = [(event & old & new_condition, value) for event, value in quantity.cells]
    cells.append((~old & new_condition, prevision))
    atoms = quantity._atoms
    if new_condition.universe is not quantity.universe or not new_condition.atoms <= set(atoms):
        return ConditionalRandomQuantity(new_condition, cells)
    (new,) = truth_tables([new_condition], atoms)
    inside = quantity._given & new
    raw = [table & inside for table in quantity._raw] + [new ^ inside]
    return ConditionalRandomQuantity._from_tables(new_condition, cells, None, atoms, new, raw)


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
    partition = _constituents(_shared((first, second)))
    paid = [tuple(map(_filled, (first, second), block.labels)) for block in partition.inside]
    return partition, paid


def _filled(quantity, label):
    """What ``quantity`` pays in its cell ``label``, or outside its
    conditioning event (``label`` None) its prevision, which must be set."""
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
    _, _, (first_true, first_cond, second_true, second_cond) = _event_parts(first, second)
    first_false, second_false = first_cond ^ first_true, second_cond ^ second_true
    return first_true & second_true == first_true and second_false & first_false == second_false


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

    def cases(a, a_cond, b, b_cond):
        conditioning = a_cond | b_cond
        return conditioning, _indicator((a | ~a_cond) & (b | ~b_cond), conditioning)

    return _compound(first, second, cases)


def _conjoin(
    first: ConditionalRandomQuantity, second: ConditionalRandomQuantity
) -> ConditionalRandomQuantity:
    """The cells of :func:`conjunction`, without its operand pair check;
    for operands coherent by construction or checked in a larger family."""
    x, y = _filled(first, None), _filled(second, None)

    def cases(a, a_cond, b, b_cond):
        return a_cond | b_cond, [
            (a & b, _ONE),
            ((a_cond & ~a) | (b_cond & ~b), _ZERO),
            (~a_cond & b, x),
            (a & ~b_cond, y),
        ]

    return _compound(first, second, cases)


def _disjoin(
    first: ConditionalRandomQuantity, second: ConditionalRandomQuantity
) -> ConditionalRandomQuantity:
    """The cells of :func:`disjunction`, without its operand pair check."""
    return negation(_conjoin(negation(first), negation(second)))


def _compound(first, second, cases) -> ConditionalRandomQuantity:
    """The compound that ``cases`` builds from where each operand holds and
    its conditioning: run on their events, then bitwise on their tables."""
    atoms, events, tables = _event_parts(first, second)
    conditioning, cells = cases(*events)
    given, raw = cases(*tables)
    return ConditionalRandomQuantity._from_tables(
        conditioning, cells, None, atoms, given, [table for table, _ in raw]
    )


def _event_parts(first, second):
    """The frame two conditional events share (see :func:`_shared`), then
    where each holds and its conditioning, as events and as truth tables
    over it."""
    if not (first.is_event and second.is_event):
        raise InputError("operand must be a conditional event (values in {0, 1})")
    shared = _shared((first, second))
    events, tables = (), ()
    for quantity in shared:
        conditioning, given, ones, table = quantity.conditioning, quantity._given, None, 0
        for (event, value), cell in zip(quantity.cells, quantity._raw):
            if value == _ONE:
                ones = event if ones is None else ones | event
                table |= cell
        if ones is None:
            ones = conditioning.universe.false()
        elif table & given != table:  # the cells reach outside the conditioning event
            ones, table = ones & conditioning, table & given
        events += (ones, conditioning)
        tables += (table, given)
    return shared[0]._atoms, events, tables


def _shared(quantities: Sequence[ConditionalRandomQuantity]):
    """The quantities themselves if all share a frame and a universe, else
    the same quantities rebuilt by :func:`_family` from one fold of all
    their events over the atoms they use (or a universe error)."""
    atoms, universe = quantities[0]._atoms, quantities[0].universe
    if all(q._atoms == atoms and q.universe is universe for q in quantities):
        return tuple(quantities)
    return tuple(_family([(q.conditioning, q.cells, q.prevision) for q in quantities]))


def _constituents(quantities: Sequence[ConditionalRandomQuantity]):
    """The constituents that quantities sharing a frame (see
    :func:`_shared`) generate, from their conditioning and kept cell tables."""
    family = tuple((tuple(event for event, _ in q.cells), q.conditioning) for q in quantities)
    tables = [(q._given, [cell & q._given for cell in q._raw]) for q in quantities]
    return refine(quantities[0]._atoms, tables, family)


def _require_coherent_operands(first, second) -> None:
    from . import coherence

    report = coherence.check_coherence(coherence.Assessment((first, second)))
    if not report.coherent:
        raise coherence.IncoherentAssessmentError("operand previsions are not coherent")
