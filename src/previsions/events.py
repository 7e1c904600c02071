"""Propositional event algebra over a finite universe of named atoms.

Events are immutable formula trees over atoms, combined with ``&``,
``|`` and ``~`` (plus the sure and impossible constants), and parsed
from a small textual grammar where ``~`` binds tighter than ``&``,
which binds tighter than ``|``.  All semantic queries (implication,
impossibility, equivalence, constituent enumeration) are decided by
exhaustive evaluation over the total truth assignments of the atoms
actually used.  The universe enforces a configurable atom cap so those
enumerations stay bounded; at desk scale exactness beats cleverness.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

DEFAULT_ATOM_LIMIT = 20

# Deepest formula the parser accepts, counting every operator and every
# pair of parentheses on the way down.  Evaluation and rendering recurse
# once per level, so deeper input is refused as a syntax error instead of
# exhausting the interpreter's stack.
MAX_EVENT_DEPTH = 200

_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")

Assignment = Mapping[str, bool]


class EventSyntaxError(ValueError):
    """Malformed event expression; ``position`` is the 0-based offset into
    the source text where parsing failed."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class AtomLimitError(ValueError):
    """Registering another atom would exceed the universe's atom cap."""


class Universe:
    """Ordered registry of named atoms.

    Every event belongs to exactly one universe, and semantic queries may
    only combine events from the same universe.  The atom cap bounds the
    2**k truth-table enumerations behind every query.
    """

    def __init__(self, atom_limit: int = DEFAULT_ATOM_LIMIT):
        if atom_limit < 1:
            raise ValueError("atom_limit must be at least 1")
        self._limit = int(atom_limit)
        self._atoms: dict[str, Event] = {}

    @property
    def atoms(self) -> tuple[str, ...]:
        """Atom names in registration order."""
        return tuple(self._atoms)

    @property
    def atom_limit(self) -> int:
        return self._limit

    def atom(self, name: str) -> Event:
        """Return the atom called ``name``, registering it if new."""
        existing = self._atoms.get(name)
        if existing is not None:
            return existing
        if not _IDENT.fullmatch(name):
            raise ValueError(f"invalid atom name {name!r}")
        if len(self._atoms) >= self._limit:
            raise AtomLimitError(f"universe is capped at {self._limit} atoms")
        event = Event(self, "atom", name, frozenset((name,)))
        self._atoms[name] = event
        return event

    def true(self) -> Event:
        """The sure event."""
        return Event(self, "const", True, frozenset())

    def false(self) -> Event:
        """The impossible event."""
        return Event(self, "const", False, frozenset())

    def parse(self, text: str) -> Event:
        """Parse an expression; atoms it mentions are registered here.

        Grammar: ``expr := term ('|' term)*``, ``term := factor ('&'
        factor)*``, ``factor := '~' factor | atom | '(' expr ')' | '1' |
        '0'``.
        """
        return _Parser(self, text).parse()


class Event:
    """A propositional formula over the atoms of one universe.

    Only semantic queries are exposed; two structurally different formulas
    that evaluate identically are interchangeable everywhere.
    """

    __slots__ = ("_universe", "_op", "_args", "_atoms")

    def __init__(self, universe: Universe, op: str, args, atoms: frozenset[str]):
        self._universe = universe
        self._op = op
        self._args = args
        self._atoms = atoms

    @property
    def universe(self) -> Universe:
        return self._universe

    @property
    def atoms(self) -> frozenset[str]:
        """Names of the atoms appearing in the formula."""
        return self._atoms

    def __and__(self, other: "Event") -> "Event":
        return self._combine("and", other)

    def __or__(self, other: "Event") -> "Event":
        return self._combine("or", other)

    def __invert__(self) -> "Event":
        return Event(self._universe, "not", self, self._atoms)

    def _combine(self, op: str, other: "Event") -> "Event":
        if not isinstance(other, Event):
            return NotImplemented
        _require_same_universe(self, other)
        return Event(self._universe, op, (self, other), self._atoms | other._atoms)

    def evaluate(self, assignment: Assignment) -> bool:
        """Truth value under a total assignment of the atoms used."""
        op = self._op
        if op == "atom":
            return bool(assignment[self._args])
        if op == "const":
            return self._args
        if op == "not":
            return not self._args.evaluate(assignment)
        left, right = self._args
        if op == "and":
            return left.evaluate(assignment) and right.evaluate(assignment)
        return left.evaluate(assignment) or right.evaluate(assignment)

    def is_impossible(self) -> bool:
        """True when no assignment satisfies the formula."""
        return not any(self.evaluate(a) for a in assignments(sorted(self._atoms)))

    def is_sure(self) -> bool:
        """True when every assignment satisfies the formula."""
        return all(self.evaluate(a) for a in assignments(sorted(self._atoms)))

    def implies(self, other: "Event") -> bool:
        """True when no assignment makes this event true and ``other`` false."""
        _require_same_universe(self, other)
        names = _ordered_atoms(self._universe, (self, other))
        return all(other.evaluate(a) for a in assignments(names) if self.evaluate(a))

    def equivalent(self, other: "Event") -> bool:
        """True when both events evaluate identically on all assignments."""
        _require_same_universe(self, other)
        names = _ordered_atoms(self._universe, (self, other))
        return all(self.evaluate(a) == other.evaluate(a) for a in assignments(names))

    def to_text(self) -> str:
        """Render as an expression the parser accepts."""
        return self._render(1)

    def _render(self, context: int) -> str:
        # Precedence levels: or=1, and=2, not=3, atoms and constants=4.
        op = self._op
        if op == "atom":
            return self._args
        if op == "const":
            return "1" if self._args else "0"
        if op == "not":
            return "~" + self._args._render(3)
        left, right = self._args
        level = 2 if op == "and" else 1
        glue = " & " if op == "and" else " | "
        text = left._render(level) + glue + right._render(level)
        if level < context:
            return "(" + text + ")"
        return text

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Event({self.to_text()!r})"


def implies(a: Event, b: Event) -> bool:
    """Functional form of :meth:`Event.implies`."""
    return a.implies(b)


def is_impossible(a: Event) -> bool:
    """Functional form of :meth:`Event.is_impossible`."""
    return a.is_impossible()


def logically_independent(events: Sequence[Event]) -> bool:
    """True when the events generate all ``2**n`` sign patterns.

    Equivalently, no conjunction of the events and their complements is
    impossible.
    """
    events = tuple(events)
    if not events:
        raise ValueError("need at least one event")
    for e in events[1:]:
        _require_same_universe(events[0], e)
    names = _ordered_atoms(events[0].universe, events)
    patterns = {tuple(e.evaluate(a) for e in events) for a in assignments(names)}
    return len(patterns) == 2 ** len(events)


@dataclass(frozen=True)
class Constituent:
    """One block of the partition generated by a family of conditionals.

    ``labels`` holds, per family member, the index of the member cell the
    block falls in, or None when the block lies outside that member's
    conditioning event.  ``assignments`` lists the merged total truth
    assignments, as boolean tuples over the partition's atom order.
    """

    labels: tuple[int | None, ...]
    assignments: tuple[tuple[bool, ...], ...]


@dataclass(frozen=True)
class ConstituentPartition:
    """Constituents of a family, split into the block outside every
    conditioning event (``outside``, may be absent) and the blocks inside
    their disjunction, in canonical order (by least contained assignment)."""

    atoms: tuple[str, ...]
    outside: Constituent | None
    inside: tuple[Constituent, ...]
    family: tuple[tuple[tuple[Event, ...], Event], ...]

    def region(self, constituent: Constituent) -> Event:
        """The constituent as an event, conjoining one cell per member."""
        universe = self.family[0][1].universe
        acc = universe.true()
        for (cells, conditioning), label in zip(self.family, constituent.labels):
            if label is None:
                acc = acc & ~conditioning
            else:
                acc = acc & (conditioning & cells[label])
        return acc

    def assignment_maps(self, constituent: Constituent) -> list[dict[str, bool]]:
        """The constituent's assignments as name-to-truth mappings."""
        return [dict(zip(self.atoms, bits)) for bits in constituent.assignments]


def constituents(
    family: Iterable[tuple[Sequence[Event], Event]],
) -> ConstituentPartition:
    """Enumerate the partition generated by a family of conditionals.

    ``family`` is a sequence of ``(cells, conditioning)`` pairs where the
    cells partition the conditioning event (for a conditional event: the
    part where it holds and the part where it fails).  Every total
    assignment over the atoms used by the family is mapped to its vector
    of cell labels, and assignments with identical vectors are merged
    into one constituent.
    """
    normalized: list[tuple[tuple[Event, ...], Event]] = []
    for cells, conditioning in family:
        normalized.append((tuple(cells), conditioning))
    if not normalized:
        raise ValueError("family must be nonempty")
    universe = normalized[0][1].universe
    everything: list[Event] = []
    for cells, conditioning in normalized:
        for e in (*cells, conditioning):
            _require_same_universe(normalized[0][1], e)
            everything.append(e)
        if conditioning.is_impossible():
            raise ValueError("conditioning event is impossible")
    names = _ordered_atoms(universe, everything)

    groups: dict[tuple[int | None, ...], list[tuple[bool, ...]]] = {}
    for bits in itertools.product((False, True), repeat=len(names)):
        assignment = dict(zip(names, bits))
        labels: list[int | None] = []
        for cells, conditioning in normalized:
            if not conditioning.evaluate(assignment):
                labels.append(None)
            else:
                hits = [j for j, cell in enumerate(cells) if cell.evaluate(assignment)]
                if len(hits) != 1:
                    raise ValueError(
                        "cells must partition the conditioning event "
                        f"(assignment {assignment} matched {len(hits)} cells)"
                    )
                labels.append(hits[0])
        groups.setdefault(tuple(labels), []).append(bits)

    outside_key = (None,) * len(normalized)
    outside_bits = groups.pop(outside_key, None)
    outside = None
    if outside_bits is not None:
        outside = Constituent(outside_key, tuple(outside_bits))
    # Enumeration order is increasing, so each group's first assignment is
    # its least one; sorting by it makes reports deterministic.
    inside = tuple(
        Constituent(labels, tuple(bits))
        for labels, bits in sorted(groups.items(), key=lambda kv: kv[1][0])
    )
    return ConstituentPartition(tuple(names), outside, inside, tuple(normalized))


def assignments(names: Sequence[str]) -> Iterator[dict[str, bool]]:
    """All total truth assignments over ``names``, False before True."""
    for bits in itertools.product((False, True), repeat=len(names)):
        yield dict(zip(names, bits))


def _ordered_atoms(universe: Universe, events: Iterable[Event]) -> tuple[str, ...]:
    used: set[str] = set()
    for e in events:
        used |= e.atoms
    return tuple(name for name in universe.atoms if name in used)


def _require_same_universe(a: Event, b: Event) -> None:
    if a.universe is not b.universe:
        raise ValueError("events belong to different universes")


class _Parser:
    """Recursive-descent parser; each rule returns the node and its depth."""

    def __init__(self, universe: Universe, text: str):
        self._universe = universe
        self._text = text
        self._pos = 0

    def parse(self) -> Event:
        node, _ = self._expr(0)
        self._skip_space()
        if self._pos != len(self._text):
            raise EventSyntaxError("unexpected input", self._pos)
        return node

    def _expr(self, nesting: int) -> tuple[Event, int]:
        node, depth = self._term(nesting)
        while self._peek() == "|":
            self._pos += 1
            right, right_depth = self._term(nesting)
            node, depth = node | right, self._deeper(max(depth, right_depth))
        return node, depth

    def _term(self, nesting: int) -> tuple[Event, int]:
        node, depth = self._factor(nesting)
        while self._peek() == "&":
            self._pos += 1
            right, right_depth = self._factor(nesting)
            node, depth = node & right, self._deeper(max(depth, right_depth))
        return node, depth

    def _factor(self, nesting: int) -> tuple[Event, int]:
        ch = self._peek()
        if ch is None:
            raise EventSyntaxError("unexpected end of input", self._pos)
        if ch in "~(":
            # ``nesting`` counts the negations and parentheses open here,
            # which bounds the parser's own recursion.
            self._deeper(nesting)
        if ch == "~":
            self._pos += 1
            node, depth = self._factor(nesting + 1)
            return ~node, self._deeper(depth)
        if ch == "(":
            self._pos += 1
            node, depth = self._expr(nesting + 1)
            if self._peek() != ")":
                raise EventSyntaxError("expected ')'", self._pos)
            self._pos += 1
            return node, self._deeper(depth)
        if ch == "1":
            self._pos += 1
            return self._universe.true(), 0
        if ch == "0":
            self._pos += 1
            return self._universe.false(), 0
        match = _IDENT.match(self._text, self._pos)
        if match is None:
            raise EventSyntaxError("expected an atom, '~', '(', '1' or '0'", self._pos)
        self._pos = match.end()
        return self._universe.atom(match.group()), 0

    def _deeper(self, depth: int) -> int:
        """``depth + 1``, or a syntax error past :data:`MAX_EVENT_DEPTH`."""
        if depth >= MAX_EVENT_DEPTH:
            raise EventSyntaxError(
                f"formula is nested deeper than {MAX_EVENT_DEPTH} levels", self._pos
            )
        return depth + 1

    def _peek(self) -> str | None:
        self._skip_space()
        if self._pos < len(self._text):
            return self._text[self._pos]
        return None

    def _skip_space(self) -> None:
        while self._pos < len(self._text) and self._text[self._pos].isspace():
            self._pos += 1
