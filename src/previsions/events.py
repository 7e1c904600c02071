"""Propositional event algebra over a finite universe of named atoms.

Events are immutable formula trees over atoms, combined with ``&``,
``|`` and ``~`` (plus the sure and impossible constants), and parsed
from a small textual grammar where ``~`` binds tighter than ``&``,
which binds tighter than ``|``.  Semantic queries (implication,
impossibility, equivalence, constituent enumeration) compare truth
tables: over ``n`` ordered atoms an event is the ``2**n``-bit integer
whose bit ``i`` is its value at assignment ``i`` in
``itertools.product((False, True), repeat=n)`` order, first atom most
significant.  Tables and text are built without recursion, so formula
depth is not limited by the interpreter's stack; the universe's atom
cap bounds the tables' width.

A table query costs what it reads: each atom's table is one shift and
one XOR of the one before it, a block meets a conditioning event in one
``&``, subsets are tested as ``x & y == x`` rather than through a negated
operand, and a least assignment is sought in growing windows of the
first assignments, so its cost follows its index, not the table's width.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Callable, Container, Iterable, Iterator, Mapping, Sequence

DEFAULT_ATOM_LIMIT = 20

# Deepest formula the parser accepts, counting every operator and every
# pair of parentheses on the way down.  Parsing recurses once per level,
# so deeper input is refused as a syntax error instead of exhausting the
# interpreter's stack.
MAX_EVENT_DEPTH = 200

_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")

Assignment = Mapping[str, bool]


class InputError(ValueError):
    """An argument the caller got wrong, such as an input document's; the
    command line reports it as exit code 2, and any other error as a fault."""


class EventSyntaxError(InputError):
    """Malformed event expression; ``position`` is the 0-based offset into
    the source text where parsing failed."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class AtomLimitError(InputError):
    """Registering another atom would exceed the universe's atom cap."""


class ImpossibleConditioningError(InputError):
    """Conditioning on the impossible event is meaningless."""


class Universe:
    """Ordered registry of named atoms.

    Every event belongs to exactly one universe, and semantic queries may
    only combine events from the same universe.  The atom cap bounds the
    width of the ``2**k``-bit truth tables behind every query.
    """

    def __init__(self, atom_limit: int = DEFAULT_ATOM_LIMIT):
        if atom_limit < 1:
            raise InputError("atom_limit must be at least 1")
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
            raise InputError(f"invalid atom name {name!r}")
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
    that evaluate identically are interchangeable everywhere.  The
    operands of a connective are held as a tuple in ``_args``.
    """

    __slots__ = ("_universe", "_op", "_args", "_atoms", "_need")

    def __init__(
        self, universe: Universe, op: str, args, atoms: frozenset[str], need: int = 1
    ):
        self._universe = universe
        self._op = op
        self._args = args
        self._atoms = atoms
        # Ershov number: how many values evaluating the formula keeps alive
        # at once when the operand of larger need goes first.
        self._need = need

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
        return Event(self._universe, "not", (self,), self._atoms, self._need)

    def _combine(self, op: str, other: "Event") -> "Event":
        if not isinstance(other, Event):
            return NotImplemented
        _require_same_universe(self, other)
        need = max(self._need, other._need) + (self._need == other._need)
        return Event(self._universe, op, (self, other), self._atoms | other._atoms, need)

    def evaluate(self, assignment: Assignment) -> bool:
        """Truth value under a total assignment of the atoms used."""
        (value,) = _fold((self,), lambda name: int(bool(assignment[name])), 1)
        return bool(value)

    def is_impossible(self) -> bool:
        """True when no assignment satisfies the formula."""
        return not _tables(self)[0]

    def is_sure(self) -> bool:
        """True when every assignment satisfies the formula."""
        return (~self).is_impossible()

    def implies(self, other: "Event") -> bool:
        """True when no assignment makes this event true and ``other`` false."""
        mine, theirs = _tables(self, other)
        return mine & theirs == mine

    def equivalent(self, other: "Event") -> bool:
        """True when both events evaluate identically on all assignments."""
        mine, theirs = _tables(self, other)
        return mine == theirs

    def to_text(self) -> str:
        """Render as an expression the parser accepts."""
        # Precedence levels: or=1, and=2, not=3, atoms and constants=4.
        # Pending pieces, text or (event, context) pairs, sit on an
        # explicit stack, so formula depth is not limited by recursion.
        out = []
        pending: list = [(self, 1)]
        while pending:
            piece = pending.pop()
            if isinstance(piece, str):
                out.append(piece)
                continue
            event, context = piece
            op = event._op
            if op == "atom":
                out.append(event._args)
            elif op == "const":
                out.append("1" if event._args else "0")
            elif op == "not":
                out.append("~")
                pending.append((event._args[0], 3))
            else:
                left, right = event._args
                level = 2 if op == "and" else 1
                glue = " & " if op == "and" else " | "
                pieces = [(left, level), glue, (right, level)]
                if level < context:
                    pieces = ["(", *pieces, ")"]
                pending.extend(reversed(pieces))
        return "".join(out)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Event({self.to_text()!r})"


def logically_independent(events: Sequence[Event]) -> bool:
    """True when the events generate all ``2**n`` sign patterns.

    Equivalently, no conjunction of the events and their complements is
    impossible.
    """
    events = tuple(events)
    if not events:
        raise ValueError("need at least one event")
    partition = constituents([([e, ~e], e.universe.true()) for e in events])
    return len(partition.inside) == 2 ** len(events)


@dataclass(frozen=True)
class Constituent:
    """One block of the partition generated by a family of conditionals.

    ``labels`` holds, per family member, the index of the member cell the
    block falls in, or None when the block lies outside that member's
    conditioning event.  ``mask`` is the block's truth table over the
    partition's ``width`` atoms (see :func:`truth_tables`).
    """

    labels: tuple[int | None, ...]
    mask: int
    width: int

    @property
    def assignments(self) -> tuple[tuple[bool, ...], ...]:
        """The merged total truth assignments, as boolean tuples over the
        partition's atom order, in increasing order."""
        return tuple(_decode(i, self.width) for i in set_bits(self.mask))


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


def constituents(
    family: Iterable[tuple[Sequence[Event], Event]],
) -> ConstituentPartition:
    """Enumerate the partition generated by a family of conditionals.

    ``family`` is a sequence of ``(cells, conditioning)`` pairs where the
    cells partition the conditioning event (for a conditional event: the
    part where it holds and the part where it fails).  Every total
    assignment over the atoms used by the family is mapped to its vector
    of cell labels, and assignments with identical vectors are merged
    into one constituent (see :func:`refine`).
    """
    family = tuple((tuple(cells), conditioning) for cells, conditioning in family)
    if not family:
        raise ValueError("family must be nonempty")
    atoms, tables = split(family)
    members = [(given, cut(given, cells, atoms, atoms)) for given, cells in tables]
    return refine(atoms, members, family)


def refine(
    atoms: tuple[str, ...],
    members: Sequence[tuple[int, Sequence[int]]],
    family: tuple[tuple[tuple[Event, ...], Event], ...],
) -> ConstituentPartition:
    """The partition of ``family`` from each member's conditioning event
    and its parts inside the cells (see :func:`cut`), truth tables over
    ``atoms``, a frame holding every atom the family uses: starting from
    one block of every assignment, each member splits every block by
    those, so over one frame a subfamily's blocks merge the family's.
    A block meets a member's conditioning event in one ``&``; the rest of
    the block is the ``^`` of the two, and only a nonempty meet is split
    by the parts, which lie inside the conditioning event.  Blocks are
    ordered by their least assignment (see :func:`_least`)."""
    blocks = {(): _full(len(atoms))}
    for conditioning, parts in members:
        finer: dict[tuple[int | None, ...], int] = {}
        for labels, block in blocks.items():
            within = block & conditioning
            beyond = block ^ within
            if beyond:
                finer[labels + (None,)] = beyond
            if within:
                for label, part in enumerate(parts):
                    piece = within & part
                    if piece:
                        finer[labels + (label,)] = piece
        blocks = finer
    outside = blocks.pop((None,) * len(family), 0)
    inside = [Constituent(labels, mask, len(atoms)) for labels, mask in blocks.items()]
    # Bit order is assignment order, so a block's least set bit is its
    # least assignment; sorting by it makes reports deterministic.
    inside.sort(key=lambda block: _least(block.mask))
    outside = Constituent((None,) * len(family), outside, len(atoms)) if outside else None
    return ConstituentPartition(atoms, outside, tuple(inside), family)


def split(
    family: Sequence[tuple[Sequence[Event], Event]],
) -> tuple[tuple[str, ...], list[tuple[int, list[int]]]]:
    """The atoms a family of ``(cells, conditioning)`` members uses and,
    from one fold, each member's conditioning event and cell events as
    truth tables over them."""
    events = [e for cells, conditioning in family for e in (conditioning, *cells)]
    atoms = used_atoms(events)
    tables = iter(truth_tables(events, atoms))
    return atoms, [(next(tables), [next(tables) for _ in cells]) for cells, _ in family]


def cut(
    conditioning: int, cells: Sequence[int], atoms: Sequence[str], shown: Container[str]
) -> tuple[int, ...]:
    """The part of a conditioning event inside each cell, all truth tables
    over ``atoms``.  ImpossibleConditioningError for an impossible
    conditioning event; InputError unless the cells partition it, naming
    the least offending assignment restricted to the atoms in ``shown``:
    if they hold the events' atoms, the least offending one over them.
    The parts lie inside the conditioning event, so what they leave
    uncovered is the ``^`` of it and their union, and the least offending
    assignment is found by :func:`_least`."""
    if not conditioning:
        raise ImpossibleConditioningError("conditioning event is impossible")
    parts = tuple(cell & conditioning for cell in cells)
    covered = overlap = 0
    for part in parts:
        overlap |= covered & part
        covered |= part
    bad = overlap | (conditioning ^ covered)
    if bad:
        index = _least(bad)
        bits = zip(atoms, _decode(index, len(atoms)))
        assignment = {name: bit for name, bit in bits if name in shown}
        hits = sum(part >> index & 1 for part in parts)
        raise InputError(
            "cells must partition the conditioning event "
            f"(assignment {assignment} matched {hits} cells)"
        )
    return parts


def truth_tables(events: Sequence[Event], atoms: Sequence[str]) -> tuple[int, ...]:
    """Each event's truth table over ``atoms``, which must include every
    atom the events use (see the module docstring for the bit order).

    Atom ``k`` is false on the first ``half = 2**(width-1-k)``
    assignments, true on the next ``half``, and so on.  Shifting its table
    down by ``half // 2`` and XORing it back gives atom ``k + 1``, and the
    same step takes the sure event (``half = 2**width``) to atom 0.  The
    chain is built within the call as far as the last atom the events
    use, so each table costs one shift and one XOR, linear in
    ``2**width``; the connectives then act bitwise.  At the default cap of
    20 atoms every table is a 128 KiB integer.
    """
    width = len(atoms)
    position = {name: k for k, name in enumerate(atoms)}
    chain = [_full(width)]  # the sure event, then atoms 0, 1, ... as needed

    def atom(name: str) -> int:
        k = position[name] + 1
        while len(chain) <= k:
            table = chain[-1]
            chain.append(table ^ table >> (1 << (width - len(chain))))
        return chain[k]

    return _fold(events, atom, chain[0])


def set_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, increasing."""
    return (i for i, bit in enumerate(reversed(format(mask, "b"))) if bit == "1")


def used_atoms(events: Iterable[Event]) -> tuple[str, ...]:
    """The atoms the events use, in their universe's registration order."""
    events = tuple(events)
    used: set[str] = set()
    for e in events:
        _require_same_universe(events[0], e)
        used |= e.atoms
    return tuple(name for name in events[0].universe.atoms if name in used)


def _fold(roots: Sequence[Event], atom: Callable[[str], int], full: int) -> tuple[int, ...]:
    """The roots' values when atoms take the integers ``atom(name)``, the
    sure event is ``full`` and the connectives act bitwise.

    One walk lists each distinct subformula after its operands, the
    operand of larger ``_need`` first, and counts its readers: each
    parent, plus one per root.  A connective waits on the walk's stack
    under a ``None`` marker until its operands are listed.  One pass then
    evaluates the list and drops each value after its last reader, so a
    long chain holds a few values at a time, whichever side it grows on.
    Readers and values are keyed by the node itself, since an event
    hashes by identity.
    """
    reads: dict[Event, int] = {}
    order: list[Event] = []
    pending: list = list(roots)
    while pending:
        node = pending.pop()
        if node is None:  # the node below has all its operands listed
            order.append(pending.pop())
        elif node in reads:
            reads[node] += 1
        else:
            reads[node] = 1
            op = node._op
            if op == "and" or op == "or":
                later, sooner = node._args
                if later._need > sooner._need:  # the needier operand goes first
                    later, sooner = sooner, later
                pending += (node, None, later, sooner)
            elif op == "not":
                pending += (node, None, node._args[0])
            else:
                order.append(node)
    values: dict[Event, int] = {}
    for node in order:
        op, args = node._op, node._args
        if op == "atom":
            values[node] = atom(args)
            continue
        if op == "const":
            values[node] = full if args else 0
            continue
        if op == "not":
            values[node] = full ^ values[args[0]]
        elif op == "and":
            values[node] = values[args[0]] & values[args[1]]
        else:
            values[node] = values[args[0]] | values[args[1]]
        for child in args:
            reads[child] -= 1
            if not reads[child]:
                del values[child]
    return tuple(values[node] for node in roots)


def _tables(*events: Event) -> tuple[int, ...]:
    return truth_tables(events, used_atoms(events))


@functools.cache
def _full(width: int) -> int:
    """The truth table of the sure event over ``width`` atoms, built once
    per width and kept for the life of the process."""
    return (1 << (1 << width)) - 1


# The truth tables of the first ``2**k`` assignments, k = 6, 8, ..., 18,
# that :func:`_least` looks in; the widest is a quarter of a table at the
# default atom cap.
_WINDOWS = tuple(_full(k) for k in range(6, 20, 2))


def _least(mask: int) -> int:
    """The index of the least set bit of a nonzero truth table: its least
    assignment.  ``mask & -mask`` negates the whole table; this looks in
    the windows first, each ``&`` costing the window's width, so the
    search costs time linear in the index, not in the table's width, up
    to the widest window."""
    bits = mask.bit_length()
    for window in _WINDOWS:
        if window.bit_length() >= bits:
            break
        found = mask & window
        if found:
            return (found & -found).bit_length() - 1
    return (mask & -mask).bit_length() - 1


def _decode(index: int, width: int) -> tuple[bool, ...]:
    """Assignment ``index`` over ``width`` atoms, first atom most significant."""
    return tuple(bool(index >> (width - 1 - k) & 1) for k in range(width))


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