"""Seeded benchmark documents, their expected results, and the checks.

Every event is generated together with its truth table: an int whose bit
``w`` is the event's value in world ``w``.  Atom ``i`` of ``k`` is true in
world ``w`` when bit ``k - 1 - i`` of ``w`` is set.  That is the order in
which the library enumerates assignments (first atom most significant),
so blocks sorted by their least world come out in the library's canonical
constituent order.

Nothing here imports the library.  Previsions, expected verdicts and the
checks in :func:`verify` come from the truth tables alone, so generation
time does not move with library changes and a wrong report cannot vouch
for itself.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

COMPOUND_KINDS = ("conjunction", "disjunction", "quasi-conjunction")

# Distinct value points (see :func:`distinct_points`) allowed in a
# ``check-random`` and an ``extend-compound`` family.  LP cost grows
# steeply with that count, so one narrow window keeps the cost of a
# seed's documents alike and the per-run figures steady across seeds.
CHECK_RANDOM_POINTS = range(28, 36)
EXTEND_COMPOUND_POINTS = range(12, 22)


@dataclass(frozen=True)
class Member:
    """One family member as truth tables: conditioning, cells, prevision."""

    given: int
    cells: tuple[tuple[int, Fraction], ...]
    prevision: Fraction


@dataclass(frozen=True)
class Case:
    """One generated document and what a correct report must say."""

    command: str
    payload: dict
    extra_args: tuple[str, ...]
    members: tuple[Member, ...]
    coherent: bool
    levels: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    target_prevision: Fraction | None = None


class Tables:
    """Truth tables of the atoms ``a0 .. a{k-1}``."""

    def __init__(self, k: int):
        n = 1 << k
        self.k = k
        self.full = (1 << n) - 1
        self.names = [f"a{i}" for i in range(k)]
        self.atom = [
            int(("1" * (n >> (i + 1)) + "0" * (n >> (i + 1))) * (1 << i), 2)
            for i in range(k)
        ]

    def literal(self, i: int, positive: bool) -> tuple[str, int]:
        if positive:
            return self.names[i], self.atom[i]
        return "~" + self.names[i], self.full ^ self.atom[i]

    def join(self, op: str, parts: list[tuple[str, int]]) -> tuple[str, int]:
        """Conjoin (``&``) or disjoin (``|``) formulas, parenthesizing each."""
        mask = self.full if op == "&" else 0
        for _, part in parts:
            mask = mask & part if op == "&" else mask | part
        if len(parts) == 1:
            return parts[0]
        return f" {op} ".join(f"({text})" if " " in text else text for text, _ in parts), mask

    def small(self, rng: random.Random, atoms: int) -> tuple[str, int]:
        """One or two literals on distinct atoms, conjoined or disjoined."""
        chosen = rng.sample(range(self.k), rng.randint(1, atoms))
        lits = [self.literal(i, rng.random() < 0.5) for i in chosen]
        return self.join(rng.choice("&|"), lits)

    def clause(self, rng: random.Random, atoms: list[int]) -> tuple[str, int]:
        return self.join("|", [self.literal(i, rng.random() < 0.5) for i in atoms])


@functools.cache
def tables(k: int) -> Tables:
    return Tables(k)


def mass(mask: int, marginals: list[int], atom: int = 0) -> int:
    """Probability of a truth table under the product distribution where
    atom ``i`` is true with probability ``marginals[i] / 10``, in units of
    ``10**-len(marginals)``.  Splits on one atom at a time; constant and
    atom-independent halves end the recursion early."""
    rest = len(marginals) - atom
    if mask == 0:
        return 0
    if mask == (1 << (1 << rest)) - 1:
        return 10**rest
    half = 1 << (rest - 1)
    low, high = mask & ((1 << half) - 1), mask >> half
    if low == high:
        return 10 * mass(low, marginals, atom + 1)
    m = marginals[atom]
    return (10 - m) * mass(low, marginals, atom + 1) + m * mass(high, marginals, atom + 1)


def event_member(given: int, event: int, prevision: Fraction) -> Member:
    cells = tuple((c, v) for c, v in ((event & given, ONE), (given & ~event, ZERO)) if c)
    return Member(given, cells, prevision)


def document(tables: Tables, texts: list[tuple[str, str]], members: list[Member]) -> dict:
    return {
        "atoms": list(tables.names),
        "members": [
            {"quantity": e, "given": h, "prevision": str(m.prevision)}
            for (e, h), m in zip(texts, members)
        ],
    }


def price(tables: Tables, rng: random.Random, family) -> tuple[list, list[Member], list[int]]:
    """Price conditional events ``((event text, table), (given text, table))``
    by a product distribution with marginals drawn from {1/10 .. 9/10}."""
    marginals = [rng.randint(1, 9) for _ in range(tables.k)]
    texts, members = [], []
    for (e_text, e), (h_text, h) in family:
        texts.append((e_text, h_text))
        members.append(event_member(h, e, Fraction(mass(e & h, marginals), mass(h, marginals))))
    return texts, members, marginals


def distinct_points(family) -> int:
    """Number of distinct value points of a family of conditional events,
    found from the truth tables before pricing.  A constituent's point
    holds, per member, 1 or 0 inside its conditioning and the prevision
    outside it; that prevision is 1 or 0 when the conditioning implies the
    event or its negation, and strictly between otherwise.  The LP's cost
    follows this count much more closely than the constituent count."""
    union = 0
    for _, (_, h) in family:
        union |= h
    blocks = [(union, ())]
    for (_, e), (_, h) in family:
        outside = 1 if not h & ~e else 0 if not h & e else None
        blocks = [
            (part, values + (value,))
            for b, values in blocks
            for part, value in ((b & ~h, outside), (b & h & e, 1), (b & h & ~e, 0))
            if part
        ]
    return len({values for _, values in blocks})


def single_level(members) -> tuple:
    return ((tuple(range(len(members))), ()),)


# -- workloads -------------------------------------------------------------


def check_random(rng: random.Random, index: int) -> Case:
    """8 random conditional events over 10 atoms, each a one- or two-literal
    event given a conjunction of 3 literals, priced by a product
    distribution: coherent, one level, 28-35 distinct value points."""
    t = tables(10)
    while True:
        family = [
            (t.small(rng, 2), t.join("&", [t.literal(i, rng.random() < 0.5) for i in rng.sample(range(t.k), 3)]))
            for _ in range(8)
        ]
        if distinct_points(family) in CHECK_RANDOM_POINTS:
            break
    texts, members, _ = price(t, rng, family)
    return Case("check", document(t, texts, members), (), tuple(members), True, single_level(members))


def check_zero_mass(rng: random.Random, index: int) -> Case:
    """8 members over 6 atoms with 0/1 previsions read off a lexicographic
    sequence of distinct worlds; member ``j`` is conditioned on an event
    first true in world ``j * 4 // 8``.  Odd documents get one
    prevision flipped, and the verdict and levels to expect come from the
    0/1 recursion in :func:`zero_one_levels`."""
    t = tables(6)
    n, worlds = 8, 4
    sequence = rng.sample(range(1 << t.k), worlds)
    texts, members = [], []
    for j in range(n):
        first = sequence[j * worlds // n]
        earlier = sequence[: j * worlds // n]
        chosen: list[int] = []
        width = rng.randint(1, 3)
        for i in rng.sample(range(t.k), t.k):
            separated = all(any((w ^ first) >> (t.k - 1 - a) & 1 for a in chosen) for w in earlier)
            if separated and len(chosen) >= width:
                break
            chosen.append(i)
        given = t.join("&", [t.literal(i, bool(first >> (t.k - 1 - i) & 1)) for i in chosen])
        event = t.small(rng, 2)
        prevision = ONE if event[1] >> first & 1 else ZERO
        texts.append((event[0], given[0]))
        members.append(event_member(given[1], event[1], prevision))
    if index % 2:
        j = rng.randrange(n)
        members[j] = event_member(
            members[j].given, _event_mask(members[j]), ONE - members[j].prevision
        )
    coherent, levels = zero_one_levels(members)
    return Case("check", document(t, texts, members), (), tuple(members), coherent, levels)


def check_wide(rng: random.Random, index: int) -> Case:
    """3 members over 16 atoms, each a 3x3 clause formula given a 3-literal
    clause on 12 distinct atoms, priced by a product distribution: at most
    27 constituents, but 2**16 assignments."""
    t = tables(16)
    while True:
        picks = [rng.sample(range(t.k), 12) for _ in range(3)]
        if len(set().union(*picks)) == t.k:
            break
    family = [
        (t.join("&", [t.clause(rng, atoms[c : c + 3]) for c in (0, 3, 6)]), t.clause(rng, atoms[9:]))
        for atoms in picks
    ]
    texts, members, _ = price(t, rng, family)
    return Case("check", document(t, texts, members), (), tuple(members), True, single_level(members))


def extend_compound(rng: random.Random, index: int) -> Case:
    """``extend`` of a compound of members 0 and 1 over 5 members and 7
    atoms, priced by a product distribution, with 12-21 distinct value
    points.  Members 2..4 are conditioned inside ``H0 | H1``, as
    ``extend`` requires.  The target kind cycles through
    :data:`COMPOUND_KINDS`."""
    t = tables(7)
    while True:
        family = [(t.small(rng, 2), t.small(rng, 2)) for _ in range(2)]
        cover = t.join("|", [given for _, given in family])
        for _ in range(3):
            given = t.small(rng, 2)
            while not given[1] & cover[1]:
                given = t.small(rng, 2)
            family.append((t.small(rng, 2), t.join("&", [given, cover])))
        if distinct_points(family) in EXTEND_COMPOUND_POINTS:
            break
    texts, members, marginals = price(t, rng, family)
    kind = COMPOUND_KINDS[index % len(COMPOUND_KINDS)]
    given, cells = compound_cells(kind, members[0], members[1])
    target = sum((v * mass(c, marginals) for c, v in cells), ZERO) / mass(given, marginals)
    return Case(
        "extend",
        document(t, texts, members),
        ("--target", f"{kind}:0,1"),
        tuple(members),
        True,
        single_level(members),
        target,
    )


WORKLOADS = {
    "check-random": check_random,
    "check-zero-mass": check_zero_mass,
    "check-wide": check_wide,
    "extend-compound": extend_compound,
}


def generate(workload: str, seed: int, count: int) -> list[Case]:
    rng = random.Random(f"{workload}:{seed}")
    make = WORKLOADS[workload]
    return [make(rng, i) for i in range(count)]


# -- semantics from truth tables ------------------------------------------


def _event_mask(member: Member) -> int:
    return sum(c for c, v in member.cells if v == ONE)


def compound_cells(kind: str, first: Member, second: Member):
    """Conditioning and value cells of a compound of two conditional events.

    Conjunction: 1 where both hold, 0 where either fails inside its own
    conditioning, the other operand's prevision where only one bet is
    void.  Disjunction is its De Morgan dual.  The quasi conjunction is
    the conditional event "neither fails" given ``H0 | H1``.
    """
    a_cond, b_cond = first.given, second.given
    a_true, b_true = _event_mask(first), _event_mask(second)
    a_false, b_false = a_cond & ~a_true, b_cond & ~b_true
    x, y = first.prevision, second.prevision
    given = a_cond | b_cond
    if kind == "conjunction":
        cells = [
            (a_true & b_true, ONE),
            (a_false | b_false, ZERO),
            (b_true & ~a_cond, x),
            (a_true & ~b_cond, y),
        ]
    elif kind == "disjunction":
        cells = [
            (a_true | b_true, ONE),
            (a_false & b_false, ZERO),
            (b_false & ~a_cond, x),
            (a_false & ~b_cond, y),
        ]
    else:
        body = given & ~a_false & ~b_false
        cells = [(body, ONE), (given & ~body, ZERO)]
    return given, cells


def zero_one_levels(members) -> tuple[bool, tuple]:
    """Verdict and levels of the recursive check for 0/1 previsions.

    The previsions form a vertex of the unit cube, which lies in the hull
    of points inside the cube only as one of them.  So a level is
    solvable exactly when some world inside the union agrees with every
    active member, and member ``j`` has zero maximal mass exactly when no
    such world lies in its conditioning event.
    """
    indices = tuple(range(len(members)))
    levels = []
    while True:
        ok = 0
        for i in indices:
            ok |= members[i].given
        for i in indices:
            m = members[i]
            agree = sum(c for c, v in m.cells if v == m.prevision)
            ok &= ~m.given | agree
        if not ok:
            levels.append((indices, ()))
            return False, tuple(levels)
        zero = tuple(i for i in indices if not members[i].given & ok)
        levels.append((indices, zero))
        if not zero:
            return True, tuple(levels)
        indices = zero


def points(members, indices) -> list[tuple[Fraction, ...]]:
    """Value points of the constituents inside the union of the given
    members' conditioning events, in canonical order."""
    union = 0
    for i in indices:
        union |= members[i].given
    parts = [(union, ())]
    for i in indices:
        m = members[i]
        split = []
        for mask, values in parts:
            outside = mask & ~m.given
            if outside:
                split.append((outside, values + (m.prevision,)))
            for cell, value in m.cells:
                if mask & cell:
                    split.append((mask & cell, values + (value,)))
        parts = split
    parts.sort(key=lambda part: part[0] & -part[0])
    return [values for _, values in parts]


# -- verification ------------------------------------------------------------


def verify(case: Case, code: int, report: dict) -> str | None:
    """Why a report is wrong, or None when it is right."""
    want = 0 if case.coherent else 1
    if code != want:
        return f"exit code {code}, expected {want}"
    if report["verdict"] != ("coherent" if case.coherent else "incoherent"):
        return f"verdict {report['verdict']}"
    levels = tuple((tuple(l["members"]), tuple(l["zero_mass"])) for l in report["trace"])
    if levels != case.levels:
        return f"levels {levels}, expected {case.levels}"
    for level in report["trace"]:
        if level["solvable"]:
            problem = _check_witness(case, level["members"], level["witness"])
            if problem:
                return problem
    if not case.coherent:
        problem = _check_dutch_book(case, report["dutch_book"], case.levels[-1][0])
        if problem:
            return problem
    if case.target_prevision is not None:
        interval = report["interval"]
        lower, upper = Fraction(interval["lower"]), Fraction(interval["upper"])
        if not (interval["endpoints_verified"] and lower <= case.target_prevision <= upper):
            return f"interval [{lower}, {upper}] misses {case.target_prevision}"
    return None


def _check_witness(case: Case, indices, witness) -> str | None:
    pts = points(case.members, indices)
    weights = [Fraction(w) for w in witness]
    if len(weights) != len(pts):
        return f"witness has {len(weights)} weights for {len(pts)} constituents"
    if any(w < 0 for w in weights) or sum(weights) != 1:
        return "witness is not a probability vector"
    for column, i in enumerate(indices):
        if sum(w * p[column] for w, p in zip(weights, pts)) != case.members[i].prevision:
            return f"witness does not reproduce the prevision of member {i}"
    return None


def _check_dutch_book(case: Case, book, indices) -> str | None:
    if book is None or tuple(book["members"]) != tuple(indices):
        return "missing or misplaced Dutch Book"
    stakes = [Fraction(s) for s in book["coefficients"]]
    previsions = [case.members[i].prevision for i in indices]
    gains = sorted(
        sum(s * (v - p) for s, v, p in zip(stakes, point, previsions))
        for point in points(case.members, indices)
    )
    if gains != sorted(Fraction(g) for g in book["gains"]):
        return "Dutch Book gains differ from the recomputed ones"
    if not (all(g < 0 for g in gains) or all(g > 0 for g in gains)):
        return "Dutch Book gains are not all of one strict sign"
    return None
