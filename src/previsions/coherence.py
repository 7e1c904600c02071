"""Coherence checking for conditional prevision assessments.

An assessment attaches one exact-rational prevision to each member of a
finite family of conditional random quantities.  The check is
geometric: every constituent inside the disjunction of the conditioning
events contributes the point of member values taken there (with the
assessed prevision standing in for members whose conditioning fails),
and the first-level condition is that the prevision vector lies in the
convex hull of those points, i.e. that an exact linear feasibility
system has a solution.  It is kept as the LP and every certificate
read it, one row of values and one 0/1 indicator of the conditioning
event per member; the points are derived only on request.  Members
whose conditioning events carry zero mass in *every* solution are then
re-checked recursively on their own; the assessment is coherent when
each level is solvable and the zero-mass set empties out.

The constituents depend only on the members, not on the previsions, so
an :class:`Assessment` refines them at most once, from the members'
truth tables over the one frame :mod:`previsions.crq` picks; members
that share a frame, as a document's members and their compounds do,
fold no event at all.  Every level of a check is a sub-assessment of the
checked one, refining its own blocks from its members' slice of those
tables, so no level below the first folds either.
An assessment owns its feasibility system too, built at most once, so
``extend`` optimizes on its base check's level 1.

Everything runs in exact rational arithmetic.  The recursion hinges on
deciding whether a maximal conditioning mass is exactly zero, which no
floating-point tolerance can do reliably; each mass is the optimum of
one small exact linear program.  A level's feasibility test and its mass
programs share one constraint system, so they share one phase 1 too.

When a level is unsolvable, a Farkas certificate of the failed system
is turned into betting stakes witnessing the incoherence: with those
stakes every possible net gain over the level's subfamily is strictly
negative (a Dutch Book).

Before a report is returned its certificates are checked exactly: every
witness must be a probability vector reproducing the level's previsions,
and every Dutch-Book gain must be strictly negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Sequence

from . import crq, lp
from .crq import ConditionalRandomQuantity, Rational
from .events import ConstituentPartition


class IncoherentAssessmentError(ValueError):
    """An operation required a coherent assessment and did not get one."""


class CertificateVerificationError(RuntimeError):
    """A level's witness or Dutch Book failed its exact re-check.

    This is a diagnostic guard: the solver's certificates are exact, so a
    failure here indicates a bug rather than a legitimate outcome.
    """


class Assessment:
    """An ordered family of conditional random quantities with previsions.

    Previsions can be passed explicitly or taken from the members'
    prevision slots.  The members' truth tables over one frame are taken
    on first use, and each sub-assessment refines its blocks from a slice.
    """

    __slots__ = ("_members", "_previsions", "_frame", "_partition", "_system")

    def __init__(
        self,
        members: Iterable[ConditionalRandomQuantity],
        previsions: Sequence[Rational] | None = None,
    ):
        resolved = tuple(members)
        if not resolved:
            raise ValueError("family must be nonempty")
        if previsions is None:
            missing = [i for i, m in enumerate(resolved) if m.prevision is None]
            if missing:
                raise ValueError(f"members {missing} have no prevision set")
            values = tuple(m.prevision for m in resolved)
        else:
            values = tuple(Fraction(p) for p in previsions)
            if len(values) != len(resolved):
                raise ValueError("previsions and members must have equal length")
        self._members = resolved
        self._previsions = values
        self._frame: tuple[tuple[str, ...], list] | None = None
        self._partition: ConstituentPartition | None = None
        self._system: LinearSystem | None = None

    @property
    def members(self) -> tuple[ConditionalRandomQuantity, ...]:
        return self._members

    @property
    def previsions(self) -> tuple[Fraction, ...]:
        return self._previsions

    def __len__(self) -> int:
        return len(self._members)

    @property
    def partition(self) -> ConstituentPartition:
        """The constituents generated by the members, refined once from
        their truth tables over one frame: those :func:`previsions.crq._frame`
        gives them, or in a sub-assessment its members' slice of the
        tables of the assessment it came from."""
        if self._partition is None:
            self._frame = self._frame or crq._frame(self._members)
            self._partition = crq._constituents(self._members, *self._frame)
        return self._partition

    @property
    def system(self) -> "LinearSystem":
        """The feasibility system on the partition, built once."""
        if self._system is None:
            self._system = build_system(self)
        return self._system

    def sub(self, indices: Sequence[int]) -> "Assessment":
        """The sub-assessment on the given member indices, in order, on
        their slice of this one's tables (taken now if not yet): its
        partition folds no event, and its blocks are the unions of this
        one's that agree on its labels."""
        sub = Assessment(
            [self._members[i] for i in indices],
            [self._previsions[i] for i in indices],
        )
        self._frame = self._frame or crq._frame(self._members)
        atoms, tables = self._frame
        sub._frame = atoms, [tables[i] for i in indices]
        return sub


@dataclass(frozen=True)
class LinearSystem:
    """The exact feasibility system of an assessment, one row per member.

    One column per constituent inside the disjunction of the conditioning
    events.  ``rows[i]`` is member ``i``'s value on each column inside its
    conditioning event and its prevision elsewhere; ``indicators[i]`` is 1
    inside that event and 0 elsewhere.  Solvability of ``rows . w =
    target, sum(w) = 1, w >= 0`` is exactly convex-hull membership of the
    prevision vector in the :attr:`points`, the columns.
    """

    rows: tuple[tuple[Fraction, ...], ...]
    target: tuple[Fraction, ...]
    indicators: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.target)

    @cached_property
    def points(self) -> tuple[tuple[Fraction, ...], ...]:
        """The columns as value points, derived from the rows on demand."""
        return tuple(zip(*self.rows))

    @cached_property
    def feasibility(self) -> lp.LPResult:
        """Phase 1 (total mass row included), solved once: the level's
        witness or Farkas certificate, and the start of every later LP."""
        return lp.solve([*self.rows, [1] * len(self.rows[0])], [*self.target, 1])


@dataclass(frozen=True)
class CoherenceLevel:
    """One level of the recursive check, over original member indices."""

    members: tuple[int, ...]
    solvable: bool
    witness: tuple[Fraction, ...] | None
    masses: tuple[Fraction, ...] | None
    zero_mass: tuple[int, ...]


@dataclass(frozen=True)
class DutchBook:
    """Betting stakes extracted from an unsolvable level.

    Staking ``coefficients[i]`` on member ``members[i]`` yields the listed
    net gains over the subfamily's constituents; all of them have the same
    strict sign, so no outcome breaks even.
    """

    members: tuple[int, ...]
    coefficients: tuple[Fraction, ...]
    gains: tuple[Fraction, ...]


@dataclass(frozen=True)
class CoherenceReport:
    """Verdict plus the full recursion trace."""

    coherent: bool
    levels: tuple[CoherenceLevel, ...]
    dutch_book: DutchBook | None = None


def build_system(assessment: Assessment) -> LinearSystem:
    """The feasibility system of an assessment on its partition."""
    blocks = assessment.partition.inside
    rows = []
    indicators = []
    for i, (member, prevision) in enumerate(zip(assessment.members, assessment.previsions)):
        labels = [block.labels[i] for block in blocks]
        rows.append(tuple(prevision if k is None else member.cells[k][1] for k in labels))
        indicators.append(tuple(0 if k is None else 1 for k in labels))
    return LinearSystem(tuple(rows), assessment.previsions, tuple(indicators))


def upper_conditioning_masses(system: LinearSystem) -> tuple[Fraction, ...]:
    """For each member, the largest total mass its conditioning event can
    carry over all solutions of the system.

    One phase 2 on each indicator from the system's shared phase 1; the
    total mass row lets :func:`lp.optimize` stop each one at mass one.
    """
    first = system.feasibility
    if not first.feasible:
        raise ValueError("system is infeasible")
    return tuple(
        lp.optimize(first, indicator, maximize=True).objective
        for indicator in system.indicators
    )


def check_coherence(assessment: Assessment) -> CoherenceReport:
    """Decide coherence by the recursive zero-mass procedure.

    Level by level: take the feasibility system of the current
    subfamily, a sub-assessment of ``assessment`` on the constituents it
    refines from its slice of the family's tables (see
    :meth:`Assessment.sub`); if unsolvable the assessment is incoherent
    (and a Dutch Book is extracted from the Farkas certificate);
    otherwise recurse on the members whose maximal conditioning mass is
    exactly zero, until that set is empty.  The zero-mass set is always a proper subset, so
    at most ``len(assessment)`` levels occur.

    Every witness and Dutch Book is re-checked exactly before the report
    is returned; :class:`CertificateVerificationError` is raised if one
    fails.
    """
    indices = tuple(range(len(assessment)))
    levels: list[CoherenceLevel] = []
    family = assessment
    while True:
        system = family.system
        result = system.feasibility
        if not result.feasible:
            levels.append(CoherenceLevel(indices, False, None, None, ()))
            stakes = result.certificate[: len(indices)]
            gains = _gains(system, stakes)
            if not all(g < 0 for g in gains):
                raise CertificateVerificationError(
                    f"Dutch Book on members {list(indices)} has a gain that is not negative"
                )
            book = DutchBook(indices, tuple(stakes), gains)
            return CoherenceReport(False, tuple(levels), book)
        if not _reproduces(system.rows, result.solution, system.target):
            raise CertificateVerificationError(
                f"witness on members {list(indices)} does not reproduce the previsions"
            )
        masses = upper_conditioning_masses(system)
        zero_mass = tuple(indices[j] for j, m in enumerate(masses) if m == 0)
        levels.append(CoherenceLevel(indices, True, result.solution, masses, zero_mass))
        if not zero_mass:
            return CoherenceReport(True, tuple(levels))
        if len(zero_mass) >= len(indices):  # pragma: no cover - impossible
            raise AssertionError("zero-mass set must shrink")
        indices = zero_mass
        family = assessment.sub(zero_mass)


def random_gain(
    assessment: Assessment, coefficients: Sequence[Rational]
) -> tuple[Fraction, ...]:
    """Net betting gains, one per constituent inside the disjunction.

    Staking ``coefficients[i]`` on member ``i`` means paying
    ``coefficients[i] * prevision[i]`` and receiving the member's
    filled-in value scaled the same way; the gain at a constituent is the
    total received minus the total paid.  Coherence means no choice of
    coefficients makes every gain strictly positive, or every gain
    strictly negative.
    """
    stakes = [Fraction(s) for s in coefficients]
    if len(stakes) != len(assessment):
        raise ValueError("need exactly one coefficient per member")
    return _gains(assessment.system, stakes)


def _gains(system: LinearSystem, stakes: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Net gain of the stakes on each column of the system."""
    paid = sum(s * t for s, t in zip(stakes, system.target))
    columns = range(len(system.rows[0]))
    return tuple(sum(s * row[h] for s, row in zip(stakes, system.rows)) - paid for h in columns)


def _reproduces(
    rows: Sequence[Sequence[Fraction]],
    weights: Sequence[Fraction],
    target: Sequence[Fraction],
) -> bool:
    """Whether ``w >= 0``, ``sum(w) = 1`` and ``rows[i] . w = target[i]``
    for every ``i`` hold exactly; zero weights are skipped."""
    if any(len(row) != len(weights) for row in rows) or any(w < 0 for w in weights):
        return False
    support = [(h, w) for h, w in enumerate(weights) if w]
    sums = [sum(w * row[h] for h, w in support) for row in rows]
    return sum(w for _, w in support) == 1 and sums == list(target)
