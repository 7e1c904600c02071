"""Coherence checking for conditional prevision assessments.

An assessment attaches one exact-rational prevision to each member of a
finite family of conditional random quantities.  The check is
geometric: every constituent inside the disjunction of the conditioning
events contributes the point of member values taken there (with the
assessed prevision standing in for members whose conditioning fails),
and the first-level condition is that the prevision vector lies in the
convex hull of those points, i.e. that an exact linear feasibility
system has a solution.  It is kept as the LP and every certificate
read it, in integers: one row of values and one 0/1 indicator of the
conditioning event per member, the row scaled once by the member's own
scale; only the points are derived as rationals, on request.
Members whose conditioning events carry zero mass in *every* solution
are then re-checked recursively on their own; the assessment is
coherent when each level is solvable and the zero-mass set empties out.

An :class:`Assessment` puts its members on one frame when it is built:
members that share one, as a document's members and their compounds
do, are kept as they are, and any others are rebuilt from one fold of
all their events.  The constituents depend only on the members, not on
the previsions, so an assessment refines them at most once, from its
members' own truth tables.  Every level of a check is a sub-assessment
of the checked one, on some of the same members, so no level folds.
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

Before a report is returned its certificates are checked exactly, in
integers on the level's own scaled rows, and on the very vectors the
report prints.  A witness's weights are brought to one common
denominator ``D``: they must be nonnegative, sum to ``D`` and reproduce
each member's scaled prevision times ``D``.  A Dutch Book's stakes, each
divided by its member's scale, are brought to one denominator too, and
every gain must be strictly negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import lcm
from operator import mul
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
    prevision slots.  The members are kept on one frame (see the module
    docstring), so a family that mixes two universes raises here.
    """

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
        self._members = crq._shared(resolved)
        self._previsions = values

    @property
    def members(self) -> tuple[ConditionalRandomQuantity, ...]:
        return self._members

    @property
    def previsions(self) -> tuple[Fraction, ...]:
        return self._previsions

    def __len__(self) -> int:
        return len(self._members)

    @cached_property
    def partition(self) -> ConstituentPartition:
        """The constituents generated by the members, refined once from
        their truth tables over their shared frame."""
        return crq._constituents(self._members)

    @cached_property
    def system(self) -> "LinearSystem":
        """The feasibility system on the partition, built once."""
        return build_system(self)

    def sub(self, indices: Sequence[int]) -> "Assessment":
        """The sub-assessment on the given member indices, in order: the
        same members, on the same frame, so its partition folds no event,
        and its blocks are the unions of this one's that agree on its
        labels.  Its previsions are this one's, taken as they are."""
        if not indices:
            raise ValueError("family must be nonempty")
        sub = Assessment.__new__(Assessment)
        sub._members = tuple(self._members[i] for i in indices)
        sub._previsions = tuple(self._previsions[i] for i in indices)
        return sub


@dataclass(frozen=True)
class LinearSystem:
    """The exact feasibility system of an assessment, one row per member.

    One column per constituent inside the disjunction of the conditioning
    events.  Member ``i``'s row holds its value on each column inside its
    conditioning event and its prevision elsewhere; ``indicators[i]`` is
    1 inside that event and 0 elsewhere.  Solvability of ``rows . w =
    target, sum(w) = 1, w >= 0`` is exactly convex-hull membership of the
    prevision vector in the :attr:`points`, the columns.  The rows are the
    members' alone: :func:`previsions.lp.solve` adds ``sum(w) = 1``.

    The system is stored in integers: ``scaled_rows[i]`` and
    ``scaled_target[i]`` are ``scales[i] > 0`` times member ``i``'s row
    and prevision.  The LP and every certificate read these; the rational
    :attr:`points` are derived on request.
    """

    scaled_rows: tuple[tuple[int, ...], ...]
    scaled_target: tuple[int, ...]
    scales: tuple[int, ...]
    indicators: tuple[tuple[int, ...], ...]

    @cached_property
    def points(self) -> tuple[tuple[Fraction, ...], ...]:
        """The columns as rational value points, derived on demand."""
        scaled = zip(self.scaled_rows, self.scales)
        return tuple(zip(*[[Fraction(v, s) for v in row] for row, s in scaled]))

    @cached_property
    def feasibility(self) -> lp.LPResult:
        """Phase 1, solved once: the level's witness or Farkas
        certificate, and the start of every later LP."""
        return lp.solve(self.scaled_rows, self.scaled_target, self.scales)


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
    """The feasibility system of an assessment on its partition, in
    integers: each member is scaled once, by the lcm of the denominators
    of its cell values and its prevision (:func:`_scaled`), so each cell
    is one lookup."""
    labels = zip(*[block.labels for block in assessment.partition.inside])
    rows, target, scales, indicators = [], [], [], []
    for member, prevision, column in zip(assessment.members, assessment.previsions, labels):
        s, (*values, t) = _scaled([*[value for _, value in member.cells], prevision])
        scaled = dict(enumerate(values))
        scaled[None] = t
        inside = dict.fromkeys(scaled, 1)
        inside[None] = 0
        rows.append(tuple(map(scaled.__getitem__, column)))
        target.append(t)
        scales.append(s)
        indicators.append(tuple(map(inside.__getitem__, column)))
    return LinearSystem(tuple(rows), tuple(target), tuple(scales), tuple(indicators))


def upper_conditioning_masses(system: LinearSystem) -> tuple[Fraction, ...]:
    """For each member, the largest total mass its conditioning event can
    carry over all solutions of the system.

    One phase 2 on each indicator from the system's shared phase 1, as
    integer costs of scale 1 that build no optimal point; on the simplex
    it stops at mass one.
    """
    first = system.feasibility
    if not first.feasible:
        raise ValueError("system is infeasible")
    return tuple(
        lp.optimize(first, indicator, 1, True).objective
        for indicator in system.indicators
    )


def check_coherence(assessment: Assessment) -> CoherenceReport:
    """Decide coherence by the recursive zero-mass procedure.

    Level by level: take the feasibility system of the current
    subfamily, a sub-assessment of ``assessment`` on the constituents it
    refines from its members' tables (see :meth:`Assessment.sub`); if
    unsolvable the assessment is incoherent (and a Dutch Book is
    extracted from the Farkas certificate); otherwise recurse on the
    members whose maximal conditioning mass is exactly zero, until that
    set is empty.  The zero-mass set is always a proper subset, so at
    most ``len(assessment)`` levels occur.

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
            gains, denominator = _gains(system, stakes)
            if not all(g < 0 for g in gains):
                raise CertificateVerificationError(
                    f"Dutch Book on members {list(indices)} has a gain that is not negative"
                )
            gains = tuple(Fraction(g, denominator) for g in gains)
            book = DutchBook(indices, tuple(stakes), gains)
            return CoherenceReport(False, tuple(levels), book)
        if not _reproduces(system.scaled_rows, system.scaled_target, result.solution):
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
    gains, denominator = _gains(assessment.system, stakes)
    return tuple(Fraction(g, denominator) for g in gains)


def _gains(system: LinearSystem, stakes: Sequence[Fraction]) -> tuple[list[int], int]:
    """Net gain of the stakes on each column of the system, as ints over
    one common positive denominator: stake ``y[i]`` counts ``y[i] /
    scales[i]`` on the integer row, and those are brought to one
    denominator (:func:`_scaled`), so every product and sum is of ints."""
    denominator, ints = _scaled([y / s for y, s in zip(stakes, system.scales)])
    paid = sum(map(mul, ints, system.scaled_target))
    return [sum(map(mul, ints, column)) - paid for column in zip(*system.scaled_rows)], denominator


def _reproduces(
    rows: Sequence[Sequence[int]],
    target: Sequence[int | Fraction],
    weights: Sequence[Fraction],
) -> bool:
    """Whether ``w >= 0``, ``sum(w) = 1`` and ``rows[i] . w = target[i]``
    hold exactly for integer rows and rational targets, each row and its
    target scaled by the same positive factor.  The nonzero weights are
    brought to one common denominator ``D`` (:func:`_scaled`), so every
    check compares ints: the numerators sum to ``D``, and each row's dot
    product with them equals its target times ``D``."""
    if any(len(row) != len(weights) for row in rows):
        return False
    columns = [h for h, w in enumerate(weights) if w]
    denominator, ints = _scaled([weights[h] for h in columns])
    if any(v < 0 for v in ints) or sum(ints) != denominator:
        return False
    return all(
        sum(map(mul, [row[h] for h in columns], ints)) * t.denominator == t.numerator * denominator
        for row, t in zip(rows, target)
    )


def _scaled(values: Sequence[int | Fraction]) -> tuple[int, list[int]]:
    """The lcm ``s`` of the denominators of ``values``, and ``s * values``."""
    # A list, not a generator: unpacking a generator into the call
    # raised the benchmark's peak RSS on ``extend`` by about 2 MB.
    s = lcm(*[v.denominator for v in values])
    return s, [v.numerator * (s // v.denominator) for v in values]
