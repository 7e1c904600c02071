"""Coherence checking for conditional prevision assessments.

An assessment attaches one exact-rational prevision to each member of a
finite family of conditional random quantities.  The check is
geometric: every constituent inside the disjunction of the conditioning
events contributes the point of member values taken there (with the
assessed prevision standing in for members whose conditioning fails),
and the first-level condition is that the prevision vector lies in the
convex hull of those points, i.e. that an exact linear feasibility
system has a solution.  Members whose conditioning events carry zero
mass in *every* solution are then re-checked recursively on their own;
the assessment is coherent when each level is solvable and the
zero-mass set empties out.

The constituents are enumerated once per check, for the whole family.
A deeper level's subfamily generates a coarser partition: each of its
blocks is the union of the first level's blocks that agree on the
subfamily's labels, so deeper levels merge blocks instead of building
truth tables again.

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

from . import lp
from .crq import ConditionalRandomQuantity, Rational
from .events import ConstituentPartition, constituents


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
    prevision slots.
    """

    __slots__ = ("_members", "_previsions")

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

    @property
    def members(self) -> tuple[ConditionalRandomQuantity, ...]:
        return self._members

    @property
    def previsions(self) -> tuple[Fraction, ...]:
        return self._previsions

    def __len__(self) -> int:
        return len(self._members)

    def sub(self, indices: Sequence[int]) -> "Assessment":
        """The sub-assessment on the given member indices, in order."""
        return Assessment(
            [self._members[i] for i in indices],
            [self._previsions[i] for i in indices],
        )


@dataclass(frozen=True)
class LinearSystem:
    """The exact feasibility system of an assessment.

    One point per constituent inside the disjunction of the conditioning
    events; entry ``i`` of a point is the member's value there when the
    constituent lies inside that member's conditioning event and the
    assessed prevision otherwise.  Solvability of ``sum(w_h * point_h) =
    target, sum(w_h) = 1, w >= 0`` is exactly convex-hull membership of
    the prevision vector.
    """

    points: tuple[tuple[Fraction, ...], ...]
    target: tuple[Fraction, ...]
    membership: tuple[frozenset[int], ...]
    partition: ConstituentPartition

    @property
    def size(self) -> int:
        return len(self.target)

    def constraint_rows(self) -> tuple[list[list[Fraction]], list[Fraction]]:
        """Equality constraints (including total mass one) for the solver."""
        n = self.size
        rows = [[point[i] for point in self.points] for i in range(n)]
        rows.append([Fraction(1)] * len(self.points))
        rhs = list(self.target) + [Fraction(1)]
        return rows, rhs

    @cached_property
    def feasibility(self) -> lp.LPResult:
        """Phase 1 of the system, solved once: the level's witness or
        Farkas certificate, and the start of every mass LP."""
        return lp.solve(*self.constraint_rows())


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
    """Assemble the feasibility system of an assessment."""
    family = [
        ([event for event, _ in member.cells], member.conditioning)
        for member in assessment.members
    ]
    return _assemble(assessment, constituents(family))


def _assemble(assessment: Assessment, partition: ConstituentPartition) -> LinearSystem:
    """The feasibility system of an assessment on its members' partition."""
    points = []
    membership = []
    for block in partition.inside:
        row = []
        present = set()
        for i, (member, label) in enumerate(zip(assessment.members, block.labels)):
            if label is None:
                row.append(assessment.previsions[i])
            else:
                row.append(member.cells[label][1])
                present.add(i)
        points.append(tuple(row))
        membership.append(frozenset(present))
    return LinearSystem(tuple(points), assessment.previsions, tuple(membership), partition)


def upper_conditioning_masses(system: LinearSystem) -> tuple[Fraction, ...]:
    """For each member, the largest total mass its conditioning event can
    carry over all solutions of the system.

    One phase 2 per member from the system's shared phase 1; each stops
    at mass one, the most the total mass row allows.
    """
    first = system.feasibility
    if not first.feasible:
        raise ValueError("system is infeasible")
    masses = []
    for j in range(system.size):
        objective = [1 if j in present else 0 for present in system.membership]
        masses.append(lp.optimize(first, objective, maximize=True, bound=1).objective)
    return tuple(masses)


def check_coherence(assessment: Assessment) -> CoherenceReport:
    """Decide coherence by the recursive zero-mass procedure.

    Level by level: build the feasibility system of the current
    subfamily, on the whole family's constituents merged by the
    subfamily's labels (see :meth:`ConstituentPartition.restrict`); if
    unsolvable the assessment is incoherent (and a Dutch Book is
    extracted from the Farkas certificate); otherwise recurse on
    the members whose maximal conditioning mass is exactly zero, until
    that set is empty.  The zero-mass set is always a proper subset, so
    at most ``len(assessment)`` levels occur.

    Every witness and Dutch Book is re-checked exactly before the report
    is returned; :class:`CertificateVerificationError` is raised if one
    fails.
    """
    indices = tuple(range(len(assessment)))
    levels: list[CoherenceLevel] = []
    system = build_system(assessment)
    partition = system.partition
    while True:
        if levels:
            system = _assemble(assessment.sub(indices), partition.restrict(indices))
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
        _verify_witness(system, result.solution, indices)
        masses = upper_conditioning_masses(system)
        zero_mass = tuple(indices[j] for j, m in enumerate(masses) if m == 0)
        levels.append(CoherenceLevel(indices, True, result.solution, masses, zero_mass))
        if not zero_mass:
            return CoherenceReport(True, tuple(levels))
        if len(zero_mass) >= len(indices):  # pragma: no cover - impossible
            raise AssertionError("zero-mass set must shrink")
        indices = zero_mass


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
    return _gains(build_system(assessment), stakes)


def _gains(system: LinearSystem, stakes: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Net gain of the stakes at each point of the system."""
    return tuple(
        sum(s * (value - target) for s, value, target in zip(stakes, point, system.target))
        for point in system.points
    )


def _verify_witness(
    system: LinearSystem, weights: Sequence[Fraction], indices: Sequence[int]
) -> None:
    """Check ``w >= 0``, ``sum(w) = 1`` and ``sum(w_h * point_h) = target``
    exactly, skipping zero weights."""
    total = Fraction(0)
    sums = [Fraction(0)] * system.size
    valid = len(weights) == len(system.points)
    for weight, point in zip(weights, system.points):
        if weight < 0:
            valid = False
        elif weight:
            total += weight
            for i, value in enumerate(point):
                sums[i] += weight * value
    if valid and total == 1 and tuple(sums) == system.target:
        return
    raise CertificateVerificationError(
        f"witness on members {list(indices)} does not reproduce the previsions"
    )

