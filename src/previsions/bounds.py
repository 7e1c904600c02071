"""Coherent-extension intervals and closed-form prevision bounds.

Given a coherent base assessment and a target quantity whose
conditioning event covers every constituent inside the base
conditioning events, the coherent previsions for the target form a
closed interval (Biazzo & Gilio, IJAR 2000, on extending a coherent
assessment).  Base and target are put on one frame, with at most one
fold, and the base is checked in full on its members' truth tables,
before the target's coverage.  A base that shares the target's frame,
as a document's members do, keeps its check for any number of targets.

The endpoints need no recursive re-check.  The target carries mass one
in every solution, so it never joins a zero-mass set: every deeper level
of the check of the base plus the target is a subfamily of the base, and
every subfamily of a coherent base is coherent.  A prevision ``z`` for
the target is thus coherent exactly when the base is and level 1 of that
check's system is solvable at ``z``.

Nor do they need a phase 1 or a partition of their own.  A base block
of the check's level 1 takes the values of the target cells that meet
it, all at its one base point, so an endpoint puts the block's mass on
its least (greatest) target value: it is optimized on the base check's
level-1 system, with those per-block extremes as the objective, which
stops at once if it reaches their least (greatest).  Lifting each
block's weight onto its extreme cell makes the optimal point a level-1
solution for the base plus the target, checked exactly on the base rows
plus the extremes as a row.  The base's outside block has the previsions
as its point, so the target's values there are coherent and covered.

The classic two-event bounds (conjunction, disjunction, quasi
conjunction) are also available in closed form; for logically
independent events they agree with the interval computation exactly,
and the test suite sweeps a grid to prove it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import crq, lp
from .coherence import (
    Assessment,
    IncoherentAssessmentError,
    _reproduces,
    _scaled,
    check_coherence,
)
from .crq import ConditionalRandomQuantity, Rational
from .events import InputError

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ExtensionVerificationError(RuntimeError):
    """An interval endpoint failed its exact certificate.

    This is a diagnostic guard: the optimal points of the interval's
    linear programs are exact, so a failure here indicates a bug rather
    than a legitimate outcome.
    """


@dataclass(frozen=True)
class ExtensionInterval:
    """Exact range of coherent previsions for a target quantity."""

    lower: Fraction
    upper: Fraction
    attained: bool

    def __contains__(self, value: object) -> bool:
        return self.lower <= value <= self.upper  # type: ignore[operator]


def extension_interval(
    base: Assessment,
    target: ConditionalRandomQuantity,
) -> ExtensionInterval:
    """Exact interval of previsions coherently extendable to ``target``.

    The target's conditioning event must cover every constituent inside
    the base conditioning events; the bounds are then a linear minimum
    and maximum over the base check's level-1 solutions, each certified
    by its optimal point (see the module docstring).  It costs at most
    one fold, check and phase 1, and reuses a check ``base`` already has
    when the target shares its members' frame.

    An incoherent base raises :class:`IncoherentAssessmentError` before
    the target's coverage is looked at, also when only a deeper level of
    its check fails.
    """
    *members, target = crq._shared((*base.members, target))
    if any(m is not b for m, b in zip(members, base.members)):
        base = Assessment(members, base.previsions)
    if not check_coherence(base).coherent:
        raise IncoherentAssessmentError("base assessment is incoherent")
    given, raw = target._given, target._raw
    inside, outside = base.partition.inside, base.partition.outside
    if any(block.mask & given != block.mask for block in inside):
        raise InputError("target conditioning must cover every base conditioning event")
    # The target's values on each base block, all inside ``given``, and outside them all.
    masks = [*(block.mask for block in inside), outside.mask & given if outside else 0]
    cells = [(table, value) for table, (_, value) in zip(raw, target.cells)]
    *values, outside = [[value for table, value in cells if table & mask] for mask in masks]
    system, interval = base.system, []
    for maximize, extreme in ((False, min), (True, max)):
        scale, costs = _scaled([extreme(v) for v in values])
        endpoint = lp.optimize(system.feasibility, costs, scale, maximize, True)  # and its point
        # Lifted onto each block's extreme target cell, the optimal point
        # must solve level 1 of the base plus the target, priced at the endpoint.
        rows = (*system.scaled_rows, costs)
        if not endpoint.feasible or not _reproduces(
            rows, (*system.scaled_target, scale * endpoint.objective), endpoint.solution
        ):
            raise ExtensionVerificationError(
                f"endpoint {endpoint.objective} failed its exact certificate"
            )
        interval.append(extreme([endpoint.objective, *outside]))
    return ExtensionInterval(*interval, attained=True)


def frechet_conjunction_bounds(x: Rational, y: Rational) -> tuple[Fraction, Fraction]:
    """Sharp bounds for the conjunction's prevision given the marginals."""
    x, y = _unit_pair(x, y)
    return max(x + y - 1, _ZERO), min(x, y)


def disjunction_bounds(x: Rational, y: Rational) -> tuple[Fraction, Fraction]:
    """Sharp bounds for the disjunction's prevision given the marginals.

    Follows from the prevision sum rule: the disjunction's prevision is
    ``x + y - z`` with ``z`` ranging over the conjunction bounds, giving
    ``[max(x, y), min(x + y, 1)]``.
    """
    x, y = _unit_pair(x, y)
    return max(x, y), min(x + y, _ONE)


def quasi_conjunction_bounds(x: Rational, y: Rational) -> tuple[Fraction, Fraction]:
    """Sharp bounds for the quasi conjunction's probability.

    The lower bound matches the conjunction's; the upper bound is
    ``(x + y - 2xy) / (1 - xy)``, degenerating to 1 at ``x = y = 1``, and
    always dominates ``max(x, y)``.
    """
    x, y = _unit_pair(x, y)
    lower = max(x + y - 1, _ZERO)
    if x == 1 and y == 1:
        return lower, _ONE
    return lower, (x + y - 2 * x * y) / (1 - x * y)


def _unit_pair(x: Rational, y: Rational) -> tuple[Fraction, Fraction]:
    x = Fraction(x)
    y = Fraction(y)
    for value in (x, y):
        if not _ZERO <= value <= _ONE:
            raise ValueError(f"probability {value} is outside [0, 1]")
    return x, y
