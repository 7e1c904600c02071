"""Coherent-extension intervals and closed-form prevision bounds.

Given a coherent base assessment and a target quantity whose value map
is fully determined by the base previsions, the coherent previsions for
the target form a closed interval.  It is computed exactly: the target
coordinate is minimized and maximized over the solution polytope of the
extended feasibility system, and both endpoints are re-verified with
the full recursive coherence check before being returned.  The
re-checks price the extended family's members again, so they reuse
its constituents rather than enumerating them twice more.  The base
itself is checked in full only when an endpoint fails its re-check.

The classic two-event bounds (conjunction, disjunction, quasi
conjunction) are also available in closed form; for logically
independent events they agree with the interval computation exactly,
and the test suite sweeps a grid to prove it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import lp
from .coherence import Assessment, IncoherentAssessmentError, build_system, check_coherence
from .crq import ConditionalRandomQuantity, Rational

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ExtensionVerificationError(RuntimeError):
    """An interval endpoint failed the full coherence re-check.

    This is a diagnostic guard: the set of coherent extensions is closed,
    so a failure here indicates a bug rather than a legitimate outcome.
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

    The target's conditioning event must cover every base conditioning
    event; its values then appear as plain coordinates of the extended
    system and the prevision bounds are a linear minimum and maximum over
    the base solution polytope.  Both endpoints are verified coherent.

    An incoherent base raises :class:`IncoherentAssessmentError`.  It is
    not checked upfront: an infeasible base system shows it, and
    otherwise the endpoint re-checks fail, since every subfamily of a
    coherent family is coherent; only then is the base checked alone.
    """
    extended = Assessment(base.members + (target,), base.previsions + (_ZERO,))
    system = build_system(extended)
    n = len(base)
    if any(n not in present for present in system.membership):
        raise ValueError("target conditioning must cover every base conditioning event")
    objective = [point[n] for point in system.points]

    rows, rhs = system.constraint_rows()
    base_rows = rows[:n] + [rows[-1]]
    base_rhs = rhs[:n] + [rhs[-1]]
    first = lp.solve(base_rows, base_rhs)
    if not first.feasible:
        raise IncoherentAssessmentError("base assessment is incoherent")
    # The total mass row keeps the target between its extreme values.
    low = lp.optimize(first, objective, bound=min(objective))
    high = lp.optimize(first, objective, maximize=True, bound=max(objective))

    for endpoint in (low.objective, high.objective):
        verdict = check_coherence(extended.with_previsions(base.previsions + (endpoint,)))
        if not verdict.coherent:
            if not check_coherence(base).coherent:
                raise IncoherentAssessmentError("base assessment is incoherent")
            raise ExtensionVerificationError(
                f"endpoint {endpoint} failed the coherence re-check"
            )
    return ExtensionInterval(low.objective, high.objective, attained=True)


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
