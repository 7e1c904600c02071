"""Monte Carlo cross-checks built on repeated-trial semantics.

A conditional "if A then C" can be scored by drawing independent copies
of the world until the antecedent first comes true and reading off the
consequent there.  These simulators implement that scheme with a hard
truncation length (trials that never see the antecedent are counted as
indeterminate and excluded from the mean).  Both estimators sample one
conditional random quantity: the conditional event itself, or the
:func:`~previsions.crq.conjunction` of two conditional events priced by
the exact conditional probabilities of the underlying distribution.
Each draw stops on the truth table of the quantity's conditioning and
scores the value of the cell it falls in.  A fixed-point identity shows
the truncation length does not bias the single-conditional target.

Sampling uses Python's ``random.Random`` (Mersenne Twister), so a seed
pins down every estimate bit for bit.  Only the world sequence is
stochastic; all probabilities entering the values are exact rationals.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .crq import ConditionalRandomQuantity, Rational, _conjoin, conditional_event
from .events import Event, InputError, Universe, set_bits, truth_tables

_ZERO = Fraction(0)
_ONE = Fraction(1)


class JointDistribution:
    """An exact probability for every total truth assignment."""

    __slots__ = ("_universe", "_atoms", "_masses")

    def __init__(
        self,
        universe: Universe,
        probabilities: Mapping[tuple[bool, ...], Rational],
    ):
        width = len(universe.atoms)
        masses = [_ZERO] * (1 << width)
        for bits, value in probabilities.items():
            # A key equal to an assignment names it: (1, 0) is (True, False).
            if not (isinstance(bits, tuple) and len(bits) == width and all(b in (0, 1) for b in bits)):
                raise ValueError(f"key {bits!r} is not a truth assignment to {width} atoms")
            mass = Fraction(value)
            if mass < 0:
                raise ValueError("probabilities must be nonnegative")
            masses[sum(1 << k for k, bit in enumerate(reversed(bits)) if bit)] = mass
        total = sum(masses, _ZERO)
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, not 1")
        self._set(universe, masses)

    @classmethod
    def independent(
        cls, universe: Universe, marginals: Mapping[str, Rational]
    ) -> "JointDistribution":
        """Product measure with the given per-atom probabilities."""
        atoms = universe.atoms
        probs = []
        for name in atoms:
            if name not in marginals:
                raise ValueError(f"no marginal for atom {name}")
            p = Fraction(marginals[name])
            if not _ZERO <= p <= _ONE:
                raise ValueError(f"marginal for {name} is outside [0, 1]")
            probs.append(p)
        # Each atom, last to first, doubles the masses, false half first,
        # so the first atom is the highest bit of an assignment's index.
        # The masses are nonnegative and sum to one by construction.
        masses = [_ONE]
        for p in reversed(probs):
            masses = [m * (_ONE - p) for m in masses] + [m * p for m in masses]
        distribution = cls.__new__(cls)
        distribution._set(universe, masses)
        return distribution

    def _set(self, universe: Universe, masses: Sequence[Fraction]) -> None:
        self._universe = universe
        self._atoms = universe.atoms
        # One mass per assignment, in the bit order of the truth tables.
        self._masses = tuple(masses)

    @property
    def universe(self) -> Universe:
        return self._universe

    @property
    def atoms(self) -> tuple[str, ...]:
        return self._atoms

    def probability(self, event: Event) -> Fraction:
        """Exact probability of an event: the total mass of the assignments
        its truth table over :attr:`atoms` selects."""
        (table,) = self._tables((event,))
        return self._mass(table)

    def _split(self, quantity: ConditionalRandomQuantity) -> tuple[int, list[int]]:
        """A quantity's conditioning event and its part inside each cell, as
        truth tables over :attr:`atoms`."""
        given, *cells = self._tables((quantity.conditioning, *(e for e, _ in quantity.cells)))
        return given, [cell & given for cell in cells]

    def _tables(self, events: Sequence[Event]) -> tuple[int, ...]:
        """The events' truth tables over :attr:`atoms`; ValueError for an
        event of another universe or on an atom registered after the
        distribution was built."""
        for event in events:
            if event.universe is not self._universe:
                raise ValueError("events belong to different universes")
            if not event.atoms.issubset(self._atoms):
                raise ValueError("event uses an atom registered after the distribution")
        return truth_tables(events, self._atoms)

    def _mass(self, table: int) -> Fraction:
        """Total mass of the assignments a truth table over :attr:`atoms` selects."""
        return sum((self._masses[i] for i in set_bits(table)), _ZERO)

    def conditional_probability(self, event: Event, given: Event) -> Fraction:
        """Exact conditional probability; the condition must have positive mass."""
        denom = self.probability(given)
        if denom == 0:
            raise ValueError("conditioning event has probability zero")
        return self.probability(event & given) / denom


@dataclass(frozen=True)
class SimEstimate:
    """Mean and spread of one simulation run."""

    mean: float
    trials: int
    indeterminate_count: int
    std_error: float

    @property
    def indeterminate_fraction(self) -> float:
        return self.indeterminate_count / self.trials


def simulate_conditional(
    dist: JointDistribution,
    antecedent: Event,
    consequent: Event,
    trials: int,
    max_len: int,
    seed: int,
) -> SimEstimate:
    """Estimate the conditional probability by first-success sampling.

    Each trial draws worlds independently until the antecedent holds and
    records whether the consequent holds there; trials truncated after
    ``max_len`` worlds are indeterminate and excluded from the mean.
    """
    _check_run_params(trials, max_len)
    if dist.probability(antecedent) == 0:
        raise ValueError("antecedent has probability zero")
    quantity = conditional_event(consequent, antecedent)
    return _sample(dist, quantity, trials, max_len, seed)


def simulate_conjunction(
    dist: JointDistribution,
    first_antecedent: Event,
    first_consequent: Event,
    second_antecedent: Event,
    second_consequent: Event,
    trials: int,
    max_len: int,
    seed: int,
) -> SimEstimate:
    """Estimate the conjoined conditionals' prevision by sampling.

    Each trial draws worlds until either antecedent holds, then scores
    the conjunction's case table there: 1 when both conditionals come
    true, 0 when either is falsified, and the exact conditional
    probability of the voided conditional when only one is decided.
    """
    _check_run_params(trials, max_len)
    quantity = _conjunction(
        dist, first_antecedent, first_consequent, second_antecedent, second_consequent
    )
    return _sample(dist, quantity, trials, max_len, seed)


def conjunction_prevision(
    dist: JointDistribution,
    first_antecedent: Event,
    first_consequent: Event,
    second_antecedent: Event,
    second_consequent: Event,
) -> Fraction:
    """Exact prevision of the conjoined conditionals under ``dist``.

    The expectation of the conjunction given the disjunction of the
    antecedents, with exact conditional probabilities filling the voided
    branches; the simulation estimates this number.
    """
    quantity = _conjunction(
        dist, first_antecedent, first_consequent, second_antecedent, second_consequent
    )
    given, parts = dist._split(quantity)
    paid = sum(value * dist._mass(part) for part, (_, value) in zip(parts, quantity.cells))
    return paid / dist._mass(given)


def finite_n_fixed_point(p_antecedent: Rational, p_joint: Rational, n: int) -> Fraction:
    """Solve the truncated self-consistency equation for the conditional.

    Scoring the conditional over at most ``n`` repetitions pays its own
    price ``z`` on the still-undecided branch, so ``z`` satisfies
    ``z * (1 - q**n) = (p_joint / p_antecedent) * (1 - q**n)`` with ``q``
    the antecedent's failure probability.  The solution is independent of
    ``n``.
    """
    pa = Fraction(p_antecedent)
    pj = Fraction(p_joint)
    if not 0 < pa <= 1:
        raise ValueError("antecedent probability must lie in (0, 1]")
    if not _ZERO <= pj <= pa:
        raise ValueError("joint probability must lie in [0, p_antecedent]")
    if n < 1:
        raise ValueError("n must be at least 1")
    decided = _ONE - (_ONE - pa) ** n
    return (pj / pa) * decided / decided


def _check_run_params(trials: int, max_len: int) -> None:
    if trials < 1:
        raise InputError("trials must be positive")
    if max_len < 1:
        raise InputError("max_len must be at least 1")


def _conjunction(
    dist: JointDistribution, a: Event, b: Event, c: Event, d: Event
) -> ConditionalRandomQuantity:
    """The conjunction of ``b`` given ``a`` and ``d`` given ``c``, each
    priced by its exact conditional probability under ``dist``.  Prices
    of one distribution are coherent, so the operand pair check of
    :func:`~previsions.crq.conjunction` is skipped."""
    if dist.probability(a | c) == 0:
        raise ValueError("the disjunction of the antecedents has probability zero")
    x = dist.conditional_probability(b, a)
    y = dist.conditional_probability(d, c)
    return _conjoin(conditional_event(b, a, x), conditional_event(d, c, y))


def _sample(
    dist: JointDistribution,
    quantity: ConditionalRandomQuantity,
    trials: int,
    max_len: int,
    seed: int,
) -> SimEstimate:
    """First-success estimate of a quantity: each trial draws worlds until
    its conditioning holds and records the value of the cell there."""
    _, parts = dist._split(quantity)
    # Per assignment, the value paid there, or None outside the conditioning.
    values: list[float | None] = [None] * len(dist._masses)
    for part, (_, value) in zip(parts, quantity.cells):
        for i in set_bits(part):
            values[i] = float(value)
    thresholds = [float(running) for running in itertools.accumulate(dist._masses)][:-1]
    rng = random.Random(seed)
    recorded = []
    indeterminate = 0
    for _ in range(trials):
        for _ in range(max_len):
            value = values[bisect_right(thresholds, rng.random())]
            if value is not None:
                recorded.append(value)
                break
        else:
            indeterminate += 1
    if not recorded:
        raise InputError("every trial was indeterminate; raise max_len")
    k = len(recorded)
    mean = math.fsum(recorded) / k
    if k > 1:
        variance = math.fsum((v - mean) ** 2 for v in recorded) / (k - 1)
        std_error = math.sqrt(variance / k)
    else:
        std_error = 0.0
    return SimEstimate(mean, trials, indeterminate, std_error)
