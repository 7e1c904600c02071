"""Acceptance suite: one test per criterion, exact tolerances throughout.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail
line per criterion (each test also prints a ``criterion NN PASS`` line,
visible with ``-s`` or ``-rA``).
"""

import math
import random
import time
from fractions import Fraction as F

import pytest

from previsions.bounds import (
    disjunction_bounds,
    extension_interval,
    frechet_conjunction_bounds,
    quasi_conjunction_bounds,
)
from previsions.coherence import Assessment, check_coherence, random_gain
from previsions.crq import (
    ConditionalRandomQuantity,
    conditional_event,
    conjunction,
    disjunction,
    iterated,
    quasi_conjunction,
    values_agree_on_union,
)
from previsions.events import Universe
from previsions.simulate import (
    JointDistribution,
    finite_n_fixed_point,
    simulate_conditional,
    simulate_conjunction,
)

from oracles import brute_coherent

GRID = [F(i, 10) for i in range(11)]
SMALL_GRID = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]


def _passed(number, description):
    print(f"criterion {number:02d} PASS: {description}")


def _independent_pair(x, y):
    u = Universe()
    a, h, b, k = u.atom("A"), u.atom("H"), u.atom("B"), u.atom("K")
    return conditional_event(a, h, x), conditional_event(b, k, y)


def test_criterion_01_conjunction_interval_matches_closed_form():
    started = time.perf_counter()
    for x in GRID:
        for y in GRID:
            first, second = _independent_pair(x, y)
            interval = extension_interval(
                Assessment([first, second]), conjunction(first, second)
            )
            assert (interval.lower, interval.upper) == frechet_conjunction_bounds(x, y)
            assert interval.attained
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"grid sweep took {elapsed:.1f}s"
    _passed(1, f"conjunction interval equals closed form on 121 points ({elapsed:.1f}s)")


def test_criterion_02_disjunction_interval_and_sum_rule():
    for x in GRID:
        for y in GRID:
            first, second = _independent_pair(x, y)
            base = Assessment([first, second])
            disj = extension_interval(base, disjunction(first, second))
            assert (disj.lower, disj.upper) == disjunction_bounds(x, y)
            assert (disj.lower, disj.upper) == (max(x, y), min(x + y, F(1)))
            conj = extension_interval(base, conjunction(first, second))
            # The disjunction interval is {x + y - z : z in conjunction interval}.
            assert disj.lower == x + y - conj.upper
            assert disj.upper == x + y - conj.lower
    _passed(2, "disjunction interval equals max/min form and the sum-rule image")


def test_criterion_03_quasi_conjunction_interval_and_sandwich():
    for x in GRID:
        for y in GRID:
            first, second = _independent_pair(x, y)
            interval = extension_interval(
                Assessment([first, second]), quasi_conjunction(first, second)
            )
            lower, upper = quasi_conjunction_bounds(x, y)
            assert (interval.lower, interval.upper) == (lower, upper)
            assert lower == max(x + y - 1, F(0))
            if (x, y) != (F(1), F(1)):
                assert upper == (x + y - 2 * x * y) / (1 - x * y)
            assert upper >= max(x, y) >= min(x, y)
    _passed(3, "quasi conjunction interval equals closed form with the sandwich")


def test_criterion_04_logical_dependency_special_cases():
    # (a) incompatible conditionings force the product.
    for x in SMALL_GRID:
        for y in SMALL_GRID:
            u = Universe()
            a, h, b = u.atom("A"), u.atom("H"), u.atom("B")
            first = conditional_event(a, h, x)
            second = conditional_event(b, ~h, y)
            interval = extension_interval(
                Assessment([first, second]), conjunction(first, second)
            )
            assert (interval.lower, interval.upper) == (x * y, x * y)
    # (b) conditioning the second bet on the first's success forces it too.
    for x in SMALL_GRID:
        for y in SMALL_GRID:
            u = Universe()
            a, h, b = u.atom("A"), u.atom("H"), u.atom("B")
            first = conditional_event(a, h, x)
            second = conditional_event(b, a & h, y)
            interval = extension_interval(
                Assessment([first, second]), conjunction(first, second)
            )
            assert (interval.lower, interval.upper) == (x * y, x * y)
    # (c) under Goodman-Nguyen inclusion the conjunction is the smaller
    # conditional itself, both with a common conditioning and across two.
    u = Universe()
    a, h, b = u.atom("A"), u.atom("H"), u.atom("B")
    smaller = conditional_event(a & b, h, F(1, 3))
    larger = conditional_event(a, h, F(1, 2))
    compound = conjunction(smaller, larger)
    assert values_agree_on_union(compound, iterated(smaller, h))
    assert values_agree_on_union(compound.with_prevision(F(1, 3)), smaller)

    u = Universe()
    a, h, d = u.atom("A"), u.atom("H"), u.atom("D")
    narrow = conditional_event(a, h, F(2, 5))
    wide = conditional_event(a | ~h, h | d, F(1, 2))
    compound = conjunction(narrow, wide)
    assert values_agree_on_union(compound, iterated(narrow, h | d))
    assert values_agree_on_union(compound.with_prevision(F(2, 5)), narrow)
    _passed(4, "incompatible, nested and included operand cases all collapse")


def test_criterion_05_compound_prevision_product_rule():
    marks = (F(1, 4), F(1, 2), F(3, 4))
    for x in marks:
        for y in marks:
            u = Universe()
            h, k, v = u.atom("H"), u.atom("K"), u.atom("V")
            hypothesis = conditional_event(h, k, x)
            given_both = ConditionalRandomQuantity(h & k, [(v, 2), (~v, 0)], y)
            restricted = ConditionalRandomQuantity(k, [(v & h, 2), (~(v & h), 0)])
            candidates = {x * y, x * y - F(1, 10), x * y + F(1, 10)}
            for z in candidates:
                z = min(max(z, F(0)), F(1))
                assessment = Assessment(
                    [hypothesis, given_both, restricted.with_prevision(z)]
                )
                assert check_coherence(assessment).coherent == (z == x * y)
    _passed(5, "triples are coherent exactly at the product prevision")


def test_criterion_06_forced_point_previsions():
    u = Universe()
    h = u.atom("H")
    sure = conditional_event(h, h)
    void = conditional_event(~h, h)
    constant = ConditionalRandomQuantity(h, [(h, F(2, 3))])
    for mu in (F(0), F(1, 5), F(1, 2), F(4, 5), F(1)):
        assert check_coherence(Assessment([sure], [mu])).coherent == (mu == 1)
        assert check_coherence(Assessment([void], [mu])).coherent == (mu == 0)
        assert check_coherence(Assessment([constant], [mu])).coherent == (mu == F(2, 3))
    _passed(6, "sure, void and constant conditionals pin their previsions")


def _random_event(rng, atoms, depth=2):
    if depth == 0 or rng.random() < 0.4:
        return rng.choice(atoms)
    op = rng.choice(("and", "or", "not"))
    if op == "not":
        return ~_random_event(rng, atoms, depth - 1)
    left = _random_event(rng, atoms, depth - 1)
    right = _random_event(rng, atoms, depth - 1)
    return (left & right) if op == "and" else (left | right)


def _random_assessment(rng):
    while True:
        u = Universe()
        atoms = [u.atom(n) for n in "WXYZ"[: rng.randint(2, 4)]]
        members = []
        for _ in range(rng.randint(1, 3)):
            conditioning = _random_event(rng, atoms)
            while conditioning.is_impossible():
                conditioning = _random_event(rng, atoms)
            event = _random_event(rng, atoms)
            denominator = rng.randint(1, 8)
            prevision = F(rng.randint(0, denominator), denominator)
            members.append(conditional_event(event, conditioning, prevision))
        return Assessment(members)


@pytest.fixture(scope="module")
def random_verdicts():
    rng = random.Random(20121031)
    results = []
    for _ in range(200):
        assessment = _random_assessment(rng)
        results.append((assessment, check_coherence(assessment)))
    return results


def test_criterion_07_engine_agrees_with_brute_force(random_verdicts):
    disagreements = 0
    coherent = incoherent = 0
    for assessment, report in random_verdicts:
        expected = brute_coherent(assessment)
        if report.coherent != expected:
            disagreements += 1
        if expected:
            coherent += 1
        else:
            incoherent += 1
    assert disagreements == 0
    assert coherent > 0 and incoherent > 0
    _passed(7, f"0 disagreements on 200 random assessments ({incoherent} incoherent)")


def test_criterion_08_dutch_book_witnesses(random_verdicts):
    checked = 0
    for assessment, report in random_verdicts:
        if report.coherent:
            continue
        book = report.dutch_book
        assert book is not None
        gains = random_gain(assessment.sub(book.members), book.coefficients)
        assert gains == book.gains
        assert all(g < 0 for g in gains) or all(g > 0 for g in gains)
        checked += 1
    assert checked > 0
    _passed(8, f"uniform-sign gain vectors for all {checked} incoherent verdicts")


def test_criterion_09_monte_carlo_agreement():
    started = time.perf_counter()
    u = Universe()
    a, c = u.atom("A"), u.atom("C")
    dist = JointDistribution.independent(u, {"A": F(1, 2), "C": F(1, 2)})
    estimate = simulate_conditional(dist, a, c, trials=100_000, max_len=40, seed=7)
    assert abs(estimate.mean - 0.5) <= 3 * estimate.std_error
    truncation = 2.0**-40
    slack = 3 * math.sqrt(truncation * (1 - truncation) / estimate.trials)
    assert estimate.indeterminate_fraction <= truncation + slack

    u4 = Universe()
    coins = tuple(u4.atom(n) for n in "ABCD")
    fair = JointDistribution.independent(u4, {n: F(1, 2) for n in "ABCD"})
    conj = simulate_conjunction(fair, *coins, trials=100_000, max_len=40, seed=11)
    assert abs(conj.mean - 0.25) <= 3 * conj.std_error
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"simulations took {elapsed:.1f}s"
    _passed(9, f"both estimates within 3 standard errors ({elapsed:.1f}s)")


def test_criterion_10_truncation_invariance():
    for n in (1, 2, 10, 50):
        assert finite_n_fixed_point(F(1, 2), F(1, 4), n) == F(1, 2)
        assert finite_n_fixed_point(F(3, 4), F(1, 2), n) == F(2, 3)
    _passed(10, "fixed point equals the conditional probability for all n")


def test_criterion_11_import_export_failure():
    u = Universe()
    h, b = u.atom("H"), u.atom("B")
    a = b & ~h  # a & h is impossible, so the conditional is void or false
    base = conditional_event(a, h, F(0))
    composite = iterated(base, ~h | a)
    assert composite.restricted_values == (F(0),)
    assert check_coherence(Assessment([composite], [F(0)])).coherent
    assert not check_coherence(Assessment([composite], [F(1, 10)])).coherent
    material = conditional_event(~h | a, u.true(), F(9, 10))
    combined = Assessment([base, composite.with_prevision(F(0)), material])
    assert check_coherence(combined).coherent
    _passed(11, "iterated conditional is pinned at 0 while the material event is free")
