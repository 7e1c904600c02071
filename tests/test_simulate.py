import itertools
import math
import re
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import brute_value, truth_assignments

from previsions.bounds import extension_interval
from previsions.coherence import Assessment
from previsions.crq import conditional_event, conjunction
from previsions.events import Universe
from previsions import simulate
from previsions.simulate import (
    JointDistribution,
    SimEstimate,
    conjunction_prevision,
    finite_n_fixed_point,
    simulate_conditional,
    simulate_conjunction,
)


def two_coin_universe():
    u = Universe()
    return u, u.atom("A"), u.atom("C")


def four_coin_universe():
    u = Universe()
    atoms = tuple(u.atom(n) for n in "ABCD")
    dist = JointDistribution.independent(u, {n: F(1, 2) for n in "ABCD"})
    return dist, atoms


def skewed_four_atoms():
    """A non-product distribution over A, B, C, D with some zero masses."""
    u = Universe()
    atoms = tuple(u.atom(n) for n in "ABCD")
    weights = [3, 0, 1, 4, 0, 2, 5, 1, 2, 0, 3, 1, 6, 2, 0, 1]
    total = sum(weights)
    bits = itertools.product((False, True), repeat=4)
    return JointDistribution(u, {b: F(w, total) for b, w in zip(bits, weights)}), atoms


class TestJointDistribution:
    def test_masses_must_sum_to_one(self):
        u, a, c = two_coin_universe()
        with pytest.raises(ValueError):
            JointDistribution(u, {(True, True): F(1, 2)})

    def test_negative_mass_rejected(self):
        u, a, c = two_coin_universe()
        with pytest.raises(ValueError):
            JointDistribution(
                u,
                {
                    (True, True): F(3, 2),
                    (False, False): F(-1, 2),
                },
            )

    @pytest.mark.parametrize(
        "key",
        [(True,), "junk", (True, False, True), (True, 2), (True, "1"), (None, True), None],
    )
    def test_key_that_is_no_assignment_rejected(self, key):
        u, a, c = two_coin_universe()
        message = re.escape(f"key {key!r} is not a truth assignment to 2 atoms")
        with pytest.raises(ValueError, match=f"^{message}$"):
            JointDistribution(u, {(True, True): 1, key: 0})

    def test_unread_keys_are_read(self):
        # A key that names no assignment, even with a negative mass.
        u, a, c = two_coin_universe()
        with pytest.raises(ValueError, match=r"^key \(True,\) is not a truth assignment"):
            JointDistribution(u, {(True, True): 1, (True,): "1/2", "junk": -3})

    def test_masses_in_assignment_order(self):
        u, a, c = two_coin_universe()
        dist = JointDistribution(u, {(1, 0): "1/4", (True, True): "3/4"})
        assert dist._masses == (0, 0, F(1, 4), F(3, 4))
        assert dist.probability(a) == 1 and dist.probability(c) == F(3, 4)
        dist, _ = skewed_four_atoms()
        weights = [3, 0, 1, 4, 0, 2, 5, 1, 2, 0, 3, 1, 6, 2, 0, 1]
        assert dist._masses == tuple(F(w, sum(weights)) for w in weights)

    def test_independent_product(self):
        u, a, c = two_coin_universe()
        dist = JointDistribution.independent(u, {"A": F(1, 2), "C": F(1, 3)})
        assert dist.probability(a) == F(1, 2)
        assert dist.probability(a & c) == F(1, 6)
        assert dist.conditional_probability(c, a) == F(1, 3)

    def test_marginal_out_of_range(self):
        u, a, c = two_coin_universe()
        with pytest.raises(ValueError, match="marginal for C"):
            JointDistribution.independent(u, {"A": F(1, 2), "C": F(3, 2)})

    def test_missing_marginal_is_named(self):
        u, a, c = two_coin_universe()
        with pytest.raises(ValueError, match="^no marginal for atom C$"):
            JointDistribution.independent(u, {"A": F(1, 2)})

    def test_independent_masses_are_the_products(self):
        u = Universe()
        atoms = [u.atom(n) for n in "ABCD"]
        marginals = dict(zip("ABCD", (F(1, 2), F(1, 3), F(0), F(4, 7))))
        dist = JointDistribution.independent(u, marginals)
        for bits in itertools.product((False, True), repeat=4):
            world, product = u.true(), F(1)
            for name, atom, bit in zip("ABCD", atoms, bits):
                world &= atom if bit else ~atom
                product *= marginals[name] if bit else 1 - marginals[name]
            assert dist.probability(world) == product

    def test_events_of_another_universe_rejected(self):
        # The distribution's universe has an atom A but none called C.
        u = Universe()
        u.atom("A")
        dist = JointDistribution.independent(u, {"A": F(1, 3)})
        other = Universe()
        a, c = other.atom("A"), other.atom("C")
        for call in (
            lambda: dist.probability(a),
            lambda: dist.probability(c),
            lambda: simulate._sample(dist, conditional_event(a, other.true()), 10, 5, 0),
            lambda: simulate._sample(dist, conditional_event(c, a), 10, 5, 0),
            lambda: conjunction_prevision(dist, a, c, a, a),
        ):
            with pytest.raises(ValueError, match="^events belong to different universes$"):
                call()

    def test_atom_registered_after_the_distribution_rejected(self):
        u, a, c = two_coin_universe()
        dist = JointDistribution.independent(u, {"A": F(1, 2), "C": F(1, 3)})
        d = u.atom("D")
        for call in (
            lambda: dist.probability(d),
            lambda: simulate._sample(dist, conditional_event(d, a), 10, 5, 0),
            lambda: conjunction_prevision(dist, a, c, a, d),
        ):
            with pytest.raises(ValueError, match="registered after the distribution"):
                call()

    def test_atoms_are_the_universe_atoms_at_creation(self):
        u, a, c = two_coin_universe()
        dist = JointDistribution.independent(u, {"A": F(1, 2), "C": F(1, 3)})
        u.atom("D")
        assert dist.atoms == ("A", "C")

    def test_conditional_on_null_event(self):
        u, a, c = two_coin_universe()
        dist = JointDistribution.independent(u, {"A": 0, "C": F(1, 2)})
        with pytest.raises(ValueError):
            dist.conditional_probability(c, a)


class TestSimulateConditional:
    def test_seed_reproducibility(self):
        u, a, c = two_coin_universe()
        dist = JointDistribution.independent(u, {"A": F(1, 2), "C": F(1, 2)})
        one = simulate_conditional(dist, a, c, trials=5_000, max_len=20, seed=42)
        two = simulate_conditional(dist, a, c, trials=5_000, max_len=20, seed=42)
        assert one == two
        other = simulate_conditional(dist, a, c, trials=5_000, max_len=20, seed=43)
        assert other != one

    def test_estimates_conditional_probability(self):
        u, a, c = two_coin_universe()
        dist = JointDistribution.independent(u, {"A": F(1, 2), "C": F(1, 2)})
        estimate = simulate_conditional(dist, a, c, trials=20_000, max_len=40, seed=7)
        assert abs(estimate.mean - 0.5) <= 3 * estimate.std_error

    def test_sure_antecedent_never_indeterminate(self):
        u, a, c = two_coin_universe()
        dist = JointDistribution.independent(u, {"A": F(1, 2), "C": F(1, 3)})
        estimate = simulate_conditional(
            dist, u.true(), c, trials=5_000, max_len=1, seed=5
        )
        assert estimate.indeterminate_count == 0
        assert abs(estimate.mean - 1 / 3) <= 3 * estimate.std_error

    def test_entailed_consequent_is_exactly_one(self):
        u, a, c = two_coin_universe()
        dist = JointDistribution.independent(u, {"A": F(1, 2), "C": F(1, 2)})
        estimate = simulate_conditional(dist, a & c, a | c, trials=2_000, max_len=30, seed=1)
        assert estimate.mean == 1.0
        assert estimate.std_error == 0.0

    def test_one_recorded_trial_has_no_spread(self):
        u, a, c = two_coin_universe()
        dist = JointDistribution.independent(u, {"A": 1, "C": F(1, 2)})
        estimate = simulate._sample(dist, conditional_event(c, a), 1, 1, 3)
        assert (estimate.trials, estimate.indeterminate_count) == (1, 0)
        assert estimate.mean in (0.0, 1.0)
        assert estimate.std_error == 0.0

    def test_zero_probability_antecedent_rejected(self):
        u, a, c = two_coin_universe()
        dist = JointDistribution.independent(u, {"A": 0, "C": F(1, 2)})
        with pytest.raises(ValueError):
            simulate_conditional(dist, a, c, trials=100, max_len=10, seed=0)

    def test_run_parameter_validation(self):
        u, a, c = two_coin_universe()
        dist = JointDistribution.independent(u, {"A": F(1, 2), "C": F(1, 2)})
        with pytest.raises(ValueError):
            simulate_conditional(dist, a, c, trials=0, max_len=10, seed=0)
        with pytest.raises(ValueError):
            simulate_conditional(dist, a, c, trials=10, max_len=0, seed=0)

    def test_every_trial_indeterminate(self):
        u, a, c = two_coin_universe()
        dist = JointDistribution.independent(u, {"A": F(1, 10**6), "C": F(1, 2)})
        with pytest.raises(ValueError, match="every trial was indeterminate"):
            simulate_conditional(dist, a, c, trials=3, max_len=1, seed=0)

    def test_indeterminacy_matches_truncation_probability(self):
        u, a, c = two_coin_universe()
        dist = JointDistribution.independent(u, {"A": F(1, 2), "C": F(1, 2)})
        trials = 50_000
        estimate = simulate_conditional(dist, a, c, trials=trials, max_len=3, seed=3)
        expected = 0.5**3
        slack = 3 * math.sqrt(expected * (1 - expected) / trials)
        assert abs(estimate.indeterminate_fraction - expected) <= slack


class TestSimulateConjunction:
    def test_reduces_to_conditional_when_operands_coincide(self):
        u, a, c = two_coin_universe()
        dist = JointDistribution.independent(u, {"A": F(1, 2), "C": F(1, 2)})
        conj = simulate_conjunction(dist, a, c, a, c, trials=5_000, max_len=20, seed=9)
        single = simulate_conditional(dist, a, c, trials=5_000, max_len=20, seed=9)
        assert conj == single

    def test_sure_consequents_give_one(self):
        dist, (a, b, c, d) = four_coin_universe()
        sure = dist.universe.true()
        estimate = simulate_conjunction(
            dist, a, sure, c, sure, trials=2_000, max_len=30, seed=2
        )
        assert estimate.mean == 1.0

    def test_four_fair_coins(self):
        dist, (a, b, c, d) = four_coin_universe()
        assert conjunction_prevision(dist, a, b, c, d) == F(1, 4)
        estimate = simulate_conjunction(dist, a, b, c, d, trials=20_000, max_len=40, seed=11)
        assert abs(estimate.mean - 0.25) <= 3 * estimate.std_error

    def test_estimate_lands_in_extension_interval(self):
        dist, (a, b, c, d) = four_coin_universe()
        x = dist.conditional_probability(b, a)
        y = dist.conditional_probability(d, c)
        first = conditional_event(b, a, x)
        second = conditional_event(d, c, y)
        interval = extension_interval(
            Assessment([first, second]), conjunction(first, second)
        )
        exact = conjunction_prevision(dist, a, b, c, d)
        assert interval.lower <= exact <= interval.upper
        estimate = simulate_conjunction(dist, a, b, c, d, trials=20_000, max_len=40, seed=13)
        assert abs(estimate.mean - float(exact)) <= 3 * estimate.std_error

    def test_zero_probability_antecedents_rejected(self):
        u, a, c = two_coin_universe()
        dist = JointDistribution.independent(u, {"A": 0, "C": 0})
        with pytest.raises(ValueError):
            simulate_conjunction(dist, a, c, a, c, trials=100, max_len=10, seed=0)


class TestPinnedOutputs:
    """Exact results recorded from the per-assignment sampler and the
    hand-written case table that the crq-based code replaced."""

    def test_simulate_conditional(self):
        dist, (a, b, c, d) = skewed_four_atoms()
        assert simulate_conditional(
            dist, a | b, c & ~d, trials=3000, max_len=4, seed=5
        ) == SimEstimate(0.35298057602143335, 3000, 14, 0.008747055766403517)
        assert simulate_conditional(
            dist, b & c, a | d, trials=3000, max_len=6, seed=17
        ) == SimEstimate(0.281975517095821, 3000, 631, 0.009246651257748277)

    def test_simulate_conjunction(self):
        dist, (a, b, c, d) = skewed_four_atoms()
        assert simulate_conjunction(
            dist, a | b, c & ~d, b & c, a | d, trials=3000, max_len=4, seed=5
        ) == SimEstimate(0.03894364175676968, 3000, 14, 0.0017942909233765612)
        # Disjoint antecedents: every recorded world voids one operand.
        assert simulate_conjunction(
            dist, a & ~c, b, c, a | d, trials=4000, max_len=3, seed=23
        ) == SimEstimate(0.4973519076305221, 4000, 16, 0.00543703950079617)

    def test_simulate_conjunction_product(self):
        dist, (a, b, c, d) = skewed_four_atoms()
        product = JointDistribution.independent(
            dist.universe, {"A": F(1, 3), "B": F(2, 5), "C": F(1, 2), "D": F(3, 4)}
        )
        assert simulate_conjunction(
            product, a, b, c, d, trials=2500, max_len=10, seed=9
        ) == SimEstimate(0.30262, 2500, 0, 0.006333853591655574)
        assert conjunction_prevision(product, a | b, c & ~d, b & c, a | d) == F(1, 16)

    def test_conjunction_prevision_dependent_operands(self):
        dist, (a, b, c, d) = skewed_four_atoms()
        assert conjunction_prevision(dist, a | b, c & ~d, b & c, a | d) == F(6, 161)
        assert conjunction_prevision(dist, a & ~c, b, c, a | d) == F(1, 2)
        assert conjunction_prevision(dist, a, b | c, a & d, b) == F(13, 20)


@st.composite
def skewed_conjunctions(draw):
    """Two dependent conditionals under a distribution with zero masses.

    Formulas come from a pool over 2-4 atoms that grows by combining
    earlier entries, each paired with a predicate written here; the
    second antecedent often nests inside the first.  Both antecedents
    keep positive mass.
    """
    names = ("A", "B", "C", "D")[: draw(st.integers(2, 4))]
    u = Universe()
    pool = [(u.atom(n), lambda a, n=n: a[n]) for n in names]
    for _ in range(draw(st.integers(2, 8))):
        op = draw(st.sampled_from(("not", "and", "or")))
        (e, p), (f, q) = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        if op == "not":
            pool.append((~e, lambda a, p=p: not p(a)))
        elif op == "and":
            pool.append((e & f, lambda a, p=p, q=q: p(a) and q(a)))
        else:
            pool.append((e | f, lambda a, p=p, q=q: p(a) or q(a)))
    weights = [draw(st.integers(0, 4)) for _ in range(2 ** len(names))]
    assume(sum(weights))
    (a, pa), (b, pb) = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
    (c, pc), (d, pd) = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
    if draw(st.booleans()):
        c, pc = a & c, lambda w, f=pa, g=pc: f(w) and g(w)
    bits = itertools.product((False, True), repeat=len(names))
    dist = JointDistribution(u, {k: F(w, sum(weights)) for k, w in zip(bits, weights)})
    weighted = list(zip(weights, truth_assignments(names)))
    assume(all(any(w and p(v) for w, v in weighted) for p in (pa, pc)))
    return dist, weighted, ((a, pa), (b, pb), (c, pc), (d, pd))


class TestConjunctionPrevisionAgainstEnumeration:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(skewed_conjunctions())
    def test_brute_force_sum(self, drawn):
        dist, weighted, ((a, pa), (b, pb), (c, pc), (d, pd)) = drawn

        def mass(predicate):
            return sum(w for w, v in weighted if predicate(v))

        x = F(mass(lambda v: pa(v) and pb(v)), mass(pa))
        y = F(mass(lambda v: pc(v) and pd(v)), mass(pc))
        first = (pa, [(pb, F(1)), (lambda v: not pb(v), F(0))], x)
        second = (pc, [(pd, F(1)), (lambda v: not pd(v), F(0))], y)
        paid = sum(
            w * min(brute_value(first, v), brute_value(second, v))
            for w, v in weighted
            if pa(v) or pc(v)
        )
        expected = paid / mass(lambda v: pa(v) or pc(v))
        assert conjunction_prevision(dist, a, b, c, d) == expected


class TestFixedPoint:
    def test_basic_value(self):
        assert finite_n_fixed_point(F(1, 2), F(1, 4), 1) == F(1, 2)

    def test_independent_of_truncation_length(self):
        for n in (1, 2, 10, 50):
            assert finite_n_fixed_point(F(1, 2), F(1, 4), n) == F(1, 2)

    def test_sure_antecedent(self):
        assert finite_n_fixed_point(1, F(1, 3), 7) == F(1, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            finite_n_fixed_point(0, 0, 1)
        with pytest.raises(ValueError):
            finite_n_fixed_point(F(1, 2), F(3, 4), 1)
        with pytest.raises(ValueError):
            finite_n_fixed_point(F(1, 2), F(1, 4), 0)
