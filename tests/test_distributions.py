"""Tests for distributions mod p, composition, and the entropy function."""

import random
from itertools import product
from math import comb

import pytest

from modent.distributions import (
    ModDist,
    ModMeasure,
    compose,
    compositions,
    entropy,
    entropy_measure,
    entropy_of_representatives,
    measure_entropy_of_representatives,
    pad_zeros,
    tensor,
    uniform,
)
from modent.errors import (
    ArityMismatch,
    DivisibleByP,
    IndexOutOfRange,
    InvalidDistribution,
    ModulusMismatch,
    SumNotOne,
)
from modent.modular import PrimeModulus, Residue, fermat_quotient
from oracles import entropy_big, measure_entropy_big, random_mod_dist_values

P2 = PrimeModulus(2)
P3 = PrimeModulus(3)
P5 = PrimeModulus(5)

SEED = 4021


def test_mod_dist_validation():
    assert ModDist(P3, (1, 1, 1, 1)).values() == (1, 1, 1, 1)
    assert ModDist(P3, (-1, -1, 0)).values() == (2, 2, 0)  # sum -2 = 1 mod 3
    with pytest.raises(SumNotOne) as err:
        ModDist(P3, (1, 1))
    assert err.value.computed_sum == 2
    with pytest.raises(InvalidDistribution):
        ModDist(P3, ())
    with pytest.raises(ModulusMismatch):
        ModDist(P3, (Residue(1, P5),))
    with pytest.raises(SumNotOne):
        entropy_of_representatives((1, 1), P3)


def test_compositions_match_brute_force():
    # positive parts only: nothing when total < parts, (0, 1) included, and
    # nothing for parts <= 0, not even () for total = 0
    for total in range(9):
        for parts in range(-1, 7):
            expected = [c for c in product(range(1, total + 1), repeat=parts) if sum(c) == total] if parts > 0 else []
            assert list(compositions(total, parts)) == expected, (total, parts)
            if 1 <= parts <= total:
                assert len(expected) == comb(total - 1, parts - 1)


def test_entropy_examples():
    assert entropy(ModDist(P5, (1,))).value == 0
    assert entropy(ModDist(P3, (1, 1, 1, 1))).value == 2
    assert entropy(ModDist(P5, (2, 4))).value == 4


def test_entropy_matches_big_integer_oracle():
    rng = random.Random(SEED)
    for pp in (2, 3, 5, 7, 11):
        p = PrimeModulus(pp)
        for _ in range(60):
            values = random_mod_dist_values(rng, pp, rng.randint(1, 6))
            assert entropy(ModDist(p, values)).value == entropy_big(values, pp), (
                f"seed={SEED} p={pp} values={values}"
            )


def test_entropy_independent_of_representatives():
    rng = random.Random(SEED + 1)
    for pp in (2, 3, 5, 7):
        p = PrimeModulus(pp)
        for _ in range(40):
            values = random_mod_dist_values(rng, pp, rng.randint(1, 5))
            shifted = [v + pp * rng.randint(-20, 20) for v in values]
            assert entropy_of_representatives(shifted, p) == entropy(ModDist(p, values))


def test_entropy_of_representatives_rejects_bad_sum():
    with pytest.raises(ValueError):
        entropy_of_representatives((1, 1), P3)


def test_entropy_of_representatives_reads_a_generator_once():
    # both sums must see every representative; a generator used to be exhausted
    # by the first one, so the power sum read nothing and the result was 0
    assert entropy_of_representatives((a for a in (1, 1, 1, 1)), P3).value == 2
    for reps in ((1, 2, 2), (1, 1, 0, 4)):
        expected = measure_entropy_big(reps, 3)
        assert measure_entropy_of_representatives((a for a in reps), P3).value == expected


def test_entropy_equals_derivation_defect():
    # H measures how far the p-derivation is from preserving the sum:
    # H(d) = sum d(a_i) - d(sum a_i) for any integer representatives
    from modent.modular import p_derivation

    rng = random.Random(SEED + 9)
    for pp in (2, 3, 5, 7):
        p = PrimeModulus(pp)
        for _ in range(40):
            values = random_mod_dist_values(rng, pp, rng.randint(1, 5))
            reps = [v + pp * rng.randint(-9, 9) for v in values]
            via_derivation = sum(
                (p_derivation(a, p) for a in reps), Residue(0, p)
            ) - p_derivation(sum(reps), p)
            assert entropy(ModDist(p, values)) == via_derivation, f"seed={SEED + 9}"


def test_entropy_works_at_large_primes():
    from oracles import entropy_big, fq_big

    p = PrimeModulus(10007)
    d = ModDist(p, (5000, 5008))  # sums to 10008 = 1 mod p
    assert entropy(d).value == entropy_big((5000, 5008), 10007)
    assert entropy(uniform(12, p)).value == fq_big(12, 10007)


def test_measure_entropy_examples():
    assert entropy_measure(ModMeasure(P3, ())).value == 0
    assert entropy_measure(ModMeasure(P3, (1, 1, 1, 1))).value == 2
    assert entropy_measure(ModMeasure(P3, (2, 2, 2, 2))).value == 1


def test_measure_entropy_extends_entropy_and_is_homogeneous():
    rng = random.Random(SEED + 2)
    for pp in (2, 3, 5, 7):
        p = PrimeModulus(pp)
        for _ in range(40):
            values = random_mod_dist_values(rng, pp, rng.randint(1, 5))
            d = ModDist(p, values)
            assert entropy_measure(ModMeasure(p, values)) == entropy(d)
        for _ in range(40):
            weights = tuple(rng.randrange(pp) for _ in range(rng.randint(0, 5)))
            m = ModMeasure(p, weights)
            base = entropy_measure(m)
            for lam in range(pp):
                assert entropy_measure(m.scale(lam)) == lam * base
            assert entropy_measure(m).value == measure_entropy_big(weights, pp)


def test_compose_unit_laws():
    g = ModDist(P5, (2, 4))
    one = ModDist(P5, (1,))
    assert compose(one, (g,)) == g
    assert compose(g, (one, one)) == g


def test_compose_examples():
    c = compose(ModDist(P3, (2, 2)), (ModDist(P3, (1,)), ModDist(P3, (2, 2))))
    assert c.values() == (2, 1, 1)
    p7 = PrimeModulus(7)
    c2 = compose(ModDist(p7, (4, 4)), (uniform(6, p7), uniform(3, p7)))
    assert len(c2) == 9
    assert sum(c2.values()) % 7 == 1
    assert c2.values() == (3, 3, 3, 3, 3, 3, 6, 6, 6)


def test_compose_errors():
    with pytest.raises(ArityMismatch):
        compose(ModDist(P3, (2, 2)), (ModDist(P3, (1,)),))
    with pytest.raises(ModulusMismatch):
        compose(ModDist(P3, (1,)), (ModDist(P5, (1,)),))


def test_chain_rule_random():
    rng = random.Random(SEED + 3)
    for _ in range(400):
        pp = rng.choice((2, 3, 5, 7, 11))
        p = PrimeModulus(pp)
        n = rng.randint(1, 4)
        outer = ModDist(p, random_mod_dist_values(rng, pp, n))
        inners = [
            ModDist(p, random_mod_dist_values(rng, pp, rng.randint(1, 4)))
            for _ in range(n)
        ]
        lhs = entropy(compose(outer, inners))
        rhs = entropy(outer)
        for pi, g in zip(outer.probs, inners):
            rhs = rhs + pi * entropy(g)
        assert lhs == rhs, f"seed={SEED + 3} p={pp} outer={outer.values()}"


def test_tensor_examples_and_additivity():
    one = ModDist(P5, (1,))
    g = ModDist(P5, (2, 4))
    assert tensor(one, g) == g
    assert tensor(uniform(2, P3), uniform(2, P3)).values() == (1, 1, 1, 1)
    assert entropy(tensor(uniform(2, P3), uniform(2, P3))) == fermat_quotient(4, P3)
    rng = random.Random(SEED + 4)
    for _ in range(100):
        pp = rng.choice((2, 3, 5, 7))
        p = PrimeModulus(pp)
        a = ModDist(p, random_mod_dist_values(rng, pp, rng.randint(1, 4)))
        b = ModDist(p, random_mod_dist_values(rng, pp, rng.randint(1, 4)))
        assert entropy(tensor(a, b)) == entropy(a) + entropy(b)


def test_uniform_examples():
    assert uniform(1, P3).values() == (1,)
    assert entropy(uniform(1, P3)).value == 0
    assert uniform(4, P3).values() == (1, 1, 1, 1)
    assert entropy(uniform(4, P3)).value == 2
    assert uniform(6, P5).values() == (1,) * 6
    assert entropy(uniform(6, P5)).value == 4


def test_uniform_entropy_is_fermat_quotient():
    for pp in (2, 3, 5, 7):
        p = PrimeModulus(pp)
        for n in range(1, pp * pp):
            if n % pp:
                assert entropy(uniform(n, p)) == fermat_quotient(n, p)


def test_uniform_rejects_multiples_of_p():
    with pytest.raises(DivisibleByP):
        uniform(6, P3)
    with pytest.raises(ValueError):
        uniform(0, P3)


def test_pad_zeros():
    d = ModDist(P3, (2, 2))
    assert pad_zeros(d, 1, 1).values() == (2, 0, 2)
    assert entropy(pad_zeros(d, 1, 1)) == entropy(d)
    assert pad_zeros(ModDist(P5, (1,)), 1, 2).values() == (1, 0, 0)
    assert entropy(pad_zeros(ModDist(P5, (1,)), 1, 2)).value == 0
    four = ModDist(P3, (1, 1, 1, 1))
    assert pad_zeros(four, 2, 1).values() == (1, 1, 0, 1, 1)
    assert entropy(pad_zeros(four, 2, 1)).value == 2
    with pytest.raises(IndexOutOfRange):
        pad_zeros(d, 3, 1)
    with pytest.raises(ValueError):
        pad_zeros(d, 0, -1)


def test_nonzero_sum_padding_changes_entropy():
    # appending (1,1,1) mod 3 sums to zero but shifts the entropy
    assert entropy(ModDist(P3, (1, 1, 1, 1))).value != entropy(ModDist(P3, (1,))).value


def test_p2_support_closed_form():
    from itertools import product as iproduct

    for n in range(1, 9):
        for head in iproduct((0, 1), repeat=n - 1):
            values = head + ((1 - sum(head)) % 2,)
            support = sum(1 for v in values if v)
            expected = ((support - 1) // 2) % 2
            assert entropy(ModDist(P2, values)).value == expected


def test_two_element_closed_form():
    for pp in (3, 5, 7, 11, 13):
        p = PrimeModulus(pp)
        for a in range(pp):
            d = ModDist(p, (a, 1 - a))
            expected = Residue(0, p)
            for r in range(1, pp):
                expected = expected + Residue(a, p) ** r / Residue(r, p)
            assert entropy(d) == expected, (pp, a)
    for a in range(2):
        assert entropy(ModDist(P2, (a, 1 - a))).value == 0
