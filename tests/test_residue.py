"""Tests for rational distributions and the residue of real entropy."""

import random
from fractions import Fraction
from math import lcm

import pytest

from modent.distributions import entropy, tensor
from modent.errors import DenominatorDivisibleByP, InvalidDistribution, SumNotOne
from modent.modular import PrimeModulus
from modent.residue import (
    RationalDist,
    check_residue_well_defined,
    power_product,
    real_entropy_equal,
    reduce_mod,
    residue_additive,
    residue_entropy,
    scaled_numerators,
    tensor_rational,
)
from oracles import random_rational_dist_fractions, real_entropy_equal_big

P2 = PrimeModulus(2)
P3 = PrimeModulus(3)
P5 = PrimeModulus(5)
P7 = PrimeModulus(7)

SEED = 90210

HALF_EIGHTHS = RationalDist(
    [Fraction(1, 2), Fraction(1, 8), Fraction(1, 8), Fraction(1, 8), Fraction(1, 8)]
)
QUARTERS = RationalDist([Fraction(1, 4)] * 4)


def random_rational(rng, **kw):
    return RationalDist(random_rational_dist_fractions(rng, **kw))


def test_rational_dist_validation():
    with pytest.raises(SumNotOne) as err:
        RationalDist([Fraction(1, 2), Fraction(1, 3)])
    assert err.value.computed_sum == Fraction(5, 6)
    with pytest.raises(InvalidDistribution):
        RationalDist([Fraction(3, 2), Fraction(-1, 2)])
    with pytest.raises(InvalidDistribution):
        RationalDist([])
    d = RationalDist(["1/2", "1/4", "1/4"])  # Fraction-parsable inputs are accepted
    assert d.probs == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))


def test_reduce_mod_examples():
    assert reduce_mod(QUARTERS, P3).values() == (1, 1, 1, 1)
    assert reduce_mod(HALF_EIGHTHS, P3).values() == (2, 2, 2, 2, 2)
    with pytest.raises(DenominatorDivisibleByP) as err:
        reduce_mod(RationalDist([Fraction(1, 2), Fraction(1, 2)]), P2)
    assert err.value.index == 0


def test_residue_entropy_examples():
    assert residue_entropy(QUARTERS, P3).value == 2
    assert residue_entropy(HALF_EIGHTHS, P3).value == 2
    assert residue_entropy(RationalDist([Fraction(1)]), P7).value == 0


def test_real_entropy_equal_examples():
    assert real_entropy_equal(HALF_EIGHTHS, QUARTERS)
    perm = RationalDist(list(reversed(HALF_EIGHTHS.probs)))
    assert real_entropy_equal(HALF_EIGHTHS, perm)
    assert not real_entropy_equal(
        RationalDist([Fraction(1, 2)] * 2), RationalDist([Fraction(1, 3), Fraction(2, 3)])
    )


def test_real_entropy_equal_matches_independent_oracle():
    rng = random.Random(SEED)
    for _ in range(60):
        a, b = random_rational(rng), random_rational(rng)
        assert real_entropy_equal(a, b) == real_entropy_equal_big(a.probs, b.probs)


def test_product_criterion_is_scale_invariant():
    rng = random.Random(SEED + 1)
    for _ in range(40):
        a, b = random_rational(rng), random_rational(rng)
        t = lcm(*(q.denominator for q in a.probs), *(q.denominator for q in b.probs))
        for scale in (1, 2, 3):
            verdict = power_product(scaled_numerators(a, t * scale)) == power_product(
                scaled_numerators(b, t * scale)
            )
            assert verdict == real_entropy_equal(a, b)


def test_zero_entries_and_permutations_preserve_real_entropy():
    rng = random.Random(SEED + 2)
    for _ in range(40):
        d = random_rational(rng)
        padded = RationalDist(d.probs + (Fraction(0), Fraction(0)))
        shuffled = list(d.probs)
        rng.shuffle(shuffled)
        assert real_entropy_equal(d, padded)
        assert real_entropy_equal(d, RationalDist(shuffled))


def test_real_entropy_equal_is_an_equivalence_on_samples():
    rng = random.Random(SEED + 3)
    sample = [random_rational(rng, max_len=3, max_weight=5) for _ in range(12)]
    for a in sample:
        assert real_entropy_equal(a, a)
        for b in sample:
            assert real_entropy_equal(a, b) == real_entropy_equal(b, a)
            for c in sample:
                if real_entropy_equal(a, b) and real_entropy_equal(b, c):
                    assert real_entropy_equal(a, c)


def test_check_residue_well_defined_examples():
    for p in (P3, P5):
        report = check_residue_well_defined(HALF_EIGHTHS, QUARTERS, p)
        assert report.passed and not report.data["vacuous"]
    report = check_residue_well_defined(
        RationalDist([Fraction(1, 2)] * 2),
        RationalDist([Fraction(1, 3), Fraction(2, 3)]),
        P7,
    )
    assert report.passed and report.data["vacuous"]


def test_residues_agree_for_generated_equal_entropy_pairs():
    rng = random.Random(SEED + 4)
    for _ in range(40):
        d = random_rational(rng, max_len=4, max_weight=6)
        shuffled = list(d.probs)
        rng.shuffle(shuffled)
        variants = [
            RationalDist(shuffled),
            RationalDist(d.probs + (Fraction(0),)),
        ]
        other = random_rational(rng, max_len=3, max_weight=4)
        variants.append(tensor_rational(d, other))
        variants.append(tensor_rational(other, d))
        for v in variants[:2]:
            assert real_entropy_equal(d, v)
            for pp in (2, 3, 5, 7, 11, 13):
                p = PrimeModulus(pp)
                try:
                    report = check_residue_well_defined(d, v, p)
                except DenominatorDivisibleByP:
                    continue
                assert report.passed, f"seed={SEED + 4} p={pp}"
        # the two tensor arrangements also share their real entropy
        assert real_entropy_equal(variants[2], variants[3])
        for pp in (2, 3, 5, 7, 11, 13):
            p = PrimeModulus(pp)
            try:
                report = check_residue_well_defined(variants[2], variants[3], p)
            except DenominatorDivisibleByP:
                continue
            assert report.passed, f"seed={SEED + 4} p={pp}"


def test_residue_additive_examples():
    one = RationalDist([Fraction(1)])
    assert residue_additive(one, QUARTERS, P3).passed
    report = residue_additive(QUARTERS, QUARTERS, P3)
    assert report.passed
    assert report.data["tensor"] == 1  # fq_3(16) = 2 * fq_3(4) = 1 mod 3
    assert residue_additive(
        RationalDist([Fraction(1, 2)] * 2),
        RationalDist([Fraction(1, 3), Fraction(2, 3)]),
        P7,
    ).passed


def test_residue_additive_random():
    rng = random.Random(SEED + 5)
    for _ in range(50):
        a, b = random_rational(rng), random_rational(rng)
        for pp in (2, 3, 5, 7, 11, 13):
            p = PrimeModulus(pp)
            try:
                assert residue_additive(a, b, p).passed, f"seed={SEED + 5} p={pp}"
            except DenominatorDivisibleByP:
                continue


def test_tensor_rational_commutes_with_reduction():
    rng = random.Random(SEED + 6)
    for _ in range(40):
        a, b = random_rational(rng), random_rational(rng)
        for pp in (3, 5, 7):
            p = PrimeModulus(pp)
            try:
                lhs = reduce_mod(tensor_rational(a, b), p)
            except DenominatorDivisibleByP:
                continue
            assert lhs == tensor(reduce_mod(a, p), reduce_mod(b, p))
            assert entropy(lhs) == residue_entropy(a, p) + residue_entropy(b, p)
