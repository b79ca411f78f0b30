"""Tests for rational distributions and the residue of real entropy."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import modent
from modent.distributions import entropy, tensor
from modent.errors import DenominatorDivisibleByP, InvalidDistribution, ParseError, SumNotOne
from modent.modular import PrimeModulus
from modent.residue import (
    RationalDist,
    check_residue_well_defined,
    real_entropy_equal,
    reduce_mod,
    residue_additive,
    residue_entropy,
    scaled_numerators,
    tensor_rational,
)
from oracles import power_product, random_rational_dist_fractions, real_entropy_equal_big

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


def test_rational_dist_refuses_bad_strings_with_typed_errors():
    for entries in (["abc"], ["1/0"], ["1/2", "1/2x"]):
        with pytest.raises(ParseError):
            RationalDist(entries)
    # a sum whose digits exceed the int-to-str limit is reported, not formatted
    for entries in (["1e-4300"], [Fraction(1, 10**5000)]):
        with pytest.raises(SumNotOne) as err:
            RationalDist(entries)
        assert "expected 1" in str(err.value)
    # an exponent at the limit still parses
    assert RationalDist(["1e-4300", "0." + "9" * 4300]).probs[0] == Fraction(1, 10**4300)


def test_rational_dist_takes_only_strs_and_rationals():
    # no floating point: a float is refused like any other non-rational entry
    for entries in ([0.5, 0.5], [None], [b"1"]):
        with pytest.raises(InvalidDistribution):
            RationalDist(entries)
    assert RationalDist([1, 0]).probs == (Fraction(1), Fraction(0))


def test_rational_dist_refuses_a_huge_exponent_before_the_number_is_built():
    # Fraction("1e-99999999") would build a 10^8-digit integer for minutes, so
    # the refused entries run in a subprocess whose timeout keeps a regression
    # from hanging the suite
    code = (
        "from modent.errors import ParseError\n"
        "from modent.residue import RationalDist\n"
        "for tok in ('1e-99999999', '1E+99999999', '2e-4301', '1e0000000000000000000099_999_999'):\n"
        "    try:\n"
        "        RationalDist([tok, '1'])\n"
        "    except ParseError as exc:\n"
        "        assert 'exponent' in str(exc), exc\n"
        "    else:\n"
        "        raise SystemExit(tok)\n"
    )
    src = os.path.dirname(os.path.dirname(modent.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr


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


# small weights, so that the oracle's products prod r^r stay a few thousand bits
WEIGHTS = st.lists(st.integers(1, 6), min_size=1, max_size=4)
PRIMES_TO_50 = tuple(q for q in range(2, 51) if all(q % d for d in range(2, q)))


def weighted(weights) -> RationalDist:
    total = sum(weights)
    return RationalDist([Fraction(w, total) for w in weights])


@st.composite
def equal_entropy_pairs(draw):
    """Two distributions of equal real entropy, by one of four constructions."""
    a = weighted(draw(WEIGHTS))
    kind = draw(st.sampled_from(("permuted", "padded", "tensors", "eighths")))
    if kind == "permuted":
        return a, RationalDist(draw(st.permutations(a.probs)))
    if kind == "padded":
        zeros = (Fraction(0),) * draw(st.integers(1, 3))
        return a, RationalDist(draw(st.permutations(a.probs + zeros)))
    c = weighted(draw(WEIGHTS))
    if kind == "tensors":
        return tensor_rational(a, c), tensor_rational(c, a)
    return tensor_rational(HALF_EIGHTHS, c), tensor_rational(QUARTERS, c)


def product_criterion(a, b) -> bool:
    t = lcm(*(q.denominator for q in a.probs), *(q.denominator for q in b.probs))
    return power_product(scaled_numerators(a, t)) == power_product(scaled_numerators(b, t))


@seed(SEED)
@settings(max_examples=80, deadline=None)
@given(equal_entropy_pairs(), WEIGHTS.map(weighted), WEIGHTS.map(weighted))
def test_real_entropy_equal_matches_the_product_criterion(pair, c, d):
    assert real_entropy_equal(*pair) and product_criterion(*pair)
    assert real_entropy_equal(c, d) == product_criterion(c, d)
    assert real_entropy_equal(pair[0], d) == product_criterion(pair[0], d)


@seed(SEED + 1)
@settings(max_examples=40, deadline=None)
@given(equal_entropy_pairs())
def test_residue_map_is_well_defined(pair):
    a, b = pair
    denominators = lcm(*(q.denominator for q in a.probs + b.probs))
    for q in PRIMES_TO_50:
        if denominators % q:
            report = check_residue_well_defined(a, b, PrimeModulus(q))
            assert report.passed and not report.data["vacuous"], q


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
