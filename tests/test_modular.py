"""Tests for residue arithmetic, the Fermat quotient and the p-derivation."""

import random

import pytest

from modent.errors import DivisibleByP, ModentError, ModulusMismatch, NotPrime, RangeGuard
from modent.modular import (
    LiftedResidue,
    PrimeModulus,
    Residue,
    fermat_quotient,
    fq_section,
    is_prime,
    p_derivation,
    verify_fq_laws,
    verify_hom_uniqueness,
)
from oracles import fq_big, pderiv_big

P3 = PrimeModulus(3)
P5 = PrimeModulus(5)
P7 = PrimeModulus(7)

SEED = 20260811


def test_prime_modulus_accepts_primes():
    for p in (2, 3, 5, 97, 101, 2**31 - 1):
        assert PrimeModulus(p).p == p


def test_prime_modulus_rejects_nonprimes():
    for n in (-7, 0, 1, 4, 91, 561, 1105):  # includes Carmichael numbers
        with pytest.raises(ValueError):
            PrimeModulus(n)


def test_prime_modulus_errors_are_typed():
    with pytest.raises(NotPrime) as err:
        PrimeModulus(4)
    assert isinstance(err.value, ModentError) and isinstance(err.value, ValueError)
    with pytest.raises(RangeGuard, match="3.3e24"):
        PrimeModulus(2**89 - 1)


def test_is_prime_small_table():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    assert {n for n in range(50) if is_prime(n)} == primes


def test_residue_canonicalization_and_arithmetic():
    a = Residue(7, P5)
    b = Residue(-1, P5)
    assert a.value == 2 and b.value == 4
    assert (a + b).value == 1
    assert (a - b).value == 3
    assert (a * b).value == 3
    assert (-a).value == 3
    assert (a**3).value == 3
    assert (b / a).value == 2
    assert (1 / a).value == 3
    assert a + 3 == Residue(0, P5)
    assert 3 * a == Residue(1, P5)


def test_residue_negative_powers():
    a = Residue(2, P5)
    assert (a**-1).value == 3
    assert a**-3 == (a**3).inverse()
    with pytest.raises(ZeroDivisionError):
        Residue(0, P5) ** -1


def test_residue_division_by_zero_is_hard_error():
    with pytest.raises(ZeroDivisionError):
        Residue(1, P5) / Residue(0, P5)
    with pytest.raises(ZeroDivisionError):
        Residue(0, P5).inverse()


def test_residue_modulus_mismatch():
    with pytest.raises(ModulusMismatch):
        Residue(1, P5) + Residue(1, P3)
    with pytest.raises(ModulusMismatch):
        Residue(Residue(1, P3), P5)


def test_lifted_residue_canonical_range():
    x = LiftedResidue(26, P5)
    assert x.value == 1
    assert (x * LiftedResidue(7, P5)).value == 7
    assert (LiftedResidue(7, P5) ** 2).value == 24
    assert LiftedResidue(5, P5).is_unit() is False


def test_fermat_quotient_examples():
    assert fermat_quotient(1, P5).value == 0
    assert fermat_quotient(4, P3).value == 2  # -1 mod 3
    assert fermat_quotient(2, P5).value == 3  # (2^4 - 1)/5


def test_fermat_quotient_rejects_multiples_of_p():
    with pytest.raises(DivisibleByP):
        fermat_quotient(10, P5)
    with pytest.raises(DivisibleByP):
        fermat_quotient(0, P3)


def test_fermat_quotient_matches_big_integer_oracle():
    rng = random.Random(SEED)
    for p in (P3, P5, P7, PrimeModulus(13)):
        for a in range(1, p.p_squared + 1):
            if a % p.p:
                assert fermat_quotient(a, p).value == fq_big(a, p.p)
        for _ in range(50):
            a = rng.randint(-(10**12), 10**12)
            if a % p.p:
                assert fermat_quotient(a, p).value == fq_big(a, p.p), f"seed={SEED} a={a}"


def test_fermat_quotient_p_squared_periodic():
    for pp in (2, 3, 5, 7, 11, 13):
        p = PrimeModulus(pp)
        for a in range(1, p.p_squared):
            if a % pp:
                for r in (1, 2, 7):
                    assert fermat_quotient(a + r * p.p_squared, p) == fermat_quotient(a, p)


def test_p_derivation_examples():
    assert p_derivation(1, P7).value == 0
    assert p_derivation(0, P7).value == 0
    assert p_derivation(3, P3).value == 1  # (3 - 27)/3 = -8


def test_p_derivation_matches_big_integer_oracle():
    rng = random.Random(SEED + 1)
    for p in (P3, P5, P7):
        for a in range(p.p_squared):
            assert p_derivation(a, p).value == pderiv_big(a, p.p)
        for _ in range(50):
            a = rng.randint(-(10**12), 10**12)
            assert p_derivation(a, p).value == pderiv_big(a, p.p), f"seed={SEED + 1} a={a}"


def test_p_derivation_relates_to_fermat_quotient():
    # d(a) = -a * fq(a) on units, and d(a) = a/p mod p on multiples of p
    for pp in (2, 3, 5, 7, 11, 13):
        p = PrimeModulus(pp)
        for a in range(p.p_squared):
            if a % pp:
                assert p_derivation(a, p) == -Residue(a, p) * fermat_quotient(a, p)
            else:
                assert p_derivation(a, p).value == (a // pp) % pp


def test_leibniz_rule_exhaustive_small_primes():
    for pp in (2, 3, 5, 7):
        p = PrimeModulus(pp)
        for a in range(p.p_squared):
            for b in range(p.p_squared):
                lhs = p_derivation(a * b, p)
                rhs = p_derivation(a, p) * b + a * p_derivation(b, p)
                assert lhs == rhs, (pp, a, b)


def test_fq_section_examples():
    assert fq_section(Residue(0, P5)).value == 1
    assert fq_section(Residue(1, P3)).value == 7
    assert fq_section(Residue(2, P5)).value == 16


def test_fq_section_is_right_inverse():
    for pp in (2, 3, 5, 7, 11, 13):
        p = PrimeModulus(pp)
        for r in range(pp):
            lifted = fq_section(Residue(r, p))
            assert lifted.is_unit()
            assert fermat_quotient(lifted.value, p).value == r


def test_verify_fq_laws_passes():
    for pp in (2, 3, 13):
        report = verify_fq_laws(PrimeModulus(pp))
        assert report.passed, report.failures
        assert report.checks > 0


def test_verify_fq_laws_guard():
    with pytest.raises(RangeGuard):
        verify_fq_laws(PrimeModulus(101))


def test_verify_hom_uniqueness_passes():
    for pp in (2, 3, 5):
        report = verify_hom_uniqueness(PrimeModulus(pp))
        assert report.passed, report.failures
        assert report.data["homomorphisms"] == pp


def test_verify_hom_uniqueness_guard():
    with pytest.raises(RangeGuard):
        verify_hom_uniqueness(PrimeModulus(103))
