"""Tests for residue arithmetic, the Fermat quotient and the p-derivation."""

import random

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from modent.errors import DivisibleByP, ModentError, ModulusMismatch, NotPrime, RangeGuard
from modent.modular import (
    VERIFIER_PRIME_GUARD,
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
from modent.verification import FAILURE_SAMPLES, Failures
from oracles import fq_big, non_additive_pairs, pderiv_big

P3 = PrimeModulus(3)
P5 = PrimeModulus(5)
P7 = PrimeModulus(7)

SEED = 20260811

# the first prime the exhaustive verifiers refuse
ABOVE_VERIFIER_GUARD = next(n for n in range(VERIFIER_PRIME_GUARD + 1, 2 * VERIFIER_PRIME_GUARD + 1) if is_prime(n))
# the first prime whose verifier tables would not fit a byte per value
FIRST_PRIME_PAST_A_BYTE = 257


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


def test_residue_rejects_non_integer_values():
    from modent.distributions import ModDist
    from modent.errors import InvalidResidue

    for value in (0.5, 1.0, "1", None):
        with pytest.raises(InvalidResidue) as info:
            Residue(value, P3)
        assert isinstance(info.value, ModentError) and isinstance(info.value, TypeError)
    # 0.5 + 0.5 = 1 used to pass the sum check and fail later inside entropy
    with pytest.raises(InvalidResidue):
        ModDist(P3, (0.5, 0.5))
    assert Residue(True, P3).value == 1
    assert Residue(Residue(2, P3), P3).value == 2


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
    for pp in (ABOVE_VERIFIER_GUARD, FIRST_PRIME_PAST_A_BYTE):
        with pytest.raises(RangeGuard):
            verify_fq_laws(PrimeModulus(pp))


def test_verify_hom_uniqueness_passes():
    for pp in (2, 3, 5):
        report = verify_hom_uniqueness(PrimeModulus(pp))
        assert report.passed, report.failures
        assert report.data["homomorphisms"] == pp


def test_verify_hom_uniqueness_guard():
    for pp in (ABOVE_VERIFIER_GUARD, FIRST_PRIME_PAST_A_BYTE):
        with pytest.raises(RangeGuard):
            verify_hom_uniqueness(PrimeModulus(pp))


def test_verify_core_cli_exits_2_above_the_guard(capsys):
    from modent import cli

    assert cli.run(["verify-core", "--p", str(ABOVE_VERIFIER_GUARD)]) == 2
    assert f"capped at p <= {VERIFIER_PRIME_GUARD}" in capsys.readouterr().err


def test_residue_equals_and_hashes_like_its_value_only():
    # a residue equals the int `value` in [0, p), not the other ints congruent to it
    assert Residue(1, P3) == 1 and 1 == Residue(1, P3)
    assert Residue(1, P3) != 4 and Residue(2, P3) != -1
    assert 1 in {Residue(1, P3)} and Residue(1, P3) in {1}
    assert 4 not in {Residue(1, P3)}
    assert hash(Residue(4, P3)) == hash(1) and hash(Residue(True, P3)) == hash(True)
    assert Residue(1, P3) != Residue(1, P5)
    assert LiftedResidue(26, P5) == 1 and LiftedResidue(26, P5) != 26
    assert 1 in {LiftedResidue(26, P5)} and 26 not in {LiftedResidue(26, P5)}
    assert hash(LiftedResidue(26, P5)) == hash(1)
    assert LiftedResidue(1, P5) != Residue(1, P5)


def test_non_integer_values_raise_invalid_residue_at_every_edge():
    from modent.errors import InvalidResidue

    for bad in (0.5, 2.5, "2", None, Residue(2, P3)):
        with pytest.raises(InvalidResidue):
            LiftedResidue(bad, P3)
        with pytest.raises(InvalidResidue):
            fermat_quotient(bad, P3)
        with pytest.raises(InvalidResidue):
            p_derivation(bad, P3)
    with pytest.raises(ModulusMismatch):
        fermat_quotient(LiftedResidue(2, P5), P3)
    assert fermat_quotient(LiftedResidue(11, P3), P3) == fermat_quotient(2, P3)
    assert p_derivation(True, P3) == p_derivation(1, P3)


def test_verifiers_cap_failure_lines_and_count_every_failure(monkeypatch):
    import modent.modular as modular

    real = modular._fq
    # fq + 1 breaks fq(1) = 0 and every product law, and keeps laws 2 and 3
    monkeypatch.setattr(modular, "_fq", lambda a, p, p2: (real(a, p, p2) + 1) % p)
    for pp in (3, 5, 11):
        p = PrimeModulus(pp)
        u = pp * pp - pp
        laws = verify_fq_laws(p)
        assert not laws.passed
        assert len(laws.failures) == FAILURE_SAMPLES == 20
        assert laws.data["failures_total"] == 1 + u * u
        assert laws.failures[:2] == ("fq(1) = 1 != 0", "fq(1*1) != fq(1) + fq(1)")
        assert laws.checks == 1 + u * u + u * pp + u

        homs = verify_hom_uniqueness(p)
        assert not homs.passed and len(homs.failures) == 20
        # every pair breaks fq's homomorphism law; the candidates stay
        # homomorphisms, and for each image != 0 the candidate agrees with
        # c * (fq + 1) exactly at the p - 1 units whose discrete log is 1 mod p
        assert homs.data["failures_total"] == u * u + (pp - 1) * (u - (pp - 1))
        assert homs.failures[0] == "fq not a homomorphism at (1, 1)"
        assert homs.checks == u * u + 1 + pp * (u * u + u)
        if pp == 3:
            units = (1, 2, 4, 5, 7, 8)
            pairs = [(a, b) for a in units for b in units]
            assert laws.failures == ("fq(1) = 1 != 0",) + tuple(
                f"fq({a}*{b}) != fq({a}) + fq({b})" for a, b in pairs[:19]
            )
            assert homs.failures == tuple(f"fq not a homomorphism at ({a}, {b})" for a, b in pairs[:20])


# the least unit of order p(p - 1) mod p², pinned from the verifiers' reports
GENERATORS = {2: 3, 3: 2, 5: 2, 7: 3, 11: 2, 13: 2}


def test_verifier_tables_list_the_units_as_powers_of_one_generator():
    import modent.modular as modular

    assert ABOVE_VERIFIER_GUARD <= FIRST_PRIME_PAST_A_BYTE
    for pp in [n for n in range(VERIFIER_PRIME_GUARD + 1) if is_prime(n)]:
        _, p2, units, _, powers = modular._verifier_tables(PrimeModulus(pp))
        assert sorted(powers) == units and powers[0] == 1
        e = powers[1]
        assert all(powers[k + 1] == powers[k] * e % p2 for k in range(len(powers) - 1))
        assert powers[-1] * e % p2 == 1
        if pp in GENERATORS:
            assert verify_hom_uniqueness(PrimeModulus(pp)).data["generator"] == e == GENERATORS[pp]


def test_additivity_check_counts_every_broken_pair_and_keeps_its_lines():
    import modent.modular as modular

    _, p2, units, fq, powers = modular._verifier_tables(P5)
    failures = Failures()
    modular._add_non_additive(failures, fq, units, powers, 5, lambda a, b: f"{a}*{b}")
    assert failures.total == 0 and failures.lines == []

    # fq + 1 at the one unit c = 7 breaks (a, b) unless the 7s among ab, a and
    # b cancel: the 18 pairs with ab = 7 and a, b != 7, the 18 with a = 7 and
    # b not in {1, 7}, the 18 with b = 7 and a not in {1, 7}, and (7, 7)
    planted = list(fq)
    planted[7] = (planted[7] + 1) % 5
    modular._add_non_additive(failures, planted, units, powers, 5, lambda a, b: f"{a}*{b}")
    u = len(units)
    assert failures.total == 3 * (u - 2) + 1 == 55
    broken = [(a, b) for a in units for b in units if (a * b % p2 == 7) - (a == 7) - (b == 7)]
    assert len(failures.lines) == FAILURE_SAMPLES
    assert failures.lines == [f"{a}*{b}" for a, b in broken[:FAILURE_SAMPLES]]


@st.composite
def tables_with_faults(draw):
    """(p, a table over [0, p²) with values in [0, p)): c*fq or random, then one to six faults at units.

    Faults fall often at 1 = e^0 and at the generator e = e^1, where the
    rows read as slices of the table over the powers of e wrap around.
    """
    import modent.modular as modular

    p = draw(st.sampled_from((2, 3, 5, 7, 11, 13)))
    _, p2, units, fq, powers = modular._verifier_tables(PrimeModulus(p))
    if draw(st.booleans()):
        c = draw(st.integers(0, p - 1))
        table = [c * v % p for v in fq]
    else:
        table = draw(st.lists(st.integers(0, p - 1), min_size=p2, max_size=p2))
    at = st.one_of(st.sampled_from(powers[:2]), st.sampled_from(units))
    faults = draw(st.lists(st.tuples(at, st.integers(1, p - 1)), min_size=1, max_size=6))
    for u, shift in faults:
        table[u] = (table[u] + shift) % p
    return p, table


@seed(SEED)
@settings(max_examples=80, deadline=None)
@given(tables_with_faults())
def test_row_check_matches_the_per_pair_reference(case):
    import modent.modular as modular

    p, table = case
    _, _, units, _, powers = modular._verifier_tables(PrimeModulus(p))
    failures = Failures()
    modular._add_non_additive(failures, table, units, powers, p, lambda a, b: f"{a}*{b}")
    pairs = non_additive_pairs(table, units, p)
    assert failures.total == len(pairs)
    assert failures.lines == [f"{a}*{b}" for a, b in pairs[:FAILURE_SAMPLES]]


def test_a_fault_in_one_candidate_follows_fqs_lines(monkeypatch):
    import modent.modular as modular

    real = modular._add_non_additive
    seen = {}

    def planted(failures, f, units, powers, q, line_of, fault_in):
        # add 1 at the unit 2 of each table whose line at (1, 1) is in fault_in
        if line_of(1, 1) in fault_in:
            f = list(f)
            f[2] = (f[2] + 1) % q
            seen[line_of(1, 1)] = non_additive_pairs(f, units, q)
        real(failures, f, units, powers, q, line_of)

    candidate = "candidate with e -> 2 is not a homomorphism"
    # the candidate alone at p = 5: fq and the other candidates stay clean
    monkeypatch.setattr(modular, "_add_non_additive", lambda *args: planted(*args, {candidate}))
    report = verify_hom_uniqueness(P5)
    total = len(seen[candidate])
    assert total > 0 and report.data["failures_total"] == total
    assert report.failures == (candidate,) * min(total, FAILURE_SAMPLES)

    # with fq faulted too, at p = 3, fq's lines come first and the candidate's follow
    fq_line = "fq not a homomorphism at (1, 1)"
    monkeypatch.setattr(modular, "_add_non_additive", lambda *args: planted(*args, {fq_line, candidate}))
    report = verify_hom_uniqueness(P3)
    fq_pairs, candidate_pairs = seen[fq_line], seen[candidate]
    assert fq_pairs and candidate_pairs
    expected = [f"fq not a homomorphism at ({a}, {b})" for a, b in fq_pairs]
    expected += [candidate] * len(candidate_pairs)
    assert report.data["failures_total"] == len(expected)
    assert report.failures == tuple(expected[:FAILURE_SAMPLES])


def test_verifiers_report_zero_failures_total_when_they_pass():
    for pp in (2, 5):
        for report in (verify_fq_laws(PrimeModulus(pp)), verify_hom_uniqueness(PrimeModulus(pp))):
            assert report.passed and report.data["failures_total"] == 0
