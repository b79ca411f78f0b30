"""Tests for sparse polynomials over Z/pZ and the entropy polynomial."""

import operator
import random
from itertools import product
from math import comb

import pytest

from modent.distributions import ModDist, entropy
from modent.errors import (
    ArityMismatch,
    DegreeTooHigh,
    IndexOutOfRange,
    InvalidPolynomial,
    InvalidSize,
    ModentError,
    ModulusMismatch,
    RangeGuard,
)
from modent.modular import PrimeModulus, Residue
from modent.polynomials import (
    POLY_TERM_GUARD,
    MultiPoly,
    check_cocycle,
    check_fundamental,
    check_grouping,
    check_poly_chain_rule,
    check_pounds1_formula,
    check_symmetry_pounds1,
    entropy_poly,
    homogenize,
    homogenize_check,
    identity_reports,
    interpolate,
    pounds1,
)
from oracles import entropy_poly_terms, random_mod_dist_values

P2 = PrimeModulus(2)
P3 = PrimeModulus(3)
P5 = PrimeModulus(5)

SEED = 61803


def test_multipoly_canonicalization():
    f = MultiPoly(P3, 2, {(1, 0): 3, (0, 1): 4, (2, 0): 0})
    assert f.terms == {(0, 1): 1}  # 3 = 0 and explicit zeros vanish
    assert MultiPoly(P3, 1, [((1,), 2), ((1,), 1)]).is_zero()
    with pytest.raises(ArityMismatch):
        MultiPoly(P3, 2, {(1,): 1})
    with pytest.raises(ValueError):
        MultiPoly(P3, 1, {(-1,): 1})
    assert MultiPoly(P5, 1, {(1,): Residue(3, P5), (0,): -1}).terms == {(1,): 3, (0,): 4}


@pytest.mark.parametrize(
    "terms",
    [{(1,): 0.5}, {(1.5,): 1}, {(1,): "3"}, {(-1,): 1}],
    ids=["float-coefficient", "float-exponent", "str-coefficient", "negative-exponent"],
)
def test_multipoly_rejects_malformed_terms(terms):
    with pytest.raises(InvalidPolynomial) as info:
        MultiPoly(P5, 1, terms)
    assert isinstance(info.value, ModentError) and isinstance(info.value, ValueError)


@pytest.mark.parametrize(
    "op",
    [operator.mul, operator.add, operator.sub, lambda f, c: c * f, lambda f, c: c - f],
    ids=["mul", "add", "sub", "rmul", "rsub"],
)
def test_multipoly_rejects_residue_of_another_modulus(op):
    x = MultiPoly.variable(P5, 1, 0)
    with pytest.raises(ModulusMismatch):
        op(x, Residue(2, P3))
    assert op(x, Residue(2, P5)) == op(x, 2)


@pytest.mark.parametrize(
    "p,nvars",
    [(5, 1), (None, 1), (P5, -1), (P5, 1.0), (P5, "2")],
    ids=["int-prime", "no-prime", "negative-nvars", "float-nvars", "str-nvars"],
)
def test_multipoly_rejects_malformed_prime_or_nvars(p, nvars):
    with pytest.raises(InvalidPolynomial) as info:
        MultiPoly(p, nvars, {})
    assert isinstance(info.value, ModentError)
    assert MultiPoly(P5, 0, {(): 3}).terms == {(): 3}


def test_multipoly_edges_reject_foreign_input():
    x = MultiPoly.variable(P5, 2, 0)
    with pytest.raises(ModulusMismatch):
        MultiPoly(P5, 1, {(1,): Residue(2, P3)})
    with pytest.raises(ModulusMismatch):
        x.evaluate((Residue(1, P3), 0))
    with pytest.raises(ModulusMismatch):
        homogenize(pounds1(P3), P5)
    with pytest.raises(TypeError):
        x + 0.5
    for positions in ((0, 0), (0, 3), (-1, 1)):
        with pytest.raises(IndexOutOfRange):
            x.embed(3, positions)
    with pytest.raises(IndexOutOfRange):
        MultiPoly.variable(P5, 2, -1)


def test_multipoly_ring_operations():
    x = MultiPoly.variable(P5, 2, 0)
    y = MultiPoly.variable(P5, 2, 1)
    f = (x + y) ** 2
    assert f.terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    assert ((x + y) * (x - y)).terms == {(2, 0): 1, (0, 2): 4}
    assert (f - f).is_zero()
    assert (3 * x + x * 2).terms == {(1, 0): 0} or (3 * x + 2 * x).terms == {}
    assert (x + 4 * x).is_zero()
    g = 1 - x
    assert g.terms == {(0, 0): 1, (1, 0): 4}
    with pytest.raises(ModulusMismatch):
        x * MultiPoly.variable(P3, 2, 0)
    with pytest.raises(ArityMismatch):
        x * MultiPoly.variable(P5, 3, 0)


def test_polynomial_equality_is_symbolic_not_pointwise():
    # x^p and x agree as functions on Z/pZ but differ as polynomials
    x = MultiPoly.variable(P5, 1, 0)
    assert (x**5).evaluate((3,)) == x.evaluate((3,))
    assert x**5 != x


def test_compose_agrees_with_pointwise_substitution():
    rng = random.Random(SEED)
    x = MultiPoly.variable(P5, 2, 0)
    y = MultiPoly.variable(P5, 2, 1)
    f = entropy_poly(2, P5) + x * y + 3
    args = (1 - y + x * x, 2 * x + y**3)
    g = f.compose(args)
    for _ in range(30):
        pt = (rng.randrange(5), rng.randrange(5))
        expected = f.evaluate(tuple(a.evaluate(pt) for a in args))
        assert g.evaluate(pt) == expected, f"seed={SEED} pt={pt}"


def test_embed_places_variables():
    f = entropy_poly(2, P3)
    g = f.embed(4, (3, 1))
    assert g.terms == {(0, 1, 0, 2): 1, (0, 2, 0, 1): 1}


def test_entropy_poly_examples():
    assert entropy_poly(1, P5).is_zero()
    assert entropy_poly(0, P3).is_zero()
    assert entropy_poly(2, P3).terms == {(2, 1): 1, (1, 2): 1}
    assert entropy_poly(2, P2).terms == {(1, 1): 1}


def test_entropy_poly_at_a_large_prime_matches_wilson():
    # -1/(r! (p - r)!) = (-1)^(r+1)/r mod p, since (p - 1)! = -1 by Wilson's
    # theorem; the inverse factorials come from a running product, so p = 10007
    # takes milliseconds
    q = 10007
    expected = {(r, q - r): (-1) ** (r + 1) * pow(r, -1, q) % q for r in range(1, q)}
    assert entropy_poly(2, PrimeModulus(q)).terms == expected


def test_entropy_poly_and_pounds1_refuse_terms_beyond_the_guard():
    # the limit is h at (31, 6), the costliest cell the identity checks accept
    assert len(entropy_poly(6, PrimeModulus(31)).terms) == comb(36, 5) - 6 == POLY_TERM_GUARD
    # (2, 166) has fewer terms but more exponent entries; 10^30 is refused
    # before any binomial is computed
    for n, q in ((7, 31), (6, 37), (3, 10007), (166, 2), (10**30, 3)):
        with pytest.raises(RangeGuard):
            entropy_poly(n, PrimeModulus(q))
    assert len(pounds1(PrimeModulus(10007)).terms) == 10006
    with pytest.raises(RangeGuard):
        pounds1(PrimeModulus(10**9 + 7))


def test_entropy_poly_matches_multinomial_oracle():
    # n <= 6 wherever the oracle's scan of (Z/p)^n stays below 50 000 points
    for pp in (2, 3, 5, 7, 11, 13):
        for n in range(7):
            if pp**n <= 50_000:
                assert entropy_poly(n, PrimeModulus(pp)).terms == entropy_poly_terms(n, pp), (pp, n)


def test_entropy_poly_structure():
    for pp, n in ((2, 4), (3, 3), (5, 2), (7, 3)):
        p = PrimeModulus(pp)
        h = entropy_poly(n, p)
        for exps in h.terms:
            assert sum(exps) == pp  # homogeneous of degree p
            assert all(e < pp for e in exps)
        # symmetric under any transposition
        for i in range(n - 1):
            swapped = {
                tuple(e[i + 1] if k == i else e[i] if k == i + 1 else e[k] for k in range(n)): c
                for e, c in h.terms.items()
            }
            assert swapped == h.terms


def test_eval_examples():
    assert MultiPoly.zero(P3, 2).evaluate((1, 2)).value == 0
    assert entropy_poly(2, P3).evaluate((2, 2)).value == 1
    assert entropy_poly(4, P3).evaluate((1, 1, 1, 1)).value == 2
    with pytest.raises(ArityMismatch):
        entropy_poly(2, P3).evaluate((1,))


def test_entropy_poly_agrees_with_entropy_exhaustively():
    for pp in (2, 3, 5):
        p = PrimeModulus(pp)
        for n in (1, 2, 3):
            h = entropy_poly(n, p)
            for head in product(range(pp), repeat=n - 1):
                pi = head + ((1 - sum(head)) % pp,)
                assert h.evaluate(pi) == entropy(ModDist(p, pi)), (pp, pi)


def test_pounds1_examples():
    assert pounds1(P2).terms == {(1,): 1, (2,): 1}
    assert pounds1(P3).terms == {(1,): 1, (2,): 2}
    assert pounds1(P5).terms == {(1,): 1, (2,): 3, (3,): 2, (4,): 4}


def test_pounds1_is_the_substituted_entropy_polynomial():
    for pp in (2, 3, 5, 7, 11, 13):
        report = check_pounds1_formula(PrimeModulus(pp))
        assert report.passed, (pp, report.failures)


def test_pounds1_degree_below_p_for_odd_p():
    # the x^p coefficient of h(x, 1-x) cancels, keeping the degree < p
    for pp in (3, 5, 7, 11, 13):
        p = PrimeModulus(pp)
        x = MultiPoly.variable(p, 1, 0)
        substituted = entropy_poly(2, p).compose([x, 1 - x])
        assert substituted.total_degree() < pp
    # while for p = 2 the degree is exactly p
    x = MultiPoly.variable(P2, 1, 0)
    assert entropy_poly(2, P2).compose([x, 1 - x]).total_degree() == 2


def test_pounds1_computes_two_element_entropy():
    for pp in (2, 3, 5, 7, 11, 13):
        p = PrimeModulus(pp)
        ell = pounds1(p)
        for a in range(pp):
            assert ell.evaluate((a,)) == entropy(ModDist(p, (a, 1 - a)))


def test_interpolate_examples():
    assert interpolate(lambda pt: 0, P3, 2).is_zero()
    f = interpolate(lambda pt: (1 + pt[0]) % 2, P2, 1)
    assert f.terms == {(0,): 1, (1,): 1}
    g = interpolate(lambda pt: 1 if pt[0] == 0 else 0, P3, 1)
    assert g.terms == {(0,): 1, (2,): 2}  # 1 - x^2


def test_interpolate_round_trips_low_degree_polynomials():
    rng = random.Random(SEED + 1)
    for pp, n in ((2, 3), (3, 2), (5, 1), (5, 2), (3, 3)):
        p = PrimeModulus(pp)
        for _ in range(10):
            terms = {}
            for _ in range(rng.randint(0, 6)):
                exps = tuple(rng.randrange(pp) for _ in range(n))
                terms[exps] = rng.randrange(1, pp)
            f = MultiPoly(p, n, terms)
            assert interpolate(lambda pt, f=f: f.evaluate(pt).value, p, n) == f, (
                f"seed={SEED + 1} p={pp} n={n}"
            )


def test_interpolate_interpolates_arbitrary_tables():
    rng = random.Random(SEED + 2)
    for pp, n in ((3, 2), (5, 1), (2, 4)):
        p = PrimeModulus(pp)
        table = {pt: rng.randrange(pp) for pt in product(range(pp), repeat=n)}
        f = interpolate(lambda pt: table[pt], p, n)
        assert all(e < pp for exps in f.terms for e in exps)
        for pt, val in table.items():
            assert f.evaluate(pt).value == val


def test_interpolate_guard():
    # the work max(n, 1) * p^(n+1) is bounded, not only the p^n points: at
    # n = 1 the table U alone has p^2 entries
    for pp, n in ((101, 3), (997, 1), (503, 1), (2, 14)):
        with pytest.raises(RangeGuard):
            interpolate(lambda pt: 0, PrimeModulus(pp), n)
    # (2, 13) is 212 992 products, within the bound, and (2, 14) is not
    assert interpolate(lambda pt: pt[-1], P2, 13) == MultiPoly.variable(P2, 13, 12)


def test_interpolate_zero_variables():
    f = interpolate(lambda pt: 2, P3, 0)
    assert f.terms == {(): 2}
    assert f.evaluate(()).value == 2


def test_binomial_alternating_identity():
    for pp in (2, 3, 5, 7, 11, 13):
        for s in range(pp):
            assert comb(pp - 1, s) % pp == pow(-1, s, pp)


def test_check_grouping_examples():
    assert check_grouping(2, (2, 1), P3).passed
    assert check_grouping(1, (3,), P5).passed  # reduces to h one-variable = 0
    assert check_grouping(2, (2, 2), P5).passed
    assert check_grouping(3, (1, 2, 1), P2).passed


@pytest.mark.parametrize("pp,terms", [(3, 7), (5, 18)])
def test_grouping_and_chain_rule_report_the_term_count_of_each_side(pp, terms):
    # h in three variables has C(p + 2, 2) - 3 terms, and substituting the
    # monomials x_i y_ij into it merges none of them
    p = PrimeModulus(pp)
    assert terms == len(entropy_poly_terms(3, pp)) == comb(pp + 2, 2) - 3
    for check in (check_grouping, check_poly_chain_rule):
        report = check(2, (2, 1), p)
        assert report.passed
        assert report.data == {"p": pp, "n": 2, "ks": (2, 1), "lhs_terms": terms, "rhs_terms": terms}
    # a failing identity still reports the size of the difference
    assert check_fundamental(MultiPoly(P5, 1, {(2,): 1}), P5).failures == ("difference has 4 nonzero terms",)


def test_check_grouping_guards():
    with pytest.raises(RangeGuard):
        check_grouping(2, (4, 3), P3)
    with pytest.raises(RangeGuard):
        check_grouping(2, (2, 1), PrimeModulus(37))
    with pytest.raises(ValueError):
        check_grouping(2, (2,), P3)


@pytest.mark.parametrize("check", [check_grouping, check_poly_chain_rule])
def test_identity_checks_refuse_empty_blocks(check):
    # blocks are positive, so the guard on their total also bounds their number
    for n, ks in ((2, (2, 0)), (1, (0,)), (2, (0, 0)), (12, (0,) * 12), (7, (6,) + (0,) * 6)):
        with pytest.raises(InvalidSize):
            check(n, ks, P3)
    with pytest.raises(RangeGuard):
        check(7, (1,) * 7, P3)


@pytest.mark.parametrize("pp", [17, 19, 23, 29, 31])
def test_identity_reports_beyond_13(pp):
    reports = identity_reports(PrimeModulus(pp), 4)
    assert reports["grouping"].checks == 15
    assert reports["grouping"].data["failures_total"] == 0
    for name, report in reports.items():
        assert report.passed, (pp, name, report.failures)


def test_identity_reports_cap_grouping_failure_lines(monkeypatch):
    import modent.polynomials as polynomials
    from modent.verification import FAILURE_SAMPLES, VerificationReport

    def failing(n, ks, p):
        return VerificationReport("grouping", 1, ("difference has 1 nonzero terms",), {"ks": tuple(ks)})

    monkeypatch.setattr(polynomials, "check_grouping", failing)
    grouping = identity_reports(P3, 6)["grouping"]
    # 2^6 - 1 block shapes fail, the first FAILURE_SAMPLES of them are kept
    assert grouping.checks == 63 and grouping.data["failures_total"] == 63
    assert len(grouping.failures) == FAILURE_SAMPLES == 20
    assert grouping.failures[0] == "ks=(1,): difference has 1 nonzero terms"
    under_cap = identity_reports(P3, 4)["grouping"]
    assert len(under_cap.failures) == under_cap.data["failures_total"] == 15


def test_check_poly_chain_rule():
    assert check_poly_chain_rule(2, (2, 1), P3).passed
    assert check_poly_chain_rule(2, (2, 2), P2).passed
    assert check_poly_chain_rule(3, (1, 1, 2), P5).passed


def test_chain_rule_specializes_to_grouping():
    # setting every x_i = 1 in the chain-rule identity recovers grouping
    p = P3
    n, ks = 2, (2, 1)
    m = sum(ks)
    nv = n + m
    ones = [MultiPoly.constant(p, m, 1)] * n + [
        MultiPoly.variable(p, m, j) for j in range(m)
    ]
    products = [ones[n + j] for j in range(m)]
    lhs = entropy_poly(m, p).compose(products)
    assert lhs == entropy_poly(m, p)


def test_check_cocycle():
    for pp in (2, 3, 5, 7):
        assert check_cocycle(PrimeModulus(pp)).passed
    with pytest.raises(RangeGuard):
        check_cocycle(PrimeModulus(37))


def test_cocycle_specialization_at_zero():
    # z = 0 collapses the cocycle to h(x+y, 0) = h(y, 0) + (h(x,y) - h(x,y))
    p = P5
    h2 = entropy_poly(2, p)
    x = MultiPoly.variable(p, 2, 0)
    y = MultiPoly.variable(p, 2, 1)
    zero = MultiPoly.zero(p, 2)
    assert h2.compose([x + y, zero]) == h2.compose([y, zero])


def test_check_fundamental():
    for pp in (3, 5, 7):
        p = PrimeModulus(pp)
        assert check_fundamental(pounds1(p), p).passed
        xp = MultiPoly(p, 1, {(pp,): 1})
        assert check_fundamental(xp, p).passed
    x2 = MultiPoly(P5, 1, {(2,): 1})
    assert not check_fundamental(x2, P5).passed
    with pytest.raises(DegreeTooHigh):
        check_fundamental(MultiPoly(P5, 1, {(6,): 1}), P5)
    # guarded like every identity check: 37 is the next prime above the guard
    p37 = PrimeModulus(37)
    with pytest.raises(RangeGuard):
        check_fundamental(pounds1(p37), p37)


def test_check_symmetry():
    for pp in (2, 3, 5, 7, 11, 13):
        report = check_symmetry_pounds1(PrimeModulus(pp))
        assert report.passed, (pp, report.failures)
    # the distinguishing example: x^3 vs (1-x)^3 over Z/3Z
    x = MultiPoly.variable(P3, 1, 0)
    assert (x**3).compose([1 - x]) != x**3


def test_homogenize_and_check():
    g = homogenize(pounds1(P3), P3)
    assert g.terms == {(1, 2): 1, (2, 1): 2}
    for pp in (2, 3, 5, 7, 11, 13):
        assert homogenize_check(PrimeModulus(pp)).passed
    with pytest.raises(ArityMismatch):
        homogenize(entropy_poly(2, P3), P3)


def test_pounds1_recovered_from_homogenization():
    # y = 1 - x in h recovers pounds1, and G(x, 1) dehomogenizes back to it
    for pp in (2, 3, 5):
        p = PrimeModulus(pp)
        x = MultiPoly.variable(p, 1, 0)
        one = MultiPoly.constant(p, 1, 1)
        assert entropy_poly(2, p).compose([x, 1 - x]) == pounds1(p)
        assert homogenize(pounds1(p), p).compose([x, one]) == pounds1(p)


def test_text_rendering():
    assert entropy_poly(2, P3).to_text() == "x^2*y + x*y^2 (mod 3)"
    assert MultiPoly.zero(P5, 2).to_text() == "0 (mod 5)"
    assert pounds1(P5).to_text() == "4*x^4 + 2*x^3 + 3*x^2 + x (mod 5)"
    f = MultiPoly(P3, 4, {(1, 0, 0, 2): 2, (0, 0, 0, 0): 1})
    assert f.to_text() == "2*x1*x4^2 + 1 (mod 3)"


def test_random_sum_distributes_over_evaluation():
    rng = random.Random(SEED + 3)
    for _ in range(40):
        pp = rng.choice((2, 3, 5))
        p = PrimeModulus(pp)
        n = rng.randint(1, 3)
        pi = random_mod_dist_values(rng, pp, n)
        h = entropy_poly(n, p)
        assert h.evaluate(pi) == entropy(ModDist(p, pi))
