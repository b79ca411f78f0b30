"""Property tests for MultiPoly, with sympy as an independent expansion oracle.

Every operation builds its result without re-validating it, so each result
here is also checked to be canonical: tuple keys of length nvars,
nonnegative int exponents and int coefficients in [1, p).
"""

from itertools import product

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from modent.modular import PrimeModulus
from modent.polynomials import MultiPoly, interpolate

PRIMES = (2, 3, 5, 7, 13)
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


def assert_canonical(f: MultiPoly):
    q = f.p.p
    for exps, c in f.terms.items():
        assert type(exps) is tuple and len(exps) == f.nvars, exps
        assert all(type(e) is int and e >= 0 for e in exps), exps
        assert type(c) is int and 1 <= c < q, c


@st.composite
def term_dicts(draw, p, nvars, max_terms=5, max_exp=3):
    return draw(
        st.dictionaries(
            st.tuples(*[st.integers(0, max_exp)] * nvars),
            st.integers(-2 * p, 2 * p),
            max_size=max_terms,
        )
    )


@st.composite
def families(draw, count, min_nvars=0, max_nvars=3):
    """A prime, a variable count and `count` polynomials over them."""
    pp = draw(st.sampled_from(PRIMES))
    nvars = draw(st.integers(min_nvars, max_nvars))
    p = PrimeModulus(pp)
    return p, nvars, [MultiPoly(p, nvars, draw(term_dicts(pp, nvars))) for _ in range(count)]


@st.composite
def substitutions(draw, min_nvars=0):
    """(f, args, point): f in k >= 1 variables, k arguments in nvars variables, a point."""
    p, nvars, args = draw(families(draw(st.integers(1, 3)), min_nvars=min_nvars))
    f = MultiPoly(p, len(args), draw(term_dicts(p.p, len(args), max_exp=4)))
    point = draw(st.tuples(*[st.integers(0, p.p - 1)] * nvars))
    return f, args, point


@PROPERTY_SETTINGS
@given(families(3), st.integers(-20, 20))
def test_ring_laws(family, c):
    p, nvars, (f, g, h) = family
    zero = MultiPoly.zero(p, nvars)
    one = MultiPoly.constant(p, nvars, 1)
    results = [f + g, f - g, f * g, -f, f + c, c - f, c * f, f**3]
    for r in results:
        assert_canonical(r)
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + zero == f and f * one == f and (f * zero).is_zero()
    assert (f - f).is_zero() and f - g == f + (-g)
    assert f + c == f + MultiPoly.constant(p, nvars, c)
    assert c * f == MultiPoly.constant(p, nvars, c) * f
    assert f**3 == f * f * f


@PROPERTY_SETTINGS
@given(substitutions())
def test_compose_then_evaluate_is_evaluate_of_the_arguments(case):
    f, args, point = case
    composed = f.compose(args)
    assert_canonical(composed)
    assert composed.nvars == len(point)
    assert composed.evaluate(point) == f.evaluate(tuple(a.evaluate(point) for a in args))


@PROPERTY_SETTINGS
@given(st.sampled_from(((2, 1), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1))), st.data())
def test_interpolate_then_evaluate_round_trips(shape, data):
    pp, n = shape
    p = PrimeModulus(pp)
    points = list(product(range(pp), repeat=n))
    values = data.draw(st.lists(st.integers(0, pp - 1), min_size=len(points), max_size=len(points)))
    table = dict(zip(points, values))
    f = interpolate(table.__getitem__, p, n)
    assert_canonical(f)
    assert all(e < pp for exps in f.terms for e in exps)
    assert all(f.evaluate(pt).value == v for pt, v in table.items())
    # a polynomial with all exponents below p is recovered from its values
    assert interpolate(lambda pt: f.evaluate(pt).value, p, n) == f


# --- sympy as an independent oracle for expansion ---------------------------


def to_sympy(f: MultiPoly, gens):
    return sum((c * sympy.Mul(*(g**e for g, e in zip(gens, exps))) for exps, c in f.terms.items()), sympy.Integer(0))


def sympy_terms(expr, gens, p):
    poly = sympy.Poly(expr, *gens, modulus=p)
    return {exps: int(c) % p for exps, c in poly.as_dict().items() if int(c) % p}


@PROPERTY_SETTINGS
@given(families(2, min_nvars=1))
def test_product_matches_sympy(family):
    p, nvars, (f, g) = family
    xs = sympy.symbols(f"x0:{nvars}")
    assert (f * g).terms == sympy_terms(to_sympy(f, xs) * to_sympy(g, xs), xs, p.p)


@PROPERTY_SETTINGS
@given(substitutions(min_nvars=1))
def test_compose_matches_sympy(case):
    f, args, point = case
    p, nvars = f.p.p, len(point)
    xs = sympy.symbols(f"x0:{nvars}")
    ys = sympy.symbols(f"y0:{len(args)}")
    substituted = to_sympy(f, ys).subs({y: to_sympy(a, xs) for y, a in zip(ys, args)}, simultaneous=True)
    assert f.compose(args).terms == sympy_terms(substituted, xs, p)
