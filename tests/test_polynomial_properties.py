"""Property tests for MultiPoly, with sympy and the power-table compose of
`oracles` as independent expansion oracles.

Every operation builds its result without re-validating it, so each result
here is also checked to be canonical: tuple keys of length nvars,
nonnegative int exponents and int coefficients in [1, p).
"""

from itertools import product

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from modent.modular import PrimeModulus
from modent.polynomials import MultiPoly, interpolate
from oracles import compose_by_power_tables

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
def images(draw, p, nvars, count):
    """`count` substitution images in nvars variables, all of one drawn shape.

    Besides random polynomials these are the shapes the identity checks
    substitute: monomials (the chain rule's x_i y_ij), sums over disjoint
    variable sets (grouping's block sums), polynomials over disjoint
    variable sets (the chain rule's x_i times a block sum), and constants,
    zero among them.
    """
    q = p.p
    shape = draw(st.sampled_from(("random", "monomials", "block sums", "disjoint supports", "constants")))
    owner = draw(st.lists(st.integers(0, count), min_size=nvars, max_size=nvars))  # count: no image
    if shape == "monomials":
        exps = st.tuples(*[st.integers(0, 3)] * nvars)
        terms = [{draw(exps): draw(st.integers(1, q - 1))} for _ in range(count)]
    elif shape == "block sums":
        units = [tuple(int(j == k) for k in range(nvars)) for j in range(nvars)]
        terms = [{units[j]: 1 for j in range(nvars) if owner[j] == i} for i in range(count)]
    elif shape == "disjoint supports":
        def on_own_variables(exps, i):
            return tuple(e * (owner[j] == i) for j, e in enumerate(exps))

        terms = [{on_own_variables(e, i): c for e, c in draw(term_dicts(q, nvars)).items()} for i in range(count)]
    elif shape == "constants":
        terms = [{(0,) * nvars: draw(st.integers(0, q - 1))} for _ in range(count)]
    else:
        terms = [draw(term_dicts(q, nvars)) for _ in range(count)]
    return [MultiPoly(p, nvars, t) for t in terms]


@st.composite
def substitutions(draw, min_nvars=0):
    """(f, args, point): f in k >= 1 variables, k arguments in nvars variables, a point."""
    p = PrimeModulus(draw(st.sampled_from(PRIMES)))
    nvars = draw(st.integers(min_nvars, 3))
    args = draw(images(p, nvars, draw(st.integers(1, 3))))
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
@given(substitutions())
def test_compose_matches_the_power_table_oracle(case):
    f, args, _ = case
    assert f.compose(args).terms == compose_by_power_tables(f, args)


# exponents packed into one-byte fields reach 255; 256 needs two bytes, and
# 2^64 + 1 nine, past any machine word.  Each case reaches the edge in the
# result, some only by adding exponents of edge - 1 and 1, which carries
# into the next field unless the width bounds the sum.
@pytest.mark.parametrize("edge", (255, 256, 2**64 + 1))
def test_packed_exponents_at_the_field_width_edges(edge):
    p = PrimeModulus(5)
    x, y, z = (MultiPoly.variable(p, 3, i) for i in range(3))
    s, u = (MultiPoly.variable(p, 2, i) for i in range(2))
    cases = [
        (s * u, [x**edge, y**edge * z]),
        (s * u, [x ** (edge - 1) * z, x * y]),
        (s**2 + 3 * u, [y ** (edge // 2) * z, x + 4]),
        (u * s + s, [MultiPoly.constant(p, 3, 4), z * x ** (edge - 1) + y]),
    ]
    if edge < 1000:  # the oracle builds every power of an argument up to the edge
        t = MultiPoly.variable(p, 1, 0)
        cases += [(t**edge, [x]), (t**edge, [y + 2]), (t ** (edge - 1) * 2, [x + y + z])]
    for f, args in cases:
        composed = f.compose(args)
        assert_canonical(composed)
        assert composed.terms == compose_by_power_tables(f, args), (f, args)
    assert (x**edge).terms == {(edge, 0, 0): 1}
    assert (x ** (edge - 1) * x * y**edge).terms == {(edge, edge, 0): 1}
    square = {(edge, 0, 1): 1, (edge - 1, 1, 1): 2, (edge - 2, 2, 1): 1}
    assert (z * (x + y) ** 2 * x ** (edge - 2)).terms == square


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
