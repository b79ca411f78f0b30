"""Sparse multivariate polynomials over Z/pZ and the entropy polynomial.

The entropy polynomial in n variables is the homogeneous degree-p polynomial

    h(x_1, ..., x_n) = - sum x_1^{r_1} ... x_n^{r_n} / (r_1! ... r_n!)

over exponent vectors with all r_i < p and sum r_i = p.  On tuples summing
to 1 it computes the entropy mod p.  The identities it satisfies (grouping,
cocycle, the fundamental equation for h(x, 1-x)) are verified here as exact
polynomial identities: all substitutions are expanded symbolically, never
checked pointwise.
"""

from itertools import accumulate, product
from math import comb
from operator import mul

from .distributions import compositions
from .errors import (
    ArityMismatch,
    DegreeTooHigh,
    IndexOutOfRange,
    InvalidPolynomial,
    InvalidSize,
    ModulusMismatch,
    RangeGuard,
)
from .modular import PrimeModulus, Residue, _Frozen, as_ints
from .verification import Failures, VerificationReport

# Bound the identity checks.  Blocks are positive, so six block variables make
# at most six blocks.  At p = 31 the costliest cells have six blocks of size 1:
# check_poly_chain_rule takes 3.6-3.8 s at 274 MB and check_grouping
# 2.1-2.7 s at 236 MB (one fresh process per cell, 2-core VM, Python 3.11);
# `modent identities --p 31` takes 0.17 s at 20 MB.
IDENTITY_PRIME_GUARD = 31
GROUPING_SIZE_GUARD = 6
INTERPOLATE_WORK_GUARD = 250_000  # bounds max(n, 1) * p^(n+1), see interpolate
# Bounds the terms entropy_poly and pounds1 build, and entropy_poly's exponent
# entries (n per term), at their counts in h at (31, 6), that is at
# (IDENTITY_PRIME_GUARD, GROUPING_SIZE_GUARD), the costliest cell the identity
# checks accept: 0.52-0.89 s at 133 MB.  pounds1 at p = 376 969 takes
# 0.71-1.09 s at 126 MB, and h at (2, 165), the largest n accepted, 1.7-2.0 s at
# 52 MB; a bound on the terms alone would accept (2, 868), whose prefixes cost
# about n^4/8 tuple entries (fresh processes, 2-core VM, Python 3.11.7).
POLY_TERM_GUARD = 376_986

_SHORT_NAMES = ("x", "y", "z")


def _coefficient(c, p: PrimeModulus) -> int:
    """An int, or a residue mod p, as its representative in [0, p)."""
    if isinstance(c, Residue):
        if c.modulus != p:
            raise ModulusMismatch(f"residue mod {c.modulus.p} used with a polynomial mod {p.p}")
        return c.value
    if not isinstance(c, int):
        raise InvalidPolynomial(f"coefficient {c!r} is neither an int nor a residue mod {p.p}")
    return c % p.p


def _check_prime(p):
    if not isinstance(p, PrimeModulus):
        raise InvalidPolynomial(f"the prime must be a PrimeModulus, got {p!r}")


def _field_bytes(bound: int) -> int:
    """Bytes per exponent field, so that fields holding up to `bound` never carry."""
    return max(1, (bound.bit_length() + 7) // 8)


def _packed(terms: dict, nvars: int, width: int) -> list:
    """A term dict as (exponents packed into one int, `width` bytes a field, coefficient) pairs."""
    if width == 1:
        return [(int.from_bytes(exps, "little"), c) for exps, c in terms.items()]
    shifts = range(0, 8 * width * nvars, 8 * width)
    return [(sum(e << s for e, s in zip(exps, shifts)), c) for exps, c in terms.items()]


def _unpacked(pairs, q: int, nvars: int, width: int) -> dict:
    """The canonical term dict of (packed exponents, coefficient) pairs with distinct keys."""
    if width == 1:
        return {tuple(k.to_bytes(nvars, "little")): r for k, v in pairs if (r := v % q)}
    shifts = range(0, 8 * width * nvars, 8 * width)
    mask = (1 << 8 * width) - 1
    return {tuple([k >> s & mask for s in shifts]): r for k, v in pairs if (r := v % q)}


def _product(f: list, g: list, q: int) -> list:
    """The product of two packed term lists, reduced mod q, with zero terms dropped.

    Adding two packed keys adds their exponents field by field, which holds
    only while the caller's field width bounds every exponent of the product.
    """
    acc = {}
    for e1, c1 in f:
        for e2, c2 in g:
            e = e1 + e2
            acc[e] = acc.get(e, 0) + c1 * c2
    return [(e, r) for e, v in acc.items() if (r := v % q)]


class MultiPoly(_Frozen):
    """A polynomial over Z/pZ, stored as exponent-vector -> nonzero coefficient.

    `MultiPoly(p, nvars, terms)` validates and canonicalizes outside input:
    p must be a `PrimeModulus`, nvars and the exponents nonnegative ints,
    coefficients ints or residues mod p.
    Every operation below builds its result in canonical form (tuple keys of
    length nvars, coefficients in [1, p)) and wraps it with `_canonical`,
    which checks nothing.
    """

    __slots__ = ("p", "nvars", "terms")

    def __init__(self, p: PrimeModulus, nvars: int, terms=()):
        _check_prime(p)
        if not isinstance(nvars, int) or nvars < 0:
            raise InvalidPolynomial(f"the number of variables must be a nonnegative int, got {nvars!r}")
        q = p.p
        canonical = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for item in items:
            try:
                exps, c = item
                exps = tuple(exps)
            except (TypeError, ValueError):
                raise InvalidPolynomial(f"term {item!r} is not an (exponents, coefficient) pair") from None
            if len(exps) != nvars:
                raise ArityMismatch(f"exponent vector {exps} in a {nvars}-variable polynomial")
            if not all(isinstance(e, int) and e >= 0 for e in exps):
                raise InvalidPolynomial(f"exponents must be nonnegative ints, got {exps}")
            c = (canonical.get(exps, 0) + _coefficient(c, p)) % q
            if c:
                canonical[exps] = c
            else:
                canonical.pop(exps, None)
        self._set(p, nvars, canonical)

    def _set(self, p, nvars, terms):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", terms)

    @classmethod
    def _canonical(cls, p: PrimeModulus, nvars: int, terms: dict) -> "MultiPoly":
        """Wrap a dict that is already canonical, without checking it."""
        poly = object.__new__(cls)
        poly._set(p, nvars, terms)
        return poly

    @classmethod
    def zero(cls, p: PrimeModulus, nvars: int) -> "MultiPoly":
        return cls(p, nvars)

    @classmethod
    def constant(cls, p: PrimeModulus, nvars: int, c) -> "MultiPoly":
        return cls(p, nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, p: PrimeModulus, nvars: int, index: int) -> "MultiPoly":
        if not (isinstance(nvars, int) and isinstance(index, int)):
            raise InvalidPolynomial(f"variable {index!r} of {nvars!r} variables: both must be ints")
        if not 0 <= index < nvars:
            raise IndexOutOfRange(f"variable {index} of a {nvars}-variable polynomial")
        exps = [0] * nvars
        exps[index] = 1
        return cls(p, nvars, {tuple(exps): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max(map(sum, self.terms), default=0)

    def _check_compatible(self, other: "MultiPoly"):
        if self.p != other.p:
            raise ModulusMismatch("polynomials over different primes")
        if self.nvars != other.nvars:
            raise ArityMismatch(f"{self.nvars}-variable vs {other.nvars}-variable polynomial")

    def _coerce(self, other):
        """`other` as a polynomial compatible with this one, or NotImplemented."""
        if isinstance(other, MultiPoly):
            self._check_compatible(other)
            return other
        if isinstance(other, (int, Residue)):
            return MultiPoly.constant(self.p, self.nvars, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        q = self.p.p
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            v = (terms.get(exps, 0) + c) % q
            if v:
                terms[exps] = v
            else:
                del terms[exps]
        return MultiPoly._canonical(self.p, self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        q = self.p.p
        return MultiPoly._canonical(self.p, self.nvars, {e: q - c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        nvars, q = self.nvars, self.p.p
        width = _field_bytes(self.total_degree() + other.total_degree())
        pairs = _product(_packed(self.terms, nvars, width), _packed(other.terms, nvars, width), q)
        return MultiPoly._canonical(self.p, nvars, _unpacked(pairs, q, nvars, width))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise InvalidPolynomial(f"power {exponent!r} of a polynomial is not a nonnegative int")
        nvars, q = self.nvars, self.p.p
        width = _field_bytes(exponent * self.total_degree())
        result, base, e = [(0, 1)], _packed(self.terms, nvars, width), exponent
        while e:
            if e & 1:
                result = _product(result, base, q)
            base = _product(base, base, q) if e > 1 else base
            e >>= 1
        return MultiPoly._canonical(self.p, nvars, _unpacked(result, q, nvars, width))

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.p == other.p
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.p.p, self.nvars, frozenset(self.terms.items())))

    def evaluate(self, point) -> Residue:
        """Exact evaluation at a tuple of residues (or ints)."""
        point = tuple(_coefficient(v, self.p) for v in point)
        if len(point) != self.nvars:
            raise ArityMismatch(f"{len(point)}-point for a {self.nvars}-variable polynomial")
        p = self.p.p
        total = 0
        for exps, c in self.terms.items():
            m = c
            for v, e in zip(point, exps):
                if e:
                    m = m * pow(v, e, p) % p
                    if m == 0:
                        break
            total += m
        return Residue(total, self.p)

    def compose(self, args) -> "MultiPoly":
        """Substitute args[i] for variable i, expanding fully.

        All arguments must be polynomials in a common variable set; the
        result lives in that set.
        """
        args = tuple(args)
        if len(args) != self.nvars:
            raise ArityMismatch(f"{len(args)} substitutions for {self.nvars} variables")
        if not args:
            return MultiPoly._canonical(self.p, 0, dict(self.terms))
        for a in args:
            if not isinstance(a, MultiPoly):
                raise InvalidPolynomial(f"substitution {a!r} is not a MultiPoly")
            if a.p != self.p:
                raise ModulusMismatch("substitution over a different prime")
            if a.nvars != args[0].nvars:
                raise ArityMismatch("substitution arguments must share a variable set")
        nvars, q = args[0].nvars, self.p.p
        # every exponent of the result, of each power of an argument and of
        # each partial product is at most deg self * max deg args[i]
        width = _field_bytes(self.total_degree() * max(a.total_degree() for a in args))
        # power rows of packed term lists: powers[i][e] = args[i]**e
        one = [(0, 1)]
        powers = []
        for a, m in zip(args, map(max, zip(*self.terms))):
            base = _packed(a.terms, nvars, width)
            row = [one]
            for _ in range(m):
                row.append(_product(row[-1], base, q))
            powers.append(row)
        # each term expands as a list product over its rows, into one accumulator
        acc = {}
        for exps, c in self.terms.items():
            term = one
            for row, e in zip(powers, exps):
                if e and term is one:
                    term = row[e]
                elif e:
                    term = [(k1 + k2, c1 * c2) for k1, c1 in term for k2, c2 in row[e]]
            for k, v in term:
                acc[k] = acc.get(k, 0) + c * v
        return MultiPoly._canonical(self.p, nvars, _unpacked(acc.items(), q, nvars, width))

    def embed(self, nvars: int, positions) -> "MultiPoly":
        """View this polynomial inside a larger variable set.

        positions[i] is the index that variable i maps to.
        """
        positions = tuple(positions)
        if not all(isinstance(i, int) for i in (nvars, *positions)):
            raise InvalidPolynomial(f"variable count {nvars!r} and positions {positions!r} must be ints")
        if len(positions) != self.nvars:
            raise ArityMismatch("one position per variable required")
        if len(set(positions)) != len(positions) or not set(positions) <= set(range(nvars)):
            raise IndexOutOfRange(f"positions {positions} are not distinct indices below {nvars}")
        terms = {}
        for exps, c in self.terms.items():
            big = [0] * nvars
            for pos, e in zip(positions, exps):
                big[pos] = e
            terms[tuple(big)] = c
        return MultiPoly._canonical(self.p, nvars, terms)

    def to_text(self) -> str:
        """Canonical rendering, e.g. 'x^2*y + x*y^2 (mod 3)'."""
        if self.nvars <= len(_SHORT_NAMES):
            names = _SHORT_NAMES[: self.nvars]
        else:
            names = tuple(f"x{i + 1}" for i in range(self.nvars))
        if not self.terms:
            return f"0 (mod {self.p.p})"
        pieces = []
        for exps in sorted(self.terms, reverse=True):
            c = self.terms[exps]
            factors = []
            for name, e in zip(names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if not factors:
                pieces.append(str(c))
            elif c == 1:
                pieces.append("*".join(factors))
            else:
                pieces.append(f"{c}*" + "*".join(factors))
        return " + ".join(pieces) + f" (mod {self.p.p})"

    def __repr__(self):
        return f"MultiPoly({self.to_text()})"


def entropy_poly(n: int, p: PrimeModulus) -> MultiPoly:
    """The entropy polynomial h in n variables: homogeneous of degree p.

    Coefficient of x^{r_1}...x^{r_n} is -1/(r_1!...r_n!) over exponent
    vectors with all r_i < p summing to p.  For n <= 1 this is zero.
    """
    if not isinstance(n, int) or n < 0:
        raise InvalidPolynomial(f"n must be a nonnegative int, got {n!r}")
    _check_prime(p)
    q = p.p
    # h has C(q + n - 1, n - 1) - n terms, at least n(n - 1)/2 for n >= 2, so a
    # huge n is refused before the binomial is computed.  Weighting the terms by
    # max(n, GROUPING_SIZE_GUARD) bounds both them and the exponent entries.
    if n > 1 and (
        n * (n - 1) // 2 > POLY_TERM_GUARD
        or max(n, GROUPING_SIZE_GUARD) * (comb(q + n - 1, n - 1) - n)
        > GROUPING_SIZE_GUARD * POLY_TERM_GUARD
    ):
        raise RangeGuard(f"h in {n} variables mod {q} exceeds the guard of {POLY_TERM_GUARD} terms")
    # 1/r! for r < q, from the running product r! mod q
    inv_factorial = [pow(f, -1, q) for f in accumulate(range(1, q), lambda f, r: f * r % q, initial=1)]
    # the first n - 1 exponents, variable by variable, each prefix with its
    # degree d and coefficient -1/prod r!; the last exponent is q - d, which
    # is below q once d >= 1
    prefixes = [((), 0, q - 1)] if n else []
    for _ in range(n - 1):
        prefixes = [
            (exps + (e,), d + e, c * inv_factorial[e] % q)
            for exps, d, c in prefixes
            for e in range(min(q - d, q - 1) + 1)
        ]
    terms = {exps + (q - d,): c * inv_factorial[q - d] % q for exps, d, c in prefixes if d}
    return MultiPoly._canonical(p, n, terms)


def pounds1(p: PrimeModulus) -> MultiPoly:
    """h(x, 1-x) in closed form: sum x^r/r for odd p, x + x^2 for p = 2."""
    _check_prime(p)
    if p.p - 1 > POLY_TERM_GUARD:
        raise RangeGuard(f"pounds1 mod {p.p} has over {POLY_TERM_GUARD} terms")
    if p.p == 2:
        return MultiPoly(p, 1, {(1,): 1, (2,): 1})
    return MultiPoly(p, 1, {(r,): pow(r, -1, p.p) for r in range(1, p.p)})


def homogenize(f: MultiPoly, p: PrimeModulus) -> MultiPoly:
    """G(u, v) = v^p * f(u/v) for univariate f with deg f <= p."""
    if not isinstance(f, MultiPoly):
        raise InvalidPolynomial(f"{f!r} is not a MultiPoly")
    if f.nvars != 1:
        raise ArityMismatch("homogenization expects a univariate polynomial")
    if f.p != p:
        raise ModulusMismatch(f"polynomial mod {f.p.p} homogenized mod {p.p}")
    if f.total_degree() > p.p:
        raise DegreeTooHigh(f"degree {f.total_degree()} exceeds {p.p}")
    return MultiPoly._canonical(p, 2, {(e[0], p.p - e[0]): c for e, c in f.terms.items()})


def interpolate(table, p: PrimeModulus, n: int) -> MultiPoly:
    """The unique polynomial with all exponents < p inducing the given table.

    `table` is called on every point of (Z/pZ)^n (as a tuple of ints).  The
    construction expands sum_a F(a) * delta(x - a) with
    delta(x) = prod (1 - x_i^{p-1}), organized as one pass per axis.
    """
    if not isinstance(n, int) or n < 0:
        raise InvalidPolynomial(f"nvars must be a nonnegative int, got {n!r}")
    _check_prime(p)
    q = p.p
    # n q^(n+1) products in the n passes, q^2 entries of U; q^(n+1) >= 2^(n+1),
    # so a huge n is refused before q^(n+1) is computed
    if n > INTERPOLATE_WORK_GUARD.bit_length() or max(n, 1) * q ** (n + 1) > INTERPOLATE_WORK_GUARD:
        raise RangeGuard(f"p = {q}, n = {n} needs over {INTERPOLATE_WORK_GUARD} products")
    # u[s][a] is the x^s coefficient of 1 - (x - a)^(p-1), as
    # binom(p-1, s) = (-1)^s mod p makes (x - a)^(p-1) = sum a^(p-1-s) x^s
    u = [[((s == 0) - pow(a, q - 1 - s, q)) % q for a in range(q)] for s in range(q)]
    values = as_ints(map(table, product(range(q), repeat=n)), p)
    # each pass expands the first axis and moves it to the end, so after n
    # passes every axis is expanded and back in its place
    for _ in range(n):
        m = len(values) // q
        lines = zip(*(values[a * m : (a + 1) * m] for a in range(q)))
        values = [sum(map(mul, line, us)) % q for line in lines for us in u]
    return MultiPoly._canonical(p, n, {e: c for e, c in zip(product(range(q), repeat=n), values) if c})


def _check_identity_guard(p: PrimeModulus):
    _check_prime(p)
    if p.p > IDENTITY_PRIME_GUARD:
        raise RangeGuard(f"identity checks capped at p <= {IDENTITY_PRIME_GUARD}, got {p.p}")


def _report(name: str, lhs: MultiPoly, rhs: MultiPoly, data=None) -> VerificationReport:
    failures = () if lhs.terms == rhs.terms else (f"difference has {len((lhs - rhs).terms)} nonzero terms",)
    return VerificationReport(name, 1, failures, data or {})


def _blocks(n: int, ks, p: PrimeModulus, start: int):
    """Validate a block shape; return it and each block's variable indices from `start`."""
    ks = tuple(ks)
    if not all(isinstance(k, int) for k in (n, *ks)):
        raise InvalidSize(f"outer size {n!r} and block sizes {ks!r} must be ints")
    if len(ks) != n:
        raise ArityMismatch(f"{len(ks)} block sizes for {n} outer slots")
    if any(k < 1 for k in ks):
        raise InvalidSize(f"block sizes {ks} must be positive")
    _check_identity_guard(p)
    if sum(ks) > GROUPING_SIZE_GUARD:
        raise RangeGuard(f"total of {sum(ks)} variables exceeds the guard of {GROUPING_SIZE_GUARD}")
    ends = tuple(accumulate(ks, initial=start))
    return ks, tuple(tuple(range(a, b)) for a, b in zip(ends, ends[1:]))


def check_grouping(n: int, ks, p: PrimeModulus) -> VerificationReport:
    """Symbolic grouping law: h on all variables splits into block sums plus blocks."""
    ks, block_vars = _blocks(n, ks, p, 0)
    m = sum(ks)
    whole = entropy_poly(m, p)
    zero = MultiPoly.zero(p, m)
    block_sums = [
        sum((MultiPoly.variable(p, m, j) for j in vs), zero) for vs in block_vars
    ]
    grouped = entropy_poly(n, p).compose(block_sums)
    within = MultiPoly.zero(p, m)
    for k, vs in zip(ks, block_vars):
        within = within + entropy_poly(k, p).embed(m, vs)
    rhs = grouped + within
    data = {"p": p.p, "n": n, "ks": ks, "lhs_terms": len(whole.terms), "rhs_terms": len(rhs.terms)}
    return _report("grouping", whole, rhs, data)


def check_poly_chain_rule(n: int, ks, p: PrimeModulus) -> VerificationReport:
    """Symbolic chain rule: h(x_i y_ij) = h(x_i * block sums) + sum x_i^p h(block)."""
    ks, y_index = _blocks(n, ks, p, n)
    m = sum(ks)
    nv = n + m  # x_1..x_n then y_11..y_nk_n
    xs = [MultiPoly.variable(p, nv, i) for i in range(n)]
    ys = [[MultiPoly.variable(p, nv, j) for j in vs] for vs in y_index]

    products = [xs[i] * y for i in range(n) for y in ys[i]]
    lhs = entropy_poly(m, p).compose(products)
    zero = MultiPoly.zero(p, nv)
    scaled_sums = [xs[i] * sum(ys[i], zero) for i in range(n)]
    mid = entropy_poly(n, p).compose(scaled_sums)
    rest = MultiPoly.zero(p, nv)
    for i, (k, vs) in enumerate(zip(ks, y_index)):
        rest = rest + xs[i] ** p.p * entropy_poly(k, p).embed(nv, vs)
    rhs = mid + rest
    data = {"p": p.p, "n": n, "ks": ks, "lhs_terms": len(lhs.terms), "rhs_terms": len(rhs.terms)}
    return _report("poly_chain_rule", lhs, rhs, data)


def check_cocycle(p: PrimeModulus) -> VerificationReport:
    """h(x,y) - h(x,y+z) + h(x+y,z) - h(y,z) = 0 as a 3-variable polynomial."""
    _check_identity_guard(p)
    h2 = entropy_poly(2, p)
    x = MultiPoly.variable(p, 3, 0)
    y = MultiPoly.variable(p, 3, 1)
    z = MultiPoly.variable(p, 3, 2)
    lhs = (
        h2.compose([x, y])
        - h2.compose([x, y + z])
        + h2.compose([x + y, z])
        - h2.compose([y, z])
    )
    return _report("cocycle", lhs, MultiPoly.zero(p, 3), {"p": p.p})


def check_fundamental(f: MultiPoly, p: PrimeModulus) -> VerificationReport:
    """The fundamental equation as a polynomial identity for a univariate f.

    Forms G(u, v) = v^p f(u/v) and checks
    f(x) + G(y, 1-x) = f(y) + G(x, 1-y) in two variables.  Returns a
    pass/fail report so that non-solutions can be probed.
    """
    _check_identity_guard(p)
    g = homogenize(f, p)  # raises DegreeTooHigh when deg f > p
    x = MultiPoly.variable(p, 2, 0)
    y = MultiPoly.variable(p, 2, 1)
    fx = f.embed(2, (0,))
    fy = f.embed(2, (1,))
    lhs = fx + g.compose([y, 1 - x])
    rhs = fy + g.compose([x, 1 - y])
    return _report("fundamental_equation", lhs, rhs, {"p": p.p})


def check_pounds1_formula(p: PrimeModulus) -> VerificationReport:
    """pounds1 agrees with the symbolic substitution h(x, 1-x)."""
    _check_identity_guard(p)
    x = MultiPoly.variable(p, 1, 0)
    substituted = entropy_poly(2, p).compose([x, 1 - x])
    return _report("pounds1_formula", pounds1(p), substituted, {"p": p.p})


def check_symmetry_pounds1(p: PrimeModulus) -> VerificationReport:
    """pounds1(x) = pounds1(1-x); the asymmetric solution x^p must fail this."""
    _check_identity_guard(p)
    x = MultiPoly.variable(p, 1, 0)
    ell = pounds1(p)
    failures = []
    if ell.compose([1 - x]) != ell:
        failures.append("pounds1 is not symmetric under x -> 1-x")
    xp = x ** p.p
    if xp.compose([1 - x]) == xp:
        failures.append("x^p unexpectedly symmetric under x -> 1-x")
    return VerificationReport("pounds1_symmetry", 2, tuple(failures), {"p": p.p})


def homogenize_check(p: PrimeModulus) -> VerificationReport:
    """h(x, y) equals the degree-p homogenization of pounds1 evaluated at (x, x+y)."""
    _check_identity_guard(p)
    g = homogenize(pounds1(p), p)
    x = MultiPoly.variable(p, 2, 0)
    y = MultiPoly.variable(p, 2, 1)
    return _report("homogenization", entropy_poly(2, p), g.compose([x, x + y]), {"p": p.p})


def identity_reports(p: PrimeModulus, grouping_cap: int) -> dict:
    """Every identity check at p, by name, starting with "grouping".

    The grouping report aggregates check_grouping over all 2^cap - 1 block
    shapes with positive blocks and total size <= grouping_cap; it keeps the
    first FAILURE_SAMPLES failure lines and counts all in data["failures_total"].
    """
    grouping = [
        check_grouping(n, ks, p)
        for total in range(1, grouping_cap + 1)
        for n in range(1, total + 1)
        for ks in compositions(total, n)
    ]
    failures = Failures()
    for r in grouping:
        failures.add(r.failures, lambda f: f"ks={r.data['ks']}: {f}")
    data = {"p": p.p, "grouping_cap": grouping_cap, "failures_total": failures.total}
    return {
        "grouping": VerificationReport("grouping", len(grouping), tuple(failures.lines), data),
        "cocycle": check_cocycle(p),
        "pounds1_formula": check_pounds1_formula(p),
        "pounds1_symmetry": check_symmetry_pounds1(p),
        "homogenization": homogenize_check(p),
        "fundamental_pounds1": check_fundamental(pounds1(p), p),
        "fundamental_xp": check_fundamental(MultiPoly(p, 1, {(p.p,): 1}), p),
    }
