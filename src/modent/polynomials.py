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
from math import comb, factorial

from .distributions import compositions
from .errors import ArityMismatch, DegreeTooHigh, ModulusMismatch, RangeGuard
from .modular import PrimeModulus, Residue
from .verification import VerificationReport

IDENTITY_PRIME_GUARD = 13
GROUPING_SIZE_GUARD = 6
INTERPOLATE_POINT_GUARD = 10**6

_SHORT_NAMES = ("x", "y", "z")


class MultiPoly:
    """A polynomial over Z/pZ, stored as exponent-vector -> nonzero coefficient."""

    __slots__ = ("p", "nvars", "terms")

    def __init__(self, p: PrimeModulus, nvars: int, terms=()):
        canonical = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for exps, c in items:
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ArityMismatch(f"exponent vector {exps} in a {nvars}-variable polynomial")
            if any(e < 0 for e in exps):
                raise ValueError("exponents must be nonnegative")
            c = int(c) % p.p
            if c:
                c0 = canonical.get(exps, 0)
                c = (c0 + c) % p.p
                if c:
                    canonical[exps] = c
                elif exps in canonical:
                    del canonical[exps]
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", canonical)

    def __setattr__(self, name, val):
        raise AttributeError("MultiPoly is immutable")

    @classmethod
    def zero(cls, p: PrimeModulus, nvars: int) -> "MultiPoly":
        return cls(p, nvars)

    @classmethod
    def constant(cls, p: PrimeModulus, nvars: int, c) -> "MultiPoly":
        return cls(p, nvars, {(0,) * nvars: int(c)})

    @classmethod
    def variable(cls, p: PrimeModulus, nvars: int, index: int) -> "MultiPoly":
        exps = [0] * nvars
        exps[index] = 1
        return cls(p, nvars, {tuple(exps): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def _check_compatible(self, other: "MultiPoly"):
        if self.p != other.p:
            raise ModulusMismatch("polynomials over different primes")
        if self.nvars != other.nvars:
            raise ArityMismatch(f"{self.nvars}-variable vs {other.nvars}-variable polynomial")

    def __add__(self, other):
        if isinstance(other, (int, Residue)):
            other = MultiPoly.constant(self.p, self.nvars, int(other))
        self._check_compatible(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            v = (terms.get(exps, 0) + c) % self.p.p
            if v:
                terms[exps] = v
            elif exps in terms:
                del terms[exps]
        return MultiPoly(self.p, self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.p, self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Residue)):
            other = MultiPoly.constant(self.p, self.nvars, int(other))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Residue)):
            c = int(other) % self.p.p
            return MultiPoly(self.p, self.nvars, {e: k * c for e, k in self.terms.items()})
        self._check_compatible(other)
        p = self.p.p
        acc = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                v = (acc.get(e, 0) + c1 * c2) % p
                if v:
                    acc[e] = v
                elif e in acc:
                    del acc[e]
        return MultiPoly(self.p, self.nvars, acc)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.constant(self.p, self.nvars, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

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
        point = tuple(int(v) % self.p.p for v in point)
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
            p_target = self.p
            return MultiPoly(p_target, 0, dict(self.terms))
        nvars = args[0].nvars
        for a in args:
            if a.p != self.p:
                raise ModulusMismatch("substitution over a different prime")
            if a.nvars != nvars:
                raise ArityMismatch("substitution arguments must share a variable set")
        # power tables: powers[i][e] = args[i]**e, built incrementally
        max_exp = [0] * self.nvars
        for exps in self.terms:
            for i, e in enumerate(exps):
                max_exp[i] = max(max_exp[i], e)
        powers = []
        for a, m in zip(args, max_exp):
            row = [MultiPoly.constant(self.p, nvars, 1)]
            for _ in range(m):
                row.append(row[-1] * a)
            powers.append(row)
        result = MultiPoly.zero(self.p, nvars)
        for exps, c in self.terms.items():
            term = MultiPoly.constant(self.p, nvars, c)
            for i, e in enumerate(exps):
                if e:
                    term = term * powers[i][e]
            result = result + term
        return result

    def embed(self, nvars: int, positions) -> "MultiPoly":
        """View this polynomial inside a larger variable set.

        positions[i] is the index that variable i maps to.
        """
        positions = tuple(positions)
        if len(positions) != self.nvars:
            raise ArityMismatch("one position per variable required")
        terms = {}
        for exps, c in self.terms.items():
            big = [0] * nvars
            for pos, e in zip(positions, exps):
                big[pos] = e
            terms[tuple(big)] = c
        return MultiPoly(self.p, nvars, terms)

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
    if n < 0:
        raise ValueError("n must be nonnegative")
    terms = {}
    for exps in compositions(p.p, n, 0, p.p - 1):
        denom = 1
        for e in exps:
            denom = denom * factorial(e) % p.p
        terms[exps] = -pow(denom, -1, p.p)
    return MultiPoly(p, n, terms)


def pounds1(p: PrimeModulus) -> MultiPoly:
    """h(x, 1-x) in closed form: sum x^r/r for odd p, x + x^2 for p = 2."""
    if p.p == 2:
        return MultiPoly(p, 1, {(1,): 1, (2,): 1})
    return MultiPoly(p, 1, {(r,): pow(r, -1, p.p) for r in range(1, p.p)})


def homogenize(f: MultiPoly, p: PrimeModulus) -> MultiPoly:
    """G(u, v) = v^p * f(u/v) for univariate f with deg f <= p."""
    if f.nvars != 1:
        raise ArityMismatch("homogenization expects a univariate polynomial")
    if f.total_degree() > p.p:
        raise DegreeTooHigh(f"degree {f.total_degree()} exceeds {p.p}")
    return MultiPoly(p, 2, {(e[0], p.p - e[0]): c for e, c in f.terms.items()})


def interpolate(table, p: PrimeModulus, n: int) -> MultiPoly:
    """The unique polynomial with all exponents < p inducing the given table.

    `table` is called on every point of (Z/pZ)^n (as a tuple of ints).  The
    construction expands sum_a F(a) * delta(x - a) with
    delta(x) = prod (1 - x_i^{p-1}), organized as one pass per axis.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    q = p.p
    if q**n > INTERPOLATE_POINT_GUARD:
        raise RangeGuard(f"{q}^{n} points exceeds the guard of {INTERPOLATE_POINT_GUARD}")
    # row a of U holds the coefficients of 1 - (x - a)^(p-1)
    u_matrix = []
    for a in range(q):
        row = [0] * q
        row[0] = 1
        for s in range(q):
            row[s] = (row[s] - comb(q - 1, s) * pow(-a, q - 1 - s, q)) % q
        u_matrix.append(row)

    values = [int(table(pt)) % q for pt in product(range(q), repeat=n)]
    size = q**n
    for axis in range(n):
        stride = q ** (n - 1 - axis)
        block = stride * q
        new = [0] * size
        for start in range(0, size, block):
            for off in range(stride):
                base = start + off
                col = [values[base + a * stride] for a in range(q)]
                for s in range(q):
                    acc = 0
                    for a in range(q):
                        if col[a]:
                            acc += u_matrix[a][s] * col[a]
                    new[base + s * stride] = acc % q
        values = new

    terms = {}
    for idx, c in enumerate(values):
        if c:
            exps = []
            rem = idx
            for axis in range(n):
                exps.append(rem // q ** (n - 1 - axis))
                rem %= q ** (n - 1 - axis)
            terms[tuple(exps)] = c
    return MultiPoly(p, n, terms)


def _check_identity_guard(p: PrimeModulus):
    if p.p > IDENTITY_PRIME_GUARD:
        raise RangeGuard(f"identity checks capped at p <= {IDENTITY_PRIME_GUARD}, got {p.p}")


def _report(name: str, lhs: MultiPoly, rhs: MultiPoly, data=None) -> VerificationReport:
    diff = lhs - rhs
    failures = () if diff.is_zero() else (f"difference has {len(diff.terms)} nonzero terms",)
    return VerificationReport(name, 1, failures, data or {})


def _blocks(n: int, ks, p: PrimeModulus, start: int):
    """Validate a block shape; return it and each block's variable indices from `start`."""
    ks = tuple(ks)
    if len(ks) != n or any(k < 0 for k in ks):
        raise ValueError("need one nonnegative block size per outer slot")
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
    return _report(
        "grouping", whole, grouped + within, {"p": p.p, "n": n, "ks": ks}
    )


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
    return _report(
        "poly_chain_rule", lhs, mid + rest, {"p": p.p, "n": n, "ks": ks}
    )


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
    shapes with positive blocks and total size <= grouping_cap.
    """
    grouping = [
        check_grouping(n, ks, p)
        for total in range(1, grouping_cap + 1)
        for n in range(1, total + 1)
        for ks in compositions(total, n, lo=1)
    ]
    failures = tuple(f"ks={r.data['ks']}: {f}" for r in grouping for f in r.failures)
    return {
        "grouping": VerificationReport(
            "grouping", len(grouping), failures, {"p": p.p, "grouping_cap": grouping_cap}
        ),
        "cocycle": check_cocycle(p),
        "pounds1_formula": check_pounds1_formula(p),
        "pounds1_symmetry": check_symmetry_pounds1(p),
        "homogenization": homogenize_check(p),
        "fundamental_pounds1": check_fundamental(pounds1(p), p),
        "fundamental_xp": check_fundamental(MultiPoly(p, 1, {(p.p,): 1}), p),
    }
