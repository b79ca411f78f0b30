"""Rational distributions and the residue mod p of their real entropy.

Real entropy of a rational distribution is transcendental, so equality of
real entropies is decided exactly: over a common integer denominator t the
real entropies agree when the products prod r_i^{r_i} (with 0^0 = 1) do.
Those products are never built.  The numerators both sides share cancel,
the rest are refined into powers of pairwise coprime integers (factor
refinement, no factoring), and the products agree when every such power
has exponent 0.  For pairs of equal real entropy the entropies mod p agree
for every prime p dividing no denominator, which is what makes the residue
map well defined.
"""

import sys
from collections import Counter
from fractions import Fraction
from math import gcd, lcm, prod
from numbers import Rational

from .distributions import ModDist, entropy
from .errors import DenominatorDivisibleByP, InvalidDistribution, NotCommonDenominator, ParseError, SumNotOne
from .modular import PrimeModulus, Residue, _Frozen
from .verification import VerificationReport


def _parse(text: str) -> Fraction:
    """One fraction string; a decimal exponent beyond the int string-digit limit is refused.

    Fraction expands `1e-99999999` into a 10^8-digit integer, which takes
    many minutes, so the exponent is read before the number is built.  The
    limit is 4300, CPython's default, where the interpreter has no limit
    or no `sys.get_int_max_str_digits` (before 3.10.7).
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    _, e, exponent = text.lower().partition("e")
    digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    if e and digits.isdecimal() and (len(digits) > len(str(limit)) or int(digits) > limit):
        raise ParseError(f"cannot parse fraction {text!r}: exponent beyond {limit}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"cannot parse fraction {text!r}: {exc}") from None


def _rational(q) -> Fraction:
    """A non-str entry as a Fraction; only ints and other rationals are taken."""
    if not isinstance(q, Rational):
        raise InvalidDistribution(f"entry {q!r} is neither a str nor a rational number")
    return Fraction(q)


class RationalDist(_Frozen):
    """A tuple of exact nonnegative rationals summing to 1, in lowest terms.

    Entries are strs, ints or other rationals such as `Fraction`; a float or
    any other type raises `InvalidDistribution`, and a str that does not
    parse as a fraction, or has a zero denominator, raises `ParseError`.
    """

    __slots__ = ("probs",)

    def __init__(self, probs):
        probs = tuple(_parse(q) if isinstance(q, str) else _rational(q) for q in probs)
        if not probs:
            raise InvalidDistribution("a distribution has at least one entry")
        if any(q < 0 for q in probs):
            raise InvalidDistribution("entries must be nonnegative")
        total = sum(probs)
        if total != 1:
            try:
                text = str(total)
            except ValueError:  # more digits than int-to-str conversion allows
                num, den = total.numerator.bit_length(), total.denominator.bit_length()
                text = f"a fraction of a {num}-bit over a {den}-bit int"
            raise SumNotOne(total, f"entries sum to {text}, expected 1")
        object.__setattr__(self, "probs", probs)

    def __len__(self):
        return len(self.probs)

    def __iter__(self):
        return iter(self.probs)

    def __getitem__(self, i):
        return self.probs[i]

    def __eq__(self, other):
        return isinstance(other, RationalDist) and self.probs == other.probs

    def __hash__(self):
        return hash(self.probs)

    def __repr__(self):
        return f"RationalDist({', '.join(str(q) for q in self.probs)})"


def reduce_mod(d: RationalDist, p: PrimeModulus) -> ModDist:
    """Entrywise image in Z/pZ; every denominator must be coprime to p."""
    values = []
    for i, q in enumerate(d.probs):
        if q.denominator % p.p == 0:
            raise DenominatorDivisibleByP(i, q, p.p)
        values.append(q.numerator * pow(q.denominator, -1, p.p) % p.p)
    return ModDist._canonical(p, tuple(values))  # reduction mod p keeps the sum 1


def residue_entropy(d: RationalDist, p: PrimeModulus) -> Residue:
    """H_p of the mod-p image of d: the residue of the real entropy H_R(d)."""
    return entropy(reduce_mod(d, p))


def scaled_numerators(d: RationalDist, t: int) -> tuple:
    """The integers r_i with d = (r_1/t, ..., r_n/t); t must clear all denominators."""
    nums = []
    for q in d.probs:
        k, rem = divmod(t, q.denominator)
        if rem:
            raise NotCommonDenominator(f"{t} is not a common denominator for {q}")
        nums.append(q.numerator * k)
    return tuple(nums)


def _refine_into(base: dict, x: int, e: int) -> None:
    """Multiply the product of b^base[b] by x^e, keeping the keys pairwise coprime.

    A key b sharing g = gcd(x, b) > 1 with x is replaced by the pieces b/g,
    x/g and g, since b^f x^e = (b/g)^f (x/g)^e g^(e+f); pieces equal to 1
    and exponents equal to 0 are dropped.
    """
    work = [(x, e)]
    while work:
        x, e = work.pop()
        if x == 1 or not e:
            continue
        f = base.pop(x, 0)
        if f:
            if e + f:
                base[x] = e + f
            continue
        for b in base:
            g = gcd(x, b)
            if g > 1:
                break
        else:
            base[x] = e
            continue
        f = base.pop(b)
        work += [(b // g, f), (x // g, e), (g, e + f)]


def _coprime_powers(pairs: list) -> dict:
    """Pairwise coprime b > 1 and nonzero exponents with prod b^e = prod x^e over pairs.

    The halves are refined on their own and then merged: only the keys of
    one half that share a factor with the other half's product are refined
    against each other, so most keys are never compared one by one.
    """
    if len(pairs) <= 8:
        base = {}
        for x, e in pairs:
            _refine_into(base, x, e)
        return base
    half = len(pairs) // 2
    left, right = _coprime_powers(pairs[:half]), _coprime_powers(pairs[half:])
    right_product = prod(right)
    shared = {b: left.pop(b) for b in [b for b in left if gcd(b, right_product) > 1]}
    if shared:
        shared_product = prod(shared)
        for b in [b for b in right if gcd(b, shared_product) > 1]:
            _refine_into(shared, b, right.pop(b))
        left.update(shared)
    left.update(right)
    return left


def real_entropy_equal(a: RationalDist, b: RationalDist) -> bool:
    """Exact decision of H_R(a) = H_R(b).

    With a = (r_i/t) and b = (s_j/t) over a common denominator t,
    t^t e^{-t H_R} equals prod r_i^{r_i}, so the real entropies agree
    exactly when prod v^(v c_v) = 1, where c_v counts v among the r_i
    minus among the s_j.  Shared numerators cancel first, so a permuted
    pair takes no gcd.  The rest of the product is refined into
    prod b_k^(e_k) over pairwise coprime b_k > 1, dropping every piece whose
    exponent reaches 0; pairwise coprime integers above 1 are
    multiplicatively independent, so the product is 1 exactly when no piece
    is left.  The verdict does not depend on the choice of t.
    """
    t = lcm(*(q.denominator for q in a.probs), *(q.denominator for q in b.probs))
    counts = Counter(scaled_numerators(a, t))
    counts.subtract(scaled_numerators(b, t))
    return not _coprime_powers([(v, v * c) for v, c in counts.items() if c and v > 1])


def tensor_rational(a: RationalDist, b: RationalDist) -> RationalDist:
    """Product distribution with rational entries, in the same block order as (x)."""
    return RationalDist(tuple(x * y for x in a.probs for y in b.probs))


def check_residue_well_defined(
    a: RationalDist, b: RationalDist, p: PrimeModulus
) -> VerificationReport:
    """If H_R(a) = H_R(b), assert the residues mod p agree; vacuous otherwise."""
    ra, rb = residue_entropy(a, p), residue_entropy(b, p)
    if not real_entropy_equal(a, b):
        return VerificationReport(
            "residue_well_defined",
            1,
            (),
            {"p": p.p, "vacuous": True, "residue_a": ra.value, "residue_b": rb.value},
        )
    failures = ()
    if ra != rb:
        failures = (f"H_R equal but residues mod {p.p} differ: {ra.value} != {rb.value}",)
    return VerificationReport(
        "residue_well_defined",
        1,
        failures,
        {"p": p.p, "vacuous": False, "residue_a": ra.value, "residue_b": rb.value},
    )


def residue_additive(a: RationalDist, b: RationalDist, p: PrimeModulus) -> VerificationReport:
    """Assert [H_R(a (x) b)] = [H_R(a)] + [H_R(b)] in Z/pZ."""
    lhs = residue_entropy(tensor_rational(a, b), p)
    rhs = residue_entropy(a, p) + residue_entropy(b, p)
    failures = ()
    if lhs != rhs:
        failures = (f"residue of tensor is {lhs.value}, sum of residues is {rhs.value}",)
    return VerificationReport(
        "residue_additive", 1, failures, {"p": p.p, "tensor": lhs.value, "sum": rhs.value}
    )
