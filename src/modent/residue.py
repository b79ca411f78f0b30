"""Rational distributions and the residue mod p of their real entropy.

Real entropy of a rational distribution is transcendental, so equality of
real entropies is decided exactly: scale both distributions to a common
integer denominator t and compare the big-integer products prod r_i^{r_i}
(with 0^0 = 1).  Equal products imply equal real entropies, and for such
pairs the entropies mod p agree for every prime p dividing no denominator,
which is what makes the residue map well defined.
"""

from fractions import Fraction
from math import lcm, prod

from .distributions import ModDist, entropy
from .errors import DenominatorDivisibleByP, InvalidDistribution, SumNotOne
from .modular import PrimeModulus, Residue
from .verification import VerificationReport


class RationalDist:
    """A tuple of exact nonnegative rationals summing to 1, in lowest terms."""

    __slots__ = ("probs",)

    def __init__(self, probs):
        probs = tuple(Fraction(q) for q in probs)
        if not probs:
            raise InvalidDistribution("a distribution has at least one entry")
        if any(q < 0 for q in probs):
            raise InvalidDistribution("entries must be nonnegative")
        total = sum(probs)
        if total != 1:
            raise SumNotOne(total, f"entries sum to {total}, expected 1")
        object.__setattr__(self, "probs", probs)

    def __setattr__(self, name, val):
        raise AttributeError("RationalDist is immutable")

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
        values.append(Residue(q.numerator, p) / Residue(q.denominator, p))
    return ModDist(p, values)


def residue_entropy(d: RationalDist, p: PrimeModulus) -> Residue:
    """H_p of the mod-p image of d: the residue of the real entropy H_R(d)."""
    return entropy(reduce_mod(d, p))


def scaled_numerators(d: RationalDist, t: int) -> tuple:
    """The integers r_i with d = (r_1/t, ..., r_n/t); t must clear all denominators."""
    nums = []
    for q in d.probs:
        r = q * t
        if r.denominator != 1:
            raise ValueError(f"{t} is not a common denominator for {q}")
        nums.append(int(r))
    return tuple(nums)


def power_product(nums) -> int:
    """prod r^r over the entries, with the convention 0^0 = 1."""
    return prod(r**r for r in nums if r != 0)


def real_entropy_equal(a: RationalDist, b: RationalDist) -> bool:
    """Exact decision of H_R(a) = H_R(b).

    With a = (r_i/t) and b = (s_j/t) over a common denominator t,
    t^t e^{-t H_R} equals the product prod r_i^{r_i}, so the two real
    entropies agree exactly when the integer products agree.  The verdict
    does not depend on the choice of t.
    """
    t = lcm(*(q.denominator for q in a.probs), *(q.denominator for q in b.probs))
    return power_product(scaled_numerators(a, t)) == power_product(scaled_numerators(b, t))


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
