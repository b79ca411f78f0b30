"""Exact arithmetic in Z/pZ and Z/p²Z, the Fermat quotient and the p-derivation.

Residues are always canonicalized to [0, p) (resp. [0, p²)), so equality and
hashing are structural.  The two maps at the heart of the package are

    fermat_quotient(a) = (a^(p-1) - 1) / p   in Z/pZ, for p not dividing a,
    p_derivation(a)    = (a - a^p) / p       in Z/pZ, for any integer a,

both of which depend only on a mod p².  They are computed with modulus-p²
exponentiation, so no big-integer towers arise for large a.
"""

from dataclasses import dataclass

from .errors import DivisibleByP, InvalidResidue, ModulusMismatch, NotPrime, RangeGuard
from .verification import VerificationReport

# Deterministic witness set: correct for every n < 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981

VERIFIER_PRIME_GUARD = 97


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test; RangeGuard at or above ~3.3e24."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n == b:
            return True
        if n % b == 0:
            return False
    if n >= _MR_LIMIT:
        raise RangeGuard(f"{n} exceeds the deterministic primality bound of 3.3e24 ({_MR_LIMIT})")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeModulus:
    """A prime p, possibly 2, validated at construction."""

    p: int

    def __post_init__(self):
        if not isinstance(self.p, int) or not is_prime(self.p):
            raise NotPrime(f"{self.p} is not prime")

    @property
    def p_squared(self) -> int:
        return self.p * self.p

    def residue(self, value: int) -> "Residue":
        return Residue(value, self)

    def lifted(self, value: int) -> "LiftedResidue":
        return LiftedResidue(value, self)

    def __repr__(self):
        return f"PrimeModulus({self.p})"


class Residue:
    """An element of Z/pZ with canonical representative in [0, p)."""

    __slots__ = ("value", "modulus")

    def __init__(self, value, modulus: PrimeModulus):
        # plain ints, the hot path, pass one class comparison and no call
        if value.__class__ is not int:
            if isinstance(value, Residue):
                if value.modulus != modulus:
                    raise ModulusMismatch(f"residue mod {value.modulus.p} given for mod {modulus.p}")
                value = value.value
            elif not isinstance(value, int):
                raise InvalidResidue(f"residue value {value!r} is neither an int nor a residue")
        object.__setattr__(self, "value", value % modulus.p)
        object.__setattr__(self, "modulus", modulus)

    def __setattr__(self, name, val):
        raise AttributeError("Residue is immutable")

    def _coerce(self, other) -> "Residue":
        if isinstance(other, Residue):
            if other.modulus != self.modulus:
                raise ModulusMismatch(
                    f"cannot mix residues mod {self.modulus.p} and mod {other.modulus.p}"
                )
            return other
        if isinstance(other, int):
            return Residue(other, self.modulus)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Residue(self.value + other.value, self.modulus)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Residue(self.value - other.value, self.modulus)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Residue(other.value - self.value, self.modulus)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Residue(self.value * other.value, self.modulus)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __neg__(self):
        return Residue(-self.value, self.modulus)

    def __pow__(self, exponent: int):
        if exponent < 0:
            return Residue(pow(self.inverse().value, -exponent, self.modulus.p), self.modulus)
        return Residue(pow(self.value, exponent, self.modulus.p), self.modulus)

    def inverse(self) -> "Residue":
        if self.value == 0:
            raise ZeroDivisionError(f"0 is not invertible mod {self.modulus.p}")
        return Residue(pow(self.value, -1, self.modulus.p), self.modulus)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.value == other % self.modulus.p
        return (
            isinstance(other, Residue)
            and self.modulus == other.modulus
            and self.value == other.value
        )

    def __hash__(self):
        return hash((self.value, self.modulus.p))

    def __int__(self):
        return self.value

    def __repr__(self):
        return f"Residue({self.value}, mod {self.modulus.p})"


class LiftedResidue:
    """An element of Z/p²Z with canonical representative in [0, p²)."""

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: PrimeModulus):
        object.__setattr__(self, "value", value % modulus.p_squared)
        object.__setattr__(self, "modulus", modulus)

    def __setattr__(self, name, val):
        raise AttributeError("LiftedResidue is immutable")

    def __mul__(self, other):
        if isinstance(other, LiftedResidue):
            if other.modulus != self.modulus:
                raise ModulusMismatch("lifted residues over different primes")
            other = other.value
        return LiftedResidue(self.value * other, self.modulus)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        return LiftedResidue(pow(self.value, exponent, self.modulus.p_squared), self.modulus)

    def is_unit(self) -> bool:
        return self.value % self.modulus.p != 0

    def __eq__(self, other):
        if isinstance(other, int):
            return self.value == other % self.modulus.p_squared
        return (
            isinstance(other, LiftedResidue)
            and self.modulus == other.modulus
            and self.value == other.value
        )

    def __hash__(self):
        return hash((self.value, self.modulus.p_squared))

    def __int__(self):
        return self.value

    def __repr__(self):
        return f"LiftedResidue({self.value}, mod {self.modulus.p}^2)"


def fermat_quotient(a: int, p: PrimeModulus) -> Residue:
    """(a^(p-1) - 1)/p mod p, the multiplicative-to-additive map on units mod p².

    Raises DivisibleByP when p divides a.  Depends only on a mod p².
    """
    if isinstance(a, LiftedResidue):
        a = a.value
    if a % p.p == 0:
        raise DivisibleByP(f"{a} is divisible by {p.p}")
    p2 = p.p_squared
    # a^(p-1) mod p² is 1 + tp with t the Fermat quotient mod p
    lifted = pow(a % p2, p.p - 1, p2)
    return Residue((lifted - 1) // p.p, p)


def p_derivation(a: int, p: PrimeModulus) -> Residue:
    """(a - a^p)/p mod p.  Defined for every integer; depends only on a mod p²."""
    if isinstance(a, LiftedResidue):
        a = a.value
    p2 = p.p_squared
    w = a % p2
    diff = (w - pow(w, p.p, p2)) % p2  # divisible by p, by Fermat
    return Residue(diff // p.p, p)


def fq_section(r: Residue) -> LiftedResidue:
    """The right inverse r -> 1 - rp of the Fermat quotient."""
    p = r.modulus
    return LiftedResidue(1 - r.value * p.p, p)


def _check_guard(p: PrimeModulus):
    if p.p > VERIFIER_PRIME_GUARD:
        raise RangeGuard(f"exhaustive verifier capped at p <= {VERIFIER_PRIME_GUARD}, got {p.p}")


def verify_fq_laws(p: PrimeModulus) -> VerificationReport:
    """Exhaustively check the three elementary laws of the Fermat quotient.

    For all m, n in [1, p²] coprime to p and all r in [0, p):
      1. fq(mn) = fq(m) + fq(n), and fq(1) = 0;
      2. fq(n + rp) = fq(n) - r/n;
      3. fq(n + p²) = fq(n).
    """
    _check_guard(p)
    failures = []
    checks = 0
    units = [n for n in range(1, p.p_squared + 1) if n % p.p != 0]
    fq = {n: fermat_quotient(n, p) for n in units}

    checks += 1
    if fq[1].value != 0:
        failures.append(f"fq({1}) = {fq[1].value} != 0")
    for m in units:
        for n in units:
            checks += 1
            if fermat_quotient(m * n, p) != fq[m] + fq[n]:
                failures.append(f"fq({m}*{n}) != fq({m}) + fq({n})")
    for n in units:
        inv_n = Residue(n, p).inverse()
        for r in range(p.p):
            checks += 1
            if fermat_quotient(n + r * p.p, p) != fq[n] - r * inv_n:
                failures.append(f"fq({n} + {r}p) != fq({n}) - {r}/{n}")
    for n in units:
        checks += 1
        if fermat_quotient(n + p.p_squared, p) != fq[n]:
            failures.append(f"fq({n} + p^2) != fq({n})")
    return VerificationReport("fq_laws", checks, tuple(failures), {"p": p.p})


def _multiplicative_order(g: int, p2: int, group_order: int) -> int:
    x, k = g % p2, 1
    while x != 1:
        x = x * g % p2
        k += 1
        if k > group_order:
            raise AssertionError("order search overran the group order")
    return k


def verify_hom_uniqueness(p: PrimeModulus) -> VerificationReport:
    """Check that every homomorphism (Z/p²Z)^x -> Z/pZ is a multiple of fq.

    Finds a generator e of the (cyclic) unit group, enumerates the p
    homomorphisms determined by the possible images of e, and checks each
    one agrees pointwise with c*fq for c = image/fq(e).  Also checks that
    fq itself is a surjective homomorphism.
    """
    _check_guard(p)
    failures = []
    checks = 0
    p2 = p.p_squared
    units = [n for n in range(1, p2) if n % p.p != 0]
    group_order = p.p * (p.p - 1)

    fq = {u: fermat_quotient(u, p) for u in units}
    for a in units:
        for b in units:
            checks += 1
            if fq[a * b % p2] != fq[a] + fq[b]:
                failures.append(f"fq not a homomorphism at ({a}, {b})")
    checks += 1
    if {fq[u].value for u in units} != set(range(p.p)):
        failures.append("fq is not surjective onto Z/pZ")

    generator = next(
        g for g in units if _multiplicative_order(g, p2, group_order) == group_order
    )
    # discrete log table with respect to the generator
    dlog, x = {}, 1
    for k in range(group_order):
        dlog[x] = k
        x = x * generator % p2
    fq_e_inv = fq[generator].inverse()  # fq(e) generates the image, hence is a unit

    hom_count = 0
    for image in range(p.p):
        hom = {u: Residue(dlog[u] * image, p) for u in units}
        for a in units:
            for b in units:
                checks += 1
                if hom[a * b % p2] != hom[a] + hom[b]:
                    failures.append(f"candidate with e -> {image} is not a homomorphism")
        c = Residue(image, p) * fq_e_inv
        for u in units:
            checks += 1
            if hom[u] != c * fq[u]:
                failures.append(f"candidate with e -> {image} differs from {c.value}*fq at {u}")
        hom_count += 1

    return VerificationReport(
        "hom_uniqueness",
        checks,
        tuple(failures),
        {"p": p.p, "generator": generator, "homomorphisms": hom_count},
    )
