"""Exact arithmetic in Z/pZ and Z/p²Z, the Fermat quotient and the p-derivation.

Inside the package elements are plain ints in [0, p) (resp. [0, p²));
`as_int` checks a value once at the API edge, and a Residue is built only
for a caller.  The two maps at the heart of the package are

    fermat_quotient(a) = (a^(p-1) - 1) / p   in Z/pZ, for p not dividing a,
    p_derivation(a)    = (a - a^p) / p       in Z/pZ, for any integer a,

both of which depend only on a mod p².  They are computed with modulus-p²
exponentiation, so no big-integer towers arise for large a.
"""

from itertools import compress
from operator import not_

from .errors import DivisibleByP, InvalidResidue, ModulusMismatch, NotPrime, RangeGuard
from .verification import Failures, VerificationReport

# Deterministic witness set: correct for every n < 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981

# Bounds p for the exhaustive verifiers, whose checks grow as p^4 and p^5; it
# must stay below 256, so that a table's values fit in a byte.  At the limit
# `verify_fq_laws` takes 0.18-0.24 s and `verify_hom_uniqueness` 0.94-1.07 s,
# at 17 MB, and `modent verify-core` 1.2-1.5 s at 18 MB (fresh processes,
# 2-core VM, Python 3.11.7); p = 127 takes 0.34-0.45 s and 1.83-2.04 s, and
# `verify-core` 2.4-2.7 s at 19 MB.
VERIFIER_PRIME_GUARD = 113


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


class _Frozen:
    """Base of the value types, which refuse to set or delete an attribute.

    Constructors, and `__setstate__` for copy and pickle, set slots through
    `object.__setattr__`, or on hot paths through a slot's own `__set__`.
    """

    __slots__ = ()

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __setstate__(self, state):
        for part in state:
            for name, value in (part or {}).items():
                object.__setattr__(self, name, value)


class PrimeModulus(_Frozen):
    """A prime p, possibly 2, validated at construction; immutable."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        object.__setattr__(self, "p", p)

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self.p == other.p

    def __hash__(self):
        return hash(self.p)

    @property
    def p_squared(self) -> int:
        return self.p * self.p

    def __repr__(self):
        return f"PrimeModulus({self.p})"


def as_int(value, modulus: PrimeModulus, lifted: bool = False) -> int:
    """An outside value as its int in [0, p), or in [0, p²) when `lifted`.

    The one check at the API edge: accepts ints (bool included) and residues
    of the same kind and prime, raises InvalidResidue or ModulusMismatch for
    anything else.  Plain ints pass one class comparison and no call.
    """
    kind, m = (LiftedResidue, modulus.p_squared) if lifted else (Residue, modulus.p)
    if value.__class__ is not int:
        if isinstance(value, kind):
            if value.modulus != modulus:
                raise ModulusMismatch(f"residue mod {value.modulus.p} given for mod {modulus.p}")
            value = value.value
        elif not isinstance(value, int):
            raise InvalidResidue(f"residue value {value!r} is neither an int nor a {kind.__name__}")
    return value % m


def as_ints(values, modulus: PrimeModulus) -> tuple:
    """`as_int` over a sequence, in one pass that calls it only for a value not a plain int."""
    p = modulus.p
    return tuple([v % p if type(v) is int else as_int(v, modulus) for v in values])


class _Canonical(_Frozen):
    """An int `value` in [0, m) and its PrimeModulus, m being p or, when lifted, p².

    It equals an element of the same class and prime with the same value,
    and the plain int `value` itself but not the other ints congruent to
    it, so that an equal element and int hash alike.
    """

    __slots__ = ("value", "modulus")
    _lifted = False

    def __init__(self, value, modulus: PrimeModulus):
        _set_value(self, as_int(value, modulus, self._lifted))
        _set_modulus(self, modulus)

    @classmethod
    def _canonical(cls, value: int, modulus: PrimeModulus):
        """Wrap an int already in [0, m), without checking it."""
        element = object.__new__(cls)
        _set_value(element, value)
        _set_modulus(element, modulus)
        return element

    def __eq__(self, other):
        if isinstance(other, int):
            return self.value == other
        same = type(other) is type(self) and self.modulus == other.modulus
        return same and self.value == other.value

    def __hash__(self):
        return hash(self.value)

    def __int__(self):
        return self.value


_set_value, _set_modulus = _Canonical.value.__set__, _Canonical.modulus.__set__


class Residue(_Canonical):
    """An element of Z/pZ with canonical representative in [0, p)."""

    __slots__ = ()

    def _int(self, other):
        """other as its int in [0, p), or None when it is neither an int nor a Residue."""
        return as_int(other, self.modulus) if isinstance(other, (int, Residue)) else None

    def __add__(self, other):
        v = self._int(other)
        return NotImplemented if v is None else Residue(self.value + v, self.modulus)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._int(other)
        return NotImplemented if v is None else Residue(self.value - v, self.modulus)

    def __rsub__(self, other):
        v = self._int(other)
        return NotImplemented if v is None else Residue(v - self.value, self.modulus)

    def __mul__(self, other):
        v = self._int(other)
        return NotImplemented if v is None else Residue(self.value * v, self.modulus)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._int(other)
        return NotImplemented if v is None else self * Residue(v, self.modulus).inverse()

    def __rtruediv__(self, other):
        v = self._int(other)
        return NotImplemented if v is None else v * self.inverse()

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

    def __repr__(self):
        return f"Residue({self.value}, mod {self.modulus.p})"


class LiftedResidue(_Canonical):
    """An element of Z/p²Z with canonical representative in [0, p²)."""

    __slots__ = ()
    _lifted = True

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

    def __repr__(self):
        return f"LiftedResidue({self.value}, mod {self.modulus.p}^2)"


def _fq(a: int, p: int, p2: int) -> int:
    """The Fermat quotient of an int a coprime to p, as an int in [0, p)."""
    # a^(p-1) mod p² is 1 + tp with t the Fermat quotient mod p
    return (pow(a, p - 1, p2) - 1) // p


def fermat_quotient(a, p: PrimeModulus) -> Residue:
    """(a^(p-1) - 1)/p mod p, the multiplicative-to-additive map on units mod p².

    Raises DivisibleByP when p divides a.  Depends only on a mod p².
    """
    v = as_int(a, p, lifted=True)
    if v % p.p == 0:
        raise DivisibleByP(f"{int(a)} is divisible by {p.p}")
    return Residue._canonical(_fq(v, p.p, p.p_squared), p)


def p_derivation(a, p: PrimeModulus) -> Residue:
    """(a - a^p)/p mod p.  Defined for every integer; depends only on a mod p²."""
    p2 = p.p_squared
    a = as_int(a, p, lifted=True)
    return Residue._canonical((a - pow(a, p.p, p2)) % p2 // p.p, p)  # divisible by p, by Fermat


def fq_section(r: Residue) -> LiftedResidue:
    """The right inverse r -> 1 - rp of the Fermat quotient."""
    p = r.modulus
    return LiftedResidue(1 - r.value * p.p, p)


def _verifier_tables(p: PrimeModulus) -> tuple:
    """q, p², the units in [1, p²), the fq table and the units as powers of a generator.

    fq is a list over [0, p²) that is 0 off the units.  The unit group is
    cyclic: walking each unit's powers back to 1, the first walk that
    covers the group is a generator e's, and powers[k] = e^k lists the
    units by their discrete log.
    """
    if p.p > VERIFIER_PRIME_GUARD:
        raise RangeGuard(f"exhaustive verifier capped at p <= {VERIFIER_PRIME_GUARD}, got {p.p}")
    q, p2 = p.p, p.p_squared
    units = [n for n in range(1, p2) if n % q != 0]
    fq = [_fq(n, q, p2) if n % q else 0 for n in range(p2)]
    for generator in units:
        powers, x = [1], generator
        while x != 1:
            powers.append(x)
            x = x * generator % p2
        if len(powers) == len(units):
            return q, p2, units, fq, powers


def _add_non_additive(failures: Failures, f: list, units: list, powers: list, q: int, line_of) -> None:
    """Add each unit pair with f(ab mod p²) != f(a) + f(b) mod q, row by row, as line_of(a, b).

    f is a list over [0, p²) with values in [0, q), and powers[k] = e^k
    lists the u units by their discrete log to a generator e.  Read over
    the powers and taken twice, f is the bytes `twice` (its values fit in
    a byte, as q <= VERIFIER_PRIME_GUARD < 256), and row a = e^k, that is
    f(a e^j) for j in [0, u), is twice[k:k+u].  The row passes when that
    slice equals (f(a) + f(e^j)) mod q over j, which `startswith` at
    offset k compares in C without copying it: every pair of the row is
    still checked.  The q possible right sides are built once per f.  Only
    a failing row is walked pair by pair, in the order of `units`, so the
    lines, their order and the count are those of a check of every pair
    on its own.
    """
    p2 = len(f)
    fp = bytes([f[x] for x in powers])
    twice = fp + fp
    cycle, pad = bytes(range(q)) * 2, bytes(256 - q)
    shifted = [fp.translate(cycle[s : s + q] + pad) for s in range(q)]  # (s + f(e^j)) mod q over j
    passed = map(twice.startswith, map(shifted.__getitem__, fp), range(len(fp)))  # row e^k at offset k
    failing = set(compress(powers, map(not_, passed)))
    for a in filter(failing.__contains__, units):
        fa = f[a]
        bad = [b for b in units if f[a * b % p2] != (fa + f[b]) % q]
        failures.add(bad, lambda b: line_of(a, b))


def verify_fq_laws(p: PrimeModulus) -> VerificationReport:
    """Exhaustively check the three elementary laws of the Fermat quotient.

    For all m, n in [1, p²) coprime to p and all r in [0, p):
      1. fq(mn) = fq(m) + fq(n), and fq(1) = 0;
      2. fq(n + rp) = fq(n) - r/n;
      3. fq(n + p²) = fq(n).
    Laws 1 and 2 read fq(mn mod p²) and fq(n + rp mod p²) from the table, which
    law 3 ties to fq beyond p².
    """
    q, p2, units, fq, powers = _verifier_tables(p)
    failures = Failures()

    checks = 1 + len(units) * (len(units) + q + 1)  # fq(1), then per (m, n), (n, r) and n
    if fq[1] != 0:
        failures.add([f"fq(1) = {fq[1]} != 0"])
    _add_non_additive(failures, fq, units, powers, q, lambda m, n: f"fq({m}*{n}) != fq({m}) + fq({n})")
    for n in units:
        fn, inv_n = fq[n], pow(n, -1, q)
        bad = [r for r in range(q) if fq[(n + r * q) % p2] != (fn - r * inv_n) % q]
        if bad:
            failures.add(bad, lambda r: f"fq({n} + {r}p) != fq({n}) - {r}/{n}")
    bad = [n for n in units if _fq(n + p2, q, p2) != fq[n]]
    failures.add(bad, lambda n: f"fq({n} + p^2) != fq({n})")
    return VerificationReport(
        "fq_laws", checks, tuple(failures.lines), {"p": q, "failures_total": failures.total}
    )


def verify_hom_uniqueness(p: PrimeModulus) -> VerificationReport:
    """Check that every homomorphism (Z/p²Z)^x -> Z/pZ is a multiple of fq.

    Takes the generator e of the (cyclic) unit group that the tables
    found, enumerates the p homomorphisms determined by the possible
    images of e, and checks each one agrees pointwise with c*fq for
    c = image/fq(e).  Also checks that fq itself is a surjective
    homomorphism.
    """
    q, p2, units, fq, powers = _verifier_tables(p)
    failures = Failures()

    # per pair and once for surjectivity, then per pair and per unit for each image
    checks = len(units) ** 2 + 1 + q * (len(units) ** 2 + len(units))
    _add_non_additive(failures, fq, units, powers, q, lambda a, b: f"fq not a homomorphism at ({a}, {b})")
    if {fq[u] for u in units} != set(range(q)):
        failures.add(["fq is not surjective onto Z/pZ"])

    generator, dlog = powers[1], [0] * p2
    for k, x in enumerate(powers):
        dlog[x] = k
    fq_e_inv = pow(fq[generator], -1, q)  # fq(e) generates the image, hence is a unit

    for image in range(q):
        hom = [d * image % q for d in dlog]
        line = f"candidate with e -> {image} is not a homomorphism"
        _add_non_additive(failures, hom, units, powers, q, lambda a, b: line)
        c = image * fq_e_inv % q
        bad = [u for u in units if hom[u] != c * fq[u] % q]
        failures.add(bad, lambda u: f"candidate with e -> {image} differs from {c}*fq at {u}")

    data = {"p": q, "generator": generator, "homomorphisms": q, "failures_total": failures.total}
    return VerificationReport("hom_uniqueness", checks, tuple(failures.lines), data)
