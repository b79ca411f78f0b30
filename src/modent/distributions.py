"""Probability distributions mod p, their composition, and the entropy H_p.

A distribution is a tuple (pi_1, ..., pi_n) over Z/pZ with sum 1.  Its
entropy is (1 - sum a_i^p)/p mod p for any integers a_i representing the
entries; the value does not depend on the representatives.  Distributions
compose operadically, and H_p satisfies the chain rule

    H(pi o (g^1, ..., g^n)) = H(pi) + sum_i pi_i * H(g^i).
"""

from collections import Counter
from itertools import combinations
from operator import sub

from .errors import (
    ArityMismatch,
    DivisibleByP,
    IndexOutOfRange,
    InvalidDistribution,
    InvalidResidue,
    InvalidSize,
    ModulusMismatch,
    SumNotOne,
)
from .modular import PrimeModulus, Residue, _fq, as_int, as_ints

# Inputs with len(reps) * p.bit_length() below this take one pow per entry.
# Measured crossover, one call each way: 250-600 bits for p from 3 to
# 2^61 - 1 (n = 256 at p = 3, 45 at 10007, 6 at 2^61 - 1; 2-core VM,
# Python 3.11.7).
PRODUCT_PATH_BITS = 512


def compositions(total: int, parts: int):
    """Every tuple of `parts` positive ints summing to `total`, in lexicographic order.

    Each is the gaps between 0, `parts - 1` cut points in [1, total) and
    `total`; there are none unless 1 <= parts <= total.
    """
    if not 1 <= parts <= total:
        return
    for cuts in combinations(range(1, total), parts - 1):
        yield tuple(map(sub, cuts + (total,), (0,) + cuts))


class _Entries:
    """An immutable tuple of ints in [0, p), read as Residues through iteration and indexing."""

    __slots__ = ("p", "_values")

    @classmethod
    def _canonical(cls, p: PrimeModulus, values: tuple):
        """Wrap a tuple of ints in [0, p) that meets the class's condition, without checking it."""
        entries = object.__new__(cls)
        _set_p(entries, p)
        _set_values(entries, values)
        return entries

    def __setattr__(self, name, val):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __len__(self):
        return len(self._values)

    def __iter__(self):
        return (Residue._canonical(v, self.p) for v in self._values)

    def __getitem__(self, i):
        return Residue._canonical(self._values[i], self.p)

    def values(self) -> tuple:
        return self._values

    def __eq__(self, other):
        return type(other) is type(self) and self.p == other.p and self._values == other._values

    def __hash__(self):
        return hash((self.p.p, self._values))

    def __repr__(self):
        return f"{type(self).__name__}(p={self.p.p}, {self._values})"


# the slots' own setters, which bypass the __setattr__ that makes entries immutable
_set_p, _set_values = _Entries.p.__set__, _Entries._values.__set__


class ModDist(_Entries):
    """An element of Pi_n: a length-n tuple over Z/pZ summing to 1, n >= 1."""

    __slots__ = ()

    def __init__(self, p: PrimeModulus, probs):
        values = as_ints(probs, p)
        if len(values) == 0:
            raise InvalidDistribution("a distribution has at least one entry (Pi_0 is empty)")
        total = sum(values) % p.p
        if total != 1:
            raise SumNotOne(total, f"entries sum to {total} mod {p.p}, expected 1")
        _set_p(self, p)
        _set_values(self, values)

    @property
    def probs(self) -> tuple:
        return tuple(self)


class ModMeasure(_Entries):
    """A finite tuple over Z/pZ with unconstrained sum (possibly empty)."""

    __slots__ = ()

    def __init__(self, p: PrimeModulus, weights):
        _set_p(self, p)
        _set_values(self, as_ints(weights, p))

    @property
    def weights(self) -> tuple:
        return tuple(self)

    def scale(self, factor) -> "ModMeasure":
        factor, p = as_int(factor, self.p), self.p.p
        return ModMeasure._canonical(self.p, tuple([factor * w % p for w in self._values]))


def _measure_entropy(reps, p: int) -> int:
    """((sum a_i)^p - sum a_i^p)/p mod p on ints; H_p when the a_i sum to 1 mod p,
    because then (sum a_i)^p = 1 mod p².
    """
    p2 = p * p
    return (pow(sum(reps), p, p2) - _sum_of_pth_powers(reps, p, p2)) % p2 // p  # divisible by p, by Fermat


def _sum_of_pth_powers(reps, p: int, p2: int) -> int:
    """sum a_i^p over reps, correct mod p² (not reduced).

    A short input, len(reps) * p.bit_length() < PRODUCT_PATH_BITS, takes
    one pow per entry.  A longer one takes the power sum from one Fermat
    quotient q: with r_i = a_i mod p, a_i^p = r_i (1 + p q(r_i)) mod p²,
    and q is a homomorphism to Z/pZ, so over the r_i != 0

        sum a_i^p = sum r_i + p q(prod r_i^r_i)   mod p²;

    see _power_sum.
    """
    if len(reps) * p.bit_length() < PRODUCT_PATH_BITS:
        return sum([pow(a, p, p2) for a in reps])
    return _power_sum(reps, p, p2)


def _power_sum(reps, p: int, p2: int) -> int:
    """sum a^p mod p² over reps, as sum r + p q(prod r^r) with r = a mod p.

    Equal entries are collapsed first: k copies of a give r k and r^(r k),
    and as q(r^p) = 0 the exponent r k is taken mod p.  Entries divisible
    by p add 0.  The product is Pippenger's bucket method over c-bit
    windows of the exponents, with c minimising the windows times
    (bases + 2^(c+1)) multiplications.
    """
    total, bases, exps = 0, [], []
    for a, k in Counter(reps).items():
        r = a % p
        if r:
            total += r * k
            bases.append(r)
            exps.append(r * k % p)
    bits = p.bit_length()
    c = min(range(1, 17), key=lambda c: -(-bits // c) * (len(bases) + (2 << c)))
    mask = (1 << c) - 1
    x = 1
    for shift in range((bits - 1) // c * c, -1, -c):
        x = pow(x, 1 << c, p2)
        buckets = [1] * (mask + 1)  # buckets[d]: product of the bases with digit d here
        for r, e in zip(bases, exps):
            d = e >> shift & mask
            buckets[d] = buckets[d] * r % p2
        run = 1
        for b in buckets[:0:-1]:  # x *= prod over d of buckets[d]^d
            run = run * b % p2
            x = x * run % p2
    return total + p * _fq(x, p, p2)


def _representatives(reps) -> tuple:
    """reps as a tuple of ints, not reduced; anything else raises InvalidResidue."""
    reps = tuple(reps)
    if not all(isinstance(a, int) for a in reps):
        raise InvalidResidue("every representative must be an int")
    return reps


def entropy_of_representatives(reps, p: PrimeModulus) -> Residue:
    """(1 - sum a_i^p)/p mod p for integers a_i with sum a_i = 1 mod p.

    Any choice of representatives gives the same result; this entry point
    exists so that independence of the choice can be exercised directly.
    """
    reps = _representatives(reps)  # read twice: a generator would be empty the second time
    total = sum(reps) % p.p
    if total != 1:
        raise SumNotOne(total, f"representatives sum to {total} mod {p.p}, expected 1")
    return Residue._canonical(_measure_entropy(reps, p.p), p)


def measure_entropy_of_representatives(reps, p: PrimeModulus) -> Residue:
    """((sum a_i)^p - sum a_i^p)/p mod p, the degree-1 homogeneous extension."""
    return Residue._canonical(_measure_entropy(_representatives(reps), p.p), p)


def entropy(d: ModDist) -> Residue:
    """The entropy H_p of a distribution mod p, (1 - sum a_i^p)/p mod p.

    A ModDist's entries sum to 1 mod p, so (sum a_i)^p = 1 mod p² and the
    sum is neither taken nor raised to the p-th power.
    """
    p = d.p.p
    p2 = p * p
    return Residue._canonical((1 - _sum_of_pth_powers(d._values, p, p2)) % p2 // p, d.p)


def entropy_measure(m: ModMeasure) -> Residue:
    """The homogeneous extension of H_p to arbitrary tuples; empty tuple gives 0."""
    return Residue._canonical(_measure_entropy(m.values(), m.p.p), m.p)


def compose(outer: ModDist, inners) -> ModDist:
    """Operadic composite: block i of the result is outer_i times inner i."""
    inners = tuple(inners)
    if len(inners) != len(outer):
        raise ArityMismatch(f"{len(outer)} outer entries but {len(inners)} inner tuples")
    for g in inners:
        if g.p is not outer.p and g.p != outer.p:
            raise ModulusMismatch("all distributions in a composite must share p")
    p = outer.p.p
    entries = [pi * y % p for pi, g in zip(outer.values(), inners) for y in g.values()]
    return ModDist._canonical(outer.p, tuple(entries))  # sums to sum_i pi_i * 1 = 1


def tensor(a: ModDist, b: ModDist) -> ModDist:
    """Product distribution a (x) b = a o (b, ..., b)."""
    if a.p != b.p:
        raise ModulusMismatch("tensor factors must share p")
    return compose(a, (b,) * len(a))


def uniform(n: int, p: PrimeModulus) -> ModDist:
    """The uniform distribution u_n = (1/n, ..., 1/n); requires p not dividing n."""
    if not isinstance(n, int):
        raise InvalidSize(f"n must be an int, got {n!r}")
    if n <= 0:
        raise InvalidSize("n must be positive")
    if n % p.p == 0:
        raise DivisibleByP(f"u_{n} does not exist mod {p.p}")
    return ModDist._canonical(p, (pow(n, -1, p.p),) * n)


def pad_zeros(d: ModDist, position: int, count: int) -> ModDist:
    """Insert `count` zero entries at `position`; entropy is unchanged."""
    if not (isinstance(position, int) and isinstance(count, int)):
        raise InvalidSize(f"position {position!r} and count {count!r} must be ints")
    if not 0 <= position <= len(d):
        raise IndexOutOfRange(f"position {position} not in [0, {len(d)}]")
    if count < 0:
        raise InvalidSize("count must be nonnegative")
    v = d.values()
    return ModDist._canonical(d.p, v[:position] + (0,) * count + v[position:])
