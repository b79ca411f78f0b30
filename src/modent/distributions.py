"""Probability distributions mod p, their composition, and the entropy H_p.

A distribution is a tuple (pi_1, ..., pi_n) over Z/pZ with sum 1.  Its
entropy is (1 - sum a_i^p)/p mod p for any integers a_i representing the
entries; the value does not depend on the representatives.  Distributions
compose operadically, and H_p satisfies the chain rule

    H(pi o (g^1, ..., g^n)) = H(pi) + sum_i pi_i * H(g^i).
"""

from .errors import (
    ArityMismatch,
    DivisibleByP,
    IndexOutOfRange,
    InvalidDistribution,
    ModulusMismatch,
    SumNotOne,
)
from .modular import PrimeModulus, Residue


def compositions(total: int, parts: int, lo: int = 0, hi=None):
    """Every tuple of `parts` ints in [lo, hi] summing to `total`, in lexicographic order.

    `hi=None` leaves the parts unbounded above.
    """
    if parts == 0:
        if total == 0:
            yield ()
        return
    top = total - (parts - 1) * lo
    if hi is not None:
        top = min(top, hi)
    for first in range(lo, top + 1):
        for rest in compositions(total - first, parts - 1, lo, hi):
            yield (first,) + rest


def _as_residues(values, p: PrimeModulus):
    out = []
    for v in values:
        if isinstance(v, Residue):
            if v.modulus != p:
                raise ModulusMismatch(f"entry mod {v.modulus.p} in a tuple mod {p.p}")
            out.append(v)
        else:
            out.append(Residue(v, p))
    return tuple(out)


class ModDist:
    """An element of Pi_n: a length-n tuple over Z/pZ summing to 1, n >= 1."""

    __slots__ = ("p", "probs")

    def __init__(self, p: PrimeModulus, probs):
        probs = _as_residues(probs, p)
        if len(probs) == 0:
            raise InvalidDistribution("a distribution has at least one entry (Pi_0 is empty)")
        total = sum(r.value for r in probs) % p.p
        if total != 1:
            raise SumNotOne(total, f"entries sum to {total} mod {p.p}, expected 1")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "probs", probs)

    def __setattr__(self, name, val):
        raise AttributeError("ModDist is immutable")

    def __len__(self):
        return len(self.probs)

    def __iter__(self):
        return iter(self.probs)

    def __getitem__(self, i):
        return self.probs[i]

    def values(self) -> tuple:
        return tuple(r.value for r in self.probs)

    def __eq__(self, other):
        return (
            isinstance(other, ModDist)
            and self.p == other.p
            and self.values() == other.values()
        )

    def __hash__(self):
        return hash((self.p.p, self.values()))

    def __repr__(self):
        return f"ModDist(p={self.p.p}, {self.values()})"


class ModMeasure:
    """A finite tuple over Z/pZ with unconstrained sum (possibly empty)."""

    __slots__ = ("p", "weights")

    def __init__(self, p: PrimeModulus, weights):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "weights", _as_residues(weights, p))

    def __setattr__(self, name, val):
        raise AttributeError("ModMeasure is immutable")

    def __len__(self):
        return len(self.weights)

    def values(self) -> tuple:
        return tuple(r.value for r in self.weights)

    def scale(self, factor) -> "ModMeasure":
        factor = factor if isinstance(factor, Residue) else Residue(factor, self.p)
        return ModMeasure(self.p, tuple(factor * w for w in self.weights))

    def __eq__(self, other):
        return (
            isinstance(other, ModMeasure)
            and self.p == other.p
            and self.values() == other.values()
        )

    def __hash__(self):
        return hash((self.p.p, self.values()))

    def __repr__(self):
        return f"ModMeasure(p={self.p.p}, {self.values()})"


def entropy_of_representatives(reps, p: PrimeModulus) -> Residue:
    """(1 - sum a_i^p)/p mod p for integers a_i with sum a_i = 1 mod p.

    Any choice of representatives gives the same result; this entry point
    exists so that independence of the choice can be exercised directly.
    """
    total = sum(reps) % p.p
    if total != 1:
        raise SumNotOne(total, f"representatives sum to {total} mod {p.p}, expected 1")
    p2 = p.p_squared
    power_sum = sum(pow(a % p2, p.p, p2) for a in reps) % p2
    diff = (1 - power_sum) % p2  # divisible by p since sum a_i^p = sum a_i = 1 mod p
    return Residue(diff // p.p, p)


def measure_entropy_of_representatives(reps, p: PrimeModulus) -> Residue:
    """((sum a_i)^p - sum a_i^p)/p mod p, the degree-1 homogeneous extension."""
    p2 = p.p_squared
    total = sum(a % p2 for a in reps) % p2
    power_sum = sum(pow(a % p2, p.p, p2) for a in reps) % p2
    diff = (pow(total, p.p, p2) - power_sum) % p2
    return Residue(diff // p.p, p)


def entropy(d: ModDist) -> Residue:
    """The entropy H_p of a distribution mod p."""
    return entropy_of_representatives(d.values(), d.p)


def entropy_measure(m: ModMeasure) -> Residue:
    """The homogeneous extension of H_p to arbitrary tuples; empty tuple gives 0."""
    return measure_entropy_of_representatives(m.values(), m.p)


def compose(outer: ModDist, inners) -> ModDist:
    """Operadic composite: block i of the result is outer_i times inner i."""
    inners = tuple(inners)
    if len(inners) != len(outer):
        raise ArityMismatch(f"{len(outer)} outer entries but {len(inners)} inner tuples")
    for g in inners:
        if g.p != outer.p:
            raise ModulusMismatch("all distributions in a composite must share p")
    entries = []
    for pi, g in zip(outer.probs, inners):
        entries.extend(pi * y for y in g.probs)
    return ModDist(outer.p, entries)


def tensor(a: ModDist, b: ModDist) -> ModDist:
    """Product distribution a (x) b = a o (b, ..., b)."""
    if a.p != b.p:
        raise ModulusMismatch("tensor factors must share p")
    return compose(a, (b,) * len(a))


def uniform(n: int, p: PrimeModulus) -> ModDist:
    """The uniform distribution u_n = (1/n, ..., 1/n); requires p not dividing n."""
    if n <= 0:
        raise ValueError("n must be positive")
    if n % p.p == 0:
        raise DivisibleByP(f"u_{n} does not exist mod {p.p}")
    entry = Residue(n, p).inverse()
    return ModDist(p, (entry,) * n)


def pad_zeros(d: ModDist, position: int, count: int) -> ModDist:
    """Insert `count` zero entries at `position`; entropy is unchanged."""
    if not 0 <= position <= len(d):
        raise IndexOutOfRange(f"position {position} not in [0, {len(d)}]")
    if count < 0:
        raise ValueError("count must be nonnegative")
    zero = Residue(0, d.p)
    probs = d.probs[:position] + (zero,) * count + d.probs[position:]
    return ModDist(d.p, probs)
