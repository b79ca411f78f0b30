"""Independent brute-force oracles used to freeze expected values.

Everything here is computed with exact big integers or exhaustive
enumeration, deliberately avoiding the code paths under test.
"""

from fractions import Fraction
from itertools import product
from math import factorial, lcm, prod
from operator import add


def fq_big(a: int, p: int) -> int:
    """Fermat quotient by direct big-integer evaluation."""
    assert a % p != 0
    a = a % (p * p)
    return ((a ** (p - 1) - 1) // p) % p


def pderiv_big(a: int, p: int) -> int:
    a = a % (p * p)
    return ((a - a**p) // p) % p


def non_additive_pairs(f, units, q: int) -> list:
    """Every unit pair (a, b), row by row, with f(ab mod p²) != f(a) + f(b) mod q, where p² = len(f)."""
    p2 = len(f)
    return [(a, b) for a in units for b in units if (f[a * b % p2] - f[a] - f[b]) % q]


def entropy_big(reps, p: int) -> int:
    """(1 - sum a^p)/p via big integers, for representatives summing to 1 mod p."""
    assert sum(reps) % p == 1
    num = 1 - sum(a**p for a in reps)
    assert num % p == 0
    return (num // p) % p


def measure_entropy_big(reps, p: int) -> int:
    num = sum(reps) ** p - sum(a**p for a in reps)
    assert num % p == 0
    return (num // p) % p


def power_sum_by_pow(reps, p: int) -> int:
    """sum a^p mod p², one modular power per entry."""
    p2 = p * p
    return sum(pow(a, p, p2) for a in reps) % p2


def measure_entropy_by_pow(reps, p: int) -> int:
    """((sum a)^p - sum a^p)/p mod p from power_sum_by_pow; fit for any p."""
    p2 = p * p
    num = (pow(sum(reps), p, p2) - power_sum_by_pow(reps, p)) % p2
    assert num % p == 0
    return num // p


def entropy_poly_terms(n: int, p: int) -> dict:
    """Coefficients of the entropy polynomial by direct multinomial enumeration."""
    terms = {}
    for r in product(range(p), repeat=n):
        if sum(r) == p:
            denom = prod(factorial(x) for x in r) % p
            terms[r] = (-pow(denom, -1, p)) % p
    return terms


def _reduced(acc: dict, q: int) -> dict:
    """Reduce accumulated coefficients mod q, dropping those that vanish."""
    return {e: r for e, v in acc.items() if (r := v % q)}


def _product(f: dict, g: dict, q: int) -> dict:
    """The product of two canonical term dicts, canonical."""
    acc = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(map(add, e1, e2))
            acc[e] = acc.get(e, 0) + c1 * c2
    return _reduced(acc, q)


def compose_by_power_tables(f, args) -> dict:
    """The terms of f(args) for MultiPolys, from power tables of tuple-keyed term dicts.

    Exponent vectors stay tuples added entry by entry, so no field width
    bounds them; each argument's powers are built one product at a time.
    """
    if not args:
        return dict(f.terms)
    nvars = args[0].nvars
    # power tables of term dicts: powers[i][e] = args[i]**e, built incrementally
    q = f.p.p
    max_exp = [0] * f.nvars
    for exps in f.terms:
        for i, e in enumerate(exps):
            max_exp[i] = max(max_exp[i], e)
    one = {(0,) * nvars: 1}
    powers = []
    for a, m in zip(args, max_exp):
        row = [one]
        for _ in range(m):
            row.append(_product(row[-1], a.terms, q))
        powers.append(row)
    # every term's expansion is added into one dict, scaled by its coefficient
    acc = {}
    for exps, c in f.terms.items():
        term = one
        for row, e in zip(powers, exps):
            if e:
                term = row[e] if term is one else _product(term, row[e], q)
        for e, k in term.items():
            acc[e] = acc.get(e, 0) + c * k
    return _reduced(acc, q)


def power_product(nums) -> int:
    """prod r^r over the entries, with the convention 0^0 = 1."""
    return prod(r**r for r in nums if r != 0)


def real_entropy_equal_big(a, b) -> bool:
    """Product criterion evaluated from scratch on tuples of Fractions."""
    t = lcm(*(q.denominator for q in a), *(q.denominator for q in b))
    pa = prod(int(q * t) ** int(q * t) for q in a if q != 0)
    pb = prod(int(q * t) ** int(q * t) for q in b if q != 0)
    return pa == pb


def random_mod_dist_values(rng, p: int, n: int) -> tuple:
    """A uniformly random element of Pi_n as a tuple of ints."""
    head = [rng.randrange(p) for _ in range(n - 1)]
    return tuple(head) + ((1 - sum(head)) % p,)


def random_rational_dist_fractions(rng, max_len=5, max_weight=12) -> tuple:
    """A random rational distribution as weights over their total."""
    n = rng.randint(1, max_len)
    weights = [rng.randint(1, max_weight) for _ in range(n)]
    total = sum(weights)
    return tuple(Fraction(w, total) for w in weights)


def dense_kernel(q, count, rows):
    """Gauss-Jordan elimination on dense rows over Z/qZ, q < 128: (free columns, basis).

    Each row is (column, coefficient) pairs, at most one per column, with
    coefficients in [0, q).  The pivot of a row is its first nonzero
    column, so basis[i] is 1 at free[i] and 0 at every other free column.
    A dense row is a bytes object with one entry in [0, q) per column.
    row - f * prow maps prow through b -> (-f*b) % q, adds the two rows as
    big ints (each column's sum is below 2q <= 256, so none carries into
    the next) and maps every byte x -> x % q.
    """
    assert q < 128
    negated = [bytes(-f * b % q if b < q else 0 for b in range(256)) for f in range(q)]
    scaled = [bytes(f * b % q if b < q else 0 for b in range(256)) for f in range(q)]
    reduced = bytes(x % q for x in range(256))

    def subtract(row, f, prow):
        total = int.from_bytes(row, "big") + int.from_bytes(prow.translate(negated[f]), "big")
        return total.to_bytes(count, "big").translate(reduced)

    pivots = {}
    for sparse in rows:
        row = bytearray(count)
        for c, v in sparse:
            row[c] = v
        row = bytes(row)
        for col, prow in pivots.items():
            if row[col]:
                row = subtract(row, row[col], prow)
        lead = count - len(row.lstrip(b"\0"))
        if lead == count:
            continue
        row = row.translate(scaled[pow(row[lead], -1, q)])
        for col, prow in pivots.items():
            if prow[lead]:
                pivots[col] = subtract(prow, prow[lead], row)
        pivots[lead] = row
    free = tuple(j for j in range(count) if j not in pivots)
    basis = []
    for j in free:
        vec = [0] * count
        vec[j] = 1
        for col, prow in pivots.items():
            vec[col] = -prow[j] % q
        basis.append(tuple(vec))
    return free, tuple(basis)
