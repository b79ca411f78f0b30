"""Reference computations the benchmark checks job outputs against.

Everything here works on plain ints, tuples and Fractions and imports
nothing from `modent`, so a defect in the library cannot hide in its own
check.  Where the library has one algorithm, the reference uses another
modulus or another route (p^3 instead of p^2, floats for real entropy,
explicit term loops for polynomials).
"""

import math
from fractions import Fraction
from itertools import product


def entropy(values, p):
    """H_p of a tuple of ints summing to 1 mod p: (1 - sum a^p)/p mod p."""
    p2 = p * p
    power_sum = 0
    for a in values:
        power_sum += pow(a, p, p2)
    diff = (1 - power_sum) % p2
    if diff % p:
        raise ArithmeticError("entries do not sum to 1 mod p")
    return diff // p


def measure_entropy(values, p):
    """((sum a)^p - sum a^p)/p mod p, the homogeneous extension of H_p."""
    p3 = p**3
    power_sum = sum(pow(a, p, p3) for a in values)
    return ((pow(sum(values), p, p3) - power_sum) % p3) // p % p


def fermat_quotient(a, p):
    """(a^(p-1) - 1)/p mod p, computed modulo p^3."""
    p3 = p**3
    return ((pow(a, p - 1, p3) - 1) % p3) // p % p


def p_derivation(a, p):
    """(a - a^p)/p mod p, computed modulo p^3."""
    p3 = p**3
    return ((a - pow(a, p, p3)) % p3) // p % p


def random_dist(rng, p, n):
    """A uniformly random element of Pi_n over Z/pZ."""
    head = [rng.randrange(p) for _ in range(n - 1)]
    return head + [(1 - sum(head)) % p]


def all_dists(p, n):
    """Every element of Pi_n over Z/pZ."""
    return [head + ((1 - sum(head)) % p,) for head in product(range(p), repeat=n - 1)]


def block_shapes(total):
    """(n, block sizes) with n positive blocks summing to exactly total."""
    for n in range(1, total + 1):
        for ks in product(range(1, total + 1), repeat=n):
            if sum(ks) == total:
                yield n, ks


def compose(outer, inners, p):
    """Operadic composite of int tuples."""
    return [a * b % p for a, g in zip(outer, inners) for b in g]


def chain_rule_holds(p, h_composite, h_outer, outer, h_inners):
    """H(pi o gammas) = H(pi) + sum pi_i H(gamma_i) mod p."""
    return h_composite == (h_outer + sum(a * h for a, h in zip(outer, h_inners))) % p


def real_entropy(weights):
    """Shannon entropy in nats of the distribution proportional to `weights`."""
    total = sum(weights)
    return -math.fsum(w / total * math.log(w / total) for w in weights if w)


def fractions(weights):
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def reduce_fractions(fracs, p):
    """Entrywise image of rationals in Z/pZ."""
    return [q.numerator * pow(q.denominator, -1, p) % p for q in fracs]


def product_bits(a, b):
    """Bits of the two products prod r^r that real_entropy_equal compares.

    Computed from the inputs with floating-point logs, not measured.
    """
    t = math.lcm(*(q.denominator for q in a), *(q.denominator for q in b))
    return sum(int(q * t) * math.log2(q * t) for q in (*a, *b) if q)


def fibre_defect(domain_weights, mapping, codomain_weights, p):
    """Sum of homogeneous entropies of the fibres over zero-weight points."""
    fibres = {}
    for y, x in enumerate(mapping):
        fibres.setdefault(x, []).append(domain_weights[y])
    return sum(
        measure_entropy(fibres.get(x, []), p)
        for x, w in enumerate(codomain_weights)
        if w == 0
    ) % p


def push_forward(domain_weights, mapping, size, p):
    """Codomain weights of the measure-preserving map `mapping`."""
    out = [0] * size
    for w, x in zip(domain_weights, mapping):
        out[x] = (out[x] + w) % p
    return out


def poly_mul(f, g, p):
    """Product of polynomials given as exponent-tuple -> coefficient dicts."""
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = (out.get(e, 0) + c1 * c2) % p
    return {e: c for e, c in out.items() if c}


def poly_eval(terms, point, p):
    """Value of a polynomial dict at a point of (Z/pZ)^n."""
    total = 0
    for exps, c in terms.items():
        m = c
        for v, e in zip(point, exps):
            m = m * pow(v, e, p) % p
        total += m
    return total % p


def entropy_poly_terms(n, p):
    """Coefficients -1/(r_1! ... r_n!) over exponents r_i < p summing to p."""
    terms = {}
    for r in product(range(p), repeat=n):
        if sum(r) == p:
            denom = math.prod(math.factorial(x) for x in r)
            terms[r] = -pow(denom, -1, p) % p
    return terms


def unknown_count(p, max_arity):
    """|Pi_1| + ... + |Pi_N| = sum of p^(n-1)."""
    return sum(p ** (n - 1) for n in range(1, max_arity + 1))


def vector_solves_rows(rows, vector, p):
    """Every linear row (column -> coefficient) vanishes on `vector` mod p."""
    return all(sum(c * vector[i] for i, c in row.items()) % p == 0 for row in rows)


def unit_order(g, m):
    """Multiplicative order of g modulo m."""
    x, k = g % m, 1
    while x != 1:
        x = x * g % m
        k += 1
    return k
