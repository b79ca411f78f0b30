"""Empirical check of the uniqueness theorem for entropy mod p.

The chain rule is linear in the unknown values I(pi), because the weights
pi_i are known scalars.  Truncating to composite arity <= N therefore gives
a finite homogeneous linear system over Z/pZ whose solution space always
contains the entropy function.  The theorem says the full (infinite) system
pins the solutions down to the line {c*H}; a finite truncation may be
under-constrained, in which case the extra kernel directions are reported
rather than treated as failures.
"""

from dataclasses import dataclass
from itertools import product

from .distributions import compositions, entropy_of_representatives
from .errors import RangeGuard
from .modular import PrimeModulus
from .verification import VerificationReport

UNKNOWN_GUARD = 10**4


def _distributions(p: int, n: int):
    """All of Pi_n: tuples over Z/pZ of length n summing to 1."""
    for head in product(range(p), repeat=n - 1):
        yield head + ((1 - sum(head)) % p,)


@dataclass(frozen=True)
class ConstraintSystem:
    """Chain-rule instances with composite arity <= max_arity, as linear rows.

    Each row maps unknown-index -> coefficient and asserts that the
    combination vanishes.  Rows are normalized (leading coefficient 1) and
    deduplicated.
    """

    p: PrimeModulus
    max_arity: int
    unknowns: tuple
    rows: tuple

    @property
    def index(self) -> dict:
        return {u: i for i, u in enumerate(self.unknowns)}


@dataclass(frozen=True)
class SolutionSpace:
    """A basis of the kernel of a constraint system over Z/pZ.

    basis[i] is 1 at free_columns[i] and 0 at every other free column, so
    membership of a vector reduces to reading its free coordinates.
    """

    p: PrimeModulus
    unknowns: tuple
    basis: tuple  # tuple of coefficient tuples, one per kernel dimension
    free_columns: tuple

    @property
    def dimension(self) -> int:
        return len(self.basis)


def build_system(p: PrimeModulus, max_arity: int, override_guard: bool = False) -> ConstraintSystem:
    """Enumerate every chain-rule instance with composite arity <= max_arity.

    Instances run over n >= 1, block sizes k_i >= 1 with sum k_i <= max_arity,
    pi in Pi_n and gamma^i in Pi_{k_i}.  The row for one instance is
    I(composite) - I(pi) - sum_i pi_i I(gamma^i) = 0.
    """
    if max_arity < 1:
        raise ValueError("max_arity must be at least 1")
    q = p.p
    if not override_guard and q ** (max_arity - 1) > UNKNOWN_GUARD:
        raise RangeGuard(
            f"{q}^{max_arity - 1} unknowns of top arity exceeds {UNKNOWN_GUARD}"
        )

    unknowns = []
    for n in range(1, max_arity + 1):
        unknowns.extend(_distributions(q, n))
    index = {u: i for i, u in enumerate(unknowns)}

    seen = set()
    rows = []
    for n in range(1, max_arity + 1):
        shapes = (ks for total in range(n, max_arity + 1) for ks in compositions(total, n, lo=1))
        for ks in sorted(shapes):
            gamma_pools = [tuple(_distributions(q, k)) for k in ks]
            for pi in _distributions(q, n):
                for gammas in product(*gamma_pools):
                    row = {}

                    def bump(dist, coeff, row=row):
                        i = index[dist]
                        v = (row.get(i, 0) + coeff) % q
                        if v:
                            row[i] = v
                        elif i in row:
                            del row[i]

                    composite = tuple(
                        pi_i * y % q for pi_i, g in zip(pi, gammas) for y in g
                    )
                    bump(composite, 1)
                    bump(pi, -1)
                    for pi_i, g in zip(pi, gammas):
                        bump(g, -pi_i)
                    if not row:
                        continue
                    lead = min(row)
                    inv = pow(row[lead], -1, q)
                    normalized = tuple(sorted((c, v * inv % q) for c, v in row.items()))
                    if normalized not in seen:
                        seen.add(normalized)
                        rows.append(dict(normalized))
    return ConstraintSystem(p, max_arity, tuple(unknowns), tuple(rows))


def _rref(rows, q: int) -> dict:
    """Reduced row echelon form of sparse rows; returns pivot-column -> row.

    Invariant: every stored row is 1 at its pivot column and zero at every
    other pivot column, so kernel vectors can be read off directly.
    """
    pivots = {}
    for row in rows:
        row = dict(row)
        # eliminate every existing pivot column from the incoming row
        while True:
            hit = min((c for c in row if c in pivots), default=None)
            if hit is None:
                break
            factor = row[hit]
            for c, v in pivots[hit].items():
                nv = (row.get(c, 0) - factor * v) % q
                if nv:
                    row[c] = nv
                elif c in row:
                    del row[c]
        if not row:
            continue
        col = min(row)
        inv = pow(row[col], -1, q)
        row = {c: v * inv % q for c, v in row.items()}
        # and the new pivot column from every stored row
        for prow in pivots.values():
            f = prow.get(col, 0)
            if f:
                for c, v in row.items():
                    nv = (prow.get(c, 0) - f * v) % q
                    if nv:
                        prow[c] = nv
                    elif c in prow:
                        del prow[c]
        pivots[col] = row
    return pivots


def solve(system: ConstraintSystem) -> SolutionSpace:
    """Kernel of the system over Z/pZ, by exact Gaussian elimination."""
    q = system.p.p
    count = len(system.unknowns)
    pivots = _rref(system.rows, q)
    free_cols = [j for j in range(count) if j not in pivots]
    basis = []
    for j in free_cols:
        vec = [0] * count
        vec[j] = 1
        for col, row in pivots.items():
            vec[col] = (-row.get(j, 0)) % q
        basis.append(tuple(vec))
    return SolutionSpace(system.p, system.unknowns, tuple(basis), tuple(free_cols))


def entropy_vector(unknowns, p: PrimeModulus) -> tuple:
    """The entropy H_p of every unknown distribution, as a coefficient vector."""
    return tuple(entropy_of_representatives(u, p).value for u in unknowns)


def in_span(vector, solution: SolutionSpace) -> bool:
    """Whether a vector lies in the kernel span.

    A member equals the basis combination weighted by its own free
    coordinates, since basis[i] is the only basis vector that is nonzero
    at free_columns[i].
    """
    q = solution.p.p
    count = len(solution.unknowns)
    combo = [0] * count
    for b, free_col in zip(solution.basis, solution.free_columns):
        w = vector[free_col]
        if w:
            for i, v in enumerate(b):
                combo[i] = (combo[i] + w * v) % q
    return tuple(combo) == tuple(v % q for v in vector)


def compare_with_entropy(solution: SolutionSpace, p: PrimeModulus, max_arity: int) -> VerificationReport:
    """Check H lies in the kernel, and whether the kernel is exactly the line {cH}.

    H-membership is asserted (the theorem's easy direction); a kernel
    dimension above 1 is reported, not failed, since a finite truncation of
    the chain rule may be under-constrained.
    """
    h_vec = entropy_vector(solution.unknowns, p)
    contains = in_span(h_vec, solution)
    nonzero = any(h_vec)
    is_line = solution.dimension == 1 and contains and nonzero
    failures = ()
    if not contains:
        failures = ("entropy vector is not a solution of the truncated system",)
    return VerificationReport(
        "characterization",
        1,
        failures,
        {
            "p": p.p,
            "max_arity": max_arity,
            "dimension": solution.dimension,
            "contains_entropy": contains,
            "kernel_is_entropy_line": is_line,
            "extra_dimensions": max(solution.dimension - 1, 0),
        },
    )
