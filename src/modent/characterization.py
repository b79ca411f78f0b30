"""Empirical check of the uniqueness theorem for entropy mod p.

The chain rule is linear in the unknown values I(pi), because the weights
pi_i are known scalars.  Truncating to composite arity <= N therefore gives
a finite homogeneous linear system over Z/pZ whose solution space always
contains the entropy function.  The theorem says the full (infinite) system
pins the solutions down to the line {c*H}; a finite truncation may be
under-constrained, in which case the extra kernel directions are reported
rather than treated as failures.

The system is never stored: its rows are generated on demand, and `solve`
substitutes only a spanning subset of them (see `ChainRuleRows.spanning`).
"""

from itertools import accumulate, product
from typing import NamedTuple

from .distributions import compositions
from .errors import InvalidDistribution, InvalidSize, RangeGuard, SumNotOne
from .modular import PrimeModulus
from .verification import VerificationReport

# The size guards, with their cost at the limit (one fresh process per cell,
# 2-core VM, Python 3.11).
# Bounds the spanning instances, the rows `solve` reads, by their count at
# (2, 14).  Of the cells at the limit, (347, 3) costs most: 1.0-1.6 s to build,
# solve and pass `compare_with_entropy`, at 53 MB; (2, 14) takes 0.25-0.31 s
# and (41, 4) 0.21-0.31 s, at 20 and 26 MB.
INSTANCE_GUARD = 241_668
# Bounds q at N = 2, where the kernel has dimension q and its dense basis,
# q vectors of q + 1 entries, is the cost: (2003, 2) takes 0.3-0.5 s to build,
# solve and pass `compare_with_entropy`, at 46 MB.
UNKNOWN_GUARD = 2003


def _distributions(p: int, n: int):
    """All of Pi_n: tuples over Z/pZ of length n summing to 1."""
    for head in product(range(p), repeat=n - 1):
        yield head + ((1 - sum(head)) % p,)


def spanning_instances(q: int, max_arity: int) -> int:
    """The number of chain-rule instances in the spanning subset (see above `ChainRuleRows`).

    The unit row, then per composite arity K: (K-1) q^(K-1) instances whose
    only non-unit block has arity 2, and (K-2) q^(K-3) whose only non-unit
    block is (1, -1, 1).
    """
    return (
        1
        + sum((k - 1) * q ** (k - 1) for k in range(2, max_arity + 1))
        + sum((k - 2) * q ** (k - 3) for k in range(3, max_arity + 1))
    )


# The spanning subset.  Write u = (1); the unit row is the only instance of
# shape (1) and reads -I(u) = 0.  Two identities over Z/pZ reduce every other
# instance to the subset, up to a multiple of I(u):
# - telescoping: with sigma_j = pi o (gamma^1, ..., gamma^j, u, ..., u), the
#   instance of pi o (gamma^1, ..., gamma^n) is the sum over j of the
#   single-block instances sigma_{j-1} o (u, ..., gamma^j, ..., u);
# - splitting: if gamma = alpha o (u, ..., beta, ..., u) with alpha in Pi_m,
#   beta in Pi_r, m, r >= 2 and beta at slot i of alpha, the instance
#   (pi, gamma at slot j) is R1 + R2 - pi_j R3 for R1 = (pi, alpha at j),
#   R2 = (pi o (..., alpha, ...), beta at slot j + i - 1) and
#   R3 = (alpha, beta at i), each with a smaller block.
# gamma in Pi_k splits exactly when a run of 2 to k-1 consecutive entries has
# a nonzero sum or is all zero, which leaves only (1, -1, 1) unsplittable.
# The subset is therefore the unit row and every instance whose only non-unit
# block has arity 2 or is (1, -1, 1).


class ChainRuleRows:
    """The chain-rule instances of one truncation, generated on demand.

    Iterating yields one row (column -> coefficient in [1, q)) per instance
    I(composite) - I(pi) - sum_i pi_i I(gamma^i); nothing is stored, so
    every pass generates the rows afresh.  len() is the number of
    instances: sum over K <= max_arity of (2q)^(K-1), since the instances
    with composite arity K are the compositions of K into n blocks times
    q^(n-1) choices of pi times q^(K-n) choices of the gammas.

    `spanning` yields only the spanning subset, which has the same row
    space (see the note above the class).

    Columns are computed, not looked up: Pi_n occupies the columns from
    offset[n] on in `_distributions` order, so a distribution's column is
    offset[n] plus the base-q value of its first n-1 entries.  A composite
    of arity K takes offset[K] plus the sum of its blocks' base-q values,
    each times q^(entries after the block), with the last digit dropped.
    """

    def __init__(self, q: int, max_arity: int):
        self.q = q
        self.max_arity = max_arity
        self.offset = [0, 0]
        for n in range(1, max_arity + 1):
            self.offset.append(self.offset[-1] + q ** (n - 1))

    def __len__(self) -> int:
        return sum((2 * self.q) ** (k - 1) for k in range(1, self.max_arity + 1))

    def __iter__(self):
        q, offset, top = self.q, self.offset, self.max_arity
        blocks = {}  # (k, a) -> [(column of gamma, base-q value of a*gamma) for gamma in Pi_k]
        for n in range(1, top + 1):
            pis = list(enumerate(_distributions(q, n), offset[n]))
            for total in range(n, top + 1):
                for ks in compositions(total, n):
                    scales = [q ** (total - end) for end in accumulate(ks)]
                    for pi_col, pi in pis:
                        choices = []
                        for k, a in zip(ks, pi):
                            table = blocks.get((k, a))
                            if table is None:
                                table = blocks[k, a] = []
                                for col, gamma in enumerate(_distributions(q, k), offset[k]):
                                    v = 0
                                    for y in gamma:
                                        v = v * q + a * y % q
                                    table.append((col, v))
                            choices.append(table)
                        for choice in product(*choices):
                            row = {pi_col: q - 1}
                            comp = 0
                            for a, (col, v), scale in zip(pi, choice, scales):
                                comp += v * scale
                                if a:
                                    row[col] = (row.get(col, 0) - a) % q
                            comp = offset[total] + comp // q
                            row[comp] = (row.get(comp, 0) + 1) % q
                            yield {c: v for c, v in row.items() if v}

    def spanning(self):
        """The spanning rows, each as a (composite, pi, a, gamma) quadruple of ints.

        A quadruple stands for the row I(composite) - I(pi) - (1 - a) I(u)
        - a I(gamma), where composite, pi and gamma are columns, gamma is the
        one non-unit block, at slot i of pi, and a = pi_i: the other slots'
        weights sum to 1 - a.  Columns may coincide.  First comes the unit
        row (0, 0, 1, 0), the instance u o (u), which reads -I(u) and so
        fixes I(u) = 0: `solve` reads every later row in three terms.  The
        composite's column is pi's with the digit a replaced by the digits
        of a*gamma, written in closed form: (a g, a - a g) for
        gamma = (g, 1 - g), and (a, -a, a) for (1, -1, 1).  So no composite
        is built.

        The kernel does not depend on the order, only the work does: n
        ascending; for n <= 2 gamma of arity 2 before (1, -1, 1), for n >= 3
        the reverse; then the slot i from last to first; then pi from the
        last column down; then gamma in column order.  Each row then gives
        a value to at most its composite, and only the columns of Pi_2 and
        of (1, -1, 1) become parameters of `solve`.
        """
        q, offset, top = self.q, self.offset, self.max_arity
        yield 0, 0, 1, 0
        for n in range(1, top):
            pis = list(enumerate(_distributions(q, n), offset[n]))[::-1]
            for k in (2, 3) if n <= 2 else (3, 2):
                if n + k - 1 > top:
                    continue
                # gamma = (0, 1) for k = 2; (1, -1, 1), whose head (1, q - 1)
                # has base-q value 2q - 1, for k = 3
                gamma_col = offset[2] if k == 2 else offset[3] + 2 * q - 1
                base = offset[n + k - 1]
                for shift in range(n):  # the entries of pi after slot i
                    # the composite's last entry carries no weight, so the
                    # last digit of a*gamma counts `low` and the one before it `below`
                    below, above, wide = q**shift, q ** (shift + 1), q ** (k + shift)
                    low = below // q
                    for pi_col, pi in pis:
                        a = pi[-1 - shift]
                        # pi's base-q value over all n entries, and the
                        # composite's column without the digits of a*gamma
                        value = (pi_col - offset[n]) * q + pi[-1]
                        rest = base + (value // above * wide + value % below) // q
                        if k == 3:
                            yield rest + (a * q + -a % q) * below + a * low, pi_col, a, gamma_col
                        else:
                            for g in range(q):
                                ag = a * g % q
                                yield rest + ag * below + (a - ag) % q * low, pi_col, a, gamma_col + g


class ConstraintSystem(NamedTuple):
    """Chain-rule instances with composite arity <= max_arity, as linear rows.

    Each row maps unknown-index -> coefficient and asserts that the
    combination vanishes.  `rows` is any iterable of such mappings that
    supports len(): `build_system` gives a `ChainRuleRows`, which generates
    one row per instance on demand, and a hand-built system may pass a
    tuple of dicts.
    """

    p: PrimeModulus
    max_arity: int
    unknowns: tuple
    rows: "ChainRuleRows | tuple"


class SolutionSpace(NamedTuple):
    """A basis of the kernel of a constraint system over Z/pZ.

    basis[i] is 1 at free_columns[i] and 0 at every other free column, so
    membership of a vector reduces to reading its free coordinates.
    `rows_eliminated` constraints cut the parameters of `solve`, and
    `rows_checked` counts every other row read: those that defined a
    column and the constraints that held.  `rows_implied` counts the
    chain-rule instances never read: those outside the spanning subset,
    whose rows are combinations of the rows read, and any left once the
    kernel was {0}.  A hand-built system has none; its rows left unread
    once the kernel was {0} count nowhere.
    """

    p: PrimeModulus
    unknowns: tuple
    basis: tuple  # tuple of coefficient tuples, one per kernel dimension
    free_columns: tuple
    rows_eliminated: int = 0
    rows_checked: int = 0
    rows_implied: int = 0

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @property
    def rows(self) -> int:
        """Rows accounted for: eliminated plus checked plus implied."""
        return self.rows_eliminated + self.rows_checked + self.rows_implied


def build_system(p: PrimeModulus, max_arity: int, override_guard: bool = False) -> ConstraintSystem:
    """Every chain-rule instance with composite arity <= max_arity, as a lazy row source.

    Instances run over n >= 1, block sizes k_i >= 1 with sum k_i <= max_arity,
    pi in Pi_n and gamma^i in Pi_{k_i}.  The row for one instance is
    I(composite) - I(pi) - sum_i pi_i I(gamma^i) = 0.  Unless overridden,
    a guard bounds the spanning instances, which `solve` reads.
    """
    if max_arity < 1:
        raise InvalidSize("max_arity must be at least 1")
    q = p.p
    if not override_guard:
        if max_arity == 2 and q > UNKNOWN_GUARD:
            raise RangeGuard(f"{q} unknowns of arity 2 exceeds {UNKNOWN_GUARD}")
        # the spanning count is at least 2^(N-1), so a huge max_arity is
        # refused before any power of q is computed
        if max_arity > INSTANCE_GUARD.bit_length() or spanning_instances(q, max_arity) > INSTANCE_GUARD:
            raise RangeGuard(f"p = {q}, max_arity = {max_arity} has over {INSTANCE_GUARD} spanning instances")
    unknowns = tuple(u for n in range(1, max_arity + 1) for u in _distributions(q, n))
    return ConstraintSystem(p, max_arity, unknowns, ChainRuleRows(q, max_arity))


def solve(system: ConstraintSystem) -> SolutionSpace:
    """Kernel of the system over Z/pZ, by exact substitution.

    Of a `ChainRuleRows` only the spanning subset is read, which has the
    same row space.  Each column's value is a linear form in parameters,
    which are columns.  A row with one undefined column defines it; one
    with several first makes all but the highest into parameters; one with
    none is a constraint, checked if it holds, else eliminated by pivoting
    one parameter into a form over the others.  While the free parameters
    span at most a line, a value is one int, its multiple of the line's
    parameter.  The unit row, read first, fixes I(u) = 0, and column 0
    never becomes a parameter (its value is 0, or {} as a form), so a
    spanning quadruple is read as I(composite) - I(pi) - a I(gamma).  On
    the line, one whose pi and gamma columns have values is decided by
    lookup: an undefined composite takes v_pi + a v_gamma, and a composite
    that already holds it makes a constraint that held.  Every other row
    takes the general step on its terms; a hand-built system, where
    column 0 is nothing special, takes only that.  Once the kernel is {0}
    no row is read.  Reduced from the right, the parameters' kernel vectors
    give the canonical basis.
    """
    q = system.p.p
    count = len(system.unknowns)
    rows = system.rows
    spanning = isinstance(rows, ChainRuleRows)
    value = [None] * count  # an int while `line`, else a form {parameter: coefficient}
    free, pivoted = set(), []  # a free parameter's form is {itself: 1}
    line = True
    rank = read = eliminated = 0

    def reduced(j):
        """value[j] over the free parameters, stored back."""
        form = value[j]
        if free.issuperset(form):
            return form
        out = {}
        for t, v in form.items():
            for s, w in value[t].items():
                out[s] = (out.get(s, 0) + v * w) % q
        form = value[j] = {s: w for s, w in out.items() if w}
        return form

    def leave(acc):
        """Forms in place of the ints, and of `acc`, as the parameters leave the line."""
        nonlocal line
        line = False
        old = next(iter(free), None)
        value[:] = [v if v is None else {old: v % q} if v % q else {} for v in value]
        return {old: acc % q} if acc % q else {}

    for row in rows.spanning() if spanning else rows:
        if rank == count:
            break
        read += 1
        if not spanning:
            terms = row.items()
        else:
            comp, pi, a, gamma = row
            if line:
                v_pi, v_gamma = value[pi], value[gamma]
                if v_pi is not None and v_gamma is not None:
                    target = (v_pi + a * v_gamma) % q
                    v_comp = value[comp]
                    if v_comp is None:
                        value[comp] = target
                        rank += 1
                        continue
                    if v_comp == target:
                        continue
            terms = (comp, 1), (pi, q - 1), (gamma, -a % q)
        new, acc = {}, 0 if line else {}
        for j, c in terms:
            v = value[j]
            if v is None:
                new[j] = new.get(j, 0) + c
            elif line:
                acc += c * v
            else:
                for t, w in reduced(j).items():
                    acc[t] = acc.get(t, 0) + c * w
        cols = [j for j, c in new.items() if c % q] if new else None
        if cols:
            top = max(cols)
            if len(cols) > 1:  # all but the highest become parameters
                acc = leave(acc) if line else acc
                for j in cols:
                    if j != top:
                        free.add(j)
                        value[j] = {j: 1}
                        acc[j] = new[j]
            inv = -pow(new[top], -1, q)
            value[top] = acc * inv % q if line else {t: v * inv % q for t, v in acc.items() if v % q}
        elif line and not acc % q:
            continue
        else:
            acc = leave(acc) if line else {t: v % q for t, v in acc.items() if v % q}
            if not acc:
                continue
            pivot = max(acc)
            inv = -pow(acc.pop(pivot), -1, q)
            value[pivot] = {t: v * inv % q for t, v in acc.items()}
            free.discard(pivot)
            for t in pivoted:
                reduced(t)
            pivoted.append(pivot)
            eliminated += 1
        rank += 1
        if not line and len(free) <= 1:  # the parameters span a line, or only 0
            old = next(iter(free), None)
            value = [None if v is None else reduced(j).get(old, 0) for j, v in enumerate(value)]
            pivoted.clear()
            line = True
    params = tuple(free)  # a set that once held many parameters is slow to iterate
    basis, vectors = {}, {t: [0] * count for t in params}
    for j, v in enumerate(value):
        if v is None:  # a column no row defined is free, with a unit vector
            unit = [0] * count
            unit[j] = 1
            basis[j] = tuple(unit)
        else:  # while `line`, `params` holds at most the line's parameter
            for t, w in zip(params, (v,)) if line else reduced(j).items():
                vectors[t][j] = w
    for vec in vectors.values():  # reduced from the right into `basis`
        for col, b in basis.items():
            f = vec[col]
            if f:
                vec = [(x - f * y) % q for x, y in zip(vec, b)]
        last = max(j for j, x in enumerate(vec) if x)
        f = pow(vec[last], -1, q)
        vec = [x * f % q for x in vec]
        for col, b in basis.items():
            f = b[last]
            if f:
                basis[col] = [(x - f * y) % q for x, y in zip(b, vec)]
        basis[last] = vec
    free_cols = tuple(sorted(basis))
    basis = tuple(tuple(basis[j]) for j in free_cols)
    implied = len(rows) - read if spanning else 0
    return SolutionSpace(system.p, system.unknowns, basis, free_cols, eliminated, read - eliminated, implied)


def entropy_vector(unknowns, p: PrimeModulus) -> tuple:
    """H_p of every unknown, as a vector.

    An unknown is a tuple of ints in [0, p) summing to 1 mod p, so that
    (sum a_i)^p = 1 mod p² and H_p = (1 - sum a_i^p)/p.  An entry that is not
    an int in [0, p) raises `InvalidDistribution` and a tuple that does not sum
    to 1 mod p raises `SumNotOne`; both are read off the one power sum, since
    sum a_i^p = sum a_i mod p.
    """
    q = p.p
    q2 = q * q
    power = {a: pow(a, q, q2) for a in range(q)}.__getitem__
    try:
        lifted = [(1 - sum(map(power, u))) % q2 for u in unknowns]
    except (KeyError, TypeError):
        raise InvalidDistribution(f"an unknown has an entry that is not an int in [0, {q})") from None
    for v in lifted:
        if v % q:
            raise SumNotOne((1 - v) % q, f"an unknown sums to {(1 - v) % q} mod {q}, expected 1")
    return tuple([v // q for v in lifted])


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
