"""Tests for the truncated chain-rule constraint system and its kernel."""

import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modent.characterization import (
    INSTANCE_GUARD,
    UNKNOWN_GUARD,
    ConstraintSystem,
    build_system,
    compare_with_entropy,
    entropy_vector,
    in_span,
    solve,
    spanning_instances,
)
from modent.distributions import ModDist, compose, compositions
from modent.errors import InvalidDistribution, ModulusMismatch, RangeGuard, SumNotOne
from modent.modular import PrimeModulus
from oracles import dense_kernel

P2 = PrimeModulus(2)
P3 = PrimeModulus(3)
P5 = PrimeModulus(5)


def brute_force_solutions(p, max_arity):
    """Every I satisfying all chain-rule instances, by direct enumeration.

    Instances are generated independently of build_system, using the
    distributions module for composition.  Exponential; tiny cases only.
    """
    q = p.p
    unknowns = []
    for n in range(1, max_arity + 1):
        for head in product(range(q), repeat=n - 1):
            unknowns.append(head + ((1 - sum(head)) % q,))
    index = {u: i for i, u in enumerate(unknowns)}

    instances = []
    for n in range(1, max_arity + 1):
        for pi in (u for u in unknowns if len(u) == n):
            for ks in product(range(1, max_arity + 1), repeat=n):
                if sum(ks) > max_arity:
                    continue
                pools = [[u for u in unknowns if len(u) == k] for k in ks]
                for gammas in product(*pools):
                    comp = compose(
                        ModDist(p, pi), [ModDist(p, g) for g in gammas]
                    ).values()
                    instances.append((comp, pi, gammas))

    solutions = []
    for assignment in product(range(q), repeat=len(unknowns)):
        ok = True
        for comp, pi, gammas in instances:
            lhs = assignment[index[comp]]
            rhs = assignment[index[pi]]
            for pi_i, g in zip(pi, gammas):
                rhs += pi_i * assignment[index[g]]
            if lhs % q != rhs % q:
                ok = False
                break
        if ok:
            solutions.append(assignment)
    return unknowns, solutions


def test_build_system_examples():
    sys22 = build_system(P2, 2)
    assert len(sys22.unknowns) == 3  # Pi_1 and Pi_2
    assert sys22.unknowns[0] == (1,)
    sys34 = build_system(P3, 4)
    assert len(sys34.unknowns) == 1 + 3 + 9 + 27


def test_unit_instance_forces_zero_at_the_point():
    # I((1) o ((1))) = 2 I((1)) collapses to I(u_1) = 0
    solution = solve(build_system(P2, 2))
    idx = solution.unknowns.index((1,))
    assert all(vec[idx] == 0 for vec in solution.basis)


def test_p2_arity3_forces_two_point_degeneracies():
    # solutions must vanish on (1,0) and (0,1)
    solution = solve(build_system(P2, 3))
    for dist in ((1, 0), (0, 1)):
        idx = solution.unknowns.index(dist)
        assert all(vec[idx] == 0 for vec in solution.basis)


def test_empty_system_has_full_kernel():
    system = ConstraintSystem(P3, 2, ((1,), (0, 1), (1, 0), (2, 2)), ())
    solution = solve(system)
    assert solution.dimension == 4


def test_in_span_with_interleaved_pivot_and_free_columns():
    # x0 + x1 + x2 = 0 over GF(2): the pivot column precedes both free
    # columns and appears in every basis vector
    system = ConstraintSystem(P2, 3, ((1,), (1, 0), (0, 1)), ({0: 1, 1: 1, 2: 1},))
    solution = solve(system)
    assert solution.dimension == 2
    assert in_span((0, 1, 1), solution)  # sum of the two basis vectors
    assert in_span((1, 1, 0), solution)
    assert in_span((1, 0, 1), solution)
    assert not in_span((1, 0, 0), solution)
    assert not in_span((1, 1, 1), solution)
    # exhaustive: membership agrees with the row being satisfied
    for vec in product((0, 1), repeat=3):
        assert in_span(vec, solution) == (sum(vec) % 2 == 0), vec


def test_kernel_basis_satisfies_rows_even_with_unordered_leads():
    # the second row's lead column precedes a pivot column it contains;
    # elimination must still fully reduce it before insertion
    unknowns = tuple((i,) for i in range(7))
    system = ConstraintSystem(P2, 1, unknowns, ({5: 1, 6: 1}, {2: 1, 5: 1}))
    solution = solve(system)
    assert solution.dimension == 5
    for vec in solution.basis:
        for row in system.rows:
            assert sum(c * vec[i] for i, c in row.items()) % 2 == 0, (vec, row)


def test_in_span_matches_row_satisfaction_exhaustively():
    # membership in the kernel span must coincide with satisfying all rows
    for p, cap in ((P2, 3), (P3, 2)):
        system = build_system(p, cap)
        solution = solve(system)
        q = p.p
        for vec in product(range(q), repeat=len(system.unknowns)):
            satisfies = all(
                sum(c * vec[i] for i, c in row.items()) % q == 0 for row in system.rows
            )
            assert in_span(vec, solution) == satisfies, vec


def test_entropy_zeroes_every_row():
    for p, n in ((P2, 4), (P3, 3), (P5, 2)):
        system = build_system(p, n)
        h = entropy_vector(system.unknowns, p)
        for row in system.rows:
            assert sum(c * h[i] for i, c in row.items()) % p.p == 0


def test_entropy_vector_refuses_what_is_not_a_distribution():
    # 7 and -1 lie outside [0, 5), and (2, 2) sums to 4 mod 5: none is an unknown
    assert entropy_vector([(1,), (2, 4), (3, 3)], P5) == (0, 4, 3)
    for bad in ((7,), (-1, 2)):
        with pytest.raises(InvalidDistribution):
            entropy_vector([(1,), bad], P5)
    with pytest.raises(SumNotOne) as err:
        entropy_vector([(2, 2)], P5)
    assert err.value.computed_sum == 4


def test_solver_matches_brute_force():
    for p, n in ((P2, 3), (P3, 2)):
        unknowns, solutions = brute_force_solutions(p, n)
        system = build_system(p, n)
        assert system.unknowns == tuple(unknowns)
        solution = solve(system)
        assert len(solutions) == p.p**solution.dimension
        # the brute-force solution set is exactly the kernel span
        for vec in solutions:
            assert in_span(vec, solution)


def test_entropy_membership_and_scalar_closure():
    for p, n in ((P2, 4), (P3, 3), (P5, 2)):
        system = build_system(p, n)
        solution = solve(system)
        h = entropy_vector(system.unknowns, p)
        assert in_span(h, solution)
        for c in range(p.p):
            assert in_span(tuple(c * v % p.p for v in h), solution)
        assert in_span((0,) * len(system.unknowns), solution)


def test_kernel_dimension_fixtures():
    # measured once and frozen; see compare_with_entropy for the semantics
    solution26 = solve(build_system(P2, 6))
    report26 = compare_with_entropy(solution26, P2, 6)
    assert report26.passed
    assert report26.data["dimension"] == 1
    assert report26.data["kernel_is_entropy_line"]

    solution34 = solve(build_system(P3, 4))
    report34 = compare_with_entropy(solution34, P3, 4)
    assert report34.passed
    assert report34.data["dimension"] == 1
    assert report34.data["kernel_is_entropy_line"]


def test_minimal_truncation_for_unique_kernel_fixtures():
    # measured minimal max-arity N*(p) at which the kernel collapses to the
    # entropy line, per prime; recorded values, not claimed as general facts
    expected = {2: 3, 3: 4, 5: 4, 7: 4, 11: 4, 13: 4}
    for pp, minimal in expected.items():
        p = PrimeModulus(pp)
        below = solve(build_system(p, minimal - 1))
        assert below.dimension > 1, (pp, minimal)
        report = compare_with_entropy(solve(build_system(p, minimal)), p, minimal)
        assert report.data["dimension"] == 1, (pp, report.data)
        assert report.data["kernel_is_entropy_line"], (pp, report.data)


def test_underconstrained_truncations_are_reported_not_failed():
    solution = solve(build_system(P2, 2))
    report = compare_with_entropy(solution, P2, 2)
    assert report.passed  # H is always a solution
    assert report.data["dimension"] == 2
    assert not report.data["kernel_is_entropy_line"]
    assert report.data["extra_dimensions"] == 1


@pytest.mark.parametrize("solved,p,n", [(2, 3, 2), (3, 5, 3)])
def test_compare_with_entropy_refuses_another_prime(solved, p, n):
    # unchecked, a kernel mod 2 read at p = 3 passes as if it were mod 3, and
    # one mod 3 read at p = 5 raises a misleading SumNotOne
    solution = solve(build_system(PrimeModulus(solved), n))
    with pytest.raises(ModulusMismatch):
        compare_with_entropy(solution, PrimeModulus(p), n)


def test_padding_relations_hold_in_every_solution():
    # inserting a zero entry never changes the value of a kernel solution;
    # these are consequences of chain-rule instances built from (1,0) and u_1
    for p, cap in ((P2, 4), (P3, 3)):
        solution = solve(build_system(p, cap))
        index = {u: i for i, u in enumerate(solution.unknowns)}
        for dist in solution.unknowns:
            if len(dist) >= cap:
                continue
            for pos in range(len(dist) + 1):
                padded = dist[:pos] + (0,) + dist[pos:]
                for vec in solution.basis:
                    assert vec[index[padded]] == vec[index[dist]], (p.p, dist, pos)


def test_guard_and_override(monkeypatch):
    import modent.characterization as ch

    with pytest.raises(RangeGuard):
        build_system(PrimeModulus(11), 6)
    monkeypatch.setattr(ch, "INSTANCE_GUARD", 2)
    with pytest.raises(RangeGuard):
        build_system(P2, 3)
    system = build_system(P2, 3, override_guard=True)
    assert len(system.unknowns) == 7


def test_guard_bounds_the_spanning_instances():
    # the bound is the largest spanning count of any cell that q^(N-1) <= 10^4
    # accepted, so none of those is refused
    primes = [q for q in range(2, 10**4) if all(q % d for d in range(2, int(q**0.5) + 1))]
    accepted = [(q, n) for q in primes for n in range(1, 15) if q ** (n - 1) <= 10**4]
    assert max(spanning_instances(q, n) for q, n in accepted) == INSTANCE_GUARD == spanning_instances(2, 14)
    assert len(build_system(P2, 14).unknowns) == 2**14 - 1
    # at N = 2 q is bounded by UNKNOWN_GUARD, a prime, and 2011 is the next
    # prime; at N = 3 the spanning count alone bounds q, to 347
    build_system(PrimeModulus(97), 3)
    assert len(build_system(PrimeModulus(UNKNOWN_GUARD), 2).unknowns) == UNKNOWN_GUARD + 1
    for q, n in ((2, 15), (3, 10), (11, 6), (5, 8), (349, 3), (2011, 2)):
        with pytest.raises(RangeGuard):
            build_system(PrimeModulus(q), n)
    assert len(build_system(PrimeModulus(2011), 2, override_guard=True).unknowns) == 2012
    # cells beyond q^(N-1) <= 10^4 with few spanning instances are accepted
    for q, n in ((5, 7), (13, 5), (7, 6), (37, 4), (101, 3), (347, 3)):
        assert spanning_instances(q, n) <= INSTANCE_GUARD
        build_system(PrimeModulus(q), n)
    # a huge max_arity is refused
    with pytest.raises(RangeGuard):
        build_system(P3, 10**5)


# --- the streaming solver against eliminating every deduplicated row ------


def deduplicated_rows(q, max_arity):
    """The chain-rule rows, normalized to lead coefficient 1 and deduplicated.

    Built by tuple lookup, as the system was built before rows were
    streamed, independently of the column arithmetic in ChainRuleRows.
    """
    unknowns = [h + ((1 - sum(h)) % q,) for n in range(1, max_arity + 1) for h in product(range(q), repeat=n - 1)]
    index = {u: i for i, u in enumerate(unknowns)}
    pools = {k: [u for u in unknowns if len(u) == k] for k in range(1, max_arity + 1)}
    rows = set()
    for n in range(1, max_arity + 1):
        for total in range(n, max_arity + 1):
            for ks in compositions(total, n):
                for pi in pools[n]:
                    for gammas in product(*(pools[k] for k in ks)):
                        composite = tuple(a * y % q for a, g in zip(pi, gammas) for y in g)
                        row = {}
                        for dist, coeff in [(composite, 1), (pi, -1)] + [(g, -a) for a, g in zip(pi, gammas)]:
                            row[index[dist]] = row.get(index[dist], 0) + coeff
                        row = {c: v % q for c, v in row.items() if v % q}
                        inv = pow(row[min(row)], -1, q)
                        rows.add(tuple(sorted((c, v * inv % q) for c, v in row.items())))
    return len(unknowns), sorted(rows)


PRIMES = [p for p in range(2, 128) if all(p % d for d in range(2, p))]
DENSE_CELLS = [(p, n) for p in PRIMES for n in range(1, 10) if p ** (n - 1) <= 300]


@pytest.mark.parametrize("p,n", DENSE_CELLS, ids=[f"p{p}-N{n}" for p, n in DENSE_CELLS])
def test_solve_matches_dense_elimination_of_deduplicated_rows(p, n):
    count, rows = deduplicated_rows(p, n)
    system = build_system(PrimeModulus(p), n)
    assert len(system.unknowns) == count
    # the stream holds the same rows, each once per instance
    streamed = set()
    for row in system.rows:
        inv = pow(row[min(row)], -1, p)
        streamed.add(tuple(sorted((c, v * inv % p) for c, v in row.items())))
    assert sorted(streamed) == rows
    free, basis = dense_kernel(p, count, rows)
    solution = solve(system)
    assert solution.free_columns == free
    assert solution.basis == basis


@st.composite
def hand_built_systems(draw):
    """(q, count, rows): at most 15 rows over at most 12 columns, some of which
    no row names, with coefficients that may be multiples of q, and repeated rows."""
    q = draw(st.sampled_from((2, 3, 5, 7)))
    count = draw(st.integers(1, 12))
    named = draw(st.lists(st.integers(0, count - 1), min_size=1, max_size=count, unique=True))
    coefficient = st.integers(-q, 2 * q)
    # wide rows first make several columns into parameters, then narrow rows
    # define columns or constrain the parameters
    wide = st.dictionaries(st.sampled_from(named), coefficient, min_size=min(3, len(named)), max_size=5)
    narrow = st.dictionaries(st.sampled_from(named), coefficient, max_size=3)
    rows = draw(st.lists(wide, max_size=3)) + draw(st.lists(narrow, max_size=9))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    return q, count, rows


@settings(max_examples=60, deadline=None)
@given(hand_built_systems())
def test_solve_matches_dense_elimination_of_hand_built_rows(case):
    # the branches the chain-rule rows never take: coefficients that cancel,
    # columns that no row names, rows that repeat or empty the kernel, and
    # wide rows that make up to four parameters at once
    q, count, rows = case
    unknowns = tuple((i,) for i in range(count))
    solution = solve(ConstraintSystem(PrimeModulus(q), 1, unknowns, tuple(rows)))
    free, basis = dense_kernel(q, count, [[(c, v % q) for c, v in row.items() if v % q] for row in rows])
    assert solution.free_columns == free
    assert solution.basis == basis
    assert solution.rows_eliminated + solution.rows_checked <= len(rows)
    assert solution.rows_implied == 0


def test_rows_stream_one_row_per_instance():
    for p, n in ((P2, 5), (P3, 4), (P5, 3)):
        rows = build_system(p, n).rows
        state = dict(vars(rows))
        q = p.p
        # compositions of K into n blocks, times q^(n-1) choices of pi and
        # q^(K-n) choices of the gammas
        instances = sum(
            q ** (len(ks) - 1) * q ** (total - len(ks))
            for total in range(1, n + 1)
            for parts in range(1, total + 1)
            for ks in compositions(total, parts)
        )
        assert len(rows) == instances == sum(1 for _ in rows) == sum(1 for _ in rows)
        assert all(row and all(0 < v < q for v in row.values()) for row in rows)
        # each pass builds its own block table: the object keeps nothing
        assert vars(rows) == state


def test_solution_counts_the_rows_it_read():
    for p, n in ((P2, 6), (P3, 5), (P5, 4), (P2, 2)):
        system = build_system(p, n)
        solution = solve(system)
        # H is in every kernel, so no spanning row leaves the kernel {0}
        # early: every spanning instance is read, every other one implied
        read = solution.rows_eliminated + solution.rows_checked
        assert read == spanning_instances(p.p, n) == sum(1 for _ in system.rows.spanning())
        assert solution.rows == read + solution.rows_implied == len(system.rows)
        assert solution.dimension >= 1
        # only a constraint on the parameters, the q columns of Pi_2 and
        # the column of (1, -1, 1), is eliminated, and each cuts one
        assert solution.rows_eliminated <= p.p + 1
    redundant = solve(build_system(P2, 8))
    assert redundant.rows_implied > 10 * (redundant.rows_eliminated + redundant.rows_checked)
    assert redundant.rows_checked > 100 * redundant.rows_eliminated
    underdetermined = solve(build_system(P3, 3))
    assert underdetermined.rows_eliminated + underdetermined.rows_checked == spanning_instances(3, 3)
    # a hand-built system implies nothing; a row that defines a column is checked
    hand = solve(ConstraintSystem(P3, 2, ((1,), (1, 0), (0, 1)), ({0: 1}, {1: 1})))
    assert (hand.rows_eliminated, hand.rows_checked, hand.rows_implied, hand.rows) == (0, 2, 0, 2)


def test_row_after_the_kernel_is_a_line_is_checked_and_can_break_it():
    # x0 = 0 and x1 = 0 define two columns and leave the line spanned by e2;
    # 2*x0 + x1 = 0 holds on it and is only checked, x2 = 0 defines the last
    # column and empties the kernel, and the last row is never read; x2 = x0
    # with x2 a parameter is a constraint that fails, and is eliminated
    unknowns = ((1,), (1, 0), (0, 1))
    rows = ({0: 1}, {1: 1}, {0: 2, 1: 1}, {2: 1}, {0: 1, 2: 1})
    solution = solve(ConstraintSystem(P3, 2, unknowns, rows))
    assert solution.dimension == 0
    assert solution.free_columns == () and solution.basis == ()
    assert (solution.rows_eliminated, solution.rows_checked) == (0, 4)

    kept = solve(ConstraintSystem(P3, 2, unknowns, rows[:3]))
    assert kept.dimension == 1
    assert kept.basis == ((0, 0, 1),)
    assert (kept.rows_eliminated, kept.rows_checked) == (0, 3)

    cut = solve(ConstraintSystem(P3, 2, unknowns, ({0: 1}, {1: 1, 2: 1}, {1: 1}, {0: 1, 2: 1})))
    assert cut.dimension == 0
    assert (cut.rows_eliminated, cut.rows_checked) == (1, 2)


def test_kernel_line_checks_yield_exactly_the_violated_rows():
    # a kernel that is a line, not the entropy line, pinned by hand-built
    # rows, each of which defines a column or makes one a parameter: solve
    # checks the spanning rows that hold on it and eliminates the first one
    # it violates, which leaves the kernel {0}; the line violates some
    # spanning row exactly when it violates some instance
    rng = random.Random(20190316)
    for p, n in ((P2, 5), (P3, 4), (P5, 3)):
        q = p.p
        system = build_system(p, n)
        spanning = [as_row(q, row) for row in system.rows.spanning()]
        assert Counter(map(frozen, spanning)) == Counter(map(frozen, spanning_rows(q, n)))
        count = len(system.unknowns)
        h = entropy_vector(system.unknowns, p)
        pinned = (0,) * (count - 1) + (1,)
        noisy = list(h)
        noisy[rng.randrange(count)] += 1
        for line in (h, pinned, noisy, [rng.randrange(q) for _ in range(count)]):
            j = max(i for i, v in enumerate(line) if v % q)
            inv = pow(line[j], -1, q)
            line = [v * inv % q for v in line]
            pins = tuple({i: 1, j: -line[i] % q} if line[i] else {i: 1} for i in range(count) if i != j)
            solution = solve(ConstraintSystem(p, n, system.unknowns, pins + tuple(spanning)))
            violated = [k for k, row in enumerate(spanning) if sum(c * line[i] for i, c in row.items()) % q]
            if violated:
                assert solution.dimension == 0
                # the first violated row cuts the line's parameter or,
                # when no pin names column j, defines it as 0
                if any(line[i] for i in range(count) if i != j):
                    assert (solution.rows_eliminated, solution.rows_checked) == (1, count - 1 + violated[0])
                else:
                    assert (solution.rows_eliminated, solution.rows_checked) == (0, count + violated[0])
            else:
                assert solution.basis == (tuple(line),)
                assert (solution.rows_eliminated, solution.rows_checked) == (0, count - 1 + len(spanning))
            violates_any = any(sum(c * line[i] for i, c in row.items()) % q for row in system.rows)
            assert bool(violated) == violates_any


@pytest.mark.parametrize(
    "q,n,counts",
    [
        (2, 6, (2, 306, 1057)),
        (3, 5, (3, 458, 1094)),
        (5, 4, (5, 437, 669)),
        (2, 9, (2, 4354, 83025)),
        (11, 4, (11, 4259, 6885)),
        (3, 3, (2, 21, 20)),
    ],
)
def test_row_counts_are_pinned(q, n, counts):
    # which columns become parameters, and so how many constraints cut them,
    # depends on the order of the spanning rows, so a change of order or of
    # the subset shows here
    solution = solve(build_system(PrimeModulus(q), n))
    assert (solution.rows_eliminated, solution.rows_checked, solution.rows_implied) == counts
    assert solution.rows_eliminated <= q + 1


FAST_CELLS = [(p, n) for p in (2, 3, 5, 7, 11, 13) for n in range(2, 11) if spanning_instances(p, n) <= 20_000]


@pytest.mark.parametrize("p,n", FAST_CELLS, ids=[f"p{p}-N{n}" for p, n in FAST_CELLS])
def test_fast_step_on_the_line_matches_the_general_step(p, n):
    # solve decides most spanning quadruples on the kernel line by lookup; the
    # same rows expanded to dicts take only the general step, so every count,
    # not just the kernel, must agree, under-determined cells included
    system = build_system(PrimeModulus(p), n)
    expanded = tuple(as_row(p, row) for row in system.rows.spanning())
    fast = solve(system)
    general = solve(ConstraintSystem(system.p, n, system.unknowns, expanded))
    assert (fast.basis, fast.free_columns) == (general.basis, general.free_columns)
    assert (fast.rows_eliminated, fast.rows_checked) == (general.rows_eliminated, general.rows_checked)


# --- the spanning subset: both row identities, checked without elimination --


def distributions_of(q, k):
    """Pi_k over Z/qZ, in the solver's column order."""
    return [h + ((1 - sum(h)) % q,) for h in product(range(q), repeat=k - 1)]


def unknown_index(q, max_arity):
    """Column of every unknown, as in build_system."""
    return {u: i for i, u in enumerate(u for k in range(1, max_arity + 1) for u in distributions_of(q, k))}


def instance_row(q, index, pi, gammas):
    """The row I(pi o gammas) - I(pi) - sum_i pi_i I(gamma^i), by tuple lookup."""
    composite = tuple(a * y % q for a, g in zip(pi, gammas) for y in g)
    row = Counter({index[composite]: 1})
    row[index[pi]] -= 1
    for a, g in zip(pi, gammas):
        row[index[g]] -= a
    return {c: v % q for c, v in row.items() if v % q}


def single(pi, j, gamma):
    """The blocks of pi o (u, ..., gamma at slot j, ..., u)."""
    return tuple(gamma if i == j else (1,) for i in range(len(pi)))


def frozen(row):
    return frozenset(row.items())


def as_row(q, quadruple):
    """A spanning row (composite, pi, a, gamma), expanded to the dict of
    I(composite) - I(pi) - (1 - a) I(u) - a I(gamma) without zero entries."""
    composite, pi, a, gamma = quadruple
    row = Counter({composite: 1})
    row[pi] -= 1
    row[0] -= 1 - a
    row[gamma] -= a
    return {c: v % q for c, v in row.items() if v % q}


def spanning_rows(q, max_arity):
    """The unit row and every instance whose only non-unit block has arity 2 or is (1, -1, 1)."""
    index = unknown_index(q, max_arity)
    rows = [instance_row(q, index, (1,), ((1,),))]
    for n in range(1, max_arity):
        for pi in distributions_of(q, n):
            for gamma in distributions_of(q, 2) + [(1, q - 1, 1)]:
                if n + len(gamma) - 1 <= max_arity:
                    rows += [instance_row(q, index, pi, single(pi, j, gamma)) for j in range(n)]
    return rows


def test_spanning_rows_come_in_the_documented_order():
    # the order sets the elimination work, not the kernel or the counters: n
    # ascending; gamma of arity 2 before (1, -1, 1) for n <= 2 and after it
    # for n >= 3; the slot from last to first; pi from the last column down;
    # gamma in column order
    for q, max_arity in ((2, 6), (3, 5), (5, 4)):
        index = unknown_index(q, max_arity)
        expected = [instance_row(q, index, (1,), ((1,),))]
        for n in range(1, max_arity):
            for k in (2, 3) if n <= 2 else (3, 2):
                if n + k - 1 <= max_arity:
                    gammas = distributions_of(q, 2) if k == 2 else [(1, q - 1, 1)]
                    for j in reversed(range(n)):
                        for pi in reversed(distributions_of(q, n)):
                            expected += [instance_row(q, index, pi, single(pi, j, g)) for g in gammas]
        rows = build_system(PrimeModulus(q), max_arity).rows.spanning()
        assert [as_row(q, row) for row in rows] == expected


def split(q, gamma):
    """(alpha, beta, i) with gamma = alpha o (u, ..., beta at slot i, ..., u) and
    alpha, beta of arity >= 2, from the first run of 2 to k-1 entries whose sum
    is nonzero or which is all zero; None when there is no such run."""
    k = len(gamma)
    for r in range(2, k):
        for i in range(k - r + 1):
            run = gamma[i : i + r]
            s = sum(run) % q
            if s or not any(run):
                beta = tuple(y * pow(s, -1, q) % q for y in run) if s else (1,) + (0,) * (r - 1)
                return gamma[:i] + (s,) + gamma[i + r :], beta, i
    return None


def spanning_combination(q, pi, gammas):
    """Coefficients c_t of spanning instances t with row(pi o gammas) = sum c_t row(t)
    up to a multiple of I(u): telescoping into single-block instances, then
    splitting each block until it has arity 2 or is (1, -1, 1)."""
    combo = Counter()

    def add_single(coeff, pi, j, gamma):
        if len(gamma) == 1:
            return  # pi o (u, ..., u) reads -I(u)
        parts = None if gamma == (1, q - 1, 1) else split(q, gamma)
        if parts is None:
            combo[(pi, single(pi, j, gamma))] += coeff
            return
        alpha, beta, i = parts
        add_single(coeff, pi, j, alpha)  # R1
        add_single(coeff, pi[:j] + tuple(pi[j] * a % q for a in alpha) + pi[j + 1 :], j + i, beta)  # R2
        add_single(-coeff * pi[j], alpha, i, beta)  # -pi_j R3

    sigma, slot = pi, 0
    for a, gamma in zip(pi, gammas):
        add_single(1, sigma, slot, gamma)
        sigma = sigma[:slot] + tuple(a * y % q for y in gamma) + sigma[slot + 1 :]
        slot += len(gamma)
    return combo


@pytest.mark.parametrize("q,max_arity", [(2, 6), (3, 5), (5, 4)])
def test_every_instance_is_a_combination_of_spanning_rows(q, max_arity):
    rng = random.Random(1903 + 61 * q)
    index = unknown_index(q, max_arity)
    unit_row = instance_row(q, index, (1,), ((1,),))
    assert unit_row == {index[(1,)]: q - 1}
    for total in range(1, max_arity + 1):
        for n in range(1, total + 1):
            for ks in compositions(total, n):
                for _ in range(4):
                    pi = rng.choice(distributions_of(q, n))
                    gammas = tuple(rng.choice(distributions_of(q, k)) for k in ks)
                    rebuilt = Counter()
                    for (t_pi, t_gammas), coeff in spanning_combination(q, pi, gammas).items():
                        big = [g for g in t_gammas if len(g) > 1]
                        assert len(big) == 1 and (len(big[0]) == 2 or big[0] == (1, q - 1, 1))
                        assert sum(map(len, t_gammas)) <= max_arity
                        for c, v in instance_row(q, index, t_pi, t_gammas).items():
                            rebuilt[c] += coeff * v
                    rebuilt = {c: v % q for c, v in rebuilt.items() if v % q}
                    row = instance_row(q, index, pi, gammas)
                    u = index[(1,)]
                    c = (row.get(u, 0) - rebuilt.get(u, 0)) * pow(q - 1, -1, q) % q
                    rebuilt[u] = (rebuilt.get(u, 0) + c * (q - 1)) % q
                    assert {col: v for col, v in rebuilt.items() if v} == row, (pi, gammas)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_only_one_minus_one_one_does_not_split(q):
    # gamma splits when gamma = alpha o (u, ..., beta, ..., u) with alpha and
    # beta of arity >= 2, which needs arity >= 3; enumerated by brute force
    for k in range(3, 7):
        composites = set()
        for m in range(2, k):
            for alpha in distributions_of(q, m):
                for beta in distributions_of(q, k - m + 1):
                    for i in range(m):
                        composites.add(alpha[:i] + tuple(alpha[i] * b % q for b in beta) + alpha[i + 1 :])
        pi_k = distributions_of(q, k)
        unsplit = [g for g in pi_k if g not in composites]
        assert unsplit == ([(1, q - 1, 1)] if k == 3 else []), (q, k)
        # the run criterion finds a valid split of every other gamma
        for g in pi_k:
            parts = split(q, g)
            assert (parts is None) == (g in unsplit)
            if parts:
                alpha, beta, i = parts
                assert alpha[:i] + tuple(alpha[i] * b % q for b in beta) + alpha[i + 1 :] == g
