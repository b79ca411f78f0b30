"""Acceptance suite: one test per criterion, printing one pass line each.

Every assertion is an exact equality in Z/pZ (or an exact integer/rational
identity); there are no numeric tolerances anywhere.  Randomized criteria
use fixed seeds, recorded in the failure messages.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass lines.
"""

import random
from itertools import product

from modent.characterization import build_system, compare_with_entropy, entropy_vector, solve
from modent.distributions import ModDist, compose, entropy, uniform
from modent.errors import DenominatorDivisibleByP
from modent.finprob import (
    FinProbSpace,
    compose_maps,
    conditional_defect,
    convex_combine_maps,
    info_loss,
    info_loss_conditional,
    make_map,
)
from modent.modular import (
    PrimeModulus,
    Residue,
    fermat_quotient,
    p_derivation,
    verify_fq_laws,
    verify_hom_uniqueness,
)
from modent.polynomials import GROUPING_SIZE_GUARD, entropy_poly, identity_reports
from modent.residue import (
    RationalDist,
    check_residue_well_defined,
    real_entropy_equal,
    residue_additive,
)
from oracles import random_mod_dist_values, random_rational_dist_fractions

SEED = 1918  # single master seed for the whole acceptance suite


def _pass(n, text):
    print(f"criterion {n}: PASS - {text}")


def test_c01_four_point_uniform_entropy_mod_3():
    assert entropy(ModDist(PrimeModulus(3), (1, 1, 1, 1))).value == 2
    _pass(1, "H_3(1,1,1,1) = -1 = 2, exact")


def test_c02_uniform_law_exhaustive():
    checks = 0
    for pp in (2, 3, 5, 7):
        p = PrimeModulus(pp)
        for n in range(1, pp * pp):
            if n % pp:
                assert entropy(uniform(n, p)) == fermat_quotient(n, p), (pp, n)
                checks += 1
    _pass(2, f"H_p(u_n) = q_p(n) for p in 2,3,5,7 and all n < p^2 ({checks} cases)")


def test_c03_p2_closed_form_exhaustive():
    p = PrimeModulus(2)
    checks = 0
    for n in range(1, 11):
        for head in product((0, 1), repeat=n - 1):
            values = head + ((1 - sum(head)) % 2,)
            support = sum(1 for v in values if v)
            assert entropy(ModDist(p, values)).value == ((support - 1) // 2) % 2, values
            checks += 1
    _pass(3, f"p=2 entropy equals (|supp|-1)/2 on all {checks} distributions, n <= 10")


def test_c04_chain_rule_random_instances():
    rng = random.Random(SEED)
    violations = 0
    for trial in range(10_000):
        pp = rng.choice((2, 3, 5, 7, 11))
        p = PrimeModulus(pp)
        n = rng.randint(1, 4)
        outer = ModDist(p, random_mod_dist_values(rng, pp, n))
        inners = [
            ModDist(p, random_mod_dist_values(rng, pp, rng.randint(1, 4)))
            for _ in range(n)
        ]
        lhs = entropy(compose(outer, inners))
        rhs = entropy(outer)
        for pi, g in zip(outer.probs, inners):
            rhs = rhs + pi * entropy(g)
        if lhs != rhs:
            violations += 1
    assert violations == 0, f"seed={SEED}: {violations} chain-rule violations"
    _pass(4, "chain rule holds on 10^4 seeded composites, p in 2..11, arities <= 4")


def test_c05_polynomial_agreement_exhaustive():
    checks = 0
    for pp in (2, 3, 5):
        p = PrimeModulus(pp)
        for n in (1, 2, 3):
            h = entropy_poly(n, p)
            for head in product(range(pp), repeat=n - 1):
                pi = head + ((1 - sum(head)) % pp,)
                assert h.evaluate(pi) == entropy(ModDist(p, pi)), (pp, pi)
                checks += 1
    _pass(5, f"entropy polynomial matches entropy on all {checks} points, p in 2,3,5, n <= 3")


def test_c06_symbolic_identities_all_primes():
    for pp in (2, 3, 5, 7, 11, 13):
        reports = identity_reports(PrimeModulus(pp), GROUPING_SIZE_GUARD)
        assert reports["grouping"].checks == 63
        for name, report in reports.items():
            assert report.passed, (pp, name, report.failures)
    _pass(6, "all identities reduce to 0 for p in 2,3,5,7,11,13 (63 grouping shapes)")


def _equal_entropy_pair(rng, kind):
    from modent.residue import tensor_rational

    base = RationalDist(random_rational_dist_fractions(rng, max_len=4, max_weight=8))
    if kind == 0:  # permutation
        shuffled = list(base.probs)
        rng.shuffle(shuffled)
        return base, RationalDist(shuffled)
    if kind == 1:  # zero-padding
        from fractions import Fraction

        padded = list(base.probs)
        for _ in range(rng.randint(1, 3)):
            padded.insert(rng.randint(0, len(padded)), Fraction(0))
        return base, RationalDist(padded)
    other = RationalDist(random_rational_dist_fractions(rng, max_len=3, max_weight=6))
    return tensor_rational(base, other), tensor_rational(other, base)


def test_c07_residue_well_defined_and_additive():
    from fractions import Fraction

    p3 = PrimeModulus(3)
    named_a = RationalDist([Fraction(1, 2)] + [Fraction(1, 8)] * 4)
    named_b = RationalDist([Fraction(1, 4)] * 4)
    assert real_entropy_equal(named_a, named_b)
    for pp in (3, 5, 7, 11, 13):
        report = check_residue_well_defined(named_a, named_b, PrimeModulus(pp))
        assert report.passed and not report.data["vacuous"], pp
    assert check_residue_well_defined(named_a, named_b, p3).data["residue_a"] == 2

    rng = random.Random(SEED + 7)
    pairs = additive_pairs = 0
    while pairs < 100:
        a, b = _equal_entropy_pair(rng, pairs % 3)
        assert real_entropy_equal(a, b), f"seed={SEED + 7} pair {pairs}"
        for pp in (2, 3, 5, 7, 11, 13):
            try:
                report = check_residue_well_defined(a, b, PrimeModulus(pp))
            except DenominatorDivisibleByP:
                continue
            assert report.passed, f"seed={SEED + 7} pair {pairs} p={pp}"
        pairs += 1
    while additive_pairs < 100:
        a = RationalDist(random_rational_dist_fractions(rng, max_len=4, max_weight=9))
        b = RationalDist(random_rational_dist_fractions(rng, max_len=4, max_weight=9))
        for pp in (2, 3, 5, 7, 11, 13):
            try:
                assert residue_additive(a, b, PrimeModulus(pp)).passed, (
                    f"seed={SEED + 7} additive pair {additive_pairs} p={pp}"
                )
            except DenominatorDivisibleByP:
                continue
        additive_pairs += 1
    _pass(7, "residues agree on the named pair and 100 generated pairs; additivity on 100 pairs")


def _random_space(rng, p, size=None, prefix="y"):
    n = size or rng.randint(1, 5)
    labels = tuple(f"{prefix}{i}" for i in range(n))
    return FinProbSpace(labels, ModDist(p, random_mod_dist_values(rng, p.p, n)))


def _random_general_map(rng, p, domain=None):
    domain = domain or _random_space(rng, p)
    m = rng.randint(1, len(domain.labels) + 1)
    cod_labels = tuple(f"x{i}" for i in range(m))
    mapping = {y: rng.choice(cod_labels) for y in domain.labels}
    sums = {x: 0 for x in cod_labels}
    for y in domain.labels:
        sums[mapping[y]] = (sums[mapping[y]] + domain.weight(y).value) % p.p
    codomain = FinProbSpace(cod_labels, ModDist(p, [sums[x] for x in cod_labels]))
    return make_map(domain, codomain, mapping)


def _random_tame_map(rng, p):
    # zero-weight codomain points carry only zero fibres: the class on which
    # the conditional form of the loss is exact (see conditional_defect)
    codomain = _random_space(rng, p, prefix="x")
    labels, values, mapping = [], [], {}
    for x in codomain.labels:
        pi_x = codomain.weight(x)
        k = rng.randint(1, 3) if pi_x.value else rng.randint(0, 2)
        gamma = random_mod_dist_values(rng, p.p, k) if (pi_x.value and k) else (0,) * k
        for j, g in enumerate(gamma):
            y = f"{x}.{j}"
            labels.append(y)
            values.append(pi_x * g if pi_x.value else 0)
            mapping[y] = x
    domain = FinProbSpace(tuple(labels), ModDist(p, values))
    return make_map(domain, codomain, mapping)


def test_c08_information_loss_properties():
    rng = random.Random(SEED + 8)
    primes = (2, 3, 5, 7)
    for trial in range(1000):
        p = PrimeModulus(primes[trial % 4])
        tag = f"seed={SEED + 8} trial={trial} p={p.p}"

        # conditional-form equality, on maps within the lemma's scope
        f = _random_tame_map(rng, p)
        assert conditional_defect(f).value == 0, tag
        assert info_loss(f) == info_loss_conditional(f), tag

        # functoriality on a composable random pair
        g0 = _random_general_map(rng, p)
        g1 = _random_general_map(rng, p, domain=g0.codomain)
        assert info_loss(compose_maps(g1, g0)) == info_loss(g1) + info_loss(g0), tag

        # isomorphism vanishing
        s = g0.domain
        perm = list(s.labels)
        rng.shuffle(perm)
        target = FinProbSpace(
            tuple(f"t{i}" for i in range(len(perm))),
            ModDist(p, [s.weight(y) for y in perm]),
        )
        iso = make_map(s, target, {y: f"t{perm.index(y)}" for y in s.labels})
        assert iso.is_isomorphism() and info_loss(iso).value == 0, tag

        # affinity of convex combinations
        k = rng.randint(1, 3)
        weights = ModDist(p, random_mod_dist_values(rng, p.p, k))
        family = [_random_general_map(rng, p) for _ in range(k)]
        expected = Residue(0, p)
        for w, member in zip(weights.probs, family):
            expected = expected + w * info_loss(member)
        assert info_loss(convex_combine_maps(weights, family)) == expected, tag

    # domain/codomain determinacy on 10^3 pairs
    for trial in range(1000):
        p = PrimeModulus(primes[trial % 4])
        f = _random_general_map(rng, p)
        relabel = list(f.domain.labels)
        rng.shuffle(relabel)
        sigma = dict(zip(relabel, f.domain.labels))
        if any(f.domain.weight(y) != f.domain.weight(sigma[y]) for y in f.domain.labels):
            continue
        f2 = make_map(f.domain, f.codomain, {y: f.mapping[sigma[y]] for y in f.domain.labels})
        assert info_loss(f2) == info_loss(f), f"seed={SEED + 8} determinacy trial={trial}"
    _pass(8, "loss is functorial, vanishes on isos, affine, conditional; 10^3 maps, p in 2,3,5,7")


def test_c09_characterization_kernels():
    # soundness everywhere: H zeroes every row of every truncation we build
    for pp, cap in ((2, 4), (3, 3), (5, 2), (7, 2)):
        p = PrimeModulus(pp)
        system = build_system(p, cap)
        h = entropy_vector(system.unknowns, p)
        for row in system.rows:
            assert sum(c * h[i] for i, c in row.items()) % pp == 0, (pp, cap)
        report = compare_with_entropy(solve(system), p, cap)
        assert report.passed, (pp, cap)

    p2 = PrimeModulus(2)
    report26 = compare_with_entropy(solve(build_system(p2, 6)), p2, 6)
    assert report26.passed
    assert report26.data["dimension"] == 1, report26.data
    assert report26.data["kernel_is_entropy_line"], report26.data

    p3 = PrimeModulus(3)
    report34 = compare_with_entropy(solve(build_system(p3, 4)), p3, 4)
    assert report34.passed
    # measured fixture: the (p=3, N=4) truncation already has a 1-dim kernel
    assert report34.data["dimension"] == 1, report34.data
    _pass(9, "kernel always contains H; p=2,N=6 kernel = {0,H}; p=3,N=4 dimension 1 (fixture)")


def test_c10_core_algebra_exhaustive():
    for pp in (2, 3, 5, 7, 11, 13):
        p = PrimeModulus(pp)
        report = verify_fq_laws(p)
        assert report.passed, (pp, report.failures)
        # Leibniz rule for the p-derivation, exhaustive over Z/p^2Z x Z/p^2Z
        for a in range(pp * pp):
            da = p_derivation(a, p)
            for b in range(pp * pp):
                assert p_derivation(a * b, p) == da * b + a * p_derivation(b, p), (pp, a, b)
    for pp in (2, 3, 5, 7):
        report = verify_hom_uniqueness(PrimeModulus(pp))
        assert report.passed, (pp, report.failures)
        assert report.data["homomorphisms"] == pp
    _pass(10, "fq laws and Leibniz exhaustive for p <= 13; hom uniqueness for p in 2,3,5,7")
