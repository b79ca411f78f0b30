"""Tests for finite probability spaces, measure-preserving maps and loss."""

import json
import random

import pytest

from modent.distributions import ModDist, entropy
from modent.errors import CompositionMismatch, ModulusMismatch, NotMeasurePreserving, UnknownLabel
from modent.finprob import (
    FinProbSpace,
    compose_maps,
    conditional_defect,
    convex_combine_maps,
    identity_map,
    info_loss,
    info_loss_conditional,
    make_map,
    map_from_dict,
    map_to_dict,
    one_point_space,
    space_from_dict,
    space_to_dict,
    terminal_map,
)
from modent.modular import PrimeModulus, Residue
from oracles import random_mod_dist_values

P2 = PrimeModulus(2)
P3 = PrimeModulus(3)
P5 = PrimeModulus(5)

SEED = 77101


def four_to_two():
    dom = FinProbSpace(("a", "b", "c", "d"), ModDist(P3, (1, 1, 1, 1)))
    cod = FinProbSpace(("x", "y"), ModDist(P3, (2, 2)))
    return make_map(dom, cod, {"a": "x", "b": "x", "c": "y", "d": "y"})


def random_space(rng, p, size=None, prefix="y"):
    n = size or rng.randint(1, 5)
    values = random_mod_dist_values(rng, p.p, n)
    labels = tuple(f"{prefix}{i}" for i in range(n))
    return FinProbSpace(labels, ModDist(p, values))


def random_map(rng, p, domain=None):
    """A random measure-preserving map: pick any function, push the measure forward."""
    domain = domain or random_space(rng, p)
    m = rng.randint(1, len(domain.labels) + 1)
    cod_labels = tuple(f"x{i}" for i in range(m))
    mapping = {y: rng.choice(cod_labels) for y in domain.labels}
    sums = {x: 0 for x in cod_labels}
    for y in domain.labels:
        sums[mapping[y]] = (sums[mapping[y]] + domain.weight(y).value) % p.p
    codomain = FinProbSpace(cod_labels, ModDist(p, [sums[x] for x in cod_labels]))
    return make_map(domain, codomain, mapping)


def random_tame_map(rng, p):
    """A random map whose zero-weight codomain points carry only zero fibres.

    On this class the conditional form of the loss is exact.
    """
    codomain = random_space(rng, p, prefix="x")
    dom_labels, dom_values, mapping = [], [], {}
    for x in codomain.labels:
        pi_x = codomain.weight(x)
        k = rng.randint(1, 3) if pi_x.value else rng.randint(0, 2)
        if pi_x.value:
            gamma = random_mod_dist_values(rng, p.p, k)
        else:
            gamma = (0,) * k
        for j, g in enumerate(gamma):
            y = f"{x}.{j}"
            dom_labels.append(y)
            dom_values.append(pi_x * g if pi_x.value else 0)
            mapping[y] = x
    domain = FinProbSpace(tuple(dom_labels), ModDist(p, dom_values))
    return make_map(domain, codomain, mapping)


def test_space_validation():
    with pytest.raises(ValueError):
        FinProbSpace(("a", "a"), ModDist(P3, (2, 2)))
    with pytest.raises(ValueError):
        FinProbSpace(("a",), ModDist(P3, (2, 2)))
    s = FinProbSpace(("a", "b"), ModDist(P3, (2, 2)))
    with pytest.raises(UnknownLabel):
        s.weight("zz")


def test_make_map_examples():
    f = four_to_two()
    assert f("a") == "x" and f.fibre("y") == ("c", "d")
    s = FinProbSpace(("a", "b"), ModDist(P3, (2, 2)))
    assert identity_map(s).is_isomorphism()
    with pytest.raises(NotMeasurePreserving) as err:
        make_map(f.domain, f.codomain, {"a": "x", "b": "x", "c": "x", "d": "y"})
    assert err.value.label == "x"
    with pytest.raises(UnknownLabel):
        make_map(f.domain, f.codomain, {"a": "x", "b": "x", "c": "y"})
    with pytest.raises(UnknownLabel):
        make_map(f.domain, f.codomain, {"a": "x", "b": "x", "c": "y", "d": "w"})
    with pytest.raises(ModulusMismatch):
        make_map(f.domain, FinProbSpace(("x",), ModDist(P5, (1,))), {l: "x" for l in "abcd"})


def test_info_loss_examples():
    f = four_to_two()
    assert info_loss(f).value == 1
    assert info_loss_conditional(f).value == 1
    s = FinProbSpace(("a", "b"), ModDist(P3, (2, 2)))
    assert info_loss(identity_map(s)).value == 0
    t = terminal_map(f.domain)
    assert info_loss(t).value == 2
    assert info_loss(t) == entropy(f.domain.dist)
    assert info_loss(terminal_map(FinProbSpace(("a", "b"), ModDist(P5, (2, 4))))).value == 4


def test_isomorphisms_lose_nothing():
    rng = random.Random(SEED)
    for _ in range(50):
        p = PrimeModulus(rng.choice((2, 3, 5, 7)))
        s = random_space(rng, p)
        perm = list(s.labels)
        rng.shuffle(perm)
        target = FinProbSpace(
            tuple(f"t{i}" for i in range(len(perm))),
            ModDist(p, [s.weight(y) for y in perm]),
        )
        f = make_map(s, target, {y: f"t{perm.index(y)}" for y in s.labels})
        assert f.is_isomorphism()
        assert info_loss(f).value == 0
        # entropy itself is isomorphism-invariant
        assert entropy(s.dist) == entropy(target.dist)


def test_conditional_form_matches_difference_form():
    rng = random.Random(SEED + 1)
    for _ in range(150):
        p = PrimeModulus(rng.choice((2, 3, 5, 7)))
        f = random_tame_map(rng, p)
        assert conditional_defect(f).value == 0
        assert info_loss(f) == info_loss_conditional(f), f"seed={SEED + 1}"


def test_conditional_form_defect_on_cancelling_fibres():
    # Mod p, a fibre over a zero-weight point can hold nonzero weights that
    # cancel; the conditional sum skips it and undercounts the loss.
    dom = FinProbSpace(("a", "b", "c"), ModDist(P2, (1, 1, 1)))
    cod = FinProbSpace(("x0", "x1"), ModDist(P2, (1, 0)))
    f = make_map(dom, cod, {"a": "x0", "b": "x1", "c": "x1"})
    assert info_loss(f).value == 1
    assert info_loss_conditional(f).value == 0
    assert conditional_defect(f).value == 1


def test_conditional_form_with_defect_is_exact_on_general_maps():
    rng = random.Random(SEED + 9)
    hit_defect = 0
    for _ in range(300):
        p = PrimeModulus(rng.choice((2, 3, 5, 7)))
        f = random_map(rng, p)
        defect = conditional_defect(f)
        assert info_loss(f) == info_loss_conditional(f) + defect, f"seed={SEED + 9}"
        hit_defect += defect.value != 0
    assert hit_defect > 0  # the sample must exercise the cancelling-fibre case


def test_compose_maps_functorial():
    rng = random.Random(SEED + 2)
    for _ in range(100):
        p = PrimeModulus(rng.choice((2, 3, 5, 7)))
        f = random_map(rng, p)
        g = random_map(rng, p, domain=f.codomain)
        gf = compose_maps(g, f)
        assert info_loss(gf) == info_loss(g) + info_loss(f)
        assert compose_maps(f, identity_map(f.domain)) == f
        assert compose_maps(identity_map(f.codomain), f) == f
        # terminal o f = terminal, by uniqueness of the map to the point
        assert compose_maps(terminal_map(f.codomain), f) == terminal_map(f.domain)


def test_compose_maps_mismatch():
    f = four_to_two()
    with pytest.raises(CompositionMismatch):
        compose_maps(f, f)


def test_stacked_collapses_add_losses():
    # u_8 -> u_4 -> u_1 over p = 3 (mod 3: u_8 is all twos, u_4 all ones)
    top = FinProbSpace(tuple("abcdefgh"), ModDist(P3, (2,) * 8))
    mid = FinProbSpace(tuple("wxyz"), ModDist(P3, (1,) * 4))
    f = make_map(top, mid, dict(zip("abcdefgh", "wwxxyyzz")))
    g = terminal_map(mid)
    assert info_loss(compose_maps(g, f)) == info_loss(g) + info_loss(f)
    from modent.modular import fermat_quotient

    assert info_loss(compose_maps(g, f)) == fermat_quotient(8, P3)


def test_convex_combination_examples():
    f = four_to_two()
    single = convex_combine_maps(ModDist(P3, (1,)), (f,))
    assert info_loss(single) == info_loss(f)
    assert single.domain.labels == tuple(f"0/{y}" for y in "abcd")

    both = convex_combine_maps(ModDist(P3, (2, 2)), (f, f))
    assert info_loss(both) == 2 * info_loss(f) + 2 * info_loss(f)

    s = FinProbSpace(("a", "b"), ModDist(P3, (2, 2)))
    ids = convex_combine_maps(ModDist(P3, (2, 2)), (identity_map(s), identity_map(s)))
    assert ids.is_isomorphism()
    assert info_loss(ids).value == 0


def test_convex_combination_keeps_int_and_str_labels_apart():
    # 1 and "1" are distinct labels; combined they must stay distinct
    s = FinProbSpace((1, "1"), ModDist(P3, (2, 2)))
    t = FinProbSpace(("x",), ModDist(P3, (1,)))
    f = make_map(s, t, {1: "x", "1": "x"})
    combined = convex_combine_maps(ModDist(P3, (2, 2)), (f, identity_map(s)))
    assert combined.domain.labels == ((0, 1), "0/1", (1, 1), "1/1")
    assert combined.codomain.labels == ("0/x", (1, 1), "1/1")
    assert combined.mapping[(0, 1)] == "0/x" and combined.mapping[(1, 1)] == (1, 1)
    assert info_loss(combined) == 2 * info_loss(f)


def test_convex_combination_affine_random():
    rng = random.Random(SEED + 3)
    for _ in range(80):
        p = PrimeModulus(rng.choice((2, 3, 5, 7)))
        k = rng.randint(1, 4)
        weights = ModDist(p, random_mod_dist_values(rng, p.p, k))
        maps = [random_map(rng, p) for _ in range(k)]
        combined = convex_combine_maps(weights, maps)
        expected = Residue(0, p)
        for w, f in zip(weights.probs, maps):
            expected = expected + w * info_loss(f)
        assert info_loss(combined) == expected, f"seed={SEED + 3}"


def test_convex_combination_errors():
    f = four_to_two()
    with pytest.raises(ValueError):
        convex_combine_maps(ModDist(P3, (1,)), (f, f))
    g = make_map(
        FinProbSpace(("a",), ModDist(P5, (1,))),
        FinProbSpace(("x",), ModDist(P5, (1,))),
        {"a": "x"},
    )
    with pytest.raises(ModulusMismatch):
        convex_combine_maps(ModDist(P3, (2, 2)), (f, g))


def test_loss_depends_only_on_domain_and_codomain():
    rng = random.Random(SEED + 4)
    for _ in range(80):
        p = PrimeModulus(rng.choice((2, 3, 5, 7)))
        f = random_map(rng, p)
        # a second map with the same domain and codomain distributions
        relabel = list(f.domain.labels)
        rng.shuffle(relabel)
        sigma = {y: t for y, t in zip(relabel, f.domain.labels)}
        if any(f.domain.weight(y) != f.domain.weight(sigma[y]) for y in f.domain.labels):
            continue  # the shuffle must preserve weights to stay measure-preserving
        f2 = make_map(f.domain, f.codomain, {y: f.mapping[sigma[y]] for y in f.domain.labels})
        assert info_loss(f2) == info_loss(f)


def test_terminal_of_point_is_isomorphism():
    pt = one_point_space(P3)
    t = terminal_map(pt)
    assert t.is_isomorphism()
    assert info_loss(t).value == 0


def test_json_round_trip_is_bit_exact():
    f = four_to_two()
    d = map_to_dict(f)
    assert d == {
        "domain": {"p": 3, "labels": ["a", "b", "c", "d"], "probs": [1, 1, 1, 1]},
        "codomain": {"p": 3, "labels": ["x", "y"], "probs": [2, 2]},
        "mapping": {"a": "x", "b": "x", "c": "y", "d": "y"},
    }
    assert map_from_dict(d) == f
    text = json.dumps(d)
    assert map_from_dict(json.loads(text)) == f
    assert json.dumps(map_to_dict(map_from_dict(json.loads(text)))) == text

    s = f.domain
    assert space_from_dict(space_to_dict(s)) == s
    rng = random.Random(SEED + 5)
    for _ in range(30):
        p = PrimeModulus(rng.choice((2, 3, 5, 7)))
        g = random_map(rng, p)
        blob = json.dumps(map_to_dict(g))
        assert map_from_dict(json.loads(blob)) == g
        assert json.dumps(map_to_dict(map_from_dict(json.loads(blob)))) == blob
