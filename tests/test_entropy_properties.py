"""Property tests for H_p, composition and information loss.

Every expected value comes from the big-integer oracles in oracles.py,
which evaluate (1 - sum a^p)/p with exact integers and share no code with
the library.
"""

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from modent.distributions import (
    ModDist,
    compose,
    entropy,
    entropy_of_representatives,
    tensor,
)
from modent.errors import NotMeasurePreserving
from modent.finprob import (
    FinProbSpace,
    compose_maps,
    conditional_defect,
    convex_combine_maps,
    info_loss,
    info_loss_conditional,
    make_map,
)
from modent.modular import PrimeModulus
from oracles import entropy_big, measure_entropy_big

PRIMES = (2, 3, 5, 7, 13, 101)
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)
SEED = 20261019


@st.composite
def dist_values(draw, p, min_len=1, max_len=5):
    """A list of ints in [0, p) summing to 1 mod p."""
    head = draw(st.lists(st.integers(0, p - 1), min_size=min_len - 1, max_size=max_len - 1))
    return head + [(1 - sum(head)) % p]


@st.composite
def cancelling_maps(draw):
    """(p, domain weights, fibre of each domain point, codomain weights).

    Every fibre has two or three points.  The weights over codomain point 1
    sum to 0 mod p, so it has weight 0 but a fibre that need not be all
    zeros; the points after it are cancelled at random.  Point 0 absorbs
    the correction that makes the domain weights sum to 1.
    """
    p = draw(st.sampled_from(PRIMES))
    m = draw(st.integers(2, 5))
    weights, fibre_of = [], []
    for x in range(m):
        fibre = draw(st.lists(st.integers(0, p - 1), min_size=2, max_size=3))
        if x == 1 or (x > 1 and draw(st.booleans())):
            fibre[-1] = -sum(fibre[:-1]) % p
        weights += fibre
        fibre_of += [x] * len(fibre)
    weights[0] = (weights[0] + 1 - sum(weights)) % p
    codomain = [sum(w for w, x in zip(weights, fibre_of) if x == c) % p for c in range(m)]
    return p, weights, fibre_of, codomain


def build_map(p, weights, fibre_of, codomain):
    domain = FinProbSpace([f"y{i}" for i in range(len(weights))], ModDist(p, weights))
    target = FinProbSpace([f"x{c}" for c in range(len(codomain))], ModDist(p, codomain))
    return make_map(domain, target, {f"y{i}": f"x{c}" for i, c in enumerate(fibre_of)})


@PROPERTY_SETTINGS
@given(st.data())
def test_entropy_is_independent_of_representatives(data):
    pp = data.draw(st.sampled_from(PRIMES))
    p = PrimeModulus(pp)
    values = data.draw(dist_values(pp))
    n = len(values)
    shifts = data.draw(st.lists(st.integers(-(10**6), 10**6), min_size=n, max_size=n))
    reps = [v + k * pp for v, k in zip(values, shifts)]
    expected = entropy_big(values, pp)
    assert entropy_big(reps, pp) == expected
    assert entropy(ModDist(p, reps)).value == expected
    assert ModDist(p, reps) == ModDist(p, values)
    assert entropy_of_representatives(reps, p).value == expected


@PROPERTY_SETTINGS
@given(st.data())
def test_chain_rule_and_tensor_additivity(data):
    pp = data.draw(st.sampled_from(PRIMES))
    p = PrimeModulus(pp)
    outer = data.draw(dist_values(pp, max_len=4))
    inners = [data.draw(dist_values(pp, max_len=4)) for _ in outer]
    composite = compose(ModDist(p, outer), [ModDist(p, g) for g in inners])
    flat = [pi * y % pp for pi, g in zip(outer, inners) for y in g]
    assert composite.values() == tuple(flat)
    chain = entropy_big(outer, pp) + sum(pi * entropy_big(g, pp) for pi, g in zip(outer, inners))
    assert entropy(composite).value == entropy_big(flat, pp) == chain % pp

    a, b = outer, inners[0]
    product = tensor(ModDist(p, a), ModDist(p, b))
    assert product.values() == tuple(x * y % pp for x in a for y in b)
    assert entropy(product).value == (entropy_big(a, pp) + entropy_big(b, pp)) % pp


@PROPERTY_SETTINGS
@given(cancelling_maps())
def test_conditional_loss_plus_defect_is_the_loss(case):
    pp, weights, fibre_of, codomain = case
    f = build_map(PrimeModulus(pp), weights, fibre_of, codomain)
    loss = (entropy_big(weights, pp) - entropy_big(codomain, pp)) % pp
    defect = sum(
        measure_entropy_big([w for w, x in zip(weights, fibre_of) if x == c], pp)
        for c, pi_c in enumerate(codomain)
        if pi_c == 0
    ) % pp
    assert info_loss(f).value == loss
    assert conditional_defect(f).value == defect
    assert info_loss_conditional(f).value == (loss - defect) % pp


@PROPERTY_SETTINGS
@given(cancelling_maps(), st.data())
def test_make_map_rejects_maps_that_are_not_measure_preserving(case, data):
    pp, weights, fibre_of, codomain = case
    # move weight delta from codomain point j to point i: still a distribution,
    # but the fibres over i and j no longer sum to their targets
    i, j = data.draw(st.permutations(range(len(codomain))))[:2]
    delta = data.draw(st.integers(1, pp - 1))
    moved = list(codomain)
    moved[i] = (moved[i] + delta) % pp
    moved[j] = (moved[j] - delta) % pp
    with pytest.raises(NotMeasurePreserving) as err:
        build_map(PrimeModulus(pp), weights, fibre_of, moved)
    first = min(i, j)
    assert (err.value.label, err.value.expected, err.value.actual) == (
        f"x{first}",
        moved[first],
        codomain[first],
    )


@st.composite
def refinement(draw, p, weights):
    """(finer weights, fibre_of): one to three finer weights over each weight, summing to it mod p."""
    finer, fibre_of = [], []
    for x, w in enumerate(weights):
        head = draw(st.lists(st.integers(0, p - 1), max_size=2))
        finer += head + [(w - sum(head)) % p]
        fibre_of += [x] * (len(head) + 1)
    return finer, fibre_of


def space(p, prefix, weights):
    return FinProbSpace([f"{prefix}{i}" for i in range(len(weights))], ModDist(p, weights))


def fibre_map(domain, codomain, fibre_of):
    return make_map(domain, codomain, {y: codomain.labels[c] for y, c in zip(domain.labels, fibre_of)})


@seed(SEED)
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_info_loss_is_functorial(data):
    # X -> Y -> Z, each fibre of one to three points, zero weights included
    pp = data.draw(st.sampled_from(PRIMES))
    p = PrimeModulus(pp)
    z = data.draw(dist_values(pp, max_len=3))
    y, y_to_z = data.draw(refinement(pp, z))
    x, x_to_y = data.draw(refinement(pp, y))
    sx, sy, sz = space(p, "x", x), space(p, "y", y), space(p, "z", z)
    f, g = fibre_map(sx, sy, x_to_y), fibre_map(sy, sz, y_to_z)
    loss = info_loss(compose_maps(g, f)).value
    assert loss == (info_loss(f).value + info_loss(g).value) % pp
    assert loss == (entropy_big(x, pp) - entropy_big(z, pp)) % pp


@seed(SEED + 1)
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_info_loss_is_convex_linear(data):
    pp = data.draw(st.sampled_from(PRIMES))
    p = PrimeModulus(pp)
    weights = data.draw(dist_values(pp, max_len=3))
    maps, losses = [], []
    for _ in weights:
        target = data.draw(dist_values(pp, max_len=3))
        source, fibre_of = data.draw(refinement(pp, target))
        maps.append(fibre_map(space(p, "y", source), space(p, "x", target), fibre_of))
        losses.append(entropy_big(source, pp) - entropy_big(target, pp))
    loss = info_loss(convex_combine_maps(ModDist(p, weights), maps)).value
    assert loss == sum(w * info_loss(f).value for w, f in zip(weights, maps)) % pp
    assert loss == sum(w * v for w, v in zip(weights, losses)) % pp
