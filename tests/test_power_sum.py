"""Long inputs: the power sum from one Fermat quotient, against one pow per entry.

An input with len(reps) * p.bit_length() >= PRODUCT_PATH_BITS takes its
power sum sum a^p mod p² from one product of powers; a shorter one takes
one pow per entry.  The oracle in oracles.py always takes one pow per
entry, so every draw below checks both paths against code they do not
share.
"""

import random
from fractions import Fraction
from itertools import count

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from modent.distributions import (
    PRODUCT_PATH_BITS,
    ModDist,
    _measure_entropy,
    _power_sum,
    compose,
    entropy,
    entropy_of_representatives,
    measure_entropy_of_representatives,
    pad_zeros,
    tensor,
    uniform,
)
from modent.finprob import FinProbSpace, convex_combine_maps, info_loss, make_map, terminal_map
from modent.modular import PrimeModulus, is_prime
from modent.residue import RationalDist, reduce_mod
from oracles import measure_entropy_by_pow, power_sum_by_pow, random_mod_dist_values

BIG_PRIME = next(n for n in count(2**80 + 1, 2) if is_prime(n))  # below is_prime's 3.3e24 limit
PRIMES = (2, 3, 7, 10007, 10**6 + 3, 10**9 + 7, 2**61 - 1, BIG_PRIME)
MAX_LEN = 2000
SEED = 20261020
M61 = PrimeModulus(2**61 - 1)


@st.composite
def long_inputs(draw):
    """(p, reps): a length near p's crossover or anywhere up to MAX_LEN.

    Entries mix draws from a small pool, so that values repeat, with
    zeros, multiples of p, negative values and values of p² and above.
    """
    p = draw(st.sampled_from(PRIMES))
    crossover = -(-PRODUCT_PATH_BITS // p.bit_length())
    n = draw(st.one_of(st.integers(max(0, crossover - 3), crossover + 3), st.integers(0, MAX_LEN)))
    rng = draw(st.randoms(use_true_random=False))
    pool = [0, p, -p, p * p + 1, -2 * p * p - 1] + [rng.randrange(p) for _ in range(4)]
    pool += [rng.randrange(-3 * p * p, 3 * p * p) for _ in range(3)]
    reps = [rng.choice(pool) if rng.random() < 0.6 else rng.randrange(-3 * p * p, 3 * p * p) for _ in range(n)]
    return p, reps


@seed(SEED)
@settings(max_examples=150, deadline=None)
@given(long_inputs())
def test_power_sum_and_entropy_of_representatives_match_one_pow_per_entry(case):
    p, reps = case
    m = PrimeModulus(p)
    assert _power_sum(reps, p, p * p) % (p * p) == power_sum_by_pow(reps, p)
    expected = measure_entropy_by_pow(reps, p)
    assert _measure_entropy(reps, p) == expected
    assert measure_entropy_of_representatives(reps, m).value == expected
    dist = reps + [1 - sum(reps)]  # a representative of any size, summing to 1
    assert entropy_of_representatives(dist, m).value == measure_entropy_by_pow(dist, p)


def _dist(n, seed):
    return ModDist(M61, random_mod_dist_values(random.Random(seed), M61.p, n))


def test_entropy_of_ten_thousand_entries_at_a_61_bit_prime():
    d = _dist(10**4, SEED)
    assert entropy(d).value == measure_entropy_by_pow(d.values(), M61.p)


def test_info_loss_of_ten_thousand_points_at_a_61_bit_prime():
    rng = random.Random(SEED + 1)
    domain = FinProbSpace(range(10**4), _dist(10**4, SEED + 2))
    fibre_of = [rng.randrange(100) for _ in range(10**4)]
    weights = [0] * 100
    for x, w in zip(fibre_of, domain.dist.values()):
        weights[x] = (weights[x] + w) % M61.p
    codomain = FinProbSpace(range(100), ModDist(M61, weights))
    f = make_map(domain, codomain, dict(enumerate(fibre_of)))
    expected = measure_entropy_by_pow(domain.dist.values(), M61.p) - measure_entropy_by_pow(weights, M61.p)
    assert info_loss(f).value == expected % M61.p


def test_tensor_additivity_on_ten_thousand_entries_at_a_61_bit_prime():
    a, b = _dist(100, SEED + 3), _dist(100, SEED + 4)
    product = tensor(a, b)
    assert len(product) == 10**4
    assert entropy(product) == entropy(a) + entropy(b)
    assert entropy(product).value == measure_entropy_by_pow(product.values(), M61.p)


CONSTRUCTORS = ("ModDist", "compose", "tensor", "uniform", "pad_zeros", "reduce_mod", "convex_combine_maps")


def _cut(rng, n, k):
    """k positive lengths summing to n >= k."""
    cuts = sorted(rng.sample(range(1, n), k - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [n])]


@st.composite
def dists_from_every_constructor(draw):
    """(p, a ModDist of about n entries) from one constructor; all but ModDist skip the sum check.

    n falls near p's crossover or anywhere up to twice it, so that both
    power-sum paths run.
    """
    p = draw(st.sampled_from((2, 3, 7, 10007, 2**61 - 1)))
    m = PrimeModulus(p)
    crossover = -(-PRODUCT_PATH_BITS // p.bit_length())
    n = draw(st.one_of(st.integers(max(1, crossover - 3), crossover + 3), st.integers(1, 2 * crossover)))
    kind = draw(st.sampled_from(CONSTRUCTORS))
    rng = draw(st.randoms(use_true_random=False))

    def dist(k):
        return ModDist(m, random_mod_dist_values(rng, p, k))

    k = rng.randint(1, min(n, 4))
    if kind == "ModDist":
        return p, dist(n)
    if kind == "compose":
        return p, compose(dist(k), [dist(length) for length in _cut(rng, n, k)])
    if kind == "tensor":
        return p, tensor(dist(k), dist(-(-n // k)))
    if kind == "uniform":
        return p, uniform(n + (n % p == 0), m)
    if kind == "pad_zeros":
        d = dist(k)
        return p, pad_zeros(d, rng.randint(0, k), n - k)
    if kind == "reduce_mod":
        weights = [rng.randint(1, 100) for _ in range(n)]
        weights[-1] += sum(weights) % p == 0  # a total coprime to p
        return p, reduce_mod(RationalDist([Fraction(w, sum(weights)) for w in weights]), m)
    spaces = [FinProbSpace(range(length), dist(length)) for length in _cut(rng, n, k)]
    return p, convex_combine_maps(dist(k), [terminal_map(s) for s in spaces]).domain.dist


@seed(SEED)
@settings(max_examples=200, deadline=None)
@given(dists_from_every_constructor())
def test_entropy_of_a_dist_from_any_constructor_matches_one_pow_per_entry(case):
    # entropy takes (sum a)^p = 1 mod p² on trust; the oracle computes it
    p, d = case
    assert sum(d.values()) % p == 1
    assert entropy(d).value == measure_entropy_by_pow(d.values(), p)
