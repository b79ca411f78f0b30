"""`exhaustive`: the bulk layers called many times on tiny inputs.

This is how the paper's laws are checked: chain-rule sweeps over Pi_n,
functoriality and convexity of the loss on small maps, residue laws on
small rational distributions, and the exhaustive Fermat-quotient
verifiers.  Fixed per-call costs (Residue boxing, validation,
PrimeModulus) dominate, so a change that speeds up large inputs by adding
per-call set-up shows here as a loss.  This is the only workload that runs
the `modular` verifiers.
"""

from itertools import product

import oracle

WHY = "tiny inputs called many times: fixed per-call costs dominate; the only caller of the modular verifiers"

FQ_LAW_PRIMES = (2, 3, 5, 7, 11, 13, 17)
HOM_PRIMES = (2, 3, 5, 7, 11, 13)
FQ_VALUE_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 97)
FQ_VALUES_PER_JOB = 100
SWEEP_PRIMES = (2, 3, 5, 7)
SWEEP_ARITY = 6
SWEEP_CAP = 12  # instances per sweep job; smaller shapes are swept completely
LAW_PRIMES = (3, 5, 7, 11)
LAW_JOBS = 10  # jobs per round of each of the small-map and law kinds
RESIDUE_PRIMES = (101, 103, 107, 109, 113)  # larger than any denominator used


def sweep_instances(rng, p, n, ks):
    """Every (pi, gammas) of the shape, or SWEEP_CAP random ones when there are more."""
    if p ** (sum(ks) - 1) <= SWEEP_CAP:
        return [
            (pi, gammas)
            for pi in oracle.all_dists(p, n)
            for gammas in product(*(oracle.all_dists(p, k) for k in ks))
        ]
    return [
        (oracle.random_dist(rng, p, n), [oracle.random_dist(rng, p, k) for k in ks])
        for _ in range(SWEEP_CAP)
    ]


def onto(rng, n, m):
    """A random surjection from range(n) onto range(m), as a list."""
    mapping = list(range(m)) + [rng.randrange(m) for _ in range(n - m)]
    rng.shuffle(mapping)
    return mapping


def small_map(rng, p, n, m):
    """(domain weights, index map, codomain weights) of a random map n -> m."""
    weights = oracle.random_dist(rng, p, n)
    mapping = onto(rng, n, m)
    return weights, mapping, oracle.push_forward(weights, mapping, m, p)


def small_rational(rng, n_max=5, top=12):
    return oracle.fractions([rng.randint(1, top) for _ in range(rng.randint(1, n_max))])


def make_round(rng, out_dir):
    jobs = [("fq_laws", {"p": p}) for p in FQ_LAW_PRIMES]
    jobs += [("hom_uniqueness", {"p": p}) for p in HOM_PRIMES]
    for p in FQ_VALUE_PRIMES:
        ints = [rng.randrange(1, 10**6) for _ in range(FQ_VALUES_PER_JOB)]
        jobs.append(("fq_values", {"p": p, "ints": [a for a in ints if a % p]}))
    for p in SWEEP_PRIMES:
        for total in range(1, SWEEP_ARITY + 1):
            for n, ks in oracle.block_shapes(total):
                jobs.append(("chain_sweep", {"p": p, "instances": sweep_instances(rng, p, n, ks)}))
    for _ in range(LAW_JOBS):
        p = rng.choice(LAW_PRIMES)
        x, f, y = small_map(rng, p, 6, 4)
        g = onto(rng, 4, 2)
        z = oracle.push_forward(y, g, 2, p)
        jobs.append(("functoriality", {"p": p, "x": x, "f": f, "y": y, "g": g, "z": z}))

        p = rng.choice(LAW_PRIMES)
        k = rng.randint(2, 3)
        maps = [small_map(rng, p, rng.randint(2, 5), rng.randint(1, 2)) for _ in range(k)]
        jobs.append(("convexity", {"p": p, "lam": oracle.random_dist(rng, p, k), "maps": maps}))

        a = small_rational(rng)
        perm = list(a)
        rng.shuffle(perm)
        jobs.append(("residue_laws", {
            "p": rng.choice(RESIDUE_PRIMES), "a": a, "perm": perm, "b": small_rational(rng),
        }))

        p = rng.choice(LAW_PRIMES)
        n = rng.choice([k for k in range(1, 40) if k % p])
        jobs.append(("uniform_pad", {"p": p, "n": n, "pos": rng.randint(0, n), "count": rng.randint(0, 5)}))

        p = rng.choice(LAW_PRIMES)
        jobs.append(("measure", {"p": p, "weights": [rng.randrange(p) for _ in range(rng.randint(0, 8))]}))
    rng.shuffle(jobs)
    return jobs


# --- jobs: run(api, payload) is timed, check(payload, out) is not -----------


def fq_law_checks(p):
    """1 + u^2 + u*p + u assertions over the u = p^2 - p units in [1, p^2]."""
    u = p * p - p
    return 1 + u * u + u * p + u


def hom_checks(p):
    """u^2 + 1 for fq, then u^2 + u for each of the p candidate homomorphisms."""
    u = p * p - p
    return u * u + 1 + p * (u * u + u)


def run_fq_laws(api, x):
    report = api.verify_fq_laws(api.PrimeModulus(x["p"]))
    return report.passed, report.checks


def check_fq_laws(x, out):
    return out == (True, fq_law_checks(x["p"]))


def run_hom_uniqueness(api, x):
    r = api.verify_hom_uniqueness(api.PrimeModulus(x["p"]))
    return r.passed, r.checks, r.data["homomorphisms"], r.data["generator"]


def check_hom_uniqueness(x, out):
    p = x["p"]
    passed, checks, homs, generator = out
    return (passed, checks, homs) == (True, hom_checks(p), p) and oracle.unit_order(
        generator, p * p
    ) == p * (p - 1)


def run_fq_values(api, x):
    p = api.PrimeModulus(x["p"])
    return (
        [api.fermat_quotient(a, p).value for a in x["ints"]],
        [api.p_derivation(a, p).value for a in x["ints"]],
    )


def check_fq_values(x, out):
    p = x["p"]
    return out == (
        [oracle.fermat_quotient(a, p) for a in x["ints"]],
        [oracle.p_derivation(a, p) for a in x["ints"]],
    )


def run_chain_sweep(api, x):
    p = api.PrimeModulus(x["p"])
    out = []
    for pi, gammas in x["instances"]:
        outer = api.ModDist(p, pi)
        inners = [api.ModDist(p, g) for g in gammas]
        out.append((
            api.entropy(api.compose(outer, inners)).value,
            api.entropy(outer).value,
            [api.entropy(g).value for g in inners],
        ))
    return out


def check_chain_sweep(x, out):
    p = x["p"]
    for (pi, gammas), (h_comp, h_outer, h_inners) in zip(x["instances"], out, strict=True):
        expected = (
            oracle.entropy(oracle.compose(pi, gammas, p), p),
            oracle.entropy(pi, p),
            [oracle.entropy(g, p) for g in gammas],
        )
        if (h_comp, h_outer, h_inners) != expected:
            return False
        if not oracle.chain_rule_holds(p, h_comp, h_outer, pi, h_inners):
            return False
    return True


def _space(api, p, prefix, weights):
    return api.FinProbSpace([f"{prefix}{i}" for i in range(len(weights))], api.ModDist(p, weights))


def _map(api, p, weights, mapping, codomain):
    domain = _space(api, p, "a", weights)
    target = _space(api, p, "b", codomain)
    return api.make_map(domain, target, {f"a{i}": f"b{x}" for i, x in enumerate(mapping)})


def run_functoriality(api, x):
    p = api.PrimeModulus(x["p"])
    spaces = [_space(api, p, prefix, x[key]) for prefix, key in (("a", "x"), ("b", "y"), ("c", "z"))]
    f = api.make_map(spaces[0], spaces[1], {f"a{i}": f"b{j}" for i, j in enumerate(x["f"])})
    g = api.make_map(spaces[1], spaces[2], {f"b{i}": f"c{j}" for i, j in enumerate(x["g"])})
    return (
        api.info_loss(f).value,
        api.info_loss(g).value,
        api.info_loss(api.compose_maps(g, f)).value,
    )


def _loss(weights, codomain, p):
    return (oracle.entropy(weights, p) - oracle.entropy(codomain, p)) % p


def check_functoriality(x, out):
    p = x["p"]
    lf, lg = _loss(x["x"], x["y"], p), _loss(x["y"], x["z"], p)
    return out == (lf, lg, (lf + lg) % p)


def run_convexity(api, x):
    p = api.PrimeModulus(x["p"])
    maps = [_map(api, p, *m) for m in x["maps"]]
    combined = api.convex_combine_maps(api.ModDist(p, x["lam"]), maps)
    return api.info_loss(combined).value, [api.info_loss(f).value for f in maps]


def check_convexity(x, out):
    p = x["p"]
    losses = [_loss(w, c, p) for w, _, c in x["maps"]]
    return out == (sum(a * b for a, b in zip(x["lam"], losses)) % p, losses)


def run_residue_laws(api, x):
    p = api.PrimeModulus(x["p"])
    a = api.RationalDist(x["a"])
    well = api.check_residue_well_defined(a, api.RationalDist(x["perm"]), p)
    additive = api.residue_additive(a, api.RationalDist(x["b"]), p)
    return (
        well.passed,
        well.data["vacuous"],
        well.data["residue_a"],
        additive.passed,
        additive.data["tensor"],
    )


def check_residue_laws(x, out):
    p = x["p"]
    ha = oracle.entropy(oracle.reduce_fractions(x["a"], p), p)
    hb = oracle.entropy(oracle.reduce_fractions(x["b"], p), p)
    return out == (True, False, ha, True, (ha + hb) % p)


def run_uniform_pad(api, x):
    p = api.PrimeModulus(x["p"])
    u = api.uniform(x["n"], p)
    padded = api.pad_zeros(u, x["pos"], x["count"])
    return api.entropy(u).value, api.entropy(padded).value, len(padded)


def check_uniform_pad(x, out):
    # H(u_n) is the Fermat quotient of n, and zero entries change nothing
    h = oracle.fermat_quotient(x["n"], x["p"])
    return out == (h, h, x["n"] + x["count"])


def run_measure(api, x):
    return api.entropy_measure(api.ModMeasure(api.PrimeModulus(x["p"]), x["weights"])).value


def check_measure(x, out):
    return out == oracle.measure_entropy(x["weights"], x["p"])


JOBS = {
    kind: (globals()[f"run_{kind}"], globals()[f"check_{kind}"])
    for kind in (
        "fq_laws", "hom_uniqueness", "fq_values", "chain_sweep", "functoriality",
        "convexity", "residue_laws", "uniform_pad", "measure",
    )
}
