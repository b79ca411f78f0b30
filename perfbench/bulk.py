"""`bulk`: large inputs, each built once and evaluated once.

distributions, finprob and residue do nearly all the work.  Entropy runs
in both regimes, p much larger than n and n much larger than p, so a
count-based entropy should gain on one side and not the other.  The
quadratic make_map and the big-integer real_entropy_equal set the p90.
"""

import json

import oracle

WHY = "large inputs built and evaluated once: distributions, finprob and residue dominate"

P9 = 1_000_000_007
M61 = 2**61 - 1
# Every table row ends with the number of copies per round, each with its
# own random data.  A round holds 100 jobs: a few large ones that set the
# p90 and many mid-sized ones around the median.
ENTROPY = [  # (p, n): ModDist construction plus entropy, n >> p and p >> n
    (3, 100_000, 1), (7, 50_000, 1), (5, 30_000, 1),
    (3, 10_000, 4), (5, 10_000, 4), (7, 10_000, 4),
    (3, 3_000, 10), (5, 3_000, 10), (7, 3_000, 10),
    (P9, 10_000, 2), (P9, 3_000, 4),
    (M61, 10_000, 1), (M61, 3_000, 1), (M61, 1_000, 4),
]
TENSOR_P = 1_000_003
TENSOR = [(200, 100, 1), (100, 100, 1), (50, 50, 4)]  # entries of the two factors
COMPOSE = [(100, 5, 3), (20, 25, 3)]  # outer entries, entries of each inner
MAP_P = 10_007
MAPS = [(2000, 1), (1000, 1), (500, 2), (250, 4), (100, 4)]  # domain points
RATIONAL = [(300, 300, 1), (150, 200, 1), (100, 100, 2), (50, 100, 4)]  # entries, largest weight
CLI_ENTROPY = [(100_000, 1), (10_000, 2)]  # entries of the `entropy` argument
CLI_LOSS = [(1000, 1), (250, 2)]  # domain points of the `loss` file
CLI_RESIDUE = [(50, 4)]  # fractions of the `residue` arguments


def random_map(rng, p, n):
    """A measure-preserving map with zero-weight points whose fibres cancel.

    Returns (domain weights, codomain index per domain point, codomain
    weights).  Some codomain points get fibres of nonzero weights summing
    to 0 mod p, so info_loss_conditional alone misses part of the loss.
    """
    size = n // 4
    while True:
        mapping = [y % size for y in range(n)]
        rng.shuffle(mapping)
        weights = [rng.randrange(1, p) for _ in range(n)]
        fibres = {}
        for y, x in enumerate(mapping):
            fibres.setdefault(x, []).append(y)
        cancelled = set(rng.sample(range(size), max(1, size // 20)))
        for x in cancelled:
            *rest, last = fibres[x]
            weights[last] = -sum(weights[y] for y in rest) % p
        free = next(y for y in range(n) if mapping[y] not in cancelled)
        weights[free] = (weights[free] + 1 - sum(weights)) % p
        codomain = oracle.push_forward(weights, mapping, size, p)
        if all(weights) and oracle.fibre_defect(weights, mapping, codomain, p):
            return weights, mapping, codomain


def map_payload(rng, p, n):
    weights, mapping, codomain = random_map(rng, p, n)
    labels = [f"y{i}" for i in range(n)]
    clabels = [f"x{i}" for i in range(len(codomain))]
    return {
        "p": p,
        "dom": weights,
        "cod": codomain,
        "index_map": mapping,
        "labels": labels,
        "clabels": clabels,
        "mapping": {y: clabels[x] for y, x in zip(labels, mapping)},
    }


def rational_payload(rng, n, top):
    weights = [rng.randint(1, top) for _ in range(n)]
    perm = weights[:]
    rng.shuffle(perm)
    # move one unit of weight from the smallest entry to the largest: a
    # nearby distribution with strictly smaller real entropy
    order = sorted(range(n), key=weights.__getitem__)
    pert = weights[:]
    pert[order[0]] -= 1
    pert[order[-1]] += 1
    return {
        "p": P9,
        "weights": weights,
        "pert_weights": pert,
        "a": oracle.fractions(weights),
        "perm": oracle.fractions(perm),
        "pert": oracle.fractions(pert),
    }


def make_round(rng, out_dir):
    jobs = []
    for p, n, copies in ENTROPY:
        jobs += [("entropy", {"p": p, "values": oracle.random_dist(rng, p, n)}) for _ in range(copies)]
    for na, nb, copies in TENSOR:
        jobs += [("tensor", {
            "p": TENSOR_P,
            "a": oracle.random_dist(rng, TENSOR_P, na),
            "b": oracle.random_dist(rng, TENSOR_P, nb),
        }) for _ in range(copies)]
    for n, k, copies in COMPOSE:
        jobs += [("compose", {
            "p": TENSOR_P,
            "outer": oracle.random_dist(rng, TENSOR_P, n),
            "inners": [oracle.random_dist(rng, TENSOR_P, k) for _ in range(n)],
        }) for _ in range(copies)]
    for n, copies in MAPS:
        jobs += [("map", map_payload(rng, MAP_P, n)) for _ in range(copies)]
    for n, top, copies in RATIONAL:
        jobs += [("rational", rational_payload(rng, n, top)) for _ in range(copies)]

    for n, copies in CLI_ENTROPY:
        for _ in range(copies):
            values = oracle.random_dist(rng, 3, n)
            jobs.append(("cli_entropy", {"p": 3, "values": values, "text": "3:" + ",".join(map(str, values))}))
    out_dir.mkdir(parents=True, exist_ok=True)
    for n, copies in CLI_LOSS:
        for _ in range(copies):
            loss = map_payload(rng, MAP_P, n)
            path = out_dir / f"loss-{len(jobs)}.json"
            path.write_text(json.dumps({
                "domain": {"p": MAP_P, "labels": loss["labels"], "probs": loss["dom"]},
                "codomain": {"p": MAP_P, "labels": loss["clabels"], "probs": loss["cod"]},
                "mapping": loss["mapping"],
            }), encoding="utf-8")
            jobs.append(("cli_loss", dict(loss, path=str(path))))
    for n, copies in CLI_RESIDUE:
        for _ in range(copies):
            weights = [rng.randint(1, 50) for _ in range(n)]
            tokens = [str(q) for q in oracle.fractions(weights)]
            jobs.append(("cli_residue", {"p": P9, "weights": weights, "tokens": tokens}))
    a, p = rng.randrange(1, 10**6), rng.choice([101, 1009, 10007])
    jobs.append(("cli_subprocess_fq", {"p": p, "a": a + (a % p == 0)}))
    jobs.append(("cli_subprocess_entropy", {"p": 1009, "values": oracle.random_dist(rng, 1009, 50)}))
    rng.shuffle(jobs)
    return jobs


# --- jobs: run(api, payload) is timed, check(payload, out) is not -----------


def run_entropy(api, x):
    return api.entropy(api.ModDist(api.PrimeModulus(x["p"]), x["values"])).value


def check_entropy(x, out):
    return out == oracle.entropy(x["values"], x["p"])


def run_tensor(api, x):
    p = api.PrimeModulus(x["p"])
    t = api.tensor(api.ModDist(p, x["a"]), api.ModDist(p, x["b"]))
    return len(t), api.entropy(t).value


def check_tensor(x, out):
    p = x["p"]
    additive = (oracle.entropy(x["a"], p) + oracle.entropy(x["b"], p)) % p
    return out == (len(x["a"]) * len(x["b"]), additive)


def run_compose(api, x):
    p = api.PrimeModulus(x["p"])
    outer = api.ModDist(p, x["outer"])
    inners = [api.ModDist(p, g) for g in x["inners"]]
    return api.entropy(api.compose(outer, inners)).value


def check_compose(x, out):
    p = x["p"]
    h_inners = [oracle.entropy(g, p) for g in x["inners"]]
    return oracle.chain_rule_holds(p, out, oracle.entropy(x["outer"], p), x["outer"], h_inners)


def run_map(api, x):
    p = api.PrimeModulus(x["p"])
    domain = api.FinProbSpace(x["labels"], api.ModDist(p, x["dom"]))
    codomain = api.FinProbSpace(x["clabels"], api.ModDist(p, x["cod"]))
    f = api.make_map(domain, codomain, x["mapping"])
    return (
        api.info_loss(f).value,
        api.info_loss_conditional(f).value,
        api.conditional_defect(f).value,
    )


def expected_losses(x):
    """(L, L_cond, defect) from the reference entropy."""
    p = x["p"]
    loss = (oracle.entropy(x["dom"], p) - oracle.entropy(x["cod"], p)) % p
    defect = oracle.fibre_defect(x["dom"], x["index_map"], x["cod"], p)
    return loss, (loss - defect) % p, defect


def check_map(x, out):
    return out == expected_losses(x) and out[2] != 0


def run_rational(api, x):
    p = api.PrimeModulus(x["p"])
    a = api.RationalDist(x["a"])
    perm = api.RationalDist(x["perm"])
    pert = api.RationalDist(x["pert"])
    return (
        api.reduce_mod(a, p).values(),
        api.residue_entropy(a, p).value,
        api.real_entropy_equal(a, perm),
        api.real_entropy_equal(a, pert),
    )


def check_rational(x, out):
    reduced = oracle.reduce_fractions(x["a"], x["p"])
    # the perturbed copy must differ in real entropy by far more than float error
    apart = abs(oracle.real_entropy(x["weights"]) - oracle.real_entropy(x["pert_weights"])) > 1e-9
    return out == (tuple(reduced), oracle.entropy(reduced, x["p"]), True, False) and apart


def run_cli_entropy(api, x):
    return api.cli_entropy(["entropy", x["text"]])


def check_cli_entropy(x, out):
    code, text = out
    return code == 0 and json.loads(text)["result"] == oracle.entropy(x["values"], x["p"])


def run_cli_loss(api, x):
    return api.cli_loss(["loss", x["path"]])


def check_cli_loss(x, out):
    code, text = out
    result = json.loads(text)
    loss, conditional, _ = expected_losses(x)
    return code == 0 and (result["loss"], result["conditional"]) == (loss, conditional)


def run_cli_residue(api, x):
    return api.cli_residue(["residue", "--p", str(x["p"]), *x["tokens"]])


def check_cli_residue(x, out):
    code, text = out
    reduced = oracle.reduce_fractions(oracle.fractions(x["weights"]), x["p"])
    return code == 0 and json.loads(text)["result"] == oracle.entropy(reduced, x["p"])


def run_cli_subprocess_fq(api, x):
    return api.cli_subprocess(["fq", str(x["a"]), "--p", str(x["p"])])


def check_cli_subprocess_fq(x, out):
    code, text = out
    return code == 0 and json.loads(text)["result"] == oracle.fermat_quotient(x["a"], x["p"])


def run_cli_subprocess_entropy(api, x):
    return api.cli_subprocess(["entropy", f"{x['p']}:" + ",".join(map(str, x["values"]))])


def check_cli_subprocess_entropy(x, out):
    code, text = out
    return code == 0 and json.loads(text)["result"] == oracle.entropy(x["values"], x["p"])


JOBS = {
    kind: (globals()[f"run_{kind}"], globals()[f"check_{kind}"])
    for kind in (
        "entropy", "tensor", "compose", "map", "rational", "cli_entropy", "cli_loss",
        "cli_residue", "cli_subprocess_fq", "cli_subprocess_entropy",
    )
}
