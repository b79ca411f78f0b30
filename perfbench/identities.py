"""`identities`: one symbolic identity of the entropy polynomial per job.

`polynomials` does nearly all the work and no other workload calls it.
Job sizes span about 1000x: grouping and the polynomial chain rule over
block shapes of growing total size, the small closed-form identities, the
fundamental equation for solutions and a non-solution, interpolation round
trips, and direct MultiPoly products and substitutions.  The p90 sits
where MultiPoly canonicalisation dominates.  The largest shapes are left
out where one check alone would take seconds at the seed.
"""

import json
from itertools import product

import oracle

WHY = "symbolic identities of the entropy polynomial: polynomials does nearly all the work"

PRIMES = (2, 3, 5, 7, 11, 13)  # IDENTITY_PRIME_GUARD is 13
# p -> (largest block total checked by both grouping and the chain rule,
#       largest block total checked by grouping alone)
SHAPE_TOTALS = {2: (6, 6), 3: (6, 6), 5: (5, 6), 7: (4, 5), 11: (3, 4), 13: (3, 4)}
SMALL_IDENTITIES = ("cocycle", "pounds1_formula", "symmetry", "homogenization", "fundamental_pounds1", "fundamental_xp")
# (p, nvars) of the interpolation tables, at most about 1e4 points
TABLES = ((13, 2), (7, 3), (5, 4), (3, 6), (2, 10), (3, 8))
ENTROPY_POLYS = ((5, 3), (7, 3), (11, 2), (13, 3), (5, 4), (3, 5))
# (p, nvars, terms of each factor) of the direct products and substitutions
PRODUCTS = ((5, 3, 30), (13, 3, 40), (7, 4, 25))
SUBSTITUTIONS = ((5, 2, 3), (7, 3, 3), (13, 2, 2))  # (p, outer nvars, inner nvars)
EVAL_POINTS = 20


def random_poly(rng, p, nvars, terms, degree):
    out = {}
    while len(out) < terms:
        exps = tuple(rng.randint(0, degree) for _ in range(nvars))
        out[exps] = rng.randrange(1, p)
    return out


def make_round(rng, out_dir):
    jobs = []
    for p in PRIMES:
        both, grouping_only = SHAPE_TOTALS[p]
        for total in range(1, grouping_only + 1):
            for n, ks in oracle.block_shapes(total):
                jobs.append(("grouping", {"p": p, "n": n, "ks": ks}))
                if total <= both:
                    jobs.append(("chain_rule", {"p": p, "n": n, "ks": ks}))
        jobs += [(kind, {"p": p}) for kind in SMALL_IDENTITIES]
        if p > 2:
            jobs.append(("fundamental_x2", {"p": p}))
        jobs.append(("cli_identities", {"p": p}))
    for p, n in TABLES:
        points = list(product(range(p), repeat=n))
        table = {pt: rng.randrange(p) for pt in points}
        jobs.append(("interpolate", {"p": p, "n": n, "table": table, "probe": rng.sample(points, EVAL_POINTS)}))
    jobs += [("entropy_poly", {"p": p, "n": n}) for p, n in ENTROPY_POLYS]
    for p, nvars, terms in PRODUCTS:
        jobs.append(("poly_mul", {
            "p": p, "nvars": nvars,
            "f": random_poly(rng, p, nvars, terms, 4), "g": random_poly(rng, p, nvars, terms, 4),
        }))
    for p, k, nvars in SUBSTITUTIONS:
        jobs.append(("poly_compose", {
            "p": p, "nvars": nvars,
            "f": random_poly(rng, p, k, 8, 3),
            "args": [random_poly(rng, p, nvars, 4, 2) for _ in range(k)],
            "probe": [tuple(rng.randrange(p) for _ in range(nvars)) for _ in range(EVAL_POINTS)],
        }))
    rng.shuffle(jobs)
    return jobs


# --- jobs: run(api, payload) is timed, check(payload, out) is not -----------


def _verdict(report):
    return report.passed, report.checks


def run_grouping(api, x):
    return _verdict(api.check_grouping(x["n"], x["ks"], api.PrimeModulus(x["p"])))


def run_chain_rule(api, x):
    return _verdict(api.check_poly_chain_rule(x["n"], x["ks"], api.PrimeModulus(x["p"])))


def run_cocycle(api, x):
    return _verdict(api.check_cocycle(api.PrimeModulus(x["p"])))


def run_pounds1_formula(api, x):
    return _verdict(api.check_pounds1_formula(api.PrimeModulus(x["p"])))


def run_symmetry(api, x):
    # passes when pounds1 is symmetric and x^p is not: x^p must fail symmetry
    return _verdict(api.check_symmetry_pounds1(api.PrimeModulus(x["p"])))


def run_homogenization(api, x):
    return _verdict(api.homogenize_check(api.PrimeModulus(x["p"])))


def run_fundamental_pounds1(api, x):
    p = api.PrimeModulus(x["p"])
    return _verdict(api.check_fundamental(api.pounds1(p), p))


def run_fundamental_xp(api, x):
    p = api.PrimeModulus(x["p"])
    return _verdict(api.check_fundamental(api.MultiPoly(p, 1, {(x["p"],): 1}), p))


def run_fundamental_x2(api, x):
    # x^2 is not a solution for odd p: x^2 + (1-x)^(p-2) y^2 != y^2 + (1-y)^(p-2) x^2
    p = api.PrimeModulus(x["p"])
    return _verdict(api.check_fundamental(api.MultiPoly(p, 1, {(2,): 1}), p))


def check_pass(x, out):
    return out == (True, 1)


def check_symmetry(x, out):
    return out == (True, 2)


def check_fundamental_x2(x, out):
    return out == (False, 1)


def run_cli_identities(api, x):
    return api.cli_identities(["identities", "--p", str(x["p"])])


def check_cli_identities(x, out):
    code, text = out
    result = json.loads(text)
    verdicts = {k: v for k, v in result.items() if k != "p"}
    return code == 0 and result["p"] == x["p"] and len(verdicts) == 8 and set(verdicts.values()) == {"pass"}


def run_interpolate(api, x):
    return dict(api.interpolate(x["table"].__getitem__, api.PrimeModulus(x["p"]), x["n"]).terms)


def check_interpolate(x, out):
    p = x["p"]
    if any(e >= p for exps in out for e in exps):
        return False
    return all(oracle.poly_eval(out, pt, p) == x["table"][pt] for pt in x["probe"])


def run_entropy_poly(api, x):
    return dict(api.entropy_poly(x["n"], api.PrimeModulus(x["p"])).terms)


def check_entropy_poly(x, out):
    return out == oracle.entropy_poly_terms(x["n"], x["p"])


def run_poly_mul(api, x):
    p = api.PrimeModulus(x["p"])
    f = api.MultiPoly(p, x["nvars"], x["f"])
    g = api.MultiPoly(p, x["nvars"], x["g"])
    return dict(api.poly_mul(f, g).terms)


def check_poly_mul(x, out):
    return out == oracle.poly_mul(x["f"], x["g"], x["p"])


def run_poly_compose(api, x):
    p = api.PrimeModulus(x["p"])
    f = api.MultiPoly(p, len(x["args"]), x["f"])
    args = [api.MultiPoly(p, x["nvars"], a) for a in x["args"]]
    return dict(api.poly_compose(f, args).terms)


def check_poly_compose(x, out):
    # evaluation is a ring map, so f(args)(pt) = f(args(pt)) at every point
    p = x["p"]
    return all(
        oracle.poly_eval(out, pt, p)
        == oracle.poly_eval(x["f"], [oracle.poly_eval(a, pt, p) for a in x["args"]], p)
        for pt in x["probe"]
    )


JOBS = {
    "grouping": (run_grouping, check_pass),
    "chain_rule": (run_chain_rule, check_pass),
    "cocycle": (run_cocycle, check_pass),
    "pounds1_formula": (run_pounds1_formula, check_pass),
    "symmetry": (run_symmetry, check_symmetry),
    "homogenization": (run_homogenization, check_pass),
    "fundamental_pounds1": (run_fundamental_pounds1, check_pass),
    "fundamental_xp": (run_fundamental_xp, check_pass),
    "fundamental_x2": (run_fundamental_x2, check_fundamental_x2),
    "cli_identities": (run_cli_identities, check_cli_identities),
    "interpolate": (run_interpolate, check_interpolate),
    "entropy_poly": (run_entropy_poly, check_entropy_poly),
    "poly_mul": (run_poly_mul, check_poly_mul),
    "poly_compose": (run_poly_compose, check_poly_compose),
}
