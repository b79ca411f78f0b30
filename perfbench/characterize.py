"""`characterize`: build and solve the truncated chain-rule system per (p, N).

`characterization` dominates, and peak memory grows with the rows kept.
The cells include under-determined ones, whose kernel is larger than the
entropy line, where every row matters and no early stop can help, and
heavily redundant ones such as (2, 9), with 26 737 rows for rank 510,
where streaming elimination should show in time and memory.  (2, 10)
is left out: at 3 s per job at the seed it would stretch a round of 100
jobs beyond what a run can repeat.
"""

import json

import oracle

WHY = "chain-rule systems per (p, N), from under-determined to heavily redundant: characterization dominates"

# (p, N, copies per round).  The redundant cells, where far more rows are
# generated than the rank, come first; the p90 falls among them.
REDUNDANT = [
    (2, 9, 1), (3, 7, 1), (11, 4, 1), (2, 8, 2), (5, 5, 2), (3, 6, 2), (2, 7, 2), (7, 4, 2),
]
# the rest of the grid, under-determined cells included, repeated so a round
# holds 100 jobs
SMALL = [(2, n, 5) for n in range(2, 7)] + [(3, n, 5) for n in range(2, 6)] + [
    (5, 2, 5), (5, 3, 5), (5, 4, 5), (7, 2, 5), (7, 3, 5), (11, 3, 5), (13, 3, 5),
]
CLI_CELLS = [(2, 4), (2, 5), (3, 3), (3, 4), (5, 3), (7, 3), (11, 3), (13, 3)]
CLI_JOBS = 8

# Kernel dimension of every cell, as solved by the seed library.  A
# dimension above 1 is a truncation that does not yet pin H down.
SEED_DIMENSIONS = {
    (2, 2): 2, (2, 3): 1, (2, 4): 1, (2, 5): 1, (2, 6): 1, (2, 7): 1, (2, 8): 1, (2, 9): 1,
    (3, 2): 3, (3, 3): 2, (3, 4): 1, (3, 5): 1, (3, 6): 1, (3, 7): 1,
    (5, 2): 5, (5, 3): 2, (5, 4): 1, (5, 5): 1,
    (7, 2): 7, (7, 3): 2, (7, 4): 1,
    (11, 3): 2, (11, 4): 1, (13, 3): 2,
}


def make_round(rng, out_dir):
    jobs = [("cell", {"p": p, "n": n}) for p, n, copies in REDUNDANT + SMALL for _ in range(copies)]
    jobs += [("cli_cell", {"p": p, "n": n}) for p, n in rng.choices(CLI_CELLS, k=CLI_JOBS)]
    rng.shuffle(jobs)
    return jobs


# --- jobs: run(api, payload) is timed, check(payload, out) is not -----------


def run_cell(api, x):
    p = api.PrimeModulus(x["p"])
    system = api.build_system(p, x["n"])
    solution = api.solve(system)
    return system, solution, api.compare_with_entropy(solution, p, x["n"])


def check_cell(x, out):
    system, solution, report = out
    p, n = x["p"], x["n"]
    return (
        len(system.unknowns) == oracle.unknown_count(p, n)
        and solution.dimension == SEED_DIMENSIONS[(p, n)]
        and report.passed
        and report.data["contains_entropy"]
        and oracle.vector_solves_rows(system.rows, [oracle.entropy(u, p) for u in system.unknowns], p)
        and all(oracle.vector_solves_rows(system.rows, v, p) for v in solution.basis)
    )


def run_cli_cell(api, x):
    return api.cli_characterize(["characterize", "--p", str(x["p"]), "--max-arity", str(x["n"])])


def check_cli_cell(x, out):
    code, text = out
    result = json.loads(text)
    p, n = x["p"], x["n"]
    return code == 0 and (
        result["unknowns"], result["kernel_dim"], result["contains_entropy"], result["result"]
    ) == (oracle.unknown_count(p, n), SEED_DIMENSIONS[(p, n)], True, "pass")


JOBS = {"cell": (run_cell, check_cell), "cli_cell": (run_cli_cell, check_cli_cell)}
