"""Command-line front end.

Output is line-oriented `key=value` ending with a `result=` line; `--json`
emits a JSON object with the same keys.  Exit codes: 0 success or pass,
1 verification failure, 2 usage or parse error.

Distributions mod p are written `p:v1,...,vn` (e.g. `3:1,1,1,1`); rational
distributions are whitespace-separated fractions (e.g. `1/2 1/4 1/4`).
"""

import argparse
import json
import sys
from functools import cache
from itertools import product

from . import characterization, distributions, finprob, polynomials, residue
from .errors import InvalidPolynomial, ModentError, ParseError
from .modular import PrimeModulus, fermat_quotient, p_derivation, verify_fq_laws, verify_hom_uniqueness

CLI_GROUPING_CAP = 4  # sum of block sizes used by the `identities` command


# --- parsing and formatting ----------------------------------------------


def parse_mod_values(text: str):
    """Parse `p:v1,...,vn` into a PrimeModulus and a list of ints; `p:` has no values."""
    head, sep, tail = text.partition(":")
    if not sep:
        raise ParseError(f"expected p:v1,...,vn, got {text!r}")
    try:
        return PrimeModulus(int(head)), [int(v) for v in tail.split(",")] if tail else []
    except (ValueError, ModentError) as exc:
        raise ParseError(f"cannot parse {text!r}: {exc}") from None


def parse_mod_dist(text: str) -> distributions.ModDist:
    """Parse `p:v1,...,vn` into a distribution; negative entries are normalized."""
    return distributions.ModDist(*parse_mod_values(text))


def parse_rational_dist(tokens) -> residue.RationalDist:
    """Parse whitespace-separated `num/den` fractions into a rational distribution."""
    if isinstance(tokens, str):
        tokens = tokens.split()
    return residue.RationalDist(tokens)


def format_mod_dist(d) -> str:
    """Render a ModDist or ModMeasure as `p:v1,...,vn`."""
    return f"{d.p.p}:" + ",".join(str(v) for v in d.values())


def format_rational_dist(d: residue.RationalDist) -> str:
    return " ".join(f"{q.numerator}/{q.denominator}" for q in d.probs)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _emit(out: dict, as_json: bool):
    if as_json:
        print(json.dumps(out))
    else:
        for key, value in out.items():
            print(f"{key}={_fmt(value)}")


# --- command handlers -----------------------------------------------------


def _cmd_entropy(args):
    d = parse_mod_dist(args.dist)
    value = distributions.entropy(d).value
    return 0, {"dist": format_mod_dist(d), "entropy": value, "result": value}


def _cmd_measure_entropy(args):
    m = distributions.ModMeasure(*parse_mod_values(args.measure))
    value = distributions.entropy_measure(m).value
    return 0, {"measure": format_mod_dist(m), "entropy": value, "result": value}


def _cmd_uniform(args):
    p = PrimeModulus(args.p)
    d = distributions.uniform(args.n, p)
    text = format_mod_dist(d)
    return 0, {
        "p": p.p,
        "n": args.n,
        "dist": text,
        "entropy": distributions.entropy(d).value,
        "result": text,
    }


def _cmd_compose(args):
    outer = parse_mod_dist(args.outer)
    inners = [parse_mod_dist(t) for t in args.inners]
    composite = distributions.compose(outer, inners)
    text = format_mod_dist(composite)
    return 0, {
        "outer": format_mod_dist(outer),
        "inners": " ".join(format_mod_dist(g) for g in inners),
        "composed": text,
        "entropy": distributions.entropy(composite).value,
        "result": text,
    }


def _cmd_tensor(args):
    a = parse_mod_dist(args.a)
    b = parse_mod_dist(args.b)
    t = distributions.tensor(a, b)
    text = format_mod_dist(t)
    return 0, {
        "a": format_mod_dist(a),
        "b": format_mod_dist(b),
        "tensor": text,
        "entropy": distributions.entropy(t).value,
        "result": text,
    }


def _cmd_fq(args):
    p = PrimeModulus(args.p)
    value = fermat_quotient(args.a, p).value
    return 0, {"p": p.p, "a": args.a, "result": value}


def _cmd_pderiv(args):
    p = PrimeModulus(args.p)
    value = p_derivation(args.a, p).value
    return 0, {"p": p.p, "a": args.a, "result": value}


def _cmd_loss(args):
    if args.file and args.file != "-":
        with open(args.file, encoding="utf-8") as fh:
            payload = json.load(fh)
    else:
        payload = json.load(sys.stdin)
    f = finprob.map_from_dict(payload)
    loss = finprob.info_loss(f).value
    conditional = finprob.info_loss_conditional(f).value
    return 0, {
        "p": f.domain.p.p,
        "domain_entropy": distributions.entropy(f.domain.dist).value,
        "codomain_entropy": distributions.entropy(f.codomain.dist).value,
        "loss": loss,
        "conditional": conditional,
        "result": loss,
    }


def _cmd_residue(args):
    p = PrimeModulus(args.p)
    d = parse_rational_dist(args.fractions)
    reduced = residue.reduce_mod(d, p)
    value = distributions.entropy(reduced).value
    return 0, {
        "p": p.p,
        "dist": format_rational_dist(d),
        "reduced": format_mod_dist(reduced),
        "result": value,
    }


def _cmd_real_eq(args):
    a = parse_rational_dist(args.a)
    b = parse_rational_dist(args.b)
    equal = residue.real_entropy_equal(a, b)
    return 0, {
        "a": format_rational_dist(a),
        "b": format_rational_dist(b),
        "result": equal,
    }


def _cmd_identities(args):
    p = PrimeModulus(args.p)
    reports = polynomials.identity_reports(p, CLI_GROUPING_CAP)
    ok = all(r.passed for r in reports.values())
    out = {"p": p.p}
    out.update((key, "pass" if r.passed else "fail") for key, r in reports.items())
    out["result"] = "pass" if ok else "fail"
    return (0 if ok else 1), out


def _cmd_interpolate(args):
    p = PrimeModulus(args.p)
    n = args.nvars
    if n < 0:
        raise InvalidPolynomial("nvars must be nonnegative")
    count = len(args.values)
    # p^n >= 2^n, so a huge n is refused before p^n is computed
    if n > count.bit_length() or p.p**n != count:
        raise ParseError(f"need {p.p}^{n} values for p={p.p}, nvars={n}, got {count}")
    table = dict(zip(product(range(p.p), repeat=n), map(int, args.values)))
    poly = polynomials.interpolate(table.__getitem__, p, n)
    text = poly.to_text()
    return 0, {"p": p.p, "nvars": n, "points": count, "poly": text, "result": text}


def _cmd_characterize(args):
    p = PrimeModulus(args.p)
    system = characterization.build_system(p, args.max_arity, override_guard=args.override_guard)
    solution = characterization.solve(system)
    report = characterization.compare_with_entropy(solution, p, args.max_arity)
    ok = report.passed
    return (0 if ok else 1), {
        "p": p.p,
        "max_arity": args.max_arity,
        "unknowns": len(system.unknowns),
        "rows": solution.rows,
        "rows_eliminated": solution.rows_eliminated,
        "rows_checked": solution.rows_checked,
        "rows_implied": solution.rows_implied,
        "kernel_dim": report.data["dimension"],
        "contains_entropy": report.data["contains_entropy"],
        "kernel_is_entropy_line": report.data["kernel_is_entropy_line"],
        "result": "pass" if ok else "fail",
    }


def _cmd_verify_core(args):
    p = PrimeModulus(args.p)
    laws = verify_fq_laws(p)
    homs = verify_hom_uniqueness(p)
    ok = laws.passed and homs.passed
    return (0 if ok else 1), {
        "p": p.p,
        "fq_laws": "pass" if laws.passed else "fail",
        "hom_uniqueness": "pass" if homs.passed else "fail",
        "result": "pass" if ok else "fail",
    }


# --- driver ----------------------------------------------------------------


@cache
def build_parser() -> argparse.ArgumentParser:  # built once, on the first call
    parser = argparse.ArgumentParser(
        prog="modent", description="entropy of probability distributions mod p"
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON object")
    sub = parser.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser("entropy", help="entropy of a distribution mod p")
    cmd.add_argument("dist", help="distribution, e.g. 3:1,1,1,1")
    cmd.set_defaults(handler=_cmd_entropy)

    cmd = sub.add_parser("measure-entropy", help="homogeneous entropy of a measure mod p")
    cmd.add_argument("measure", help="measure, e.g. 3:2,2,2,2 (sum unconstrained)")
    cmd.set_defaults(handler=_cmd_measure_entropy)

    cmd = sub.add_parser("uniform", help="the uniform distribution u_n and its entropy")
    cmd.add_argument("n", type=int)
    cmd.add_argument("--p", type=int, required=True)
    cmd.set_defaults(handler=_cmd_uniform)

    cmd = sub.add_parser("compose", help="operadic composite of distributions")
    cmd.add_argument("outer")
    cmd.add_argument("inners", nargs="+")
    cmd.set_defaults(handler=_cmd_compose)

    cmd = sub.add_parser("tensor", help="tensor product of two distributions")
    cmd.add_argument("a")
    cmd.add_argument("b")
    cmd.set_defaults(handler=_cmd_tensor)

    cmd = sub.add_parser("fq", help="Fermat quotient of an integer")
    cmd.add_argument("a", type=int)
    cmd.add_argument("--p", type=int, required=True)
    cmd.set_defaults(handler=_cmd_fq)

    cmd = sub.add_parser("pderiv", help="p-derivation of an integer")
    cmd.add_argument("a", type=int)
    cmd.add_argument("--p", type=int, required=True)
    cmd.set_defaults(handler=_cmd_pderiv)

    cmd = sub.add_parser("loss", help="information loss of a JSON-encoded map")
    cmd.add_argument("file", nargs="?", help="JSON file (default: stdin)")
    cmd.set_defaults(handler=_cmd_loss)

    cmd = sub.add_parser("residue", help="residue mod p of the real entropy of a rational distribution")
    cmd.add_argument("--p", type=int, required=True)
    cmd.add_argument("fractions", nargs="+", help="e.g. 1/2 1/4 1/4")
    cmd.set_defaults(handler=_cmd_residue)

    cmd = sub.add_parser("real-eq", help="exact equality of two real entropies")
    cmd.add_argument("--a", required=True, help="first distribution, e.g. '1/2 1/2'")
    cmd.add_argument("--b", required=True, help="second distribution")
    cmd.set_defaults(handler=_cmd_real_eq)

    cmd = sub.add_parser("identities", help="verify the polynomial identities at a prime")
    cmd.add_argument("--p", type=int, required=True)
    cmd.set_defaults(handler=_cmd_identities)

    cmd = sub.add_parser("interpolate", help="unique low-degree polynomial through a value table")
    cmd.add_argument("--p", type=int, required=True)
    cmd.add_argument("--nvars", type=int, required=True)
    cmd.add_argument("values", nargs="+", help="p^nvars values in lexicographic point order")
    cmd.set_defaults(handler=_cmd_interpolate)

    cmd = sub.add_parser("characterize", help="kernel of the truncated chain-rule system")
    cmd.add_argument("--p", type=int, required=True)
    cmd.add_argument("--max-arity", type=int, required=True)
    cmd.add_argument("--override-guard", action="store_true")
    cmd.set_defaults(handler=_cmd_characterize)

    cmd = sub.add_parser("verify-core", help="exhaustive Fermat-quotient and homomorphism checks")
    cmd.add_argument("--p", type=int, required=True)
    cmd.set_defaults(handler=_cmd_verify_core)

    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code, out = args.handler(args)
    except (ModentError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(out, args.json)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
