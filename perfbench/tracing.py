"""The library entry points jobs call, and the tracer that times them.

Jobs reach `modent` only through the namespace `make_api` returns.  With
tracing off its attributes are the library callables themselves, so the
end-to-end run pays nothing for the indirection.  With tracing on each
attribute is wrapped: the wrapper times the call, counts it (and its
failures) against a span named `<layer>.<call>`, and adds any per-call
work counters.  Calls of one name within one job are aggregated into a
single span record, so the many-tiny-calls workloads stay cheap to trace.
Spans are kept in memory and written out as JSON lines when the run ends;
the per-layer metrics are derived from the file.
"""

import contextlib
import io
import json
import operator
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import oracle

LAYERS = (
    "modular",
    "distributions",
    "finprob",
    "residue",
    "polynomials",
    "characterization",
    "cli",
)

# Work counters each layer reports besides its calls, busy time and failures.
COUNTERS = {
    "modular": ("checks",),
    "distributions": ("entries",),
    "finprob": ("domain_points",),
    "residue": ("product_bits",),
    "polynomials": ("checks",),
    "characterization": ("unknowns", "rows", "rank", "underdetermined"),
    "cli": (),
}


def _report_checks(layer):
    return lambda args, result: {f"{layer}.checks": result.checks}


def _entries(args, result):
    return {"distributions.entries": len(args[1])}


def _domain_points(args, result):
    return {"finprob.domain_points": len(args[0].labels)}


def _product_bits(args, result):
    return {"residue.product_bits": oracle.product_bits(args[0].probs, args[1].probs)}


def _system_size(args, result):
    return {
        "characterization.unknowns": len(result.unknowns),
        "characterization.rows": len(result.rows),
    }


def _kernel(args, result):
    return {
        "characterization.rank": len(result.unknowns) - result.dimension,
        "characterization.underdetermined": int(result.dimension > 1),
    }


def _cli_runner():
    from modent import cli

    def run(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run(["--json", *argv])
        return code, out.getvalue()

    return run


def _subprocess_runner(src):
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")

    def run(argv):
        proc = subprocess.run(
            [sys.executable, "-B", "-m", "modent.cli", "--json", *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        return proc.returncode, proc.stdout

    return run


# Span name -> api attribute.  The attribute is the modent name of the
# callable, except for the MultiPoly methods and the CLI entry points,
# which `make_api` resolves itself.
ENTRY_POINTS = {
    "modular.PrimeModulus": "PrimeModulus",
    "modular.fermat_quotient": "fermat_quotient",
    "modular.p_derivation": "p_derivation",
    "modular.verify_fq_laws": "verify_fq_laws",
    "modular.verify_hom_uniqueness": "verify_hom_uniqueness",
    "distributions.ModDist": "ModDist",
    "distributions.ModMeasure": "ModMeasure",
    "distributions.compose": "compose",
    "distributions.tensor": "tensor",
    "distributions.uniform": "uniform",
    "distributions.pad_zeros": "pad_zeros",
    "distributions.entropy": "entropy",
    "distributions.entropy_measure": "entropy_measure",
    "finprob.FinProbSpace": "FinProbSpace",
    "finprob.make_map": "make_map",
    "finprob.compose_maps": "compose_maps",
    "finprob.convex_combine_maps": "convex_combine_maps",
    "finprob.info_loss": "info_loss",
    "finprob.info_loss_conditional": "info_loss_conditional",
    "finprob.conditional_defect": "conditional_defect",
    "residue.RationalDist": "RationalDist",
    "residue.reduce_mod": "reduce_mod",
    "residue.residue_entropy": "residue_entropy",
    "residue.real_entropy_equal": "real_entropy_equal",
    "residue.check_residue_well_defined": "check_residue_well_defined",
    "residue.residue_additive": "residue_additive",
    "polynomials.MultiPoly": "MultiPoly",
    "polynomials.MultiPoly.mul": "poly_mul",
    "polynomials.MultiPoly.compose": "poly_compose",
    "polynomials.entropy_poly": "entropy_poly",
    "polynomials.pounds1": "pounds1",
    "polynomials.check_grouping": "check_grouping",
    "polynomials.check_poly_chain_rule": "check_poly_chain_rule",
    "polynomials.check_cocycle": "check_cocycle",
    "polynomials.check_fundamental": "check_fundamental",
    "polynomials.check_pounds1_formula": "check_pounds1_formula",
    "polynomials.check_symmetry_pounds1": "check_symmetry_pounds1",
    "polynomials.homogenize_check": "homogenize_check",
    "polynomials.interpolate": "interpolate",
    "characterization.build_system": "build_system",
    "characterization.solve": "solve",
    "characterization.compare_with_entropy": "compare_with_entropy",
    "cli.run.entropy": "cli_entropy",
    "cli.run.loss": "cli_loss",
    "cli.run.residue": "cli_residue",
    "cli.run.identities": "cli_identities",
    "cli.run.characterize": "cli_characterize",
    "cli.subprocess": "cli_subprocess",
}

CALL_COUNTERS = {
    "modular.verify_fq_laws": _report_checks("modular"),
    "modular.verify_hom_uniqueness": _report_checks("modular"),
    "distributions.ModDist": _entries,
    "distributions.ModMeasure": _entries,
    "finprob.make_map": _domain_points,
    "residue.real_entropy_equal": _product_bits,
    "characterization.build_system": _system_size,
    "characterization.solve": _kernel,
    **{
        name: _report_checks("polynomials")
        for name in ENTRY_POINTS
        if name.startswith("polynomials.check_") or name == "polynomials.homogenize_check"
    },
}


def make_api(m, tracer=None):
    """The namespace jobs call the library through; traced when `tracer` is given."""
    special = {
        "poly_mul": operator.mul,
        "poly_compose": m.MultiPoly.compose,
        "cli_subprocess": _subprocess_runner(Path(m.__file__).resolve().parents[1]),
    }
    cli_run = _cli_runner()
    api = {}
    for name, attr in ENTRY_POINTS.items():
        if attr in special:
            fn = special[attr]
        elif attr.startswith("cli_"):
            fn = cli_run
        else:
            fn = getattr(m, attr)
        api[attr] = fn if tracer is None else tracer.wrap(name, fn, CALL_COUNTERS.get(name))
    return SimpleNamespace(**api)


class Tracer:
    """In-memory span recorder: one span per job, one aggregated span per (job, call)."""

    def __init__(self):
        self.spans = []
        self._calls = None
        self._counters = None

    def begin_job(self, job_id, kind):
        self._job = (job_id, kind)
        self._calls = {}
        self._counters = {}
        self._start = perf_counter()

    def end_job(self):
        end = perf_counter()
        job_id, kind = self._job
        parent = len(self.spans)
        self.spans.append(
            {
                "id": parent,
                "name": f"job.{kind}",
                "parent": None,
                "job": job_id,
                "start": self._start,
                "end": end,
                "count": 1,
                "busy": end - self._start,
                "failed": 0,
                "counters": self._counters,
            }
        )
        for name, (count, busy, first, last, failed) in self._calls.items():
            self.spans.append(
                {
                    "id": len(self.spans),
                    "name": name,
                    "parent": parent,
                    "job": job_id,
                    "start": first,
                    "end": last,
                    "count": count,
                    "busy": busy,
                    "failed": failed,
                }
            )
        self._calls = None

    def wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            start = perf_counter()
            failed = 1
            try:
                result = fn(*args, **kwargs)
                failed = 0
            finally:
                end = perf_counter()
                agg = self._calls.get(name)
                if agg is None:
                    self._calls[name] = [1, end - start, start, end, failed]
                else:
                    agg[0] += 1
                    agg[1] += end - start
                    agg[3] = end
                    agg[4] += failed
            if counter is not None:
                for key, value in counter(args, result).items():
                    self._counters[key] = self._counters.get(key, 0) + value
            return result

        return traced

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def self_times(spans):
    """Span id -> busy time minus the busy time of its direct children."""
    own = {s["id"]: s["busy"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["busy"]
    return own


def layer_metrics(spans, rounds):
    """Every per-layer metric, per round of the workload, from a span list."""
    names = list(ENTRY_POINTS)
    calls = dict.fromkeys(names, 0)
    busy = dict.fromkeys(names, 0.0)
    failed = dict.fromkeys(names, 0)
    counters = {f"{layer}.{c}": 0 for layer in LAYERS for c in COUNTERS[layer]}
    own = self_times(spans)
    overhead = 0.0
    for s in spans:
        if s["parent"] is None:
            overhead += own[s["id"]]
            for key, value in s["counters"].items():
                counters[key] += value
        else:
            calls[s["name"]] += s["count"]
            busy[s["name"]] += own[s["id"]]
            failed[s["name"]] += s["failed"]

    out = {}
    for layer in LAYERS:
        mine = [n for n in names if n.split(".", 1)[0] == layer]
        for n in mine:
            out[f"{n}.calls"] = calls[n] / rounds
            out[f"{n}.busy_s"] = busy[n] / rounds
        out[f"{layer}.busy_s"] = sum(busy[n] for n in mine) / rounds
        out[f"{layer}.failed"] = sum(failed[n] for n in mine) / rounds
        for c in COUNTERS[layer]:
            out[f"{layer}.{c}"] = counters[f"{layer}.{c}"] / rounds
    rows = counters["characterization.rows"]
    out["characterization.rank_per_row"] = counters["characterization.rank"] / rows if rows else 0.0
    out["bench.overhead_s"] = overhead / rounds
    return out


COUNTER_UNITS = {
    "checks": ("count/round", "higher"),
    "entries": ("count/round", "higher"),
    "domain_points": ("count/round", "higher"),
    "product_bits": ("bits/round", "higher"),
    "unknowns": ("count/round", "higher"),
    "rows": ("count/round", "lower"),
    "rank": ("count/round", "higher"),
    "underdetermined": ("count/round", "higher"),
}


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in output order."""
    spec = []
    for layer in LAYERS:
        for name in ENTRY_POINTS:
            if name.split(".", 1)[0] == layer:
                spec += [(f"{name}.calls", "count/round", "lower"), (f"{name}.busy_s", "s/round", "lower")]
        spec += [(f"{layer}.busy_s", "s/round", "lower"), (f"{layer}.failed", "count/round", "lower")]
        spec += [(f"{layer}.{c}", *COUNTER_UNITS[c]) for c in COUNTERS[layer]]
    return spec + [
        ("characterization.rank_per_row", "ratio", "higher"),
        ("bench.overhead_s", "s/round", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
