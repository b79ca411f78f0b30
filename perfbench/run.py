"""Benchmark for modent: four seeded closed-loop workloads, untraced or traced.

    python3 perfbench/run.py                      # every workload, untraced then traced
    python3 perfbench/run.py --workload bulk --seed 3 --seconds 25 --trace 0

With --workload the run measures one workload in this process and prints
its metrics, ending with one JSON line: the end-to-end metrics when
--trace is 0, the per-layer metrics from the span file when it is 1.
Without it, each workload runs in its own process, untraced and traced,
and the end-to-end table and the layer isolation checks are printed.
See perfbench/README.md.
"""

import sys

sys.dont_write_bytecode = True  # write nothing into src/ or the benchmark's own directory

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

import harness  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
DEFAULT_SECONDS = 25
NO_WAIT = "wait: none: one closed-loop client, no queues and no threads, so no layer waits"


def measure(workload, seed, seconds, traced):
    """Run one workload; print its metrics and return the result object."""
    jobs = harness.workload_module(workload).JOBS
    m, inputs, setup_times = harness.set_up(workload, seed, SRC, OUT / f"{workload}-{seed}")
    print(f"workload {workload}, seed {seed}: one client, closed loop, no think time")
    if traced:
        loop, reference, tracer = harness.run_traced(jobs, inputs, m, seconds)
        span_path = OUT / f"spans-{workload}-{seed}.jsonl"
        values = harness.per_layer(loop, tracer, span_path, reference)
        print(f"spans: {len(tracer.spans)} records in {span_path.relative_to(ROOT)}")
        print(NO_WAIT)
        metrics = {}
        for name, unit, _ in tracing.per_layer_spec():
            label = " (computed from the inputs)" if name == "residue.product_bits" else ""
            print(f"  {name:48} {values[name]:.6g} {unit}{label}")
            metrics[name] = {"value": values[name], "unit": unit}
        attempted = loop.attempted + reference.attempted
        failed = loop.failed + reference.failed
        failures = loop.failures + reference.failures
    else:
        loop = harness.Loop(jobs, inputs)
        loop.run_for(tracing.make_api(m), seconds)
        metrics = {}
        for name, (value, unit, note, gated) in harness.end_to_end(loop, setup_times).items():
            print(f"  {name:13} {value:.6g} {unit}  ({note})")
            if gated:
                metrics[name] = {"value": value, "unit": unit}
        attempted, failed, failures = loop.attempted, loop.failed, loop.failures
        print(f"  {'fail_ratio':13} {failed / attempted:.6g}  ({failed} of {attempted} jobs failed)")
    print(f"rounds: {len(loop.round_times)}, timed wall time {loop.timed:.3f} s")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_one(args):
    if not (SRC / "modent" / "__init__.py").is_file():
        print(f"error: no modent package under {SRC}", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, args.trace == 1)
    print(json.dumps(result))
    return 0


# --- every workload, each in its own process ----------------------------------

ISOLATION = {
    # layer-call prefix -> the only workload allowed (and expected) to call it
    "polynomials.": "identities",
    "characterization.": "characterize",
    "modular.verify_": "exhaustive",
}
END_TO_END = ("setup_s", "jobs_per_kref", "job_p50_ref", "job_p90_ref", "fail_ratio", "peak_rss_mb")


def child(workload, seed, seconds, trace):
    argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    *report, result = proc.stdout.strip().splitlines() or [""]
    print("\n".join(report))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} (trace {trace}) exited with {proc.returncode}")
    return json.loads(result)


def isolation_problems(workload, layer_metrics):
    problems = []
    for prefix, owner in ISOLATION.items():
        calls = sum(
            v["value"] for k, v in layer_metrics.items() if k.startswith(prefix) and k.endswith(".calls")
        )
        if (calls > 0) != (workload == owner):
            problems.append(f"{workload}: {prefix}*.calls = {calls:g} per round")
    return problems


def run_all(args):
    rows, problems, correct = {}, [], True
    for workload in harness.WORKLOADS:
        plain = child(workload, args.seed, args.seconds, 0)
        traced = child(workload, args.seed, args.seconds, 1)
        correct = correct and plain["correct"] and traced["correct"]
        metrics = plain["metrics"]
        metrics["fail_ratio"] = {"value": plain["failed"] / plain["attempted"], "unit": "ratio"}
        rows[workload] = (metrics, plain["attempted"])
        problems += isolation_problems(workload, traced["metrics"])

    print(f"\nend-to-end, seed {args.seed}, {args.seconds} s per run (untraced runs)")
    print(f"{'workload':14}" + "".join(f"{name:>14}" for name in END_TO_END) + f"{'jobs':>8}")
    for workload, (metrics, jobs) in rows.items():
        cells = "".join(f"{metrics[name]['value']:>14.5g}" for name in END_TO_END)
        print(f"{workload:14}{cells}{jobs:>8}")
    print("units: " + ", ".join(f"{n} {rows['bulk'][0][n]['unit']}" for n in END_TO_END))
    print(NO_WAIT)
    for line in problems:
        print(f"ISOLATION BROKEN {line}")
    if not problems:
        print("isolation: polynomials only in identities, characterization only in characterize, "
              "modular verifiers only in exhaustive")
    return 0 if correct and not problems else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=harness.WORKLOADS, help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
