"""Set-up, the closed job loop, and the end-to-end and per-layer results.

One client runs the jobs of a workload back to back with no think time.
A round is the workload's fixed list of at least MIN_JOBS jobs; the run
repeats whole rounds until the requested seconds have passed and every
job ran at least MIN_ROUNDS times, so every run covers the same mix of
jobs whatever the seed.  Each job's output is checked after its timed
span ends.

Other virtual machines on the same host slow this one by up to half,
for minutes at a time, so raw times of the same code spread 20-40% from
run to run.  Every REF_EVERY seconds of jobs the loop therefore times a
block of runs of `reference`, a fixed pure-Python kernel that does not
touch modent; the median of a block is a reference unit (ref).  A job's
normalised latency is its time over the mean of the units measured just
before and just after it, and as timeit does, the run keeps the fastest
of its repetitions.  The gated end-to-end timings are taken over these
per-job latencies; the raw times are printed beside them.
"""

import importlib
import math
import random
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracing

WORKLOADS = ("bulk", "exhaustive", "identities", "characterize")
SETUPS = 5  # set-ups per run; setup_s is their median
P90_BEYOND = 10  # samples that must lie above a reported percentile
MIN_JOBS = P90_BEYOND * 10  # jobs per round: enough for 10 beyond the p90
MIN_ROUNDS = 3  # repetitions of every job per run
REF_EVERY = 0.1  # seconds of jobs between reference blocks
REF_BLOCK = 9  # kernel runs per reference block


def reference():
    """The fixed kernel that measures the machine's current speed (about 0.5 ms)."""
    acc = {}
    for i in range(400):
        k = i * 7919 % 1009
        acc[k] = acc.get(k, 0) + pow(i, 65537, 1000003)
    return len(acc)


def reference_unit():
    """Median seconds of one `reference` run over a block of REF_BLOCK runs."""
    times = []
    for _ in range(REF_BLOCK):
        start = perf_counter()
        reference()
        times.append(perf_counter() - start)
    return statistics.median(times)


def percentile(values, q):
    """Nearest-rank q-quantile, refused unless P90_BEYOND samples lie above it.

    Returns (value, number of samples above it).
    """
    xs = sorted(values)
    rank = max(1, math.ceil(q * len(xs)))
    beyond = len(xs) - rank
    if beyond < P90_BEYOND:
        raise ValueError(f"{len(xs)} samples leave {beyond} beyond the {q} quantile, need {P90_BEYOND}")
    return xs[rank - 1], beyond


def import_modent(src):
    """Import modent afresh from `src`, refusing any other copy."""
    for name in [n for n in sys.modules if n == "modent" or n.startswith("modent.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    importlib.invalidate_caches()
    m = importlib.import_module("modent")
    importlib.import_module("modent.cli")
    if Path(m.__file__).resolve().parent != (src / "modent").resolve():
        raise ImportError(f"modent imported from {m.__file__}, expected {src}")
    return m


def make_inputs(workload, seed, out_dir):
    """The job list of one round: a pure function of the workload and seed."""
    jobs = workload_module(workload).make_round(random.Random(f"{workload}:{seed}"), out_dir)
    if len(jobs) < MIN_JOBS:
        raise ValueError(f"{workload} has {len(jobs)} jobs per round, fewer than {MIN_JOBS}")
    return jobs


def workload_module(workload):
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    return importlib.import_module(workload)


def set_up(workload, seed, src, out_dir):
    """Import and input generation, SETUPS times; returns (module, inputs, seconds each)."""
    times = []
    for _ in range(SETUPS):
        start = perf_counter()
        m = import_modent(src)
        inputs = make_inputs(workload, seed, out_dir)
        times.append(perf_counter() - start)
    return m, inputs, times


class Loop:
    """Closed-loop job runner repeating one round of jobs."""

    def __init__(self, jobs, inputs):
        self.jobs = jobs
        self.inputs = inputs
        self.latencies = [[] for _ in inputs]  # per job, one entry per round
        self.round_times = []  # timed seconds of each round
        self.refs = [[] for _ in inputs]  # per job, its reference unit in each round
        self.failed = 0
        self.failures = []

    @property
    def attempted(self):
        return len(self.inputs) * len(self.round_times)

    def run_round(self, api, tracer=None):
        timed = 0.0
        before = reference_unit()
        since = []  # jobs run since `before` was measured
        round_no = len(self.round_times)
        for index, (kind, payload) in enumerate(self.inputs):
            run, check = self.jobs[kind]
            if sum(self.latencies[i][-1] for i in since) >= REF_EVERY:
                after = reference_unit()
                self._assign(since, before, after)
                before, since = after, []
            if tracer is not None:
                tracer.begin_job(f"{round_no}.{index}", kind)
            start = perf_counter()
            try:
                out = run(api, payload)
                error = None
            except Exception:  # a raising job is a failed job; the loop goes on
                error = traceback.format_exc(limit=3)
            end = perf_counter()
            if tracer is not None:
                tracer.end_job()
            self.latencies[index].append(end - start)
            since.append(index)
            timed += end - start
            if error is None:
                try:
                    if not check(payload, out):
                        error = "output differs from the reference"
                except Exception:
                    error = traceback.format_exc(limit=3)
                out = None  # free a large output before the next job builds its own
            if error is not None:
                self.failed += 1
                if len(self.failures) < 5:
                    self.failures.append(f"{kind}: {error}")
        self._assign(since, before, reference_unit())
        self.round_times.append(timed)

    def _assign(self, indices, before, after):
        for i in indices:
            self.refs[i].append((before + after) / 2)

    def run_for(self, api, seconds, tracer=None):
        start = perf_counter()
        while perf_counter() - start < seconds or len(self.round_times) < MIN_ROUNDS:
            self.run_round(api, tracer)

    @property
    def timed(self):
        return sum(self.round_times)

    def fastest(self):
        """Each job's fastest repetition, in seconds."""
        return [min(times) for times in self.latencies]

    def fastest_refs(self):
        """Each job's fastest repetition in the reference units around it."""
        return [min(t / ref for t, ref in zip(times, refs)) for times, refs in zip(self.latencies, self.refs)]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _percentiles(values, unit, note, gated):
    p50, _ = percentile(values, 0.5)
    p90, beyond = percentile(values, 0.9)
    return {
        f"job_p50_{unit}": (p50, unit, note, gated),
        f"job_p90_{unit}": (p90, unit, f"{note}, {beyond} beyond p90", gated),
    }


def end_to_end(loop, setup_times):
    """Every end-to-end metric: name -> (value, unit, note, gated).

    The gated metrics are those BENCHMARK.json bounds; the raw times are
    printed beside them but spread too much from run to run to gate on.
    """
    n = len(loop.inputs)
    note = f"n={n} jobs, each the fastest of {len(loop.round_times)} runs"
    refs = loop.fastest_refs()
    ms = [t * 1000 for t in loop.fastest()]
    return {
        "setup_s": (statistics.median(setup_times), "s", f"median of {len(setup_times)} set-ups", True),
        "jobs_per_kref": (1000 * n / sum(refs), "1/kref", note, True),
        **_percentiles(refs, "ref", note, True),
        "jobs_per_s": (1000 * n / sum(ms), "1/s", note, False),
        **_percentiles(ms, "ms", note, False),
        "ref_ms": (statistics.median(r for refs in loop.refs for r in refs) * 1000, "ms", "median reference unit", False),
        "peak_rss_mb": (peak_rss_mb(), "MB", "ru_maxrss of the workload process", True),
    }


def run_traced(jobs, inputs, m, seconds):
    """Alternate untraced and traced rounds of the same jobs.

    Returns (traced loop, untraced loop, tracer); the untraced rounds give
    the base of the tracing overhead ratio under the same machine load.
    """
    plain, traced, tracer = Loop(jobs, inputs), Loop(jobs, inputs), tracing.Tracer()
    plain_api, traced_api = tracing.make_api(m), tracing.make_api(m, tracer)
    start = perf_counter()
    while perf_counter() - start < seconds or len(traced.round_times) < MIN_ROUNDS:
        plain.run_round(plain_api)
        traced.run_round(traced_api, tracer)
    return traced, plain, tracer


def per_layer(loop, tracer, span_path, untraced):
    """Every per-layer metric, derived from the span file the traced rounds wrote.

    `untraced` ran the same round without tracing, for the overhead ratio.
    """
    tracer.write(span_path)
    metrics = tracing.layer_metrics(tracing.read_spans(span_path), len(loop.round_times))
    metrics["trace.overhead_ratio"] = sum(loop.fastest()) / sum(untraced.fastest())
    return metrics
