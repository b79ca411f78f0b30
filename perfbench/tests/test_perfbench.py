"""Self-tests of the benchmark harness: python3 -m pytest -q perfbench/tests"""

import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import bulk  # noqa: E402
import exhaustive  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402


@pytest.fixture(scope="module")
def modent():
    return harness.import_modent(ROOT / "src")


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload, tmp_path):
    first = harness.make_inputs(workload, 7, tmp_path)
    assert harness.make_inputs(workload, 7, tmp_path) == first
    assert harness.make_inputs(workload, 8, tmp_path) != first


def test_percentile_needs_ten_samples_beyond():
    values = list(range(1, 101))
    assert harness.percentile(values, 0.9) == (90, 10)
    assert harness.percentile(values, 0.5) == (50, 50)
    with pytest.raises(ValueError):
        harness.percentile(values[:99], 0.9)


def _span(id, parent, busy, name="x", count=1):
    return {"id": id, "parent": parent, "busy": busy, "name": name, "count": count, "failed": 0}


def test_self_time_on_a_span_tree():
    spans = [_span(0, None, 10.0), _span(1, 0, 6.0), _span(2, 0, 3.0), _span(3, 1, 4.0)]
    assert tracing.self_times(spans) == {0: 1.0, 1: 2.0, 2: 3.0, 3: 4.0}


def test_layer_metrics_from_spans():
    job = dict(_span(0, None, 1.0, "job.entropy"), counters={"distributions.entries": 8})
    spans = [
        job,
        _span(1, 0, 0.25, "distributions.ModDist", count=2),
        _span(2, 0, 0.5, "distributions.entropy", count=2),
    ]
    metrics = tracing.layer_metrics(spans, rounds=2)
    assert metrics["distributions.ModDist.calls"] == 1
    assert metrics["distributions.entropy.busy_s"] == 0.25
    assert metrics["distributions.busy_s"] == 0.375
    assert metrics["distributions.entries"] == 4
    assert metrics["bench.overhead_s"] == 0.125
    assert metrics["polynomials.check_grouping.calls"] == 0


def test_traced_api_records_spans_and_counters(modent):
    tracer = tracing.Tracer()
    api = tracing.make_api(modent, tracer)
    tracer.begin_job("0.0", "entropy")
    p = api.PrimeModulus(5)
    assert api.entropy(api.ModDist(p, [1, 1, 4])).value == modent.entropy(modent.ModDist(p, [1, 1, 4])).value
    tracer.end_job()
    names = [s["name"] for s in tracer.spans]
    assert names == ["job.entropy", "modular.PrimeModulus", "distributions.ModDist", "distributions.entropy"]
    assert tracer.spans[0]["counters"] == {"distributions.entries": 3}


def _sweeps(tmp_path):
    jobs = exhaustive.make_round(random.Random(1), tmp_path)
    return [job for job in jobs if job[0] == "chain_sweep" and job[1]["p"] == 3][:5]


def test_correct_library_passes_every_check(modent, tmp_path):
    loop = harness.Loop(exhaustive.JOBS, _sweeps(tmp_path))
    loop.run_round(tracing.make_api(modent))
    assert (loop.attempted, loop.failed) == (5, 0)


def test_planted_wrong_result_counts_as_failed(modent, tmp_path):
    api = tracing.make_api(modent)
    real_entropy = api.entropy
    api.entropy = lambda d: real_entropy(d) + 1  # off by one in Z/pZ
    loop = harness.Loop(exhaustive.JOBS, _sweeps(tmp_path))
    loop.run_round(api)
    assert (loop.attempted, loop.failed) == (5, 5)


def test_raising_job_counts_as_failed(modent, tmp_path):
    api = tracing.make_api(modent)
    api.make_map = None  # calling it raises TypeError
    maps = [job for job in bulk.make_round(random.Random(1), tmp_path) if job[0] == "map"]
    loop = harness.Loop(bulk.JOBS, maps)
    loop.run_round(api)
    assert loop.failed == loop.attempted == sum(copies for _, copies in bulk.MAPS)


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _, _ in tracing.per_layer_spec()]
    gated = {name: unit for name, (_, unit, _, gated) in _fake_end_to_end().items() if gated}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == gated


def _fake_end_to_end():
    loop = harness.Loop({}, [("x", None)] * 100)
    loop.latencies = [[0.002, 0.001]] * 100
    loop.refs = [[0.001, 0.0005]] * 100
    loop.round_times = [0.2, 0.1]
    return harness.end_to_end(loop, [0.5, 0.4, 0.6])


def test_job_latency_is_fastest_repetition_in_reference_units():
    metrics = _fake_end_to_end()
    assert metrics["setup_s"][0] == 0.5
    assert metrics["job_p50_ref"][0] == 2.0  # min(0.002 / 0.001, 0.001 / 0.0005)
    assert metrics["job_p50_ms"][0] == 1.0
    assert metrics["jobs_per_kref"][0] == 500.0
