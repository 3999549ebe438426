"""Tests of the benchmark itself: plans, the failure rule, span arithmetic,
and agreement between the code and BENCHMARK.json."""

import json
import math
import os
import subprocess
import sys

import pytest

import grids
import rules
import run
import spans
import worker

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", grids.WORKLOADS)
def test_same_seed_gives_same_order(workload):
    requests = grids.build(workload)
    first = grids.plan(requests, 7)
    second = grids.plan(grids.build(workload), 7)
    assert [[r.id for r in part] for part in first] == [[r.id for r in part] for part in second]
    other = grids.plan(requests, 8)
    assert [r.id for r in first[1]] != [r.id for r in other[1]]


@pytest.mark.parametrize("workload", grids.WORKLOADS)
def test_warmup_and_timed_sets_never_overlap(workload):
    requests = grids.build(workload)
    assert len({r.id for r in requests}) == len(requests)
    first_timed = None
    for seed in range(20):
        warm, timed = grids.plan(requests, seed)
        warm_ids, timed_ids = {r.id for r in warm}, {r.id for r in timed}
        assert not warm_ids & timed_ids
        assert warm_ids | timed_ids == {r.id for r in requests}
        assert len(timed) >= 100
        assert all(r.stratum is not None for r in warm)
        # one warm-up request per stratum, and every seed times the same work
        assert len(warm) == len({r.stratum for r in requests if r.stratum is not None})
        first_timed = first_timed or timed_ids
        assert timed_ids == first_timed


@pytest.mark.parametrize("workload", grids.WORKLOADS)
def test_known_defects_are_always_timed(workload):
    warm, _ = grids.plan(grids.build(workload), 0)
    assert not {r.id for r in warm} & set(run.known_failures(workload))


def test_worker_pauses_between_chunks_and_records_them():
    # the SYNC protocol the run's host-speed calibration rests on
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "worker.py"), "--workload", "oracle",
           "--seed", "1", "--limit", "0.3"]
    proc = subprocess.run(cmd, input="GO\n" * 1000, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "READY" and lines[1] == "SYNC"
    record = json.loads(lines[-1])
    chunks = record["chunks"]
    assert len(chunks) == record["attempted"] and chunks == sorted(chunks) and chunks[0] == 0
    # one SYNC before each chunk and one after the last
    assert lines.count("SYNC") == chunks[-1] + 2


def test_every_request_has_a_reference():
    for workload in grids.WORKLOADS:
        requests = grids.build(workload)
        refs = worker.load_references(requests)
        assert all(r.ref in refs for r in requests if r.ref)


def test_failure_rule_flags_a_value_moved_by_1e_8():
    ref = -943.1221943480932
    assert rules.value_failure(ref, ref, 1e-10) is None
    assert rules.value_failure(ref + 1e-8, ref, 1e-10) is not None
    # a fallback's own claimed error widens the allowance
    assert rules.value_failure(ref + 1e-8, ref, 2e-8) is None
    # so does the relative floor on large values
    assert rules.value_failure(7e6 + 1e-8, 7e6, 1e-10) is None
    assert rules.value_failure(math.nan, ref, 1e-10) is not None


def test_failure_rule_flags_a_raised_error():
    req = grids.build("oracle")[0]
    reason = worker.judge(None, req, None, RuntimeError("quadrature error estimate"), {})
    assert reason.startswith("raised RuntimeError")


def test_failure_rule_flags_a_cli_exit_of_1():
    out = json.dumps({"numeric": 1.5, "status": "ok"})
    assert rules.cli_failure(0, out, "", "1.5", 1e-10, exact_ref=False) is None
    assert rules.cli_failure(1, "", "error: tol\n", "1.5", 1e-10, exact_ref=False) is not None
    assert rules.cli_failure(0, out, "warning\n", "1.5", 1e-10, exact_ref=False) is not None
    assert rules.cli_failure(0, out, "", "1.50001", 1e-10, exact_ref=False) is not None
    bell = json.dumps({"exact": "34/5", "status": "ok"})
    assert rules.cli_failure(0, bell, "", "34/5", 1e-10, exact_ref=True) is None
    assert rules.cli_failure(0, bell, "", "33/5", 1e-10, exact_ref=True) is not None


def test_self_time_of_a_synthetic_nest():
    #  a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 9];
    #  a second top-level a runs over [12, 13]
    names = ["a", "b", "c", "d", "a"]
    parents = [-1, 0, 1, 0, -1]
    starts = [0.0, 1.0, 2.0, 5.0, 12.0]
    ends = [10.0, 4.0, 3.0, 9.0, 13.0]
    out = spans.self_times(names, parents, starts, ends)
    assert out == {"a": (2, 11.0, 4.0), "b": (1, 3.0, 2.0), "c": (1, 1.0, 1.0), "d": (1, 4.0, 4.0)}


def test_tracer_spans_nest_through_wrapped_calls():
    tracer = spans.Tracer()

    def leaf():
        return 1

    wrapped_leaf = tracer.wrap("leaf", leaf)
    outer = tracer.wrap("outer", lambda: wrapped_leaf() + wrapped_leaf())
    assert outer() == 2 and not tracer.span_name  # disabled: no spans
    tracer.enabled = True
    assert outer() == 2
    summary = tracer.summary()
    assert summary["outer.calls"] == 1 and summary["leaf.calls"] == 2
    assert summary["outer.self_ms"] >= 0 and summary["leaf.self_ms"] >= 0


def test_latencies_scale_by_the_calibrations_around_their_chunk():
    record = {"latencies_ms": [2.0, 4.0, 6.0], "chunks": [0, 0, 1]}
    # chunk 0 ran at twice the reference time, chunk 1 at the reference time
    cals = [2 * run.CAL_REF_MS, 2 * run.CAL_REF_MS, run.CAL_REF_MS]
    scaled = run.scaled_latencies(record, cals)
    assert scaled == pytest.approx([1.0, 2.0, 6.0 / 1.5])


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(grids.WORKLOADS)
