import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "reproduce_tables.py"
WORKER = ROOT / "perfbench" / "worker.py"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def load_script(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def reproduce_tables():
    return load_script(SCRIPT)


def test_reproduce_tables_passes(reproduce_tables, capsys):
    """Reference tables against quadrature"""
    assert reproduce_tables.main() == 0
    assert "FAIL" not in capsys.readouterr().out


def test_reproduce_tables_fails_on_a_distant_oracle(reproduce_tables, monkeypatch, capsys):
    # an oracle 1e-7 away from every entry is outside every table's bound
    real = reproduce_tables.quadrature_value
    monkeypatch.setattr(reproduce_tables, "quadrature_value", lambda spec, cfg: real(spec, cfg) + 1e-7)
    assert reproduce_tables.main() == 1
    captured = capsys.readouterr()
    assert captured.out.count("FAIL") == 19  # every row
    assert "more than their bound" in captured.err


@pytest.mark.parametrize("workload", ["series", "exact", "oracle"])
def test_traced_benchmark_pass_runs(workload):
    # the traced pass wraps integrals._k_series_numeric by name and positional
    # signature, and every public function of the package; a short pass fails
    # when either no longer matches.  The oracle pass runs the deriv:* checks,
    # and with them the Bell-lemma oracle, under the tracer
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--workload", workload, "--seed", "1",
         "--limit", "0.3", "--mode", "traced"],
        input="\n" * 1000,  # one line per handshake with the (absent) parent
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["workload"] == workload


def test_the_workflow_holds_no_check_of_its_own():
    # every check lives in tier-1, where a local run makes it too; CI adds verify-paper
    # and the benchmark's correctness runs, and no program, heredoc or time limit inline
    assert not re.search(r"<<|python3? -c\b|\btimeout\s", WORKFLOW.read_text())


E2E = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def canned_record(req_per_s, p50, p90, setup_s, rss, failed=0):
    values = dict(req_per_s=req_per_s, latency_p50_ms=p50, latency_p90_ms=p90, setup_s=setup_s, peak_rss_mb=rss)
    return {"correct": True, "attempted": 100, "failed": failed,
            "metrics": {name: {"value": value, "unit": ""} for name, value in values.items()}}


def canned_pairs(change_failed=0):
    """Ten (parent, change) records: req_per_s 10% higher in every pair, p50 lower in 9 of 10
    pairs but by less than the parent's IQR, p90 30% higher, setup_s equal, peak_rss 5% higher;
    the change fails ``change_failed`` requests in its fourth run."""
    pairs = []
    for i, rps in enumerate([100, 104, 96, 101, 99, 103, 97, 100, 102, 98]):
        p50 = 1.0 + 0.1 * (i % 4)
        parent = canned_record(rps, p50, 2.0, 0.1, 20.0)
        change = canned_record(rps * 1.1, p50 - (0.01 if i else -0.01), 2.6, 0.1, 21.0,
                               failed=change_failed if i == 3 else 0)
        pairs.append((parent, change))
    return pairs


def summary_rows(lines):
    return {line.split()[0]: line.split() for line in lines[1:6]}


def test_pairs_summary_applies_the_gain_rule_and_the_bounds():
    pairs = load_script(ROOT / "scripts" / "pairs.py")
    lines = pairs.summary(E2E, canned_pairs())
    rows = summary_rows(lines)
    assert rows["req_per_s"][1:4] == ["100", "110", "+10.0%"] and rows["req_per_s"][-3:] == ["10/10", "yes", "ok"]
    assert rows["latency_p50_ms"][-3:] == ["9/10", "no", "ok"]  # 9 wins, but within the IQR
    assert rows["latency_p90_ms"][-3:] == ["0/10", "no", "WORSE"]  # 30% past a 25% bound
    assert rows["setup_s"][-3:] == ["0/10", "no", "ok"]
    assert rows["peak_rss_mb"][-3:] == ["0/10", "no", "ok"]  # 5% within a 10% bound
    assert lines[6:] == ["parent: correct in 10/10 runs, 0 of 1000 requests failed",
                         "change: correct in 10/10 runs, 0 of 1000 requests failed"]


def test_pairs_no_gain_counts_when_more_requests_fail():
    pairs = load_script(ROOT / "scripts" / "pairs.py")
    lines = pairs.summary(E2E, canned_pairs(change_failed=1))
    assert summary_rows(lines)["req_per_s"][-3:] == ["10/10", "no", "ok"]
    assert lines[7] == "change: correct in 10/10 runs, 1 of 1000 requests failed"


@pytest.mark.parametrize("lead, gain", [(5, "no"), (6, "yes")])
def test_pairs_take_the_parent_iqr_by_the_exclusive_method(lead, gain):
    # parent req_per_s 100..109: the exclusive quartiles 101.75..107.25 span 5.5, the
    # inclusive ones 102.25..106.75 only 4.5, so a lead of 5 in every pair is no gain
    pairs = load_script(ROOT / "scripts" / "pairs.py")
    records = [(canned_record(rps, 1.0, 2.0, 0.1, 20.0), canned_record(rps + lead, 1.0, 2.0, 0.1, 20.0))
               for rps in [103, 100, 108, 105, 101, 109, 104, 102, 107, 106]]
    row = summary_rows(pairs.summary(E2E, records))["req_per_s"]
    assert row[4:6] == ["101.75", "..107.25"]
    assert row[-3:] == ["10/10", gain, "ok"]


@pytest.mark.parametrize("change_rps, verdict", [
    ([100, 60, 140, 80, 120, 100, 60, 140, 80, 120], "unresolved"),  # equal runs, noisy parent
    ([141] * 10, "ok"),  # every change run better than every parent run
])
def test_pairs_call_a_metric_noisier_than_its_bound_unresolved(change_rps, verdict):
    # parent req_per_s 60..140: the IQR 75..125 is wider than 25% of the median 100
    pairs = load_script(ROOT / "scripts" / "pairs.py")
    records = [(canned_record(rps, 1.0, 2.0, 0.1, 20.0), canned_record(c, 1.0, 2.0, 0.1, 20.0))
               for rps, c in zip([100, 60, 140, 80, 120, 100, 60, 140, 80, 120], change_rps)]
    rows = summary_rows(pairs.summary(E2E, records))
    assert rows["req_per_s"][4:6] == ["75", "..125"]
    assert rows["req_per_s"][-1] == verdict
    assert rows["latency_p50_ms"][-1] == "ok"


def test_pairs_run_one_pair_per_seed_alternating_for_the_parent_run_length(monkeypatch, tmp_path, capsys):
    pairs = load_script(ROOT / "scripts" / "pairs.py")
    runs, records = [], iter(record for pair in canned_pairs() for record in pair)

    def archive(rev, dest):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        bench["run_seconds"] = 2 if dest.name == "parent" else 99
        dest.mkdir()
        (dest / "BENCHMARK.json").write_text(json.dumps(bench))
        return dest

    def run_once(root, workload, seed, seconds):
        runs.append((root.name, workload, seed, seconds))
        return next(records)

    monkeypatch.setattr(pairs, "archive", archive)
    monkeypatch.setattr(pairs, "run_once", run_once)
    assert pairs.main(["A", "B", "--workload", "exact", "--seeds", "7-9"]) == 0
    assert runs == [("parent", "exact", 7, 2), ("change", "exact", 7, 2), ("change", "exact", 8, 2),
                    ("parent", "exact", 8, 2), ("parent", "exact", 9, 2), ("change", "exact", 9, 2)]
    out = capsys.readouterr().out
    assert "exact: A -> B, 3 pairs, seeds 7-9, 2 s each" in out and "req_per_s" in out
