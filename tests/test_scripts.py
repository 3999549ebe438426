import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "reproduce_tables.py"
WORKER = ROOT / "perfbench" / "worker.py"


@pytest.fixture
def reproduce_tables():
    spec = importlib.util.spec_from_file_location("reproduce_tables", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reproduce_tables_passes(reproduce_tables, capsys):
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
