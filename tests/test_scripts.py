import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_tables.py"


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
