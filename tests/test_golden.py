"""A digest of the canonical text of every exact value the benchmark's exact
grid asks for, plus the shifted derivatives up to p = 12 and k = 30.  Any change
to the rational arithmetic that alters a single coefficient changes it.  A
second digest pins the bytes the closed-form and ls commands print, and four
more the bytes of the largest binom-deriv outputs and the bits of the
benchmark's any-angle and quadrature grids, each from a fresh interpreter."""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from logsine import (
    DerivSpec,
    IntegralSpec,
    log_sin_power_integral,
    log_sine_integral,
    shifted_binom_deriv,
)
from logsine import binomderiv, integrals, specialfn, symbolic
from logsine.cli import main
from fresh import run_fresh

GOLDEN_SHA256 = "8f1843675c4cbd4fa25a32f22959adaa298516cfe1e7a1dd2d66f6746e7b8ce9"
CLI_SHA256 = "cec0d3edb988130a9f5c3a4bab1d05acd1afa4ef190ea6ece8abaee1a452a1aa"


def _closed_forms():
    for z in ("pi", "pi/2"):
        for p in range(3):
            for n in range(31):
                yield f"lsp z={z} n={n} p={p}", log_sin_power_integral(IntegralSpec(n, p, z))
    for z, n in (("pi", 0), ("pi", 1), ("pi/2", 0)):
        for p in range(3, 13):
            yield f"lsp z={z} n={n} p={p}", log_sin_power_integral(IntegralSpec(n, p, z))
    for theta in ("pi", "2pi"):
        for p in range(3):
            for n in range(21):
                yield f"ls theta={theta} n={n} p={p}", log_sine_integral(p, n, theta)


def _exact_texts(before_closed_forms=lambda: None):
    for p in range(13):
        for k in range(1, 31):
            for scaled in (False, True):
                value = shifted_binom_deriv(DerivSpec(p, k, scaled))
                yield f"sbd p={p} k={k} scaled={scaled} {value.text()}"
    before_closed_forms()
    for key, result in _closed_forms():
        yield f"{key} {result.value.text() if result.exact else 'numeric'}"


@pytest.mark.parametrize("refuse_deriv_spec", [False, True])
def test_exact_texts_match_the_golden_digest(refuse_deriv_spec, monkeypatch):
    # refused, the closed forms run cold and build no DerivSpec: each reads its central
    # term from the constant row
    def refuse(*args):
        raise AssertionError("a closed form built a DerivSpec")

    def cold_and_refused():
        for module in (binomderiv, integrals, specialfn, symbolic):
            for cached in vars(module).values():
                getattr(cached, "cache_clear", lambda: None)()
        monkeypatch.setattr(DerivSpec, "__init__", refuse)

    texts = _exact_texts(cold_and_refused) if refuse_deriv_spec else _exact_texts()
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest == GOLDEN_SHA256


def _cli_outputs():
    for command, flag, angles in (("closed-form", "--z", ("pi/2", "pi")), ("ls", "--theta", ("pi", "2pi"))):
        for angle in angles:
            for p in range(5):
                for n in range(7):
                    for extra in ((), ("--json",)):
                        out = io.StringIO()
                        with contextlib.redirect_stdout(out):
                            code = main([command, flag, angle, "--n", str(n), "--p", str(p), *extra])
                        yield f"{code} {out.getvalue()}"


@pytest.mark.within(60)
def test_closed_form_and_ls_output_match_the_golden_digest():
    """Catalog k-sums print the pinned forms (scaled log 4, half-angle row) and a p = 3 miss
    Results print by one record rule, the JSON keys of each kind and its bare text"""
    digest = hashlib.sha256("".join(_cli_outputs()).encode()).hexdigest()
    assert digest == CLI_SHA256


# every a*pi/b of the series grid at p = 1..4, its irrational angles, and p <= 12 at 20 seeded angles
ANY_ANGLE_BITS = r"""
import math, random, sys
from logsine import log_sine_any_angle
angles = [math.pi, 2 * math.pi]
for b in range(2, 13):
    angles += [math.pi / b, (2 * b - 1) * math.pi / b]
calls = [(p, z) for p in range(1, 5) for z in angles] + [(1, 1.0), (1, 2.5)]
rng = random.Random(44)
calls += [(p, rng.uniform(0.0, 2 * math.pi)) for _ in range(20) for p in range(1, 13)]
sys.stdout.write(" ".join(x.hex() for call in calls for x in log_sine_any_angle(*call)))
"""

# the 216 quadratures of the benchmark's oracle grid, each value's hex or its exception
ORACLE_GRID_BITS = r"""
import sys
from logsine import IntegralSpec, quadrature_value

def outcome(spec):
    try:
        return quadrature_value(spec).hex()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"

specs = [IntegralSpec(n, p, z if z in ("pi/2", "pi", "2pi") else float(z), form=form)
         for form, angles in (("logsin", ("pi/2", "pi", "1.1")), ("ls", ("pi", "2pi", "3.0")))
         for z in angles for n in range(6) for p in range(1, 7)]
sys.stdout.write("\n".join(map(outcome, specs)))
"""

# the table script, run as a program
REPRODUCE_TABLES = f"""
import runpy
runpy.run_path({str(Path(__file__).resolve().parents[1] / "scripts" / "reproduce_tables.py")!r}, run_name="__main__")
"""


@pytest.mark.parametrize("args,seconds,digest", [
    # 29,074 terms scaled and 4,053 unscaled
    (["binom-deriv", "--p", "40", "--k", "200", "--scaled", "--json"], 60,
     "dc9cd8431fd0a114c92656624ea27bdaf672c24bb1ab353be9977213c530621a"),
    (["binom-deriv", "--p", "40", "--k", "200", "--json"], 60,
     "7a98d587e6232cd0df52237e6e7e9c9a12f3c736ea4f6f505e58f02e670547fe"),
    (ANY_ANGLE_BITS, 10, "831bcc6f202e74e68b091ba815d80cf80d1e4be78fd3e74d6ed1a23cb7615021"),
    (ORACLE_GRID_BITS, 60, "38e27bc1ba7a331de4beb69bc09ca3483b65b8bd0c2ab6474e79b80cbe1d307b"),
    (["verify-paper"], 60, "1eeb62bac5f3c04e4b731116f94996f3adb528d2187ba2cf7416c03daaaa2b20"),
    (["verify-paper", "--json"], 60, "5ae603e03a1eadfdabc0183cc3422b498ee4f4de4822970ad9676231be49fa7a"),
    (REPRODUCE_TABLES, 60, "16ccc9af520b2bcf2729c7797935fe439839f2e8a908938b22f16f7e379e346f"),
], ids=["binom-deriv-scaled", "binom-deriv", "any-angle", "oracle-grid", "verify-paper", "verify-paper-json",
        "reproduce-tables"])
def test_a_fresh_output_matches_its_digest(args, seconds, digest):
    """Largest binom-deriv order and shift run in time, the next ones are refused
    Any-angle values keep their bits on the benchmark's series grid and at seeded angles
    The oracle grid keeps its bits, and the log-sine form answers within 1e-13 of 2pi and at a subnormal angle
    verify-paper and the reference tables print the same bytes on every Python the CI runs"""
    out = run_fresh(args, timeout=seconds).stdout
    assert hashlib.sha256(out.encode()).hexdigest() == digest
