"""A digest of the canonical text of every exact value the benchmark's exact
grid asks for, plus the shifted derivatives up to p = 12 and k = 30.  Any change
to the rational arithmetic that alters a single coefficient changes it.  A
second digest pins the bytes the closed-form and ls commands print."""

import contextlib
import hashlib
import io

from logsine import (
    DerivSpec,
    IntegralSpec,
    log_sin_power_integral,
    log_sine_integral,
    shifted_binom_deriv,
)
from logsine.cli import main

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


def _exact_texts():
    for p in range(13):
        for k in range(1, 31):
            for scaled in (False, True):
                value = shifted_binom_deriv(DerivSpec(p, k, scaled))
                yield f"sbd p={p} k={k} scaled={scaled} {value.text()}"
    for key, result in _closed_forms():
        yield f"{key} {result.value.text() if result.exact else 'numeric'}"


def test_exact_texts_match_the_golden_digest():
    digest = hashlib.sha256("\n".join(_exact_texts()).encode()).hexdigest()
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


def test_closed_form_and_ls_output_match_the_golden_digest():
    digest = hashlib.sha256("".join(_cli_outputs()).encode()).hexdigest()
    assert digest == CLI_SHA256
