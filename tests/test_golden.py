"""A digest of the canonical text of every exact value the benchmark's exact
grid asks for, plus the shifted derivatives up to p = 12 and k = 30.  Any change
to the rational arithmetic that alters a single coefficient changes it."""

import hashlib

from logsine import (
    DerivSpec,
    IntegralSpec,
    log_sin_power_integral,
    log_sine_integral,
    shifted_binom_deriv,
)

GOLDEN_SHA256 = "8f1843675c4cbd4fa25a32f22959adaa298516cfe1e7a1dd2d66f6746e7b8ce9"


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
