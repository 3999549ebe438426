#!/usr/bin/env python3
"""Reproduce the reference closed-form tables end to end.

Prints, for each table entry, the exact value produced by the symbolic
pipeline next to the tanh-sinh quadrature of the defining integral, with the
absolute difference.  Everything is recomputed from scratch; nothing is
hard-coded.

Exits 1 when a difference exceeds its bound: the table's ``verify-paper``
bound for an exact entry, and for a numeric fallback its claimed error plus
the quadrature tolerance.
"""

import sys

from logsine import IntegralSpec, NumericConfig, log_sin_power_integral, log_sine_integral
from logsine.integrals import quadrature_value


def show(label: str, res, oracle: float, bound: float) -> bool:
    body = res.value.text() if res.exact else f"(numeric fallback: {res.reason})"
    delta = abs(res.numeric - oracle)
    mark = "" if delta <= bound else f"   FAIL: above bound {bound:.1e}"
    print(f"{label:24s} {body}")
    print(f"{'':24s} value = {res.numeric:+.15g}   |delta vs quadrature| = {delta:.2e}{mark}")
    return delta <= bound


def main() -> int:
    cfg = NumericConfig()
    ok = True

    def row(label, spec, res, table_bound):
        nonlocal ok
        bound = table_bound if res.exact else res.error + cfg.target_abs_tol
        ok &= show(label, res, quadrature_value(spec, cfg), bound)

    print("== integrals of x^n log^p(sin x) over (0, pi) ==")
    for n, p in ((1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (2, 3)):
        spec = IntegralSpec(n, p, "pi")
        row(f"n={n} p={p}", spec, log_sin_power_integral(spec, cfg), 1e-9)

    print()
    print("== integrals of x^n log^p(sin x) over (0, pi/2) ==")
    for n, p in ((1, 2), (2, 2), (3, 2)):
        spec = IntegralSpec(n, p, "pi/2")
        row(f"n={n} p={p}", spec, log_sin_power_integral(spec, cfg), 1e-8)

    for theta, heading, pairs, bound in (
        ("2pi", "2*pi", ((2, 1), (3, 1), (2, 2), (2, 3), (2, 4), (2, 5)), 1e-9),
        ("pi", "pi", ((2, 1), (2, 2), (2, 3), (2, 4)), 1e-8),
    ):
        print()
        print(f"== log-sine integrals at {heading} ==")
        for p, n in pairs:
            spec = IntegralSpec(n, p, theta, form="ls")
            row(f"order={p + n + 1} index={n}", spec, log_sine_integral(p, n, theta, cfg), bound)

    if not ok:
        print("\nsome entries differ from quadrature by more than their bound", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
