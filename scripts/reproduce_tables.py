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
from logsine.verify import TABLES

# the tables in print order, keyed by (angle, form) as in verify.TABLES
HEADINGS = {
    ("pi", "logsin"): "integrals of x^n log^p(sin x) over (0, pi)",
    ("pi/2", "logsin"): "integrals of x^n log^p(sin x) over (0, pi/2)",
    ("2pi", "ls"): "log-sine integrals at 2*pi",
    ("pi", "ls"): "log-sine integrals at pi",
}
# the (n, p) entries past the catalog, checked as numeric fallbacks after their table
FALLBACKS = {("pi", "logsin"): ((2, 3),)}


def show(label: str, res, oracle: float, bound: float) -> bool:
    body = res.value.text() if res.exact else f"(numeric fallback: {res.reason})"
    delta = abs(res.numeric - oracle)
    mark = "" if delta <= bound else f"   FAIL: above bound {bound:.1e}"
    print(f"{label:24s} {body}")
    print(f"{'':24s} value = {res.numeric:+.15g}   |delta vs quadrature| = {delta:.2e}{mark}")
    return delta <= bound


def main() -> int:
    cfg = NumericConfig()
    tables = {(z, form): (pairs, tol) for _, _, z, form, pairs, tol in TABLES}
    ok = True
    for i, (key, heading) in enumerate(HEADINGS.items()):
        pairs, table_bound = tables[key]
        if i:
            print()
        print(f"== {heading} ==")
        for n, p in pairs + FALLBACKS.get(key, ()):
            spec = IntegralSpec(n, p, key[0], form=key[1])
            if spec.form == "ls":
                label, res = f"order={n + p + 1} index={n}", log_sine_integral(p, n, spec.z)
            else:
                label, res = f"n={n} p={p}", log_sin_power_integral(spec)
            bound = table_bound if res.exact else res.error + cfg.target_abs_tol
            ok &= show(label, res, quadrature_value(spec, cfg), bound)

    if not ok:
        print("\nsome entries differ from quadrature by more than their bound", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
