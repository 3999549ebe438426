"""Regenerate ``references.json``: an independent high-precision value for the
reference key of every request in every workload grid.

Usage:  python3 perfbench/make_references.py [--jobs N]

The values come from mpmath (a benchmark-only tool, never a dependency of the
package) at 40 significant digits.  Each one is computed by two different
methods and kept only when they agree to 1e-25 relative, so no reference
rests on a single quadrature or differencing rule:

* integrals: tanh-sinh on a fold that moves every log singularity to 0,
  against an unfolded, split quadrature at 55 digits;
* binomial m-derivatives: Taylor coefficients by finite differences,
  against the trapezoid rule for a Cauchy contour integral;
* Bell polynomials: exact Fraction arithmetic, checked against the sum over
  set partitions of the first values.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from functools import lru_cache

import mpmath as mp

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import grids  # noqa: E402

DIGITS = 40
AGREE = mp.mpf(10) ** -25
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


def _fields(key: str) -> tuple[str, dict[str, str]]:
    kind, *parts = key.split(":")
    return kind, dict(part.split("=", 1) for part in parts)


def _angle(text: str) -> mp.mpf:
    named = {"pi/2": mp.pi / 2, "pi": mp.pi, "2pi": 2 * mp.pi}
    if text in named:
        return +named[text]
    if text.endswith("*pi"):
        num, den = text[:-3].split("/")
        return mp.mpf(int(num)) / int(den) * mp.pi
    return mp.mpf(float(text))  # the exact binary64 value the program receives


def _integral(log_base, z: mp.mpf, period: mp.mpf, n: int, p: int, fold: bool):
    """Integral of x^n log^p(log_base(x)) over (0, z).

    With ``fold`` an integral over the whole period uses the integrand's
    symmetry about period/2 to fold (0, period) onto (0, period/2), so the
    far-end singularity joins the one at 0; without it the interval is
    split in quarters and the far end is left to the extra digits.
    """
    if fold and z == period:
        half = period / 2
        return mp.quad(
            lambda x: (x**n + (period - x) ** n) * mp.log(log_base(x)) ** p,
            [0, half / 2, half],
        )
    points = [0, z / 2, z] if fold else [0, z / 4, z / 2, 3 * z / 4, z]
    return mp.quad(lambda x: x**n * mp.log(log_base(x)) ** p, points)


SBD_MAX_P = 10
CAUCHY_NODES = 192


@lru_cache(maxsize=None)
def _binom_derivatives(k: int, scaled: int, fold: bool) -> tuple:
    """[d^p/dm^p of 4^(-m*scaled) binom(2m, m+k) at m = 0 for p = 0..SBD_MAX_P]."""

    def coefficient(m):
        return (mp.gamma(2 * m + 1) * mp.rgamma(m + k + 1) * mp.rgamma(m - k + 1)
                * mp.power(4, -m * scaled))

    if fold:
        coeffs = mp.taylor(coefficient, 0, SBD_MAX_P)
    else:
        # trapezoid rule for the Cauchy integral on |m| = 1/4; the nearest
        # pole is at m = -1/2, so aliasing is below 2^-CAUCHY_NODES
        radius = mp.mpf(1) / 4
        nodes = [mp.expjpi(mp.mpf(2 * j) / CAUCHY_NODES) for j in range(CAUCHY_NODES)]
        samples = [coefficient(radius * w) for w in nodes]
        coeffs = [
            mp.fsum(s * w ** (-p) for s, w in zip(samples, nodes)) / CAUCHY_NODES / radius**p
            for p in range(SBD_MAX_P + 1)
        ]
    return tuple(mp.re(c) * mp.factorial(p) for p, c in enumerate(coeffs))


def _value(key: str, fold: bool) -> mp.mpf:
    kind, f = _fields(key)
    if kind == "lsp":
        return _integral(mp.sin, _angle(f["z"]), mp.pi, int(f["n"]), int(f["p"]), fold)
    if kind == "ls":
        return -_integral(lambda x: 2 * mp.sin(x / 2), _angle(f["theta"]), 2 * mp.pi,
                          int(f["n"]), int(f["p"]), fold)
    if kind == "spm":
        n, m, z = int(f["n"]), int(f["m"]), _angle(f["z"])
        points = [0, z / 2, z] if fold else [0, z / 3, 2 * z / 3, z]
        return mp.quad(lambda x: x**n * mp.sin(x) ** (2 * m), points)
    if kind == "sbd":
        derivs = _binom_derivatives(int(f["k"]), int(f["scaled"]), fold)
        return derivs[int(f["p"])]
    raise ValueError(f"unknown reference key {key!r}")


def _bell(seq: list[Fraction]) -> Fraction:
    # classic recurrence B_{m+1} = sum_i C(m, i) B_{m-i} s_{i+1}
    values = [Fraction(1)]
    for m in range(len(seq)):
        values.append(sum(math.comb(m, i) * values[m - i] * seq[i] for i in range(m + 1)))
    return values[-1]


def _bell_by_partitions(seq: list[Fraction]) -> Fraction:
    # sum over set partitions of {1..n} of the product of s_|block|
    def partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for part in partitions(rest):
            yield [[first]] + part
            for i in range(len(part)):
                yield part[:i] + [[first] + part[i]] + part[i + 1:]

    total = Fraction(0)
    for part in partitions(list(range(len(seq)))):
        term = Fraction(1)
        for block in part:
            term *= seq[len(block) - 1]
        total += term
    return total


def reference(key: str) -> str:
    """The reference for one key, as a decimal or exact rational string."""
    if key.startswith("bell:"):
        seq = [Fraction(s) for s in key[len("bell:"):].split(",")]
        value = _bell(seq)
        if _bell_by_partitions(seq) != value:
            raise ArithmeticError(f"{key}: Bell recurrence and partition sum disagree")
        return str(value)
    mp.mp.dps = DIGITS
    first = _value(key, fold=True)
    mp.mp.dps = DIGITS + 15
    second = _value(key, fold=False)
    mp.mp.dps = DIGITS
    if abs(first - second) > AGREE * max(abs(first), 1):
        raise ArithmeticError(f"{key}: methods disagree, {first} vs {second}")
    return mp.nstr(first, 34)


def all_keys() -> list[str]:
    return sorted({r.ref for w in grids.WORKLOADS for r in grids.build(w) if r.ref})


def _group(key: str) -> str:
    # derivatives sharing (k, scaled) come from one Taylor expansion
    if not key.startswith("sbd:"):
        return key
    f = _fields(key)[1]
    return f"sbd:k={f['k']}:scaled={f['scaled']}"


def _references(keys: list[str]) -> list[str]:
    return [reference(key) for key in keys]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1, help="worker processes")
    args = parser.parse_args()
    groups: dict[str, list[str]] = {}
    for key in all_keys():
        groups.setdefault(_group(key), []).append(key)
    values = {}
    with ProcessPoolExecutor(max_workers=args.jobs) as pool:
        for keys, refs in zip(groups.values(), pool.map(_references, groups.values())):
            values.update(zip(keys, refs))
    table = {"mpmath": mp.__version__, "digits": DIGITS, "refs": values}
    with open(OUT, "w") as fh:
        json.dump(table, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(values)} references to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
