"""Exact special-function values: Bernoulli and harmonic numbers, polygamma
at positive integers, the Euler-sum catalog, and numeric evaluation of the
alternating double zeta sum zb1.

Everything here is either an exact Fraction / SymbolicValue or an explicitly
numeric helper.  The symbolic catalog is a closed whitelist: harmonic Euler
sums sum H_k/k^n, the alternating variant at odd weight, and eta values.
Anything outside it raises instead of silently degrading to floats.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from .symbolic import (
    SymbolicValue,
    sym_zeta,
    sym_zeta_bar1,
    zeta_even,
)


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n (B_1 = -1/2 convention).

    Computed by the defining recurrence sum_{i=0}^{n} C(n+1, i) B_i = 0.
    """
    if n < 0:
        raise ValueError("bernoulli requires n >= 0")
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2 == 1:
        return Fraction(0)
    acc = Fraction(0)
    for i in range(n):
        acc += math.comb(n + 1, i) * bernoulli(i)
    return -acc / (n + 1)


_harmonic_rows: dict[int, tuple[Fraction, ...]] = {}  # r -> (H_0^{(r)}, H_1^{(r)}, ...)


def harmonic(m: int, r: int = 1) -> Fraction:
    """Exact H_m^{(r)} = sum_{i=1}^m 1/i^r.  The row of each order r is extended in a new tuple
    when a larger m asks: no reader sees a half-built row, and two threads racing on one r at
    worst store the shorter one."""
    if m < 0:
        raise ValueError("harmonic index must be >= 0")
    if r < 1:
        raise ValueError("harmonic order must be >= 1")
    row = _harmonic_rows.get(r, (Fraction(0),))
    if len(row) <= m:  # H_k^{(r)} = H_{k-1}^{(r)} + 1/k^r exactly
        steps = (Fraction(1, k**r) for k in range(len(row), m + 1))
        row = _harmonic_rows[r] = row[:-1] + tuple(accumulate(steps, initial=row[-1]))
    return row[m]


def polygamma_int(order: int, z: int) -> SymbolicValue:
    """Polygamma at a positive integer as an exact SymbolicValue.

    For order >= 1:
        psi^{(order)}(z) = (-1)^{order+1} order! (zeta(order+1) - H_{z-1}^{(order+1)}),
    with even zeta reduced to pi powers.

    For order == 0 only the Euler-constant-free difference
    psi(z) - psi(1) = H_{z-1} is representable in this basis; that
    difference is what is returned.
    """
    if z < 1:
        raise ValueError("polygamma_int requires integer z >= 1")
    if order < 0:
        raise ValueError("polygamma order must be >= 0")
    if order == 0:
        return SymbolicValue.rational(harmonic(z - 1))
    sign = Fraction((-1) ** (order + 1))
    fact = math.factorial(order)
    tail = sym_zeta(order + 1) - SymbolicValue.rational(harmonic(z - 1, order + 1))
    return (sign * fact) * tail


@lru_cache(maxsize=None)
def euler_sum_H(n: int) -> SymbolicValue:
    """Exact value of sum_{k>=1} H_k / k^n for n >= 2.

    Uses the classical linear Euler-sum reduction
    (n+2)/2 * zeta(n+1) - 1/2 * sum_{k=1}^{n-2} zeta(k+1) zeta(n-k).
    """
    if n < 2:
        raise ValueError("euler_sum_H requires n >= 2")
    total = Fraction(n + 2, 2) * sym_zeta(n + 1)
    for k in range(1, n - 1):
        total = total - Fraction(1, 2) * (sym_zeta(k + 1) * sym_zeta(n - k))
    return total


@lru_cache(maxsize=None)
def eta_value(n: int) -> SymbolicValue:
    """Exact eta(n) = (1 - 2^{1-n}) zeta(n) for n >= 2."""
    if n < 2:
        raise ValueError("eta_value requires n >= 2")
    return (Fraction(1) - Fraction(1, 2 ** (n - 1))) * sym_zeta(n)


@lru_cache(maxsize=None)
def alt_euler_sum_H(n: int) -> SymbolicValue:
    """Exact value of sum_{k>=1} (-1)^k H_k / k^n for odd n >= 3.

    Equals zb1(n) - (1 - 2^{-n}) zeta(n+1); even n is outside the
    symbolic catalog and raises.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("alt_euler_sum_H is cataloged only for odd n >= 3")
    return sym_zeta_bar1(n) - (Fraction(1) - Fraction(1, 2**n)) * zeta_even(
        (n + 1) // 2
    )


@lru_cache(maxsize=None)
def zeta_bar1_numeric(n: int) -> float:
    """zb1(n) = sum_{k>=2} (-1)^k H_{k-1} / k^n for odd n >= 3, correctly rounded.

    The k = 2 term is 2^-n, so 2^n zb1(n) = 1 - sum_{k>=0} (-1)^k H_{k+2} (2/(k+3))^n, a
    value near 1 whose fixed-point bits stay relative to zb1(n), summed in integers by
    ``numerics._alternating_double``.  With m = k + 3 the term is 2^n ((H_m/m) m^{1-n} - m^{-n-1}); H_m/m and
    m^-s are moments in k of positive measures on [0, 1], and so are their products, so
    the terms are moments of a measure of total variation at most (H_3 + 1/3) (2/3)^n < 1.
    The terms fall, so 0 < 1 - 2^n zb1(n) < H_2 (2/3)^n, which is below 2^-54, half an
    ulp under 1.0, from n = 94 on: there the double is 2^-n, also where it is subnormal or 0 (the
    grid is coarser still); ``ldexp`` gives it for any n, where ``0.5**n`` overflows past 2^1024.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("zeta_bar1_numeric requires odd n >= 3")
    if n >= 94:
        return math.ldexp(1.0, -n)
    from .numerics import _alternating_double

    def moment(k: int, bits: int) -> int:
        h = harmonic(k + 2)
        return (h.numerator << (bits + n)) // (h.denominator * (k + 3) ** n)

    return _alternating_double(moment, 1, -1, 1 << n)
