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
import threading
from fractions import Fraction
from functools import lru_cache

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


class HarmonicTable:
    """Lazily extended exact generalized harmonic numbers H_m^{(r)}.

    H_0^{(r)} = 0 and H_m^{(r)} = H_{m-1}^{(r)} + 1/m^r exactly.
    """

    def __init__(self):
        self._tables: dict[int, list[Fraction]] = {}
        self._lock = threading.Lock()

    def value(self, m: int, r: int = 1) -> Fraction:
        if m < 0:
            raise ValueError("harmonic index must be >= 0")
        if r < 1:
            raise ValueError("harmonic order must be >= 1")
        with self._lock:
            table = self._tables.setdefault(r, [Fraction(0)])
            while len(table) <= m:
                k = len(table)
                table.append(table[-1] + Fraction(1, k**r))
            return table[m]


_HARMONIC = HarmonicTable()


def harmonic(m: int, r: int = 1) -> Fraction:
    """Exact H_m^{(r)} = sum_{i=1}^m 1/i^r."""
    return _HARMONIC.value(m, r)


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


def zeta_bar1_numeric(n: int, cfg=None) -> float:
    """Numeric zb1(n) = sum_{k>=2} (-1)^k H_{k-1} / k^n for odd n >= 3.

    Evaluated as an accelerated alternating series in the magnitudes
    H_{k-1}/k^n (the k = 1 term vanishes since H_0 = 0).
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("zeta_bar1_numeric requires odd n >= 3")
    from .numerics import NumericConfig, accelerate_alternating

    if cfg is None:
        cfg = NumericConfig()

    harmonic_cache = [0.0, 1.0]

    def magnitude(k: int) -> float:
        while len(harmonic_cache) <= k:
            harmonic_cache.append(harmonic_cache[-1] + 1.0 / (len(harmonic_cache)))
        return harmonic_cache[k - 1] / float(k) ** n

    # accelerate_alternating sums (-1)^{k+1} a_k; the target has (-1)^k.
    return -accelerate_alternating(magnitude, cfg)
