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
    linear_combination,
    sym_zeta,
    sym_zeta_bar1,
    sym_zeta_odd,
    zeta_even,
)


# (the last column of the tangent-number triangle, (B_0, B_2, B_4, ...)), one tuple
_bernoulli_table: tuple[tuple[int, ...], tuple[Fraction, ...]] = ((1,), (Fraction(1), Fraction(1, 6)))


def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n (B_1 = -1/2 convention).

    B_{2j} = (-1)^{j-1} 2j T_j / (4^j (4^j - 1)) from the tangent numbers T_j, built by
    Brent and Harvey's triangle in O(j^2) products of an integer by a small one and no
    Fraction (arXiv:1108.0286): T_j after pass k is c_j(k) = (j-k) c_{j-1}(k) + (j-k+2)
    c_j(k-1) from c_j(1) = (j-1)!, and T_j = c_j(j).  Each column extends the last, so the
    table grows in a new tuple when a larger n asks: no reader sees a half-built table, and
    two threads racing at worst store the shorter one.
    """
    global _bernoulli_table
    if n < 0:
        raise ValueError("bernoulli requires n >= 0")
    if n % 2:
        return Fraction(-1, 2) if n == 1 else Fraction(0)
    column, evens = _bernoulli_table
    if len(evens) <= n // 2:
        evens = list(evens)
        for j in range(len(column) + 1, n // 2 + 1):
            new = [(j - 1) * column[0]]
            for k in range(2, j):
                new.append((j - k) * column[k - 1] + (j - k + 2) * new[-1])
            column = (*new, 2 * new[-1])
            evens.append(Fraction((-1) ** (j - 1) * 2 * j * column[-1], 4**j * (4**j - 1)))
        evens = tuple(evens)
        _bernoulli_table = column, evens
    return evens[n // 2]


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
    (n+2)/2 * zeta(n+1) - 1/2 * sum_{k=1}^{n-2} zeta(k+1) zeta(n-k),
    whose sum runs over the pairs a + b = n + 1.  At odd n the even pairs are
    Euler's sum_{k=1}^{m-1} zeta(2k) zeta(2m-2k) = (m + 1/2) zeta(2m), m = (n+1)/2,
    which leaves (n+2)/4 * zeta(n+1) and the odd pairs; at even n each pair has one
    odd member.  A pair a < b enters once, for its two ordered terms, and the middle
    pair a = b of odd n as zeta(a)/2 times zeta(a), all in one accumulator pass.  The
    member b = n + 1 - a is the weight: at even n it is a power of pi, which the
    accumulator applies as a shift of pi's exponent.
    """
    if n < 2:
        raise ValueError("euler_sum_H requires n >= 2")
    odd = range(3, ((n + 1) // 2 if n % 2 else n - 1) + 1, 2)  # the odd member a of each pair
    return linear_combination(
        [Fraction(-(n + 2), 4 if n % 2 else 2),
         *(sym_zeta(n + 1 - a) if 2 * a != n + 1 else sym_zeta_odd(a, Fraction(1, 2)) for a in odd)],
        [sym_zeta(n + 1), *(sym_zeta(a) for a in odd)],
        -1,
    )


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
