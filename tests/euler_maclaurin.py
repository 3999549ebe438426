"""zeta(s) at integer s >= 2 by the Euler-Maclaurin formula in exact rationals,
an oracle for ``zeta_numeric`` that shares none of its arithmetic.

zeta(s) = sum_{k<=K} k^-s + K^{1-s}/(s-1) - K^-s/2 + sum_{j=1}^{m} T_j + R_m with
T_j = B_2j/(2j)! s(s+1)...(s+2j-2) K^{1-s-2j}, and for real s the remainder R_m is at
most |T_{m+1}| (Edwards, Riemann's Zeta Function, 6.4).
"""

import math
from fractions import Fraction
from functools import lru_cache

from logsine import bernoulli

K = 20  # terms summed directly
M = 12  # Bernoulli corrections


def zeta_bracket(s: int) -> tuple[Fraction, Fraction]:
    """Rationals lo < zeta(s) < hi."""
    value = sum(Fraction(1, k**s) for k in range(1, K + 1))
    value += Fraction(1, (s - 1) * K ** (s - 1)) - Fraction(1, 2 * K**s)
    rising = s  # s (s+1) ... (s+2j-2)
    for j in range(1, M + 2):
        term = bernoulli(2 * j) / math.factorial(2 * j) * rising / Fraction(K) ** (s + 2 * j - 1)
        if j == M + 1:
            return value - abs(term), value + abs(term)
        value += term
        rising *= (s + 2 * j - 1) * (s + 2 * j)


@lru_cache(maxsize=None)
def zeta_double(s: int) -> float:
    """zeta(s) correctly rounded; raises if the bracket holds two doubles."""
    lo, hi = map(float, zeta_bracket(s))
    if lo != hi:
        raise ArithmeticError(f"the bracket of zeta({s}) rounds to {lo!r} and {hi!r}")
    return lo
