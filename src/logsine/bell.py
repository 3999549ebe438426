"""Complete Bell polynomials over any commutative ring that supports Python
``+``, ``*`` and multiplication by int (Fractions, floats, SymbolicValues).

Everything is built from two properties: the recurrence
B_{m+1} = sum_i C(m, i) B_{m-i} s_{i+1} (:func:`complete_bell_all`), and the
binomial identity over it, B_n(x + y) = sum_i C(n, i) B_i(x) B_{n-i}(y)
(:func:`binomial_convolution` of two prefix rows).  :func:`complete_bell`
splits off s_1, whose Bell row is its powers.  Binomial coefficients enter
only as integer scalars, so evaluation over exact rings stays exact.
"""

from __future__ import annotations

import math
from typing import Sequence


def complete_bell_all(seq: Sequence, one=1, prefix: Sequence = ()) -> list:
    """All prefix values [B_0, B_1(s_1), ..., B_n(s_1..s_n)] by the classic
    recurrence B_{m+1} = sum_{i=0}^{m} C(m, i) B_{m-i} s_{i+1}; a known
    ``prefix`` [B_0, ..., B_l] of that row is extended rather than rebuilt."""
    values = list(prefix) or [one]
    for m in range(len(values) - 1, len(seq)):
        acc = 0 * one
        for i in range(m + 1):
            acc = acc + math.comb(m, i) * (values[m - i] * seq[i])
        values.append(acc)
    return values


def binomial_convolution(x: Sequence, y: Sequence, n: int, one=1):
    """sum_{i=0}^{n} C(n, i) x_i y_{n-i} over two prefix rows of length > n; over
    the Bell rows of two sequences it is B_n of their elementwise sum.

    C(n, i) x_i is formed first, so a row x of rationals costs one product
    per entry of a symbolic row y.
    """
    acc = 0 * one
    for i in range(n + 1):
        acc = acc + (math.comb(n, i) * x[i]) * y[n - i]
    return acc


def complete_bell(seq: Sequence, one=1):
    """Complete Bell polynomial B_n(s_1, ..., s_n) of the whole sequence, by the
    binomial identity over (s_1, 0, ..., 0) + (0, s_2, ..., s_n): the Bell row
    of the first is the powers of s_1.  The empty sequence yields ``one``.
    """
    n = len(seq)
    powers = [one]
    for _ in range(n):
        powers.append(powers[-1] * seq[0])
    return binomial_convolution(powers, complete_bell_all([0 * one, *seq[1:]], one), n, one)


def complete_bell_recurrence(seq: Sequence, one=1):
    """B_n(s_1..s_n) by the classic recurrence; independent oracle for
    :func:`complete_bell`."""
    return complete_bell_all(seq, one)[-1]


def bell_binomial_convolution(a: Sequence, b: Sequence, one=1):
    """sum_{i=0}^{n} C(n, i) B_i(a) B_{n-i}(b) for equal-length sequences.

    By the binomial identity of complete Bell polynomials this equals
    B_n(a + b) with elementwise sequence addition.
    """
    if len(a) != len(b):
        raise ValueError("sequences must have equal length")
    return binomial_convolution(complete_bell_all(a, one), complete_bell_all(b, one), len(a), one)


def bell_cot_closed_form(n: int, k: float) -> float:
    """Closed form of the Bell value over successive derivatives of
    pi*cot(pi*k): (-1)^j pi^{2j} for n = 2j and (-1)^j pi^{2j+1} cot(pi*k)
    for n = 2j+1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if k == round(k):
        raise ValueError("cot sequence has a pole at integer k")
    j, rem = divmod(n, 2)
    if rem == 0:
        return (-1.0) ** j * math.pi ** (2 * j)
    cot = math.cos(math.pi * k) / math.sin(math.pi * k)
    return (-1.0) ** j * math.pi ** (2 * j + 1) * cot
