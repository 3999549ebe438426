"""Complete Bell polynomials over any commutative ring that supports Python
``+``, ``*`` and multiplication by int (Fractions, floats, SymbolicValues).

A Bell value is evaluated one way, by the recurrence
B_{m+1} = sum_i C(m, i) B_{m-i} s_{i+1} (:func:`complete_bell_all`).  The binomial
identity B_n(x + y) = sum_i C(n, i) B_i(x) B_{n-i}(y) (:func:`binomial_convolution`)
only combines two such rows; over (s_1, 0, ..., 0) and (0, s_2, ..., s_n) it is the
tests' independent check of :func:`complete_bell`.  Binomial coefficients enter
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
    """Complete Bell polynomial B_n(s_1, ..., s_n) of the whole sequence, the last
    value of :func:`complete_bell_all`.  The empty sequence yields ``one``."""
    return complete_bell_all(seq, one)[-1]


complete_bell_recurrence = complete_bell  # the one evaluator's second, older name


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
