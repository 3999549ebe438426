"""Exact m-derivatives of C(m) = binom(2m, m+k) and its 4^{-m}-scaled variant
at m = 0, plus the polygamma sequence of the derivatives at general m.

The symbolic route evaluates complete Bell polynomials over the sequences

    xi_bar_j  = (-2)^j psi^{(j-1)}(1) + 2[j odd] psi^{(j-1)}(k)
                - 2[j even] psi^{(j-1)}(1) + (j-1)!/k^j          (shift k >= 1)
    eta_bar_j = (-1)^j (2^j - 2) psi^{(j-1)}(1)                  (central, k = 0)

whose polygamma values collapse to the Euler-constant-free basis
{pi, log 2, zeta(odd)} at positive integer arguments.  An independent
float oracle verifies every symbolic derivative numerically: the same Bell
lemma over the polygamma sequence of the derivatives, read at m = 0.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .bell import binomial_convolution, complete_bell_all
from .numerics import _refuse_non_int, polygamma_real
from .specialfn import polygamma_int
from .symbolic import SymbolicValue, _reduced, graded_combination, sym_log2, sym_pi


class DerivSpec(namedtuple("DerivSpec", "p k scaled")):
    """Request for d^p/dm^p of binom(2m, m+k) (optionally 4^{-m}-scaled) at m=0."""

    __slots__ = ()

    def __new__(cls, p: int, k: int, scaled: bool = False):
        if not isinstance(p, int) or not isinstance(k, int):
            _refuse_non_int(p=p, k=k)
        if p < 0:
            raise ValueError("derivative order p must be >= 0")
        if k < 0:
            raise ValueError("shift k must be >= 0")
        if scaled not in (False, True):  # "False" would be truthy and key a row of its own
            raise ValueError(f"scaled must be False or True, got {scaled!r}")
        return tuple.__new__(cls, (p, k, scaled))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too


LOG4 = sym_log2(1, 2)  # log 4 = 2 log 2


def _log_gamma_deriv(j: int, m: float, k: int) -> float:
    """g_j(m) = 2^j psi^{(j-1)}(1+2m) - psi^{(j-1)}(1+m+k) + t, the j-th m-derivative
    of the log of the gamma-function form of binom(2m, m+k): t = -psi^{(j-1)}(1+m-k)
    where 1+m-k > 0, else the reflected (-1)^j psi^{(j-1)}(k-m)."""
    n = j - 1
    if m + 1 - k > 0:
        t = -polygamma_real(n, m + 1 - k)
    else:
        t = (-1.0) ** j * polygamma_real(n, k - m)
    return 2.0**j * polygamma_real(n, 2 * m + 1) - polygamma_real(n, m + 1 + k) + t


def delta_numeric(j: int, m: float, k: int) -> float:
    """The sequence (-1)^j [2^j psi^{(j-1)}(2m+1) - psi^{(j-1)}(m+1+k) - psi^{(j-1)}(m+1-k)].

    Its complete Bell polynomial gives the p-th derivative of binom(2m, m+k)
    at general m.  Numeric path; all three polygamma arguments must be
    positive, so for k >= 1 it requires m > k - 1.
    """
    if j < 1:
        raise ValueError("sequence index j must be >= 1")
    if k < 0:
        raise ValueError("shift k must be >= 0")
    if 2 * m + 1 <= 0 or m + 1 - k <= 0:
        raise ValueError(
            "delta_numeric needs 2m+1 > 0 and m+1-k > 0; use the symbolic path at m=0"
        )
    return (-1.0) ** j * _log_gamma_deriv(j, m, k)


def _xi_scaled(j: int, k: int, lcm: int) -> int:
    """r_j(k) L^j for L = lcm(1..k), where r_j(k) = xi_bar_j - eta_bar_j is (j-1)!/k^j plus
    2 (j-1)! H_{k-1}^{(j)} from psi^{(j-1)}(k) - psi^{(j-1)}(1) at odd j (2 H_k - 1/k at
    j = 1): (j-1)! [(L/k)^j + 2 [j odd] sum_{i<k} (L/i)^j], all in integers, since every
    i <= k divides L."""
    tail = 2 * sum((lcm // i) ** j for i in range(1, k)) if j % 2 else 0
    return math.factorial(j - 1) * ((lcm // k) ** j + tail)


def _xi_rational(j: int, k: int) -> Fraction:
    # r_j(k) = xi_bar_j - eta_bar_j, by the one integer form of the rational rows
    lcm = math.lcm(*range(1, k + 1))
    return Fraction(_xi_scaled(j, k, lcm), lcm**j)


@lru_cache(maxsize=None)
def xi_bar(j: int, k: int) -> SymbolicValue:
    """Exact xi_bar_j for shift k >= 1, in the gamma-free symbolic basis:
    the k-free constant eta_bar_j plus the rational r_j(k)."""
    if j < 1:
        raise ValueError("sequence index j must be >= 1")
    if k < 1:
        raise ValueError("xi_bar requires k >= 1 (use eta_bar for the central case)")
    return eta_bar(j) + _xi_rational(j, k)


def xi_bar_scaled(j: int, k: int) -> SymbolicValue:
    """xi_bar_j for the 4^{-m}-scaled coefficient: only j = 1 changes, by +log 4."""
    base = xi_bar(j, k)
    return base + LOG4 if j == 1 else base


@lru_cache(maxsize=None)
def eta_bar(j: int) -> SymbolicValue:
    """Exact eta_bar_j = (-1)^j (2^j - 2) psi^{(j-1)}(1); eta_bar_1 = 0."""
    if j < 1:
        raise ValueError("sequence index j must be >= 1")
    return Fraction((-1) ** j * (2**j - 2)) * polygamma_int(j - 1, 1)


@lru_cache(maxsize=None)
def rho(n: int) -> SymbolicValue:
    """rho_n as an exact rational multiple of pi^{2n}, by the recursion

        rho_n = (-1)^{n+1} ( pi^{2n}/(2n+1)
                + sum_{i<n} C(2n-1, 2i-1) (-1)^i pi^{2n-2i}/(2n-2i+1) rho_i ),

    whose sum is empty at n = 1: rho_1 = pi^2/3.  Contract: equals 2 psi^{(2n-1)}(1) exactly.
    """
    if n < 1:
        raise ValueError("rho requires n >= 1")
    inner = sym_pi(2 * n, Fraction(1, 2 * n + 1))
    for i in range(1, n):
        coef = Fraction(math.comb(2 * n - 1, 2 * i - 1) * (-1) ** i, 2 * n - 2 * i + 1)
        inner = inner + coef * (sym_pi(2 * n - 2 * i) * rho(i))
    return Fraction((-1) ** (n + 1)) * inner


_SYM_ONE = SymbolicValue.one()


_constant_rows: dict[bool, tuple[SymbolicValue, ...]] = {}


def _constant_row(n: int, scaled: bool) -> tuple[SymbolicValue, ...]:
    """[B_0(c), ..., B_n(c)] over c = (0 or log 4, eta_bar_2, ..., eta_bar_n), the k-free
    parts of xi_bar.  Unscaled it is the recurrence over eta_bar (eta_bar_1 = 0); log 4
    enters by the binomial identity with the Bell row of (log 4, 0, ..., 0), which is the
    powers of log 4.  One prefix of each row is kept per flag, and extended in a new tuple
    when a larger n asks: no reader sees a half-built row, and two threads racing on one
    flag at worst store the shorter one."""
    row = _constant_rows.get(scaled, ())
    if len(row) <= n:
        if not scaled:
            row = tuple(complete_bell_all([eta_bar(j) for j in range(1, n + 1)], _SYM_ONE, row))
        else:
            core = _constant_row(n, False)
            powers = [_SYM_ONE]
            for _ in range(n):
                powers.append(powers[-1] * LOG4)
            row += tuple(binomial_convolution(powers, core, m, _SYM_ONE) for m in range(len(row), n + 1))
        _constant_rows[scaled] = row
    return row[: n + 1]


_constant_row.cache_clear = _constant_rows.clear


_rational_rows: dict[int, tuple[int, tuple[int, ...], tuple[int, ...], tuple[tuple[int, int], ...]]] = {}


def _rational_row(n: int, k: int) -> tuple[tuple[int, int], ...]:
    """A prefix [B_0(r(k)), ..., B_l(r(k))], l >= n, of the Bell row of the rational parts r_j(k)
    of xi_bar, each a reduced int pair (num, den).  With L = lcm(1..k), the weight homogeneity
    B_i(L s_1, L^2 s_2, ...) = L^i B_i(s) makes L^i B_i(r(k)) entry i of the Bell row of the
    integers r_j(k) L^j (:func:`_xi_scaled`), which is reduced against L^i once per (k, i).  Kept
    per k with L, that sequence and that integer row, and extended in new tuples when a larger n
    asks: no reader sees a half-built row, and two threads racing on one k at worst store the
    shorter one."""
    lcm, seq, row, reduced = _rational_rows.get(k) or (math.lcm(*range(1, k + 1)), (), (), ())
    if len(reduced) <= n:
        seq += tuple(_xi_scaled(j, k, lcm) for j in range(len(seq) + 1, n + 1))
        row = tuple(complete_bell_all(seq, 1, row))
        reduced += tuple(_reduced(b, lcm**i) for i, b in enumerate(row[len(reduced):], len(reduced)))
        _rational_rows[k] = (lcm, seq, row, reduced)
    return reduced


_rational_row.cache_clear = _rational_rows.clear


def shifted_binom_deriv(spec: DerivSpec) -> SymbolicValue:
    """Exact p-th derivative of binom(2m, m+k) (or 4^{-m} times it) at m = 0
    for shift k >= 1:

        (-1)^{p+k} (p/k) B_{p-1}(xi_bar_1, ..., xi_bar_{p-1}),

    with xi_bar_1 shifted by log 4 in the scaled variant.  p = 0 gives 0
    because binom(0, k) = 0.  With xi_bar_j = c_j + r_j(k), c the k-free
    sequence of :func:`_constant_row`, the binomial identity B_n(c + r) =
    sum_i C(n, i) B_i(r) B_{n-i}(c) is a rational combination of the cached
    symbolic row of c, with weights C(n, i) (-1)^{p+k} (p/k) B_i(r(k)), each the
    cached reduced B_i(r(k)) of :func:`_rational_row` times the small C(n, i)
    (-1)^{p+k} p/k, reduced first, and cross-reduced against it by two gcds with that
    small factor.  Each c_j has weight j, so B_{n-i}(c) is homogeneous of weight n - i
    and no two rows share a monomial: :func:`graded_combination` writes each
    coefficient of its row out as one cross-reduced product, with no sum.
    """
    p, k = spec.p, spec.k
    if k < 1:
        raise ValueError("shifted_binom_deriv requires k >= 1; use central_binom_deriv")
    if p == 0:
        return SymbolicValue.zero()
    n, gcd = p - 1, math.gcd
    sign_p = (-1) ** (p + k) * p
    weights = []
    for i, (num, den) in enumerate(_rational_row(n, k)[: n + 1]):
        c = math.comb(n, i) * sign_p
        g = gcd(c, k)
        c, d = c // g, k // g
        g1, g2 = gcd(c, den), gcd(num, d)
        weights.append(((c // g1) * (num // g2), (d // g2) * (den // g1)))
    return graded_combination(weights, _constant_row(n, spec.scaled)[n::-1])


def central_binom_deriv(spec: DerivSpec) -> SymbolicValue:
    """Exact p-th derivative of binom(2m, m) (or 4^{-m} binom(2m, m)) at m = 0:

        (-1)^p B_p(s_1, eta_bar_2, ..., eta_bar_p)

    with s_1 = 0 unscaled and s_1 = log 4 scaled.
    """
    if spec.k != 0:
        raise ValueError("central_binom_deriv requires k = 0")
    bell = _constant_row(spec.p, spec.scaled)[spec.p]
    return -bell if spec.p % 2 else bell


def binom_deriv(spec: DerivSpec) -> SymbolicValue:
    """Dispatch on the shift: central (k = 0) or shifted (k >= 1) formula."""
    return central_binom_deriv(spec) if spec.k == 0 else shifted_binom_deriv(spec)


# -- the Bell-lemma oracle over floats ---------------------------------------------


# g_j(0), kept per (j, k) since scaled and unscaled specs share it; not per float m, as
# delta_numeric reads arbitrary m
_log_gamma_deriv_at_zero = lru_cache(maxsize=None)(lambda j, k: _log_gamma_deriv(j, 0, k))


def taylor_coefficient_oracle(spec: DerivSpec) -> float:
    """Independent float value of the same derivative by the Bell lemma
    d^p e^g = e^g B_p(g', ..., g^(p)), g^(j)(0) from :func:`_log_gamma_deriv`.

    For k >= 1 the reflection form
        C(m) = (-1)^{k+1} (sin(pi m)/pi) Gamma(2m+1) Gamma(k-m) / Gamma(m+1+k)
    isolates the zero of 1/Gamma(m+1-k) in the sine factor, which Leibniz's
    rule joins to e^g, with e^{g(0)} = 1/k.
    """
    derivs = [_log_gamma_deriv_at_zero(j, spec.k) for j in range(1, spec.p + 1)]
    if spec.scaled and derivs:
        derivs[0] -= math.log(4.0)
    ratio = complete_bell_all(derivs, 1.0)
    if spec.k == 0:
        return ratio[spec.p]
    # d^i/dm^i sin(pi m)/pi at 0: 0 at even i, (-1)^{(i-1)/2} pi^{i-1} at odd i
    sine = [(-1.0) ** (i // 2) * math.pi ** (i - 1) if i % 2 else 0.0 for i in range(spec.p + 1)]
    return (-1.0) ** (spec.k + 1) / spec.k * binomial_convolution(sine, ratio, spec.p, 1.0)
