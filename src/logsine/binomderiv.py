"""Exact m-derivatives of C(m) = binom(2m, m+k) and its 4^{-m}-scaled variant
at m = 0, plus numeric derivatives at general m.

The symbolic route evaluates complete Bell polynomials over the sequences

    xi_bar_j  = (-2)^j psi^{(j-1)}(1) + 2[j odd] psi^{(j-1)}(k)
                - 2[j even] psi^{(j-1)}(1) + (j-1)!/k^j          (shift k >= 1)
    eta_bar_j = (-1)^j (2^j - 2) psi^{(j-1)}(1)                  (central, k = 0)

whose polygamma values collapse to the Euler-constant-free basis
{pi, log 2, zeta(odd)} at positive integer arguments.  An independent
power-series oracle (reflection form through the gamma function) verifies
every symbolic derivative numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .bell import bell_core_terms, complete_bell, complete_bell_all
from .numerics import (
    NumericConfig,
    PowerSeries,
    euler_gamma_numeric,
    polygamma_real,
    zeta_numeric,
)
from .specialfn import harmonic, polygamma_int
from .symbolic import SymbolicValue, sym_log2, sym_pi


@dataclass(frozen=True)
class DerivSpec:
    """Request for d^p/dm^p of binom(2m, m+k) (optionally 4^{-m}-scaled) at m=0."""

    p: int
    k: int
    scaled: bool = False

    def __post_init__(self):
        if self.p < 0:
            raise ValueError("derivative order p must be >= 0")
        if self.k < 0:
            raise ValueError("shift k must be >= 0")


LOG4 = sym_log2(1, 2)  # log 4 = 2 log 2


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
    n = j - 1
    return (-1.0) ** j * (
        2.0**j * polygamma_real(n, 2 * m + 1)
        - polygamma_real(n, m + 1 + k)
        - polygamma_real(n, m + 1 - k)
    )


def _xi_rational(j: int, k: int) -> Fraction:
    # r_j(k) = xi_bar_j - eta_bar_j: 2 H_k - 1/k at j = 1, then (j-1)!/k^j plus
    # 2 (j-1)! H_{k-1}^{(j)} from psi^{(j-1)}(k) - psi^{(j-1)}(1) at odd j
    if j == 1:
        return 2 * harmonic(k) - Fraction(1, k)
    fact = math.factorial(j - 1)
    return Fraction(fact, k**j) + (2 * fact * harmonic(k - 1, j) if j % 2 else 0)


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
    if j == 1:
        return SymbolicValue.zero()
    return Fraction((-1) ** j * (2**j - 2)) * polygamma_int(j - 1, 1)


@lru_cache(maxsize=None)
def rho(n: int) -> SymbolicValue:
    """rho_n as an exact rational multiple of pi^{2n}, by the recursion

        rho_n = (-1)^{n+1} ( pi^{2n}/(2n+1)
                + sum_{i<n} C(2n-1, 2i-1) (-1)^i pi^{2n-2i}/(2n-2i+1) rho_i ),

    with rho_1 = pi^2/3.  Contract: equals 2 psi^{(2n-1)}(1) exactly.
    """
    if n < 1:
        raise ValueError("rho requires n >= 1")
    if n == 1:
        return sym_pi(2, Fraction(1, 3))
    inner = sym_pi(2 * n, Fraction(1, 2 * n + 1))
    for i in range(1, n):
        coef = Fraction(math.comb(2 * n - 1, 2 * i - 1) * (-1) ** i, 2 * n - 2 * i + 1)
        inner = inner + coef * (sym_pi(2 * n - 2 * i) * rho(i))
    return Fraction((-1) ** (n + 1)) * inner


_SYM_ONE = SymbolicValue.one()


@lru_cache(maxsize=None)
def _constant_row(n: int, scaled: bool) -> tuple[SymbolicValue, ...]:
    """[B_0(c), ..., B_n(c)] over c = (0 or log 4, eta_bar_2, ..., eta_bar_n), the
    k-free parts of xi_bar.  Unscaled they are the inner Bell terms; log 4 enters
    by the binomial identity B_m(c) = sum_j C(m, j) log4^{m-j} B_j(0, c_2, ...)."""
    if not scaled:
        return tuple(bell_core_terms([eta_bar(j) for j in range(1, n + 1)], _SYM_ONE))
    core = _constant_row(n, False)
    return tuple(
        sum((math.comb(m, j) * (LOG4 ** (m - j) * core[j]) for j in range(m + 1)), SymbolicValue.zero())
        for m in range(n + 1)
    )


def shifted_binom_deriv(spec: DerivSpec) -> SymbolicValue:
    """Exact p-th derivative of binom(2m, m+k) (or 4^{-m} times it) at m = 0
    for shift k >= 1:

        (-1)^{p+k} (p/k) B_{p-1}(xi_bar_1, ..., xi_bar_{p-1}),

    with xi_bar_1 shifted by log 4 in the scaled variant.  p = 0 gives 0
    because binom(0, k) = 0.  With xi_bar_j = c_j + r_j(k), c the k-free
    sequence of :func:`_constant_row`, the binomial identity B_n(c + r) = sum_i C(n, i)
    B_i(r) B_{n-i}(c) leaves only rational work per k.
    """
    if spec.k < 1:
        raise ValueError("shifted_binom_deriv requires k >= 1; use central_binom_deriv")
    if spec.p == 0:
        return SymbolicValue.zero()
    n = spec.p - 1
    rational = complete_bell_all([_xi_rational(j, spec.k) for j in range(1, spec.p)], Fraction(1))
    scale = Fraction((-1) ** (spec.p + spec.k) * spec.p, spec.k)
    row = _constant_row(n, spec.scaled)
    terms = ((scale * math.comb(n, i) * rational[i]) * row[n - i] for i in range(n + 1))
    return sum(terms, SymbolicValue.zero())


def central_binom_deriv(spec: DerivSpec) -> SymbolicValue:
    """Exact p-th derivative of binom(2m, m) (or 4^{-m} binom(2m, m)) at m = 0:

        (-1)^p B_p(s_1, eta_bar_2, ..., eta_bar_p)

    with s_1 = 0 unscaled and s_1 = log 4 scaled.
    """
    if spec.k != 0:
        raise ValueError("central_binom_deriv requires k = 0")
    return (-1) ** spec.p * _constant_row(spec.p, spec.scaled)[spec.p]


def binom_deriv(spec: DerivSpec) -> SymbolicValue:
    """Dispatch on the shift: central (k = 0) or shifted (k >= 1) formula."""
    return central_binom_deriv(spec) if spec.k == 0 else shifted_binom_deriv(spec)


# -- power-series oracle ---------------------------------------------------------


def _log_gamma_ratio_series(spec: DerivSpec, order: int) -> PowerSeries:
    # Taylor coefficients of log of the gamma-function factor around m = 0.
    gamma_const = euler_gamma_numeric()
    coeffs = [0.0] * (order + 1)
    if spec.k == 0:
        # log Gamma(1+2m) - 2 log Gamma(1+m): the Euler-constant terms cancel.
        for j in range(2, order + 1):
            coeffs[j] = (-1.0) ** j * zeta_numeric(j) * (2.0**j - 2.0) / j
    else:
        k = spec.k
        coeffs[0] = -math.log(k)
        coeffs[1] = -2.0 * gamma_const - polygamma_real(0, k) - polygamma_real(0, k + 1)
        for j in range(2, order + 1):
            from_double = (-1.0) ** j * zeta_numeric(j) * 2.0**j / j
            from_reflected = (
                (-1.0) ** j * polygamma_real(j - 1, k) - polygamma_real(j - 1, k + 1)
            ) / math.factorial(j)
            coeffs[j] = from_double + from_reflected
    if spec.scaled:
        coeffs[1] -= math.log(4.0)
    return PowerSeries(coeffs)


def taylor_coefficient_oracle(spec: DerivSpec, order: int | None = None) -> float:
    """Independent numeric value of the same derivative via power series.

    For k >= 1 the reflection form
        C(m) = (-1)^{k+1} (sin(pi m)/pi) Gamma(2m+1) Gamma(k-m) / Gamma(m+1+k)
    isolates the zero of 1/Gamma(m+1-k) explicitly, so the series is a plain
    product of an exponential of a log-gamma series with the sine series.
    Returns p! times the m^p coefficient.
    """
    if order is None:
        order = spec.p + 2
    if order < spec.p:
        raise ValueError("series order must be >= the derivative order")
    ratio = _log_gamma_ratio_series(spec, order).exp()
    if spec.k == 0:
        return ratio.derivative_at_zero(spec.p)
    sine = PowerSeries(
        [
            0.0
            if i % 2 == 0
            else (-1.0) ** (i // 2) * math.pi**i / math.factorial(i) / math.pi
            for i in range(order + 1)
        ]
    )
    series = sine * ratio
    return (-1.0) ** (spec.k + 1) * series.derivative_at_zero(spec.p)


def binom_deriv_at(p: int, m0: float, k: int, cfg: NumericConfig | None = None) -> float:
    """Numeric d^p/dm^p binom(2m, m+k) at general m = m0.

    Evaluates (-1)^p binom(2m0, m0+k) times the complete Bell polynomial of
    the delta sequence at m0.  Valid where every polygamma argument is
    positive, i.e. m0 > max(k - 1, -1/2).
    """
    if p < 0:
        raise ValueError("derivative order p must be >= 0")
    if m0 <= max(k - 1.0, -0.5):
        raise ValueError("binom_deriv_at requires m0 > max(k-1, -1/2)")
    binom = math.gamma(2 * m0 + 1) / (
        math.gamma(m0 + 1 + k) * math.gamma(m0 + 1 - k)
    )
    if p == 0:
        return binom
    deltas = [delta_numeric(j, m0, k) for j in range(1, p + 1)]
    return (-1.0) ** p * binom * complete_bell(deltas, one=1.0)
