"""Floating-point kernels shared by the oracles and the numeric pipelines.

Contents: Cohen-Rodriguez Villegas-Zagier alternating series acceleration,
double-exponential (tanh-sinh) quadrature over one map of the interval,
tolerant of logarithmic endpoint singularities, real-argument polygamma,
Richardson central differencing and exact cotangent derivatives.

All functions are pure; there is no shared mutable state beyond small
memoization caches of immutable results, among them the tanh-sinh node tables
of levels 0-7, built once per process.  The quadrature reads each clamped
endpoint once per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .specialfn import bernoulli


@dataclass(frozen=True)
class NumericConfig:
    """The target absolute accuracy of the numeric kernels."""

    target_abs_tol: float = 1e-10

    def __post_init__(self):
        if not 0 < self.target_abs_tol < math.inf:  # a nan fails too
            raise ValueError(f"the tolerance must be finite and > 0, got {self.target_abs_tol}")


DEFAULT_CONFIG = NumericConfig()


class AccelerationError(RuntimeError):
    """Series acceleration failed to certify the target tolerance."""

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class QuadratureError(RuntimeError):
    """Quadrature failed to certify the target tolerance."""

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


# -- alternating series acceleration -----------------------------------------

_CVZ_TERMS = 280  # the most terms one acceleration pass reads


def _cvz_pass(a: list[float]) -> float:
    # Chebyshev-polynomial acceleration: one pass over n precomputed magnitudes,
    # returns an estimate of sum_{k>=1} (-1)^{k+1} a_k.
    n = len(a)
    d = (3.0 + math.sqrt(8.0)) ** n
    d = (d + 1.0 / d) / 2.0
    b = -1.0
    c = -d
    s = 0.0
    for k in range(n):
        c = b - c
        s += c * a[k]
        b *= (k + n) * (k - n) / ((k + 0.5) * (k + 1.0))
    return s / d


def accelerate_alternating(
    term_fn: Callable[[int], float], cfg: NumericConfig = DEFAULT_CONFIG
) -> float:
    """Accelerated value of sum_{k>=1} (-1)^{k+1} term_fn(k).

    ``term_fn(k)`` must return the magnitude of the k-th term of a convergent
    alternating series whose magnitudes are (eventually) smooth and totally
    monotone.  The number of terms follows the ceil(1.31 * digits) rule,
    at most 272, with a verification pass 8 terms deeper; failure to certify
    the tolerance raises :class:`AccelerationError` carrying the best estimate.
    """
    digits = max(4, math.ceil(-math.log10(cfg.target_abs_tol)) + 2)
    n = min(max(10, math.ceil(1.31 * digits)), _CVZ_TERMS - 8)
    best, best_err = math.nan, math.inf
    while n + 8 <= _CVZ_TERMS:
        values = [float(term_fn(k)) for k in range(1, n + 9)]
        s_low = _cvz_pass(values[:n])
        s_high = _cvz_pass(values)
        err = abs(s_high - s_low)
        if err < best_err:
            best, best_err = s_high, err
        if err <= cfg.target_abs_tol:
            return s_high
        n *= 2
    raise AccelerationError(
        f"alternating series did not certify tol={cfg.target_abs_tol}",
        estimate=best,
        error_bound=best_err,
    )


# the target of the basis constants zeta(odd) and zb1, each summed once per
# process whatever tolerance a caller asks for
CONSTANT_CONFIG = NumericConfig(target_abs_tol=1e-14)


def float_power(k: int, n: int) -> float:
    """float(k) ** n, or inf past binary64: a term divided by it is 0.0."""
    try:
        return float(k) ** n
    except OverflowError:
        return math.inf


@lru_cache(maxsize=None)
def zeta_numeric(n: int) -> float:
    """Numeric zeta(n) for integer n >= 2 via the accelerated eta series, or 1.0 from n = 55 on."""
    if n < 2:
        raise ValueError("zeta_numeric requires n >= 2")
    if n >= 55:  # 0 < zeta(n) - 1 < 2^-n + 2^(1-n)/(n-1) < 2^-54, so 1.0 is zeta(n) rounded
        return 1.0
    eta = accelerate_alternating(lambda k: 1.0 / float_power(k, n), CONSTANT_CONFIG)
    return eta / (1.0 - 2.0 ** (1 - n))


# -- tanh-sinh quadrature ------------------------------------------------------

_T_MAX = 6.5
_QUADRATURE_LEVELS = 12  # refinement levels after the first, each halving the step
# the rows of levels 0-7 are tabled once per process, 0.28 MB by tracemalloc;
# deeper ones would add 8.9 MB, so they are generated per call
_CACHED_LEVELS = 8
_ts_tables: dict[int, tuple[tuple[float, ...], ...]] = {}


def _ts_rows(level: int):
    # (cosh t, sech^2, e2u, 1 + e2u) for each node t > 0 of one level, e2u
    # being exp(-2u) with u = pi/2 sinh t.  Level 0 is the grid t = k/2, later
    # levels the odd multiples of their step; a node whose sech^2 underflowed
    # to 0 has weight 0 on every interval and is left out.
    h = 0.5 ** (level + 1)
    for k in range(1, int(_T_MAX / h) + 1, 1 if level == 0 else 2):
        t = k * h
        u = (math.pi / 2.0) * math.sinh(t)
        e2u = math.exp(-2.0 * u)  # in (0, 1]; underflows to 0 far out
        sech2 = 4.0 * e2u / (1.0 + e2u) ** 2
        if sech2 != 0.0:
            yield math.cosh(t), sech2, e2u, 1.0 + e2u


def _ts_level(level: int):
    if level >= _CACHED_LEVELS:
        return _ts_rows(level)
    if level not in _ts_tables:
        _ts_tables[level] = tuple(_ts_rows(level))
    return _ts_tables[level]


def _clamp_loss(f: Callable[[float], float], end: float, inward: float) -> float:
    """Bound on the mass misread by the nodes that read f at the point one ulp
    inside ``end``: four ulps times the change of f across the next ulp, which
    is about twice the loss at a log-type singularity and 0 where f is smooth."""
    x1 = math.nextafter(end, inward)
    return 4.0 * abs(x1 - end) * abs(f(x1) - f(math.nextafter(x1, inward)))


def tanh_sinh_quadrature(
    f: Callable[[float], float],
    a: float,
    b: float,
    cfg: NumericConfig = DEFAULT_CONFIG,
) -> float:
    """Integral of f over (a, b) by double-exponential quadrature.

    One substitution x = (a+b)/2 + (b-a)/2 * tanh(pi/2 * sinh t) maps the
    whole interval, so both a and b sit at transform infinity, and the step
    halves over 12 refinement levels, from node tables of levels 0-7 built
    once per process.  Nodes closer to a nonzero endpoint than float spacing
    allows are clamped onto the last interior float, where f is read once per
    call, and the error estimate bounds the mass they misread at a and b: a
    log singularity at 0 is harmless, one within an ulp of a nonzero limit
    raises unless that mass is within the tolerance.

    Raises :class:`QuadratureError` when the internal error estimate cannot
    reach ``cfg.target_abs_tol`` within 12 refinement levels.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("finite integration limits required")
    if a == b:
        return 0.0
    if a > b:
        return -tanh_sinh_quadrature(f, b, a, cfg)
    tol = cfg.target_abs_tol
    width = b - a
    wscale = width / 2.0 * (math.pi / 2.0)  # the factor of each weight free of t
    center = (a + b) / 2.0
    lo_in, hi_in = math.nextafter(a, b), math.nextafter(b, a)
    f_end = lru_cache(maxsize=None)(f)  # f at the clamped points, read once

    h, level_sum, scale, prev = 1.0, 0.0, 0.0, math.nan
    for level in range(_QUADRATURE_LEVELS + 1):
        h /= 2.0
        # the node t = 0, at the center, has cosh t = sech^2 t = 1
        vals = [wscale * f(center) if wscale else 0.0] if level == 0 else []
        for cosh_t, sech2, e2u, e2u1 in _ts_level(level):
            w = wscale * cosh_t * sech2
            if w == 0.0:  # an underflowed weight adds 0 whatever f is there
                continue
            # distance to the near endpoint, computed without cancellation; nodes
            # falling inside the last representable ulp are clamped to the nearest
            # interior point, and _clamp_loss bounds what they misread
            d = width * e2u / e2u1
            x_hi, x_lo = b - d, a + d
            y_hi = f(x_hi) if x_hi < hi_in else f_end(hi_in)
            y_lo = f(x_lo) if x_lo > lo_in else f_end(lo_in)
            vals.append(w * (y_hi + y_lo))
        level_sum += math.fsum(vals)
        scale += math.fsum(map(abs, vals))
        value = h * level_sum
        err = abs(value - prev)
        prev = value
        # differences below a few ulps of the absolute mass carry no
        # information, so treat them as converged
        floor = 8.0 * 2.2e-16 * h * scale
        if level >= 2 and err <= max(tol, floor):
            break
    if not math.isfinite(value):
        raise QuadratureError("integrand produced non-finite values", value, math.inf)
    # the nodes run far inside the last ulp of a nonzero limit, so they clamp there
    err += sum(_clamp_loss(f_end, end, to) for end, to in ((a, b), (b, a)) if end != 0.0)
    if not err <= max(tol, floor):  # a NaN bound fails too
        raise QuadratureError(
            f"quadrature error estimate {err:.3e} above target {tol:.3e}",
            estimate=value,
            error_bound=err,
        )
    return value


# -- polygamma on the positive real axis --------------------------------------

_ASYMPTOTIC_CUT = 20.0
_BERNOULLI_TERMS = 14
# the asymptotic series stops once a term is this small against the sum
_BERNOULLI_STOP = 1e-18


@lru_cache(maxsize=None)
def _b2k_float(k: int) -> float:
    return float(bernoulli(2 * k))


def polygamma_real(order: int, x: float) -> float:
    """psi^(order)(x) for real x > 0.

    Shifts the argument upward with the recurrence
    psi^{(n)}(x) = psi^{(n)}(x+1) - (-1)^n n!/x^{n+1} and then applies the
    Bernoulli-number asymptotic expansion, up to 14 terms but stopped once a
    term falls below 1e-18 of the sum (three terms at y >= 2000).
    """
    if order < 0:
        raise ValueError("polygamma order must be >= 0")
    if not x > 0:
        raise ValueError("polygamma_real requires x > 0")
    n = order
    shift_terms = []
    y = x
    while y < _ASYMPTOTIC_CUT:
        shift_terms.append(1.0 / y ** (n + 1))
        y += 1.0
    if n == 0:
        tail = math.log(y) - 1.0 / (2.0 * y)
        ypow = y * y
        for k in range(1, _BERNOULLI_TERMS + 1):
            term = _b2k_float(k) / (2 * k * ypow)
            tail -= term
            if abs(term) < _BERNOULLI_STOP * abs(tail):
                break
            ypow *= y * y
        return tail - math.fsum(shift_terms)
    sign = (-1.0) ** (n + 1)
    head = math.factorial(n - 1) / y**n + math.factorial(n) / (2.0 * y ** (n + 1))
    ypow = y ** (n + 2)
    for k in range(1, _BERNOULLI_TERMS + 1):
        term = _b2k_float(k) * _rising_ratio(2 * k, n) / ypow
        head += term
        if abs(term) < _BERNOULLI_STOP * abs(head):
            break
        ypow *= y * y
    shifted = sign * head
    # undo the recurrence shifts: psi^{(n)}(x) = psi^{(n)}(y) - (-1)^n n! sum 1/(x+i)^{n+1}
    return shifted - (-1.0) ** n * math.factorial(n) * math.fsum(shift_terms)


@lru_cache(maxsize=None)
def _rising_ratio(two_k: int, n: int) -> float:
    # (2k + n - 1)! / (2k)!
    out = 1.0
    for i in range(two_k + 1, two_k + n):
        out *= i
    return out


# -- Richardson central differences --------------------------------------------

_STENCILS = {
    1: ((1, 0.5), (-1, -0.5)),
    2: ((1, 1.0), (0, -2.0), (-1, 1.0)),
    3: ((2, 0.5), (1, -1.0), (-1, 1.0), (-2, -0.5)),
    4: ((2, 1.0), (1, -4.0), (0, 6.0), (-1, -4.0), (-2, 1.0)),
}
_RICHARDSON_LEVELS = 5


def richardson_derivative(
    f: Callable[[float], float], x0: float, order: int
) -> tuple[float, float]:
    """Derivative of ``f`` at ``x0`` of the given order with an error estimate.

    Central differences (even-power error expansion) refined by Richardson
    extrapolation over five steps, halving from h0 = 1e-2 (5e-2 for orders 3-4).
    Orders above 4 are not supported here; use the Bell-lemma oracle
    ``binomderiv.taylor_coefficient_oracle`` instead.  Returns
    ``(value, error_estimate)`` for the tableau entry with the smallest
    observed successive difference, which guards against roundoff blowup at
    tiny steps.
    """
    if order < 1 or order > 4:
        raise ValueError("richardson_derivative supports orders 1..4")
    stencil = _STENCILS[order]
    # orders 3-4 need a larger base step: their stencils divide by h^3, h^4,
    # so roundoff at h = 1e-2 already exceeds the achievable truncation error
    h0 = 1e-2 if order <= 2 else 5e-2

    def difference(h: float) -> float:
        acc = [c * f(x0 + k * h) for k, c in stencil]
        return math.fsum(acc) / h**order

    table: list[list[float]] = []
    best = None
    best_err = math.inf
    for i in range(_RICHARDSON_LEVELS):
        h = h0 / 2**i
        row = [difference(h)]
        for j in range(1, i + 1):
            factor = 4.0**j
            row.append((factor * row[j - 1] - table[i - 1][j - 1]) / (factor - 1.0))
        table.append(row)
        if i >= 1:
            err = abs(table[i][i] - table[i - 1][i - 1])
            if err < best_err:
                best, best_err = table[i][i], err
    return best, best_err


# -- derivatives of pi*cot(pi*k) -------------------------------------------------


@lru_cache(maxsize=None)
def _cot_poly(n: int) -> tuple[int, ...]:
    # Integer coefficients of the polynomial P_n with d^n/du^n cot(u) = P_n(cot u),
    # generated by P_0 = c and P_{n+1} = P_n'(c) * (-(1 + c^2)).
    if n == 0:
        return (0, 1)
    prev = _cot_poly(n - 1)
    deriv = tuple(i * prev[i] for i in range(1, len(prev)))
    out = [0] * (len(deriv) + 2)
    for i, a in enumerate(deriv):
        out[i] -= a
        out[i + 2] -= a
    return tuple(out)


def cot_derivative(order: int, k: float) -> float:
    """d^order/dk^order of pi*cot(pi*k) at non-integer real k.

    Exact recursion: derivatives of cot are integer polynomials in cot
    (d/du cot = -(1 + cot^2)), scaled by powers of pi.  order = 0 returns
    pi*cot(pi*k) itself.
    """
    if order < 0:
        raise ValueError("cot_derivative requires order >= 0")
    if k == round(k):
        raise ValueError("pi*cot(pi*k) has a pole at integer k")
    c = math.cos(math.pi * k) / math.sin(math.pi * k)
    poly = _cot_poly(order)
    acc = 0.0
    for coef in reversed(poly):
        acc = acc * c + coef
    return math.pi ** (order + 1) * acc
