"""Closed forms and numerics for the power/log-sine integral family.

Covered objects, all over (0, z):

* ``sine_power_moment``:  integral of x^n sin^{2m}(x), exact at z in
  {pi/2, pi} and numeric at any z through the finite trigonometric series.
* ``log_sin_power_integral``:  integral of x^n log^p(sin x) at z in
  {pi/2, pi}, exact whenever the required k-sums reduce over the linear
  Euler-sum catalog (p <= 2 always; any p when no k-sum appears), with a
  certified numeric series fallback otherwise.
* ``log_sine_integral``:  the normalized -integral of x^n log^p|2 sin(x/2)|
  at theta in {pi, 2pi}, same exactness domain.
* ``log_sine_any_angle``:  the n = 0 case at arbitrary 0 < z <= 2pi via the
  power series of log(sin(x/2)/(x/2)) integrated term by term, reflected
  about pi through the exact Bell-polynomial term.

The symbolic pipeline never guesses: a value is returned as exact only when
every infinite k-sum lands in the whitelisted catalog, otherwise the result
is flagged numeric with a reason.
"""

from __future__ import annotations

import math
import threading
from array import array
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat

from .bell import complete_bell
from .binomderiv import DerivSpec, central_binom_deriv
from .numerics import (
    AccelerationError,
    NumericConfig,
    accelerate_alternating,
    compensated_sum,
    euler_gamma_numeric,
    polygamma_real,
    tanh_sinh_quadrature,
    zeta_numeric,
)
from .specialfn import alt_euler_sum_H, eta_value, euler_sum_H
from .symbolic import (
    SymbolicValue,
    eval_numeric,
    sym_log2,
    sym_pi,
    sym_zeta,
)

ANGLE_TOKENS = {"pi/2": math.pi / 2, "pi": math.pi, "2pi": 2 * math.pi}


def angle_value(z: str | float) -> float:
    if isinstance(z, str):
        try:
            return ANGLE_TOKENS[z]
        except KeyError:
            raise ValueError(f"unknown angle token {z!r}") from None
    return float(z)


@dataclass(frozen=True)
class IntegralSpec:
    """Request for integral of x^n log^p(sin x) dx (form 'logsin') or the
    normalized log-sine integral (form 'ls') over (0, z)."""

    n: int
    p: int
    z: str | float
    form: str = "logsin"

    def __post_init__(self):
        if self.n < 0 or self.p < 0:
            raise ValueError("n and p must be >= 0")
        if self.form not in ("logsin", "ls"):
            raise ValueError("form must be 'logsin' or 'ls'")
        # log sin x is undefined past pi; log|2 sin(x/2)| is defined up to 2pi
        top, top_text = (math.pi, "pi") if self.form == "logsin" else (2 * math.pi, "2*pi")
        if not 0 < angle_value(self.z) <= top + 1e-12:
            raise ValueError(f"z must lie in (0, {top_text}] for form {self.form!r}")


@dataclass
class ClosedFormResult:
    """Outcome of a closed-form request: exact symbolic value, or a numeric
    fallback with an error estimate and the reason symbolic reduction was
    not possible."""

    exact: bool
    value: SymbolicValue | None
    numeric: float
    error: float | None = None
    reason: str | None = None


class CatalogMissError(ValueError):
    """The requested reduction needs sums outside the linear Euler-sum catalog."""


# -- exact moments of x^n sin^{2m} x ------------------------------------------


def sine_power_moment_exact(n: int, m: int, z: str) -> SymbolicValue:
    """Exact integral of x^n sin^{2m}(x) over (0, z) for z in {pi/2, pi}.

    The weights of :func:`_case_weights` applied to the shift-k coefficients
    4^{-m} binom(2m, m+k).  The k-sum truncates at k = m because
    binom(2m, m+k) vanishes beyond it, so the value is an exact rational
    combination of pi powers.
    """
    if n < 0 or m < 0:
        raise ValueError("n and m must be >= 0")
    if z not in ("pi", "pi/2"):
        raise ValueError("exact moments are available at z in {'pi/2', 'pi'}")
    central, weights = _case_weights(n, z, True)
    total = central * Fraction(math.comb(2 * m, m), 4**m)
    for w in weights:
        ksum = Fraction(0)
        for k in range(1, m + 1):
            ksum += Fraction((-1) ** (k * w.alt) * math.comb(2 * m, m + k), k**w.pow)
        total = total + w.coef * (ksum / 4**m)
    return total


def sine_power_moment_numeric(n: int, m: int, z: float) -> float:
    """Integral of x^n sin^{2m}(x) over (0, z) by the finite trigonometric
    expansion, in compensated floating arithmetic."""
    if n < 0 or m < 0:
        raise ValueError("n and m must be >= 0")
    z = float(z)
    terms = [math.comb(2 * m, m) / 4**m * z ** (n + 1) / (n + 1)]
    nfact = math.factorial(n)
    for k in range(1, m + 1):
        front = (-1) ** k / 2 ** (2 * m - 1) * math.comb(2 * m, m + k) * nfact
        inner = [
            z ** (n - j)
            * math.sin(2 * k * z + math.pi * j / 2)
            / ((2 * k) ** (j + 1) * math.factorial(n - j))
            for j in range(0, n + 1)
        ]
        inner.append(-math.sin(math.pi * n / 2) / (2 * k) ** (n + 1))
        terms.append(front * compensated_sum(inner))
    return compensated_sum(terms)


# -- the k-sum engine -----------------------------------------------------------


@dataclass(frozen=True)
class _KTerm:
    # one contribution coef * (-1)^(k*alt) * H_k^h / k^b to the derivative at shift k
    coef: SymbolicValue
    alt: bool
    h_pow: int
    k_pow: int


def _deriv_kform(p: int, scaled: bool) -> list[_KTerm]:
    """The shifted-coefficient derivative at m=0 as an explicit function of k.

    d^p/dm^p of the (possibly scaled) coefficient at shift k is
    (-1)^{p+k} (p/k) B_{p-1}(xi_bar sequence); for p <= 2 that expands into
    terms linear in H_k, which is exactly what the catalog can absorb.
    """
    one = SymbolicValue.one()
    if p == 0:
        return []
    if p == 1:
        return [_KTerm(coef=-1 * one, alt=True, h_pow=0, k_pow=1)]
    if p == 2:
        terms = [
            _KTerm(coef=4 * one, alt=True, h_pow=1, k_pow=1),
            _KTerm(coef=-2 * one, alt=True, h_pow=0, k_pow=2),
        ]
        if scaled:
            terms.append(_KTerm(coef=sym_log2(1, 4), alt=True, h_pow=0, k_pow=1))
        return terms
    raise CatalogMissError(
        f"p = {p} derivative expands into powers of harmonic numbers beyond the "
        "linear Euler-sum catalog"
    )


def _sum_kterm(term: _KTerm, weight_alt: bool, weight_pow: int) -> SymbolicValue:
    alt = term.alt != weight_alt
    s = term.k_pow + weight_pow
    if term.h_pow == 0:
        if s < 2:
            raise CatalogMissError(f"divergent bare sum with exponent {s}")
        base = -eta_value(s) if alt else sym_zeta(s)
    elif term.h_pow == 1:
        if alt:
            if s % 2 == 0 or s < 3:
                raise CatalogMissError(
                    f"alternating harmonic sum of even weight {s} is outside the catalog"
                )
            base = alt_euler_sum_H(s)
        else:
            base = euler_sum_H(s)
    else:
        raise CatalogMissError("nonlinear harmonic powers are outside the catalog")
    return term.coef * base


@dataclass(frozen=True)
class _KWeight:
    # one weighted k-sum: coef * sum_k (-1)^{k*alt} c(k) / k^pow over shift-k coefficients c(k)
    coef: SymbolicValue
    alt: bool
    pow: int


# log-sine angle theta -> the angle theta/2 of the x^n sin^{2m} x row it scales
_HALF_ANGLE = {"pi": "pi/2", "2pi": "pi"}


@lru_cache(maxsize=None)
def _case_weights(n: int, z: str, scaled: bool) -> tuple[SymbolicValue, tuple[_KWeight, ...]]:
    """Central prefactor and k-sum weights of the moment family at one angle:
    the moment is central * c(0) + sum_w w.coef * sum_k (-1)^{k*w.alt} c(k) / k^w.pow.

    Scaled, the moment is that of x^n sin^{2m} x over (0, z), z in
    {pi/2, pi}, with c(k) = 4^{-m} binom(2m, m+k); these two rows are written
    out below.  Unscaled, it is that of x^n (2 sin(x/2))^{2m} over
    (0, theta), theta in {pi, 2pi}, with c(k) = binom(2m, m+k).  By x = 2y
    that is 2^{n+1} 4^m times the scaled moment over (0, theta/2), so the
    unscaled row is 2^{n+1} times the scaled row at theta/2."""
    if not scaled:
        if z not in _HALF_ANGLE:
            raise ValueError(f"no derivative formula for z={z!r}, scaled={scaled}")
        central, weights = _case_weights(n, _HALF_ANGLE[z], True)
        scale = 2 ** (n + 1)
        return central * scale, tuple(_KWeight(w.coef * scale, w.alt, w.pow) for w in weights)
    nfact = math.factorial(n)

    def even(j: int, den: int) -> SymbolicValue:  # the weight of a sum over k^{2j}
        return sym_pi(n + 1 - 2 * j, Fraction(-nfact * (-1) ** j, den * math.factorial(n + 1 - 2 * j)))

    if z == "pi":
        central = sym_pi(n + 1, Fraction(1, n + 1))
        weights = [_KWeight(even(j, 2 ** (2 * j - 1)), True, 2 * j) for j in range(1, n // 2 + 1)]
        return central, tuple(weights)
    if z == "pi/2":
        central = sym_pi(n + 1, Fraction(1, 2 ** (n + 1) * (n + 1)))
        weights = [_KWeight(even(j, 2**n), False, 2 * j) for j in range(1, (n + 1) // 2 + 1)]
        if n % 2 == 1:  # odd n adds one alternating sum over k^{n+1}
            parity = Fraction(nfact * (-1) ** ((n + 1) // 2), 2**n)
            weights.append(_KWeight(SymbolicValue.rational(parity), True, n + 1))
        return central, tuple(weights)
    raise ValueError(f"no derivative formula for z={z!r}, scaled={scaled}")


def _deriv_value_exact(n: int, p: int, z: str, scaled: bool) -> SymbolicValue:
    """Exact p-th m-derivative of the moment family at m = 0 (the quantity
    equal to 2^p times the target integral); raises CatalogMissError when
    the k-sums cannot be reduced."""
    central, weights = _case_weights(n, z, scaled)
    kform = _deriv_kform(p, scaled) if weights else []  # a catalog miss raises before any work
    total = central * central_binom_deriv(DerivSpec(p, 0, scaled))
    for w in weights:
        for term in kform:
            total = total + w.coef * _sum_kterm(term, w.alt, w.pow)
    return total


# -- numeric fallback: the same series summed in floats --------------------------

_LOG4 = math.log(4.0)


def _xi_continuous(j: int, x: float, scaled: bool) -> float:
    """Continuous extension of xi_bar_j to real x > 0 via polygamma."""
    if j == 1:
        v = 2.0 * (polygamma_real(0, x) + euler_gamma_numeric()) + 1.0 / x
        return v + _LOG4 if scaled else v
    fact = math.factorial(j - 1)
    if j % 2 == 0:
        return (2.0**j - 2.0) * (-1.0) ** j * fact * zeta_numeric(j) + fact / x**j
    psi = polygamma_real(j - 1, x)
    return (-2.0) ** j * (-1.0) ** j * fact * zeta_numeric(j) + 2.0 * psi + fact / x**j


_SERIES_CUTOFF = 2000


class _BellColumn:  # column j >= 1 of the shared Bell table, rows k = 1..len(xi)
    def __init__(self):
        self.xi = array("d")  # xi_bar_j(k), without the log 4 of the scaled xi_bar_1
        self.core = array("d")  # the inner term x_j(k) of bell_core_terms (x_1 = 0)
        self.harm = 0.0  # H_{len(xi)}^{(j)}, where the next rows continue the running sum
        self.bell = (array("d"), array("d"))  # B_j(xi_bar(k)) unscaled and scaled, as far as read


# one table for every (p, scaled): B_{p-1} reads columns 1..p-1, which larger p
# only widen, and the x_j never read xi_bar_1, the one entry scaling moves
_BELL_TABLE: list[_BellColumn] = []
_BELL_TABLE_LOCK = threading.Lock()  # growth is a check-then-extend


def _extend_bell_column(j: int, count: int) -> None:
    """Grow column j to rows 1..count, in the float order of one running
    sequence along k; columns below j are already that long."""
    col = _BELL_TABLE[j - 1]
    lo, fact = len(col.xi), math.factorial(j - 1)
    ks = range(lo + 1, count + 1)
    harm = list(accumulate([1.0 / float(k) ** j for k in ks], initial=col.harm))[1:]  # H_k^{(j)}
    if j == 1:
        xi = [2.0 * h - 1.0 / k for k, h in zip(ks, harm)]
    else:
        zeta = zeta_numeric(j)
        front = (2.0**j - 2.0 if j % 2 == 0 else (-2.0) ** j) * ((-1.0) ** j * fact * zeta)
        if j % 2 == 0:
            xi = [front + fact / k**j for k in ks]
        else:  # 2 psi^{(j-1)}(k) joins the constant
            xi = [front + 2.0 * (-fact * (zeta - (h - 1.0 / k_j))) + fact / k_j
                  for k, h in zip(ks, harm) for k_j in (k**j,)]
    core = [0.0] * len(ks)  # x_j = sum_{l <= j-2} C(j-1, l) xi_bar_{j-l} x_l
    for l in range(j - 1):
        s = xi if l == 0 else _BELL_TABLE[j - l - 1].xi[lo:count]
        x = repeat(1.0) if l == 0 else _BELL_TABLE[l - 1].core[lo:count]
        c = math.comb(j - 1, l)
        core = [a + c * (si * xl) for a, si, xl in zip(core, s, x)]
    col.xi.extend(xi)
    col.core.extend(core)
    col.harm = harm[-1]


def _grow_bell_table(width: int, count: int) -> None:
    """Grow columns 1..width to rows 1..count; a failure leaves the table as it was."""
    saved = [(len(col.xi), col.harm) for col in _BELL_TABLE]
    try:
        for j in range(1, width + 1):
            if j > len(_BELL_TABLE):
                _BELL_TABLE.append(_BellColumn())
            if len(_BELL_TABLE[j - 1].xi) < count:
                _extend_bell_column(j, count)
    except BaseException:
        del _BELL_TABLE[len(saved):]
        for col, (rows, harm) in zip(_BELL_TABLE, saved):
            del col.xi[rows:], col.core[rows:]
            col.harm = harm
        raise


def _bell_head(p: int, scaled: bool, count: int) -> array:
    """The values B_{p-1}(xi_bar(k)), p >= 2, for k = 1..count, in a shared array
    that may be longer and that callers only read.  Callers ask for at most
    _SERIES_CUTOFF values, so every cached head stays that short."""
    n = p - 1
    with _BELL_TABLE_LOCK:
        lo = len(_BELL_TABLE[n - 1].bell[scaled]) if n <= len(_BELL_TABLE) else 0
        if lo >= count:
            return _BELL_TABLE[n - 1].bell[scaled]
        count = max(count, min(2 * lo, _SERIES_CUTOFF))  # alternating sums ask one k at a time
        _grow_bell_table(n, count)
        head = _BELL_TABLE[n - 1].bell[scaled]
        # sum_j C(n, j) s_1^{n-j} x_j over rows lo+1..count, in the float order of complete_bell
        s1 = [s + _LOG4 for s in _BELL_TABLE[0].xi[lo:count]] if scaled else _BELL_TABLE[0].xi[lo:count]
        acc, power = [0.0] * len(s1), [1.0] * len(s1)
        for j in range(n, -1, -1):
            c, x = math.comb(n, j), _BELL_TABLE[j - 1].core[lo:count] if j else repeat(1.0)
            acc = [a + c * (w * xj) for a, w, xj in zip(acc, power, x)]
            if j:
                power = [w * s for w, s in zip(power, s1)]
        head.extend(acc)
        return head


def _bell_continuous(p: int, scaled: bool, x: float) -> float:
    """B_{p-1}(xi_bar(x)) at real x > 0; beyond x = 1e15 the series weights
    are denormal and only the log growth matters, so x is clamped there."""
    x = min(x, 1e15)
    return complete_bell([_xi_continuous(j, x, scaled) for j in range(1, p)], one=1.0)


# Gauss-Laguerre rules: (nodes, weights) for the integral of e^{-v} f(v) over
# (0, inf), exact for polynomials f of degree below twice the node count
_LAGUERRE_8 = (
    (0.170279632305101, 0.9037017767993799, 2.2510866298661307, 4.266700170287659,
     7.0459054023934655, 10.758516010180996, 15.740678641278004, 22.863131736889265),
    (0.3691885893416375, 0.41878678081434295, 0.1757949866371718, 0.03334349226121565,
     0.0027945362352256725, 9.076508773358213e-05, 8.485746716272531e-07, 1.0480011748715104e-09),
)
_LAGUERRE_12 = (
    (0.11572211735802068, 0.6117574845151307, 1.5126102697764188, 2.8337513377435073,
     4.5992276394183484, 6.844525453115177, 9.621316842456867, 13.006054993306348,
     17.116855187462257, 22.151090379397004, 28.487967250984, 37.09912104446692),
    (0.2647313710554432, 0.37775927587313796, 0.24408201131987756, 0.09044922221168093,
     0.020102381154634096, 0.0026639735418653157, 0.00020323159266299939, 8.365055856819799e-06,
     1.6684938765409103e-07, 1.342391030515004e-09, 3.0616016350350207e-12, 8.148077467426241e-16),
)


def _monotone_tail(p: int, scaled: bool, s: int, x0: float) -> tuple[float, float]:
    """Integral of p B_{p-1}(xi_bar(x)) / x^s over (x0, inf), with an error estimate.

    x = x0 e^{v/(s-1)} maps it to p x0^{1-s}/(s-1) times the integral of
    e^{-v} B(x0 e^{v/(s-1)}) over v > 0, with B a polynomial of degree p - 1
    in v up to O(1/x0): 12-point Gauss-Laguerre, less the 8-point rule for
    the estimate."""
    scale = p * x0 ** (1 - s) / (s - 1)

    def rule(nodes, weights):
        return scale * math.fsum(
            w * _bell_continuous(p, scaled, x0 * math.exp(v / (s - 1)))
            for v, w in zip(nodes, weights)
        )

    value = rule(*_LAGUERRE_12)
    return value, abs(value - rule(*_LAGUERRE_8))


def _k_series_numeric(
    p: int, scaled: bool, weight_alt: bool, weight_pow: int, cfg: NumericConfig
) -> tuple[float, float]:
    """Numeric sum over k of (-1)^{k*alt} D_p(k) / k^pow with an error bound.

    D_p(k) carries its own (-1)^k, so the net series is monotone when
    ``weight_alt`` is set (summed directly with an Euler-Maclaurin midpoint
    tail) and alternating otherwise (summed by acceleration).  Each sum
    depends on nothing but these arguments, so it is computed once per
    process: the monotone one reads ``cfg`` only in the last term of its bound.
    """
    s = weight_pow + 1
    if not weight_alt:
        return _alternating_k_series(p, scaled, s, cfg)
    value, err = _monotone_k_series(p, scaled, s)
    return value, err + min(1e-12, cfg.target_abs_tol)


@lru_cache(maxsize=None)
def _alternating_k_series(p: int, scaled: bool, s: int, cfg: NumericConfig) -> tuple[float, float]:
    # net alternating series: sum_k (-1)^k g(k) with positive magnitudes
    def magnitude(k: int) -> float:
        return p / float(k) ** s * _bell_head(p, scaled, k)[k - 1]

    try:
        return (-1.0) ** p * (-accelerate_alternating(magnitude, cfg)), cfg.target_abs_tol
    except AccelerationError as exc:  # at p >= 7 the terms' rounding alone can pass tol
        rounding = 16 * 2**-52 * abs(exc.estimate)
        if not exc.error_bound <= rounding:  # a nan estimate or bound raises too
            raise
        return (-1.0) ** p * (-exc.estimate), max(2 * exc.error_bound, rounding)


@lru_cache(maxsize=None)
def _monotone_k_series(p: int, scaled: bool, s: int) -> tuple[float, float]:
    # net monotone series: direct sum then midpoint Euler-Maclaurin tail
    bells = zip(range(1, _SERIES_CUTOFF + 1), _bell_head(p, scaled, _SERIES_CUTOFF))
    head = compensated_sum([p / float(k) ** s * b for k, b in bells])
    x0 = _SERIES_CUTOFF + 0.5
    integral, rule_err = _monotone_tail(p, scaled, s, x0)
    hi, lo = x0 + 0.5, x0 - 0.5  # the slope of B/x^s across x0, for the midpoint correction
    slope = _bell_continuous(p, scaled, hi) / hi**s - _bell_continuous(p, scaled, lo) / lo**s
    correction = p * slope / 24.0
    return (-1.0) ** p * (head + integral + correction), abs(correction) * 0.02 + rule_err


def _deriv_value_numeric(
    n: int, p: int, z: str, scaled: bool, cfg: NumericConfig
) -> tuple[float, float]:
    central, weights = _case_weights(n, z, scaled)
    # the k-series come first: where they overflow, the request fails before
    # the exact central derivative, the costliest part at large p, is built
    series = []
    for w in weights:
        val, e = _k_series_numeric(p, scaled, w.alt, w.pow, cfg)
        series.append((eval_numeric(w.coef, cfg), val, e))
    total = eval_numeric(central * central_binom_deriv(DerivSpec(p, 0, scaled)), cfg)
    err = 0.0
    for coef, val, e in series:
        total += coef * val
        err += abs(coef) * e
    return total, err


# -- public closed-form operations ------------------------------------------------


def _closed_form(n: int, p: int, z: str, scaled: bool, cfg: NumericConfig | None) -> ClosedFormResult:
    """2^{-p} times the p-th derivative (negated for the log-sine form): exact
    whenever the k-sums reduce over the catalog, otherwise numeric via the
    same series, never a wrong symbolic value."""
    if cfg is None:
        cfg = NumericConfig()
    scale = Fraction(1 if scaled else -1, 2**p)
    try:
        sym = scale * _deriv_value_exact(n, p, z, scaled)
        return ClosedFormResult(True, sym, eval_numeric(sym, cfg))
    except CatalogMissError as miss:
        val, err = _deriv_value_numeric(n, p, z, scaled, cfg)
        value, error = float(scale) * val, abs(float(scale)) * err
        if not (math.isfinite(value) and math.isfinite(error)):
            raise OverflowError(f"the series fallback is {value} with error estimate {error:.1e}")
        return ClosedFormResult(False, None, value, error, str(miss))


def log_sin_power_integral(
    spec: IntegralSpec, cfg: NumericConfig | None = None
) -> ClosedFormResult:
    """Integral of x^n log^p(sin x) over (0, z) for z in {pi/2, pi}."""
    if spec.form != "logsin":
        raise ValueError("log_sin_power_integral expects form='logsin'")
    if spec.z not in ("pi", "pi/2"):
        raise ValueError("closed forms are available at z in {'pi/2', 'pi'}")
    return _closed_form(spec.n, spec.p, spec.z, True, cfg)


def log_sine_integral(
    p: int, n: int, theta: str, cfg: NumericConfig | None = None
) -> ClosedFormResult:
    """The log-sine integral of order p+n+1 and index n at theta in {pi, 2pi}:
    minus the integral of x^n log^p|2 sin(x/2)| over (0, theta)."""
    if theta not in ("pi", "2pi"):
        raise ValueError("log_sine_integral handles theta in {'pi', '2pi'}")
    if p < 1 and n < 0:
        raise ValueError("need p >= 1 or n >= 0")
    return _closed_form(n, p, theta, False, cfg)


# -- arbitrary angle ------------------------------------------------------------

# terms of the t-series below: at t = 1/4 (z = pi) they fall below 1e-18 of the
# value by k = 27 for every p <= 6
_H_TERMS = 32
_TWO_PI_LOW = 2.4492935982947064e-16  # 2pi - fl(2pi)


@lru_cache(maxsize=None)
def _log_sine_rows(p: int, terms: int) -> tuple[tuple[float, ...], ...]:
    """Row k holds C(p, i) [t^k] h^{p-i} for i = 0..p, where
    h = log(sin(x/2) / (x/2)) = -sum_k zeta(2k)/k t^k and t = (x/2pi)^2."""
    h = [0.0] + [-zeta_numeric(2 * k) / k for k in range(1, terms)]
    powers = [[1.0] + [0.0] * (terms - 1)]  # powers[j][k] = [t^k] h^j
    for _ in range(p):
        powers.append([math.fsum(powers[-1][i] * h[k - i] for i in range(k)) for k in range(terms)])
    return tuple(
        tuple(math.comb(p, i) * powers[p - i][k] for i in range(p + 1)) for k in range(terms)
    )


def _log_sine_series(p: int, z: float, terms: int = _H_TERMS) -> float:
    """Ls_{p+1}(z) for 0 < z <= pi: log^p(2 sin(x/2)) = sum_i C(p, i) log^i x h^{p-i}
    integrated term by term, with the integral of x^m log^i x over (0, z) equal
    to z^{m+1} J_i, J_0 = 1/(m+1) and J_i = (log^i z - i J_{i-1}) / (m+1)."""
    t, log_z = (z / (2 * math.pi)) ** 2, math.log(z)
    log_pows = [log_z**i for i in range(p + 1)]
    parts, t_k = [], 1.0
    for k, row in enumerate(_log_sine_rows(p, terms)):
        m1 = 2 * k + 1
        j = 1.0 / m1
        acc = row[0] * j
        for i in range(1, p + 1):
            j = (log_pows[i] - i * j) / m1
            acc += row[i] * j
        parts.append(t_k * acc)
        t_k *= t
    return -z * math.fsum(parts)


@lru_cache(maxsize=None)
def _any_angle_bell(p: int) -> SymbolicValue:
    """The exact Bell coefficient B of z in Ls_{p+1}(z)."""
    return Fraction(-1, 2**p) * central_binom_deriv(DerivSpec(p, 0, False))


@lru_cache(maxsize=None)
def _any_angle_bell_float(p: int) -> float:
    # B holds only pi and zeta generators, whose float values read no NumericConfig
    return eval_numeric(_any_angle_bell(p))


def log_sine_any_angle(
    p: int, z: float, cfg: NumericConfig | None = None
) -> tuple[float, SymbolicValue]:
    """Ls_{p+1}(z) = -integral of log^p|2 sin(x/2)| over (0, z) for 0 < z <= 2pi.

    Returns ``(value, bell_coefficient)`` where ``bell_coefficient`` is the
    exact symbolic coefficient B of z (the Bell-polynomial term):
    Ls_{p+1}(z) - B z is a sine series, odd and 2pi-periodic.  Up to pi the
    value is a convergent series in (z/2pi)^2 with powers of log z as
    coefficients; past pi it is 2pi B - Ls_{p+1}(2pi - z).  ``cfg`` is
    accepted like the other entry points', but no step here reads it.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if not 0 < z <= 2 * math.pi + 1e-12:
        raise ValueError("z must lie in (0, 2*pi]")

    bell_coef = _any_angle_bell(p)
    if z <= math.pi:
        return _log_sine_series(p, z), bell_coef
    mirror = 2 * math.pi - z  # exact for z in (pi, 2pi]
    value = 2 * math.pi * _any_angle_bell_float(p)
    if mirror > 0:  # z = fl(2pi) stands for 2pi, where the sine series vanishes
        value -= _log_sine_series(p, mirror + _TWO_PI_LOW)
    return value, bell_coef


# -- numeric oracle over the defining integrals -------------------------------------


def defining_integrand(spec: IntegralSpec):
    """The raw integrand of the requested integral (sign included for 'ls')."""
    n, p = spec.n, spec.p
    if spec.form == "logsin":
        return lambda x: x**n * math.log(math.sin(x)) ** p
    return lambda x: -(x**n) * math.log(2.0 * math.sin(x / 2.0)) ** p


def quadrature_value(spec: IntegralSpec, cfg: NumericConfig | None = None) -> float:
    """Tanh-sinh value of the defining integral; the independent oracle.

    The log factor g, singular at 0 and L (pi for 'logsin', 2pi for 'ls'), is
    symmetric about L/2: past it the piece over (L/2, z) is reflected onto
    (L - z, L/2) with weight (L - x)^n, so the singularity is met at 0, where
    node distances are exact, never at the float L (a z just past L is L)."""
    if cfg is None:
        cfg = NumericConfig()
    f, n, z = defining_integrand(spec), spec.n, angle_value(spec.z)
    top = math.pi if spec.form == "logsin" else 2 * math.pi
    if z <= top / 2:
        return tanh_sinh_quadrature(f, 0.0, z, cfg)
    g, mirror = defining_integrand(replace(spec, n=0)), max(top - z, 0.0)
    half = replace(cfg, target_abs_tol=cfg.target_abs_tol / 2)
    return tanh_sinh_quadrature(f, 0.0, mirror, half) + tanh_sinh_quadrature(
        lambda x: (x**n + (top - x) ** n) * g(x), mirror, top / 2, half
    )
