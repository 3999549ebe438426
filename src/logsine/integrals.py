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
  exact Bell-polynomial term plus an accelerated sine series.

The symbolic pipeline never guesses: a value is returned as exact only when
every infinite k-sum lands in the whitelisted catalog, otherwise the result
is flagged numeric with a reason.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import islice
from typing import Iterator

from .bell import complete_bell
from .binomderiv import DerivSpec, central_binom_deriv, eta_bar
from .numerics import (
    AccelerationError,
    NumericConfig,
    accelerate_alternating,
    compensated_sum,
    euler_gamma_numeric,
    gauss_legendre,
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

    The k-sum truncates at k = m because binom(2m, m+k) vanishes beyond it,
    so the value is an exact rational combination of pi powers.
    """
    if n < 0 or m < 0:
        raise ValueError("n and m must be >= 0")
    if z == "pi":
        total = sym_pi(n + 1, Fraction(math.comb(2 * m, m), 4**m * (n + 1)))
        for j in range(1, n // 2 + 1):
            ksum = Fraction(0)
            for k in range(1, m + 1):
                ksum += Fraction((-1) ** k * math.comb(2 * m, m + k), k ** (2 * j))
            coef = (
                Fraction(-math.factorial(n) * (-1) ** j)
                / (math.factorial(n + 1 - 2 * j) * 2 ** (2 * j - 1) * 4**m)
            )
            total = total + sym_pi(n + 1 - 2 * j, coef * ksum)
        return total
    if z == "pi/2":
        half = Fraction(1, 2**n)
        total = sym_pi(n + 1, half * Fraction(math.comb(2 * m, m), 4**m * 2 * (n + 1)))
        for j in range(1, (n + 1) // 2 + 1):
            ksum = Fraction(0)
            for k in range(1, m + 1):
                ksum += Fraction(math.comb(2 * m, m + k), k ** (2 * j))
            coef = (
                half
                * Fraction(-math.factorial(n) * (-1) ** j, 4**m)
                / math.factorial(n + 1 - 2 * j)
            )
            total = total + sym_pi(n + 1 - 2 * j, coef * ksum)
        if n % 2 == 1:  # parity delta: (n+1)/2 integral
            ksum = Fraction(0)
            for k in range(1, m + 1):
                ksum += Fraction((-1) ** k * math.comb(2 * m, m + k), k ** (n + 1))
            coef = (
                half
                * Fraction(math.factorial(n) * (-1) ** ((n + 1) // 2), 4**m)
            )
            total = total + SymbolicValue.rational(coef * ksum)
        return total
    raise ValueError("exact moments are available at z in {'pi/2', 'pi'}")


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


def half_angle_moment(n: int, m: int, z: str | float):
    """Integral of x^n (2 sin(x/2))^{2m} over (0, 2z) via the scaling
    relation: 4^m 2^{n+1} times the x^n sin^{2m} moment over (0, z).

    Returns a SymbolicValue for z in {'pi/2', 'pi'} and a float otherwise.
    """
    scale = Fraction(4**m * 2 ** (n + 1))
    if isinstance(z, str):
        return scale * sine_power_moment_exact(n, m, z)
    return float(scale) * sine_power_moment_numeric(n, m, z)


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
    # one weighted k-sum: coef * sum_k (-1)^{k*alt} D_p(k) / k^pow
    coef: SymbolicValue
    alt: bool
    pow: int


def _case_weights(n: int, z: str, scaled: bool) -> tuple[SymbolicValue, list[_KWeight]]:
    """Central prefactor and k-sum weights of the derivative formula for each
    evaluation point; ``scaled`` selects the x^n log^p(sin x) normalization
    (4^{-m} inside) versus the log-sine one (no scaling)."""
    nfact = math.factorial(n)
    if z == "pi" and scaled:
        central = sym_pi(n + 1, Fraction(1, n + 1))
        weights = [
            _KWeight(
                coef=sym_pi(
                    n + 1 - 2 * j,
                    Fraction(-nfact * (-1) ** j)
                    / (math.factorial(n + 1 - 2 * j) * 2 ** (2 * j - 1)),
                ),
                alt=True,
                pow=2 * j,
            )
            for j in range(1, n // 2 + 1)
        ]
        return central, weights
    if z == "pi/2" and scaled:
        central = sym_pi(n + 1, Fraction(1, 2 ** (n + 1) * (n + 1)))
        weights = [
            _KWeight(
                coef=sym_pi(
                    n + 1 - 2 * j,
                    Fraction(-nfact * (-1) ** j, 2**n)
                    / math.factorial(n + 1 - 2 * j),
                ),
                alt=False,
                pow=2 * j,
            )
            for j in range(1, (n + 1) // 2 + 1)
        ]
        if n % 2 == 1:
            weights.append(
                _KWeight(
                    coef=SymbolicValue.rational(
                        Fraction(nfact * (-1) ** ((n + 1) // 2), 2**n)
                    ),
                    alt=True,
                    pow=n + 1,
                )
            )
        return central, weights
    if z == "2pi" and not scaled:
        central = sym_pi(n + 1, Fraction(2 ** (n + 1), n + 1))
        weights = [
            _KWeight(
                coef=sym_pi(
                    n + 1 - 2 * j,
                    Fraction(-nfact * (-1) ** j * 2 ** (n + 2 - 2 * j))
                    / math.factorial(n + 1 - 2 * j),
                ),
                alt=True,
                pow=2 * j,
            )
            for j in range(1, n // 2 + 1)
        ]
        return central, weights
    if z == "pi" and not scaled:
        central = sym_pi(n + 1, Fraction(1, n + 1))
        weights = [
            _KWeight(
                coef=sym_pi(
                    n + 1 - 2 * j,
                    Fraction(-2 * nfact * (-1) ** j)
                    / math.factorial(n + 1 - 2 * j),
                ),
                alt=False,
                pow=2 * j,
            )
            for j in range(1, (n + 1) // 2 + 1)
        ]
        if n % 2 == 1:
            weights.append(
                _KWeight(
                    coef=SymbolicValue.rational(2 * nfact * (-1) ** ((n + 1) // 2)),
                    alt=True,
                    pow=n + 1,
                )
            )
        return central, weights
    raise ValueError(f"no derivative formula for z={z!r}, scaled={scaled}")


def _deriv_value_exact(n: int, p: int, z: str, scaled: bool) -> SymbolicValue:
    """Exact p-th m-derivative of the moment family at m = 0 (the quantity
    equal to 2^p times the target integral); raises CatalogMissError when
    the k-sums cannot be reduced."""
    central, weights = _case_weights(n, z, scaled)
    total = central * central_binom_deriv(DerivSpec(p, 0, scaled))
    if weights:
        kform = _deriv_kform(p, scaled)
        for w in weights:
            for term in kform:
                total = total + w.coef * _sum_kterm(term, w.alt, w.pow)
    return total


# -- numeric fallback: the same series summed in floats --------------------------


def _bell_sequence(p: int, scaled: bool):
    """B_{p-1}(xi_bar(k)) for k = 1, 2, ... from running float values of the
    xi_bar sequence along integer k."""
    psi_at_one = [
        (-1.0) ** j * math.factorial(j - 1) * zeta_numeric(j) if j >= 2 else 0.0
        for j in range(0, p)
    ]
    harm = [0.0] * p  # harm[r] = H_k^{(r)}, r >= 1
    k = 0
    while True:
        k += 1
        for r in range(1, p):
            harm[r] += 1.0 / float(k) ** r
        xi = []
        for j in range(1, p):
            if j == 1:
                v = 2.0 * harm[1] - 1.0 / k
                if scaled:
                    v += math.log(4.0)
            elif j % 2 == 0:
                v = (2.0**j - 2.0) * psi_at_one[j] + math.factorial(j - 1) / k**j
            else:
                psi_k = -math.factorial(j - 1) * (zeta_numeric(j) - (harm[j] - 1.0 / k**j))
                v = (-2.0) ** j * psi_at_one[j] + 2.0 * psi_k + math.factorial(j - 1) / k**j
            xi.append(v)
        yield complete_bell(xi, one=1.0)


def _xi_continuous(j: int, x: float, scaled: bool) -> float:
    """Continuous extension of xi_bar_j to real x > 0 via polygamma."""
    if j == 1:
        v = 2.0 * (polygamma_real(0, x) + euler_gamma_numeric()) + 1.0 / x
        return v + math.log(4.0) if scaled else v
    fact = math.factorial(j - 1)
    if j % 2 == 0:
        return (2.0**j - 2.0) * (-1.0) ** j * fact * zeta_numeric(j) + fact / x**j
    psi = polygamma_real(j - 1, x)
    return (-2.0) ** j * (-1.0) ** j * fact * zeta_numeric(j) + 2.0 * psi + fact / x**j


_SERIES_CUTOFF = 2000

# (p, scaled) -> ([B_{p-1}(xi_bar(k)) for k = 1, 2, ...], the _bell_sequence feeding it)
_BELL_HEADS: dict[tuple[int, bool], tuple[list[float], Iterator[float]]] = {}
_BELL_HEADS_LOCK = threading.Lock()  # a generator cannot be advanced by two threads


def _bell_head(p: int, scaled: bool, count: int) -> list[float]:
    """The cached values B_{p-1}(xi_bar(k)) for k = 1..count, in a shared list
    that may be longer and that callers only read.  Callers ask for at most
    _SERIES_CUTOFF plus one residue period, so every cached head stays that short."""
    with _BELL_HEADS_LOCK:
        values, source = _BELL_HEADS.setdefault((p, scaled), ([], _bell_sequence(p, scaled)))
        try:
            values.extend(islice(source, max(0, count - len(values))))
        except BaseException:
            del _BELL_HEADS[p, scaled]  # the raising generator is closed: start afresh
            raise
    return values


def _bell_continuous(p: int, scaled: bool, x: float) -> float:
    """B_{p-1}(xi_bar(x)) at real x > 0; beyond x = 1e15 the series weights
    are denormal and only the log growth matters, so x is clamped there."""
    x = min(x, 1e15)
    return complete_bell([_xi_continuous(j, x, scaled) for j in range(1, p)], one=1.0)


def _midpoint_slope(p: int, scaled: bool, s: int, x0: float) -> float:
    """B_{p-1}(xi_bar(x)) / x^s at x0 + 1/2 minus at x0 - 1/2: the derivative
    in the first Euler-Maclaurin correction of a midpoint tail."""
    hi, lo = x0 + 0.5, x0 - 0.5
    return _bell_continuous(p, scaled, hi) / hi**s - _bell_continuous(p, scaled, lo) / lo**s


def _k_series_numeric(
    p: int, scaled: bool, weight_alt: bool, weight_pow: int, cfg: NumericConfig
) -> tuple[float, float]:
    """Numeric sum over k of (-1)^{k*alt} D_p(k) / k^pow with an error bound.

    D_p(k) carries its own (-1)^k, so the net series is monotone when
    ``weight_alt`` is set (summed directly with an Euler-Maclaurin midpoint
    tail) and alternating otherwise (summed by acceleration).
    """
    s = weight_pow + 1

    if not weight_alt:
        # net alternating series: sum_k (-1)^k g(k) with positive magnitudes
        def magnitude(k: int) -> float:
            return p / float(k) ** s * _bell_head(p, scaled, k)[k - 1]

        acc = accelerate_alternating(magnitude, cfg)
        return (-1.0) ** p * (-acc), cfg.target_abs_tol

    # net monotone series: direct sum then midpoint Euler-Maclaurin tail
    bells = _bell_head(p, scaled, _SERIES_CUTOFF)
    head = compensated_sum(
        [p / float(k) ** s * bells[k - 1] for k in range(1, _SERIES_CUTOFF + 1)]
    )
    x0 = _SERIES_CUTOFF + 0.5
    quad_cfg = NumericConfig(
        target_abs_tol=min(1e-12, cfg.target_abs_tol),
        quadrature_levels=cfg.quadrature_levels,
    )
    # tail integral of p B(x)/x^s over (x0, inf) mapped by x = x0/t; the 1/t^2
    # Jacobian cancels against x^{-s} so the integrand stays finite down to t = 0
    integral = tanh_sinh_quadrature(
        lambda t: p * t ** (s - 2) * _bell_continuous(p, scaled, x0 / t) / x0 ** (s - 1),
        0.0,
        1.0,
        quad_cfg,
    )
    correction = p * _midpoint_slope(p, scaled, s, x0) / 24.0
    err = abs(correction) * 0.02 + quad_cfg.target_abs_tol
    return (-1.0) ** p * (head + integral + correction), err


def _deriv_value_numeric(
    n: int, p: int, z: str, scaled: bool, cfg: NumericConfig
) -> tuple[float, float]:
    central, weights = _case_weights(n, z, scaled)
    total = eval_numeric(central * central_binom_deriv(DerivSpec(p, 0, scaled)), cfg)
    err = 0.0
    for w in weights:
        val, e = _k_series_numeric(p, scaled, w.alt, w.pow, cfg)
        total += eval_numeric(w.coef, cfg) * val
        err += abs(eval_numeric(w.coef, cfg)) * e
    return total, err


# -- public closed-form operations ------------------------------------------------


def log_sin_power_integral(
    spec: IntegralSpec, cfg: NumericConfig | None = None
) -> ClosedFormResult:
    """Integral of x^n log^p(sin x) over (0, z) for z in {pi/2, pi}.

    Exact whenever the k-sums reduce over the catalog; otherwise numeric
    via the same series, never a wrong symbolic value.
    """
    if spec.form != "logsin":
        raise ValueError("log_sin_power_integral expects form='logsin'")
    if spec.z not in ("pi", "pi/2"):
        raise ValueError("closed forms are available at z in {'pi/2', 'pi'}")
    if cfg is None:
        cfg = NumericConfig()
    scale = Fraction(1, 2**spec.p)
    try:
        sym = scale * _deriv_value_exact(spec.n, spec.p, spec.z, scaled=True)
        return ClosedFormResult(True, sym, eval_numeric(sym, cfg))
    except CatalogMissError as miss:
        val, err = _deriv_value_numeric(spec.n, spec.p, spec.z, True, cfg)
        return ClosedFormResult(
            False, None, float(scale) * val, float(scale) * err, str(miss)
        )


def log_sine_integral(
    p: int, n: int, theta: str, cfg: NumericConfig | None = None
) -> ClosedFormResult:
    """The log-sine integral of order p+n+1 and index n at theta in {pi, 2pi}:
    minus the integral of x^n log^p|2 sin(x/2)| over (0, theta)."""
    if theta not in ("pi", "2pi"):
        raise ValueError("log_sine_integral handles theta in {'pi', '2pi'}")
    if p < 1 and n < 0:
        raise ValueError("need p >= 1 or n >= 0")
    if cfg is None:
        cfg = NumericConfig()
    scale = Fraction(-1, 2**p)
    try:
        sym = scale * _deriv_value_exact(n, p, theta, scaled=False)
        return ClosedFormResult(True, sym, eval_numeric(sym, cfg))
    except CatalogMissError as miss:
        val, err = _deriv_value_numeric(n, p, theta, False, cfg)
        return ClosedFormResult(
            False, None, float(scale) * val, abs(float(scale)) * err, str(miss)
        )


def log_sine_low_order_closed(p: int, theta: str, n: int) -> SymbolicValue:
    """Central-term-only closed form of the log-sine integral, valid exactly
    where the k-series contribution vanishes: theta = 2pi with n in {0, 1},
    or theta = pi with n = 0."""
    if not ((theta == "2pi" and n in (0, 1)) or (theta == "pi" and n == 0)):
        raise ValueError(
            "low-order closed form is valid for theta=2pi, n in {0,1} or theta=pi, n=0"
        )
    if p < 1:
        raise ValueError("p must be >= 1")
    seq = [SymbolicValue.zero()] + [eta_bar(j) for j in range(2, p + 1)]
    bell_value = complete_bell(seq, one=SymbolicValue.one())
    coef = Fraction((-1) ** (p + 1) * (2 if theta == "2pi" else 1) ** (n + 1), 2**p * (n + 1))
    return sym_pi(n + 1, coef) * bell_value


# -- arbitrary angle (Clausen-style series) ----------------------------------------


def _pi_fraction(z: float, max_den: int = 64) -> Fraction | None:
    q = Fraction(z / math.pi).limit_denominator(max_den)
    if q > 0 and abs(float(q) * math.pi - z) < 1e-12 * max(1.0, abs(z)):
        return q
    return None


def log_sine_any_angle(
    p: int, z: float, cfg: NumericConfig | None = None
) -> tuple[float, SymbolicValue]:
    """Ls_{p+1}(z) = -integral of log^p|2 sin(x/2)| over (0, z) for 0 < z <= 2pi.

    Returns ``(value, bell_coefficient)`` where ``bell_coefficient`` is the
    exact symbolic coefficient of z (the Bell-polynomial term); the sine
    series is summed per residue class with Euler-Maclaurin tails when z is
    a rational multiple of pi, else directly with a tail bound.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if not 0 < z <= 2 * math.pi + 1e-12:
        raise ValueError("z must lie in (0, 2*pi]")
    if cfg is None:
        cfg = NumericConfig()

    seq = [SymbolicValue.zero()] + [eta_bar(j) for j in range(2, p + 1)]
    bell_coef = Fraction((-1) ** (p + 1), 2**p) * complete_bell(
        seq, one=SymbolicValue.one()
    )
    series_scale = (-1.0) ** (p + 1) / 2**p * 2 * p
    linear = eval_numeric(bell_coef, cfg) * z

    q = _pi_fraction(z)
    if q is not None:
        a, b = q.numerator, q.denominator
        period = 2 * b
        cutoff = ((_SERIES_CUTOFF + period - 1) // period) * period
        bells = _bell_head(p, False, cutoff)
        head_vals = [bells[k - 1] / float(k) ** 2 for k in range(1, cutoff + 1)]

        total_terms = []
        for r in range(1, period + 1):
            if (r * a) % b == 0:
                continue  # sin vanishes on this whole class
            sin_r = math.sin(math.pi * r * a / b)
            class_head = compensated_sum(head_vals[r - 1 :: period])
            # midpoint tail of the class beyond cutoff: the integral of B/x^2 over
            # (x0, inf) / period; its part over (cutoff, inf) cancels in the sum
            # (the sin_r sum to 0 over a period), leaving the piece (x0, cutoff)
            x0 = cutoff - b + r
            tail = (
                gauss_legendre(lambda x: _bell_continuous(p, False, x) / (x * x), x0, cutoff)
                / period
                + period * _midpoint_slope(p, False, 2, x0) / 24.0
            )
            total_terms += [sin_r * class_head, sin_r * tail]
        series = compensated_sum(total_terms)
    else:
        # Dirichlet's test: with c_k = B/k^2 positive and decreasing, the tail past N is
        # at most c_{N+1}/|sin(z/2)|; N rises to the least one whose bound meets tol
        limit, cap = cfg.target_abs_tol * abs(math.sin(z / 2)), min(cfg.max_series_terms, 200000)
        c = lambda k: abs(_bell_continuous(p, False, k)) / k**2
        count = 0
        while count <= cap and c(count + 1) > limit:
            count = math.ceil((count + 1) * math.sqrt(c(count + 1) / limit)) - 1
        certified = count <= cap  # else the cached head gives the estimate, and the call raises
        count = count if certified else _SERIES_CUTOFF
        bells = _bell_head(p, False, count) if count <= _SERIES_CUTOFF else _bell_sequence(p, False)
        series = compensated_sum(
            [math.sin(k * z) * bell / float(k) ** 2 for k, bell in zip(range(1, count + 1), bells)]
        )
        if not certified:
            raise AccelerationError(
                f"sine series needs more than {cap} terms for an irrational multiple of pi",
                estimate=linear + series_scale * series,
                error_bound=abs(series_scale) * c(count + 1) / abs(math.sin(z / 2)),
            )
    return linear + series_scale * series, bell_coef


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
