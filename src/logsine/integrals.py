"""Closed forms and numerics for the power/log-sine integral family.

Covered objects, all over (0, z):

* ``sine_power_moment``:  integral of x^n sin^{2m}(x), exact at z in
  {pi/2, pi} and numeric at any z through the finite trigonometric series.
* ``log_sin_power_integral``:  integral of x^n log^p(sin x) at z in
  {pi/2, pi}, exact whenever the required k-sums reduce over the linear
  Euler-sum catalog (p <= 2 always; any p when no k-sum appears), otherwise
  a numeric fallback with a bound: by y = 2x the integral is a sum of the
  log-sine moments of y^j log^p sin(y/2) over (0, pi), folded once about pi.
  The moments read their log integrals J_a(m) from one table per log factor.
* ``log_sine_integral``:  the normalized -integral of x^n log^p|2 sin(x/2)|
  at theta in {pi, 2pi}, same exactness domain.
* ``log_sine_any_angle``:  the n = 0 case at arbitrary 0 < z <= 2pi by the
  same moment series, the power series of log(sin(x/2)/(x/2)) integrated
  term by term, reflected about pi through log-sine moment 0.  The series
  stops at the first term count whose bounded remainder cannot move its
  double, so it has the bits of the full sum.
* ``quadrature_value``:  the independent oracle, tanh-sinh quadrature of the
  defining integral, each integrand column the product of two columns kept
  in the store of a tabled level, x^n or the folded x^n + (L - x)^n and the
  signed log power, so that a repeated interval computes no power and no
  logarithm; ``sine_power_moment_quadrature`` reads x^n and sin^{2m} x so.
  Each column is named by the tuple (build, *args) of the function that builds it.

The symbolic pipeline never guesses: a value is returned as exact only when
every infinite k-sum lands in the whitelisted catalog, otherwise the result
is flagged numeric with a reason.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from itertools import repeat
from operator import add, mul, neg, sub

from .binomderiv import _constant_row
from .numerics import (
    DEFAULT_CONFIG,
    NumericConfig,
    _tanh_sinh,
    zeta_numeric,
)
from .specialfn import alt_euler_sum_H, eta_value, euler_sum_H
from .symbolic import (
    SymbolicValue,
    eval_numeric,
    linear_combination,
    pi_power_combination,
    sym_zeta,
)

ANGLE_TOKENS = {"pi/2": math.pi / 2, "pi": math.pi, "2pi": 2 * math.pi}
# form -> angle token with a closed form -> the angle of the x^n sin^{2m} x row it reads: the
# log-sine form at theta reads the row at theta/2 (see _case_weights); any other angle is refused
CLOSED_FORM_ANGLES = {"logsin": {"pi/2": "pi/2", "pi": "pi"}, "ls": {"pi": "pi/2", "2pi": "pi"}}


def _log_sin(x: float) -> float:
    return math.log(math.sin(x))


def _log_2sin_half(x: float) -> float:  # x/2 rounds to 0 at x = 5e-324, where 2 sin(x/2) is x
    return math.log(2.0 * math.sin(x / 2.0)) if x > 5e-324 else math.log(x)


# an integral form: z ranges over (0, top], the integrand is sign * x^n g(x)^p for the log
# factor g = log, and its closed forms read the 4^-m-scaled rows when scaled, otherwise the
# rows over binom(2m, m+k) at half the angle (by x = 2y, see _case_weights)
Form = namedtuple("Form", "top top_text log sign scaled")
# the two forms, one family under x = 2y: x^n log^p(sin x), and the log-sine form, minus
# x^n log^p|2 sin(x/2)|; log sin x is undefined past pi, log|2 sin(x/2)| is defined up to 2pi
FORMS = {"logsin": Form(math.pi, "pi", _log_sin, 1, True),
         "ls": Form(2 * math.pi, "2*pi", _log_2sin_half, -1, False)}


def angle_value(z: str | float) -> float:
    """The radians of an angle: a token of ANGLE_TOKENS, a number or a numeric string."""
    if z in ANGLE_TOKENS:
        return ANGLE_TOKENS[z]
    try:
        return float(z)
    except ValueError:
        raise ValueError(f"cannot parse angle {z!r}") from None


def _row_angle(form: str, z: str | float) -> str:
    rows = CLOSED_FORM_ANGLES[form]
    if z not in rows:
        raise ValueError(f"form {form!r} has closed forms at z = {' or '.join(map(repr, rows))}, not {z!r}")
    return rows[z]


class IntegralSpec(namedtuple("IntegralSpec", "n p z form")):
    """Request for integral of x^n log^p(sin x) dx (form 'logsin') or the
    normalized log-sine integral (form 'ls') over (0, z)."""

    __slots__ = ()

    def __new__(cls, n: int, p: int, z: str | float, form: str = "logsin"):
        if not isinstance(n, int) or not isinstance(p, int):
            name, value = ("p", p) if isinstance(n, int) else ("n", n)
            raise ValueError(f"{name} must be an int, got {value!r}")
        if n < 0 or p < 0:
            raise ValueError("n and p must be >= 0")
        if form not in FORMS:
            raise ValueError(f"form must be {' or '.join(map(repr, FORMS))}")
        if not 0 < angle_value(z) <= FORMS[form].top + 1e-12:
            raise ValueError(f"z must lie in (0, {FORMS[form].top_text}] for form {form!r}")
        return tuple.__new__(cls, (n, p, z, form))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too


class ClosedFormResult(namedtuple("ClosedFormResult", "value numeric error reason", defaults=(None, None))):
    """Outcome of a closed-form request: exact symbolic value, or a numeric
    fallback with an error estimate and the reason symbolic reduction was
    not possible."""

    __slots__ = ()

    @property
    def exact(self) -> bool:
        return self.value is not None


class CatalogMissError(ValueError):
    """The requested reduction needs sums outside the linear Euler-sum catalog."""


# -- exact moments of x^n sin^{2m} x ------------------------------------------


def sine_power_moment_exact(n: int, m: int, z: str) -> SymbolicValue:
    """Exact integral of x^n sin^{2m}(x) over (0, z) for z in {pi/2, pi}.

    The weights of :func:`_case_weights` applied to the shift-k coefficients
    4^{-m} binom(2m, m+k).  The k-sum truncates at k = m because
    binom(2m, m+k) vanishes beyond it, so the value is an exact rational
    combination of pi powers: one pass of :func:`pi_power_combination` over the
    weight triples and the cached k-sums of :func:`_moment_ksum`, at the scale 4^{-m}.
    """
    if n < 0 or m < 0:
        raise ValueError("n and m must be >= 0")
    central, weights = _case_weights(n, _row_angle("logsin", z))
    ksums = [_moment_ksum(m, alt, pow_) for _, alt, pow_ in weights]
    return pi_power_combination([central, *(coef for coef, _, _ in weights)],
                                [(math.comb(2 * m, m), 1), *ksums], (1, 4**m))


@lru_cache(maxsize=None)
def _moment_ksum(m: int, alt: bool, pow_: int) -> tuple[int, int]:
    """sum_{k<=m} (-1)^{k*alt} binom(2m, m+k) / k^pow as one unreduced int pair over
    lcm(k^pow) = lcm(1..m)^pow; every n and both angles read it."""
    top = math.lcm(*range(1, m + 1)) ** pow_
    return sum(math.comb(2 * m, m + k) * (top // k**pow_) * (-1 if alt and k % 2 else 1)
               for k in range(1, m + 1)), top


def sine_power_moment_numeric(n: int, m: int, z: float) -> float:
    """Integral of x^n sin^{2m}(x) over (0, z) by the finite trigonometric
    expansion, each sum correctly rounded by math.fsum."""
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
        terms.append(front * math.fsum(inner))
    return math.fsum(terms)


# -- the k-sum engine -----------------------------------------------------------


def _catalog_sum(harmonic: bool, alt: bool, s: int) -> SymbolicValue:
    """sum_k (-1)^{k*alt} H_k^harmonic / k^s by the catalog, whose functions
    refuse every sum outside it; the refusal becomes a CatalogMissError."""
    try:
        if harmonic:
            return alt_euler_sum_H(s) if alt else euler_sum_H(s)
        return -eta_value(s) if alt else sym_zeta(s)
    except ValueError as refusal:
        raise CatalogMissError(str(refusal)) from None


@lru_cache(maxsize=None)
def _ksum(p: int, scaled: bool, alt: bool, s: int) -> SymbolicValue:
    """Catalog value of sum_k (-1)^{k*alt} D_p(k) / k^s, D_p(k) the p-th m-derivative
    at 0 of the shift-k coefficient, (-1)^{p+k} (p/k) B_{p-1}(xi_bar(k)).

    With xi_bar = c + r(k) as in :func:`shifted_binom_deriv`, B_{p-1}(c + r) =
    sum_i C(p-1, i) B_{p-1-i}(c) B_i(r), and only B_0(r) = 1 and B_1(r) = 2 H_k - 1/k
    are linear in H_k, so the catalog takes p <= 2, where
    D_p(k) = (-1)^{p+k} (p/k) (B_{p-1}(c) + (p-1)(2 H_k - 1/k)), B_{p-1}(c) the cached
    entry p-1 of the constant row (log 4 at p = 2 when scaled).  A sum outside
    the catalog raises CatalogMissError."""
    if p > 2:
        raise CatalogMissError(
            f"p = {p} derivative expands into powers of harmonic numbers beyond the "
            "linear Euler-sum catalog"
        )
    if p == 0:
        return SymbolicValue.zero()
    flip = not alt  # D_p(k) carries (-1)^k
    # the k-sum is (-1)^p p (B_{p-1}(c) S(s+1) + (p-1) (2 SH(s+1) - S(s+2))), S and SH the
    # catalog sums of 1 and H_k, in one accumulator pass
    weights = [_constant_row(p - 1, scaled)[p - 1]]
    sums = [_catalog_sum(False, flip, s + 1)]
    if p == 2:
        weights += [2, -1]
        sums += [_catalog_sum(True, flip, s + 1), _catalog_sum(False, flip, s + 2)]
    return linear_combination(weights, sums, (-1) ** p * p)


PiWeight = tuple[int, int, int]  # (e, num, den): num/den pi^e


@lru_cache(maxsize=None)
def _case_weights(n: int, z: str) -> tuple[PiWeight, tuple[tuple[PiWeight, bool, int], ...]]:
    """Central prefactor and k-sum weights (coef, alt, pow) of the x^n sin^{2m} x
    moment over (0, z), z in {pi/2, pi}: the moment is central * c(0) +
    sum coef * sum_k (-1)^{k*alt} c(k) / k^pow over c(k) = 4^{-m} binom(2m, m+k).
    The prefactor and each coef are reduced int triples (e, num, den), num/den pi^e,
    built with no Fraction; only at odd n on the pi/2 row do two weights, the last
    even one and the parity one, share an exponent, e = 0.

    The log-sine form has no row of its own: by x = 2y the moment of
    x^n (2 sin(x/2))^{2m} over (0, theta) is 2^{n+1} 4^m times this one at
    theta/2, so its row is 2^{n+1} times this row over c(k) = binom(2m, m+k)."""
    nfact = math.factorial(n)

    def weight(e: int, num: int, den: int) -> PiWeight:
        g = math.gcd(num, den)
        return e, num // g, den // g

    def even(j: int, den: int) -> PiWeight:  # the weight of a sum over k^{2j}
        return weight(n + 1 - 2 * j, -nfact * (-1) ** j, den * math.factorial(n + 1 - 2 * j))

    if z == "pi":
        return weight(n + 1, 1, n + 1), tuple((even(j, 2 ** (2 * j - 1)), True, 2 * j)
                                              for j in range(1, n // 2 + 1))
    weights = [(even(j, 2**n), False, 2 * j) for j in range(1, (n + 1) // 2 + 1)]
    if n % 2 == 1:  # odd n adds one alternating sum over k^{n+1}
        weights.append((weight(0, nfact * (-1) ** ((n + 1) // 2), 2**n), True, n + 1))
    return weight(n + 1, 1, 2 ** (n + 1) * (n + 1)), tuple(weights)


# -- one log-sine series: the moments of y^i log^p|2 sin(y/2)| -------------------

# terms of the t-series below: at t = 1/4 (z = pi) they fall below 1e-18 of the
# value by k = 27 for every p <= 6
_H_TERMS = 32
_TWO_PI_LOW = 2.4492935982947064e-16  # 2pi - fl(2pi)
_TAIL_H = math.log(math.pi * 0.9**0.5 / math.sin(math.pi * 0.9**0.5))  # -h at t = 0.9
_h_powers: dict[int, tuple[float, ...]] = {}  # j -> [t^k] h^j for k below its length
_log_sine_tables: dict[int, tuple[tuple[float, ...], ...]] = {}  # p -> rows 0.. of its series
_j_tables: dict[float, tuple[tuple[float, ...], ...]] = {}  # log z -> (J_a(m))_a at m = 1, 2, ..


def _log_sine_rows(p: int, terms: int) -> tuple[tuple[float, ...], ...]:
    """At least ``terms`` rows; row k holds C(p, i) [t^k] h^{p-i} for i = 0..p, h =
    log(sin(x/2) / (x/2)) = -sum_k zeta(2k)/k t^k and t = (x/2pi)^2.  One table of the powers
    of h serves every p, and one table of rows each p; a longer one is a new tuple, no reader
    sees it half-built, racing threads store the shorter."""
    rows = _log_sine_tables.get(p, ())
    if len(rows) < terms:
        powers = [tuple(float(k == 0) for k in range(terms))]  # h^0
        for j in range(1, p + 1):
            power = _h_powers.get(j, ())
            if len(power) < terms:  # each power is the Cauchy product of the one before and h
                h = powers[1] if j > 1 else [0.0] + [-zeta_numeric(2 * k) / k for k in range(1, terms)]
                power = _h_powers[j] = power + tuple(math.fsum(map(mul, powers[-1][:k], h[k:0:-1]))
                                                     for k in range(len(power), terms))
            powers.append(power)
        rows = _log_sine_tables[p] = rows + tuple(
            tuple(math.comb(p, i) * powers[p - i][k] for i in range(p + 1)) for k in range(len(rows), terms))
    return rows


_log_sine_rows.cache_clear = _log_sine_tables.clear


def _j_table(log_z: float, p: int, size: int) -> tuple[tuple[float, ...], ...]:
    """At least ``size`` entries; entry m - 1 holds J_0, ..., J_q(m) for q >= p, the J_a of
    :func:`_log_sine_parts` by the same float operations, here at log_z.  A moment reads
    them once per m, where they depend on neither p, i nor the row; the moments' log factors
    are +-log pi and +-log(pi/2), the only keys.  A longer table is a new tuple, and a wider
    one is built whole again, so no reader sees one half-built; racing threads store the shorter."""
    table = _j_tables.get(log_z, ())
    if table and len(table[0]) <= p:
        size, table = max(size, len(table)), ()
    if len(table) < size:
        steps = [(float(a), log_z**a) for a in range(1, len(table[0]) if table else p + 1)]
        entries = []
        for m in map(float, range(len(table) + 1, size + 1)):
            j = 1.0 / m
            js = [j]
            for a, log_pow in steps:
                j = (log_pow - a * j) / m
                js.append(j)
            entries.append(tuple(js))
        table = _j_tables[log_z] = table + tuple(entries)
    return table


_j_table.cache_clear = _j_tables.clear


def _log_sine_parts(p: int, z: float, start: int, stop: int) -> list[float]:
    """The parts of rows start..stop-1 of the integral of log^p(2 sin(y/2)) = (log y + h(y))^p
    over (0, z), 0 < z <= pi, in units of z: t^k times row k dotted with (J_0, ..., J_p).

    The factor is sum_a C(p, a) log^a y h^{p-a}, and y^{m-1} log^a y integrates over (0, z)
    to z^m J_a, J_0 = 1/m and J_a = (log^a z - a J_{a-1}) / m at m = 2k + 1, with m and a
    held as floats, so that every step is float by float; the ints convert exactly, so the
    values are the same.  log z is new on every call, so the J_a run here, in the row loop;
    the moments read the same floats from :func:`_j_table`.  A run from row K gives the same
    floats as rows K.. of a run from 0, so a longer series extends a shorter one.  The rows
    are read from the table of p, at least _H_TERMS long, so that a short run keeps no table
    of its own.  A power of log z past binary64 raises OverflowError."""
    t, log_z = (z / (2 * math.pi)) ** 2, math.log(z)
    t_k = 1.0
    for _ in range(start):
        t_k *= t
    steps = [(a, float(a), log_z**a) for a in range(1, p + 1)]
    parts, m = [], float(2 * start + 1)  # m = 2k + 1 at row k
    for row in _log_sine_rows(p, max(stop, _H_TERMS))[start:stop]:
        j = 1.0 / m
        acc = row[0] * j
        for a, float_a, log_pow in steps:
            j = (log_pow - float_a * j) / m
            acc += row[a] * j
        parts.append(t_k * acc)
        t_k *= t
        m += 2.0
    return parts


def _log_sine_tail(p: int, z: float, k: int) -> float:
    """A bound on the sum of the magnitudes of the parts of rows k, k+1, ... of
    :func:`_log_sine_series`, as computed: 2 r^k J(A, 2k + 1) / (1 - r), r = t/0.9 < 1.

    -h has nonnegative coefficients, so [t^k] (-h)^j <= (-h(0.9))^j / 0.9^k, and
    |J_a| <= J_a(|log z|) of the recursion with every sign positive; summed over a,
    row k is at most r^k J(A, m) in magnitude, A = |log z| - h(0.9) and
    J(A, m) = sum_b C(p, b) A^{p-b} b! / m^{b+1}, which is g_p of g_0 = 1/m and
    g_e = (A^e + e g_{e-1}) / m.  J falls as m grows, the rows past k sum to at most
    1/(1 - r) times row k's, and the factor 2 covers the rounding of the rows, the J_a
    and t^k, each within (1 + 4 eps)^{3p+k} of its majorant.  The bound is computed
    without raising: past binary64 it is inf or nan."""
    ratio, m1, a = (z / (2 * math.pi)) ** 2 / 0.9, 2 * k + 1, abs(math.log(z)) + _TAIL_H
    g, a_e = 1.0 / m1, 1.0
    for e in range(1, p + 1):
        a_e *= a
        g = (a_e + e * g) / m1
    return 2 * ratio**k * g / (1 - ratio)


def _unmoved(parts: list[float], bound: float) -> bool:
    """Whether every sum of ``parts`` and a tail within +-``bound`` rounds to the finite
    fsum of the parts alone; rounding is monotone, so both ends rounding to it suffice."""
    try:
        low, mid, high = (math.fsum(parts + [x]) for x in (-bound, 0.0, bound))
    except (ValueError, OverflowError):  # -inf + inf, or an intermediate overflow
        return False
    return math.isfinite(mid) and low == mid == high


def _log_sine_series(p: int, z: float) -> float:
    """Integral of log^p(2 sin(y/2)) = (log y + h(y))^p over (0, z) for 0 < z <= pi, the
    fsum of the parts of the first _H_TERMS rows of :func:`_log_sine_parts` at log z.

    The rows fall like r^k, r = t/0.9 and t = (z/2pi)^2.  The first K rows are summed,
    K the least count with r^K <= 2^-64, capped at _H_TERMS; when the parts plus or
    minus the bound of :func:`_log_sine_tail` on the rows left out round to their own
    fsum, so does the sum of every row, and the K rows are the value.  Otherwise the
    remaining rows are added.  Either way the value has the bits of all _H_TERMS rows;
    at z = pi, K would be 35, so every row is summed."""
    ratio, ratio_k, short = (z / (2 * math.pi)) ** 2 / 0.9, 1.0, 0
    while short < _H_TERMS and ratio_k > 2**-64:
        ratio_k *= ratio
        short += 1
    parts = _log_sine_parts(p, z, 0, short)
    if short < _H_TERMS and not _unmoved(parts, _log_sine_tail(p, z, short)):
        parts += _log_sine_parts(p, z, short, _H_TERMS)
    return z * math.fsum(parts)


@lru_cache(maxsize=None)
def _log_sine_moment(p: int, i: int, scaled: bool) -> tuple[float, float]:
    """Integral of y^i log^p(2 sin(y/2)) over (0, pi), or of y^i log^p sin(y/2)
    when scaled, with an error bound.

    -h has nonnegative coefficients, so on t <= 1/4 the tail of (-h)^j past K
    terms is at most (t/0.9)^K (-h(0.9))^j.  As |log(y/c)| <= log_z - log(y/pi),
    the K terms leave out at most pi^{i+1} 3.6^-K sum_b C(p, b) A^{p-b} b! /
    (i + 2K + 1)^{b+1}, A = log_z - h(0.9); K doubles until that is below an ulp
    of the parts' magnitude, the series at -log_z (rows and J_a of one sign), and the
    value is the series at log_z over those K terms.  Row k of either is t^k times the
    row dotted with J_0..J_p(m), m = 2k + i + 1, of the log factor's :func:`_j_table`, by
    the float operations of :func:`_log_sine_parts`, and a doubling extends both from row K.
    pi^{i+1} is formed first, so a moment past binary64 raises OverflowError before any
    table work.  At fl(pi), t = 1/4 is exact, and a moment rounds by at most 12p + i + 12
    units of 2^-53 of that magnitude: the rows 11(p - a) + 1 (zeta_numeric is correctly
    rounded), J_a 3a + 4, their products and sum p + 1, the rest i + 4."""
    scale = math.pi ** (i + 1)
    log_z = math.log(math.pi / 2 if scaled else math.pi)
    terms, a = _H_TERMS, log_z + _TAIL_H
    sizes, values, t_k = [], [], 1.0
    while True:
        start = len(sizes)
        rows = _log_sine_rows(p, terms)[start:terms]
        size_js, value_js = (_j_table(c, p, i + 2 * terms - 1)[i + 2 * start::2] for c in (-log_z, log_z))
        for row, size_j, value_j in zip(rows, size_js, value_js):
            size_dot, value_dot = row[0] * size_j[0], row[0] * value_j[0]
            for q in range(1, p + 1):
                size_dot += row[q] * size_j[q]
                value_dot += row[q] * value_j[q]
            sizes.append(t_k * size_dot)
            values.append(t_k * value_dot)
            t_k *= 0.25
        size = abs(scale * math.fsum(sizes))
        m1 = i + 2 * terms + 1
        tail = scale / 3.6**terms * math.fsum(
            math.comb(p, b) * a ** (p - b) * (math.factorial(b) / m1 ** (b + 1))  # b! may pass a float
            for b in range(p + 1))
        if tail <= 2**-53 * size:
            return scale * math.fsum(values), tail + (12 * p + i + 12) * 2**-53 * size
        terms *= 2


# -- numeric sums of log-sine moments: one k-series, and the fallback ----------------


def _fourier_weights(alt: bool, pow_: int) -> dict[int, float]:
    """The coefficients c_i of C(y) = sum_i c_i y^i = sum_k s^k cos(ky) / k^pow
    on [0, pi] for even pow, s = 1 when ``alt`` and -1 otherwise.

    At pow = 2q, sum_k cos(ky) / k^{2q} = (-1)^{q+1} (2pi)^{2q} B_{2q}(y/2pi) / (2 (2q)!),
    and B_j (2pi)^j / (2 j!) is 1/2, -pi/2 and (-1)^{j/2+1} zeta(j) at j = 0, 1
    and even j.  s = -1 gives 2^{1-2q} C(2y) - C(y): c_i times 2^{i+1-2q} - 1."""
    q = pow_ // 2
    coef = {2 * q: (-1) ** (q + 1) / (2 * math.factorial(2 * q))}
    if alt:
        coef[2 * q - 1] = (-1) ** q * math.pi / (2 * math.factorial(2 * q - 1))
    for l in range(1, q + 1):
        coef[2 * q - 2 * l] = (-1) ** (q + l) * zeta_numeric(2 * l) / math.factorial(2 * q - 2 * l)
    return coef if alt else {i: c * (2.0 ** (i + 1 - 2 * q) - 1.0) for i, c in coef.items()}


@lru_cache(maxsize=None)
def _k_series_numeric(
    p: int, scaled: bool, weight_alt: bool, weight_pow: int, cfg: NumericConfig
) -> tuple[float, float]:
    """Sum over k of (-1)^{k*alt} D_p(k) / k^pow with an error bound; no fallback calls it,
    it is the catalog's numeric reference, and ``cfg``, not read, keeps the benchmark hook's key.

    D_p(k) is the p-th m-derivative at 0 of the shift-k coefficient c_k of
    sin^{2m} x = c_0 + 2 sum_k (-1)^k c_k cos 2kx (times 4^m unscaled), so with
    y = 2x the sum is 2^p/pi times the integral over (0, pi) of L^p C(y),
    L = log sin(y/2) (log(2 sin(y/2)) unscaled) and C as in _fourier_weights.
    The bound adds 17 units of 2^-53 of each weighted moment for the rounding."""
    parts, err = [], 0.0
    for i, c in _fourier_weights(weight_alt, weight_pow).items():
        value, bound = _log_sine_moment(p, i, scaled)
        parts.append(c * value)
        err += abs(c) * (bound + 17 * 2**-53 * abs(value))
    scale = 2.0**p / math.pi
    return scale * math.fsum(parts), scale * err


def _moment_sum(n: int, p: int, row: str, form: Form) -> tuple[float, float]:
    # by x = y/2 the half angle (row pi/2) is the form's sign times M_n, and times 2^{-n-1} on the
    # scaled rows, M_j the moment of y^j L^p over (0, pi), L as in _log_sine_moment; L is even
    # about pi, so the full angle (row pi) adds (pi, 2pi) folded onto (0, pi) as (2pi - y)^n.  A
    # part rounds by 0.36 (n - j) + 5 units of 2^-53 (0.36 a power of fl(2pi), 2 pow's ulp, 1 each
    # C(n, j), 2 products), the plain sum n more: it runs left to right, where the builtin sum
    # compensates since Python 3.12
    value, bound = _log_sine_moment(p, n, form.scaled)
    if row == "pi":
        value, bound = 0.0, 0.0
        for j in range(n + 1):
            moment, b = _log_sine_moment(p, j, form.scaled)
            c = (-1) ** j * math.comb(n, j) * (2 * math.pi) ** (n - j) + (j == n)
            part = c * moment
            value += part
            bound += abs(c) * b + (0.36 * (n - j) + n + 5) * 2**-53 * abs(part)
    scale = form.sign * (2.0 ** (-n - 1) if form.scaled else 1.0)
    return scale * value, abs(scale) * bound


# -- public closed-form operations ------------------------------------------------


def _closed_form(spec: IntegralSpec) -> ClosedFormResult:
    """2^{-p} times the p-th derivative of the row at z; the log-sine form at theta = z is
    -2^{n+1-p} times the unscaled derivative of the row at theta/2.  Exact when the k-sums
    reduce over the catalog, otherwise from log-sine moments, never a wrong symbolic value.
    The derivative, central D_p(0) + sum coef * (k-sum of D_p), is summed and scaled, the scale
    an int pair, in one pass of :func:`pi_power_combination` over the weight triples.  D_p(0)
    is (-1)^p B_p(c): B_p(c) is read from the cached constant row and the sign goes on the
    central weight, as the scale multiplies the k-sums too."""
    n, p, row, form = spec.n, spec.p, _row_angle(spec.form, spec.z), FORMS[spec.form]
    (e, num, den), weights = _case_weights(n, row)
    try:
        ksums = [_ksum(p, form.scaled, alt, pow_) for _, alt, pow_ in weights]
    except CatalogMissError as miss:
        value, error = _moment_sum(n, p, row, form)
        if not (math.isfinite(value) and math.isfinite(error)):
            raise OverflowError(f"the series fallback is {value} with error estimate {error:.1e}")
        return ClosedFormResult(None, value, error, str(miss))
    sym = pi_power_combination([(e, -num if p % 2 else num, den), *(coef for coef, _, _ in weights)],
                               [_constant_row(p, form.scaled)[p], *ksums],
                               (form.sign * (1 if form.scaled else 2 ** (n + 1)), 2**p))
    return ClosedFormResult(sym, eval_numeric(sym))


def log_sin_power_integral(spec: IntegralSpec) -> ClosedFormResult:
    """Integral of x^n log^p(sin x) over (0, z) for z in {pi/2, pi}."""
    if spec.form != "logsin":
        raise ValueError("log_sin_power_integral expects form='logsin'")
    return _closed_form(spec)


def log_sine_integral(p: int, n: int, theta: str) -> ClosedFormResult:
    """The log-sine integral of order p+n+1 and index n at theta in {pi, 2pi}:
    minus the integral of x^n log^p|2 sin(x/2)| over (0, theta)."""
    return _closed_form(IntegralSpec(n, p, theta, form="ls"))


# -- arbitrary angle ------------------------------------------------------------


def log_sine_any_angle(p: int, z: float) -> tuple[float, float]:
    """Ls_{p+1}(z) = -integral of log^p|2 sin(x/2)| over (0, z) for 0 < z <= 2pi.

    Returns ``(value, bell_coefficient)``, the float of the coefficient B of z
    (the Bell-polynomial term): Ls_{p+1}(z) - B z is a sine series, odd and
    2pi-periodic.  Up to pi the value is a convergent series in (z/2pi)^2 with
    powers of log z as coefficients; past pi it is 2pi B - Ls_{p+1}(2pi - z),
    where 2pi B = Ls_{p+1}(2pi) = -2 M_0, M_0 the log-sine moment of order 0.
    A value that is not a finite double raises OverflowError, and so does a series
    whose powers of log z (of log(2pi - z) past pi) pass binary64.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if not 0 < z <= FORMS["ls"].top + 1e-12:
        raise ValueError(f"z must lie in (0, {FORMS['ls'].top_text}]")

    try:
        if z <= math.pi:
            value = -_log_sine_series(p, z)
        else:  # 2pi - z is exact; z = fl(2pi) stands for 2pi, where the sine series vanishes
            value = _log_sine_series(p, 2 * math.pi - z + _TWO_PI_LOW) if z < 2 * math.pi else 0.0
    except OverflowError:
        raise OverflowError(f"log-sine series at p = {p}, z = {z!r}: powers of log z pass binary64") from None
    if not math.isfinite(value):
        raise OverflowError(f"the log-sine series is {value}")
    moment = _log_sine_moment(p, 0, False)[0]
    if z > math.pi:
        value -= 2 * moment
    return value, -moment / math.pi


# -- numeric oracle over the defining integrals -------------------------------------


# the columns of the oracle integrands, each built at one side's abscissae by a function
# build(nodes, side, *args) and named by the tuple (build, *args), under which a tabled
# level's store keeps it: a name holds its builder's values, and a request builds no closure
def _x_power(nodes, side: int, n: int):
    """x^n."""
    return map(pow, nodes.xs[side], repeat(n))


def _fold_power(nodes, side: int, n: int, top: float):
    """x^n + (top - x)^n."""
    return map(add, nodes.column((_x_power, n))[side],
               map(pow, map(sub, repeat(top), nodes.xs[side]), repeat(n)))


def _log(nodes, side: int, form: str):
    """The log factor g of the form."""
    return map(FORMS[form].log, nodes.xs[side])


def _log_power(nodes, side: int, form: str, p: int):
    """sign * g^p, the sign and the log factor g of the form; a sign of +1 adds no pass."""
    power = map(pow, nodes.column((_log, form))[side], repeat(p))
    return power if FORMS[form].sign > 0 else map(neg, power)


def _sin_power(nodes, side: int, k: int):
    """sin^k x."""
    return map(pow, map(math.sin, nodes.xs[side]), repeat(k))


def _product_quadrature(f, left: tuple, right: tuple, a: float, b: float, tol: float) -> float:
    # the integral over (a, b) of f, whose columns are the products of the columns named
    # left and right; f itself is read at the center and at the clamped ends
    def column(nodes):
        (left_hi, left_lo), (right_hi, right_lo) = nodes.column(left), nodes.column(right)
        return map(mul, left_hi, right_hi), map(mul, left_lo, right_lo)

    return _tanh_sinh(f, column, a, b, tol)


def sine_power_moment_quadrature(n: int, m: int, z: float, cfg: NumericConfig = DEFAULT_CONFIG) -> float:
    """Tanh-sinh value of the integral of x^n sin^{2m}(x) over (0, z), the oracle of the
    exact moments; its columns are the stored x^n and sin^{2m} x."""
    return _product_quadrature(lambda x: x**n * math.sin(x) ** (2 * m), (_x_power, n), (_sin_power, 2 * m),
                               0.0, z, cfg.target_abs_tol)


def quadrature_value(spec: IntegralSpec, cfg: NumericConfig = DEFAULT_CONFIG) -> float:
    """Tanh-sinh value of the defining integral; the independent oracle.

    The log factor g, singular at 0 and L (pi for 'logsin', 2pi for 'ls'), is
    symmetric about L/2: past it the piece over (L/2, z) is reflected onto
    (L - z, L/2) with weight (L - x)^n, so the singularity is met at 0, where
    node distances are exact, never at the float L (a z just past L is L).
    Each integrand column is the product of two columns kept with the tabled
    level's nodes, x^n or x^n + (L - x)^n and the signed g^p, so that a repeated
    interval computes no power and no logarithm at levels 0-3, where calls at the
    default tolerance stop.  The two pieces of a fold take half the tolerance each."""
    n, p, z = spec.n, spec.p, angle_value(spec.z)
    top, _, g, sign, _ = FORMS[spec.form]
    # the integrand sign * x^n g(x)^p, and past L/2 the folded one, by the scalar expressions
    # read at the center and the clamped ends; a sign flip is exact wherever it is applied
    plain = lambda x: sign * x**n * g(x) ** p
    log_power = (_log_power, spec.form, p)
    if z <= top / 2:
        return _product_quadrature(plain, (_x_power, n), log_power, 0.0, z, cfg.target_abs_tol)
    folded = lambda x: sign * (x**n + (top - x) ** n) * g(x) ** p
    mirror, half = max(top - z, 0.0), cfg.target_abs_tol / 2
    return (_product_quadrature(plain, (_x_power, n), log_power, 0.0, mirror, half)
            + _product_quadrature(folded, (_fold_power, n, top), log_power, mirror, top / 2, half))
