"""Floating-point kernels shared by the oracles and the numeric pipelines.

Contents: the basis constants zeta(n), correctly rounded from an integer
Cohen-Rodriguez Villegas-Zagier sum that zb1 shares, double-exponential
(tanh-sinh) quadrature over one map of the interval, tolerant of logarithmic
endpoint singularities, real-argument polygamma and exact cotangent
derivatives.

All functions are pure; there is no shared mutable state beyond small
memoization caches, among them the tanh-sinh node tables of levels 0-3 for the
last 16 (interval, level) pairs read.  Each table keeps a store of up to 32
columns of values at its abscissae, such as the powers the oracle multiplies,
each named by the tuple (build, *args) of the function that builds it.  One
level loop serves every integrand; it takes the integrand as a pair of
columns, one per side, sums each level as w * (y_hi + y_lo) in one map, and
reads each clamped endpoint once per call.  The absolute mass behind its
convergence floor is summed only where the floor is read: at a level whose
difference exceeds the tolerance, and after the clamp bound if that pushes
the estimate past it.  The tables and their stores pay off only where an
interval repeats, as in the oracle grid; a new interval builds its tables
once, at about the cost of one call.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice, repeat
from operator import add, mul
from typing import Callable, Iterable, NamedTuple

from .specialfn import bernoulli


@dataclass(frozen=True)
class NumericConfig:
    """The target absolute accuracy of the numeric kernels."""

    target_abs_tol: float = 1e-10

    def __post_init__(self):
        if not 0 < self.target_abs_tol < math.inf:  # a nan fails too
            raise ValueError(f"the tolerance must be finite and > 0, got {self.target_abs_tol}")


DEFAULT_CONFIG = NumericConfig()


class QuadratureError(RuntimeError):
    """Quadrature failed to certify the target tolerance."""

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


# -- the basis constants zeta(n) and zb1(n) ---------------------------------------


@lru_cache(maxsize=None)
def _cvz_weights(bits: int) -> tuple[int, tuple[int, ...]]:
    # d_N and the weights c_0..c_{N-1} of Cohen, Rodriguez Villegas and Zagier,
    # Algorithm 1, all integers, at the least N with d_N >= 2^bits:
    # d_N = ((3 + sqrt 8)^N + (3 - sqrt 8)^N) / 2 = 6 d_{N-1} - d_{N-2}, and b runs
    # over the coefficients of the shifted Chebyshev polynomial, so each division is exact
    d_prev, d, n = 1, 3, 1
    while d < 1 << bits:
        d_prev, d, n = d, 6 * d - d_prev, n + 1
    b, c, weights = -1, -d, []
    for k in range(n):
        c = b - c
        weights.append(c)
        b = b * 2 * (k + n) * (k - n) // ((2 * k + 1) * (k + 1))
    return d, tuple(weights)


def _alternating_double(moment: Callable[[int, int], int], u: int, v: int, w: int) -> float:
    """The double nearest (u + v S) / w, S = sum_{k>=0} (-1)^k a_k, for a_k the moments
    int_0^1 x^k dmu of a measure of total variation V <= 1; ``moment(k, bits)`` is
    floor(a_k 2^bits).

    At P bits the integer t = sum_k c_k floor(a_k 2^P) is S d_N 2^P within N d_N units
    from the floors, as |c_k| < d_N, and within d_N more from the truncation: that is
    at most V/d_N (the shifted Chebyshev polynomial is bounded by 1 on [0, 1]) times
    d_N 2^P, and V 2^P <= d_N.  Both ends of that interval are rounded by int division, which
    rounds correctly; once they round alike the value does too, else P doubles.
    """
    bits = 64
    while True:
        d, weights = _cvz_weights(bits)
        t = sum(c * moment(k, bits) for k, c in enumerate(weights))
        err, unit = (len(weights) + 1) * d, d << bits
        first, last = ((u * unit + v * (t + e)) / (w * unit) for e in (-err, err))
        if first == last:
            return first
        bits *= 2


@lru_cache(maxsize=None)
def zeta_numeric(n: int) -> float:
    """zeta(n) for integer n >= 2, correctly rounded: the eta series, a_k = (k + 1)^-n
    with weight (-log x)^{n-1}/(n-1)! of mass 1, over 1 - 2^{1-n}; 1.0 from n = 54 on."""
    if n < 2:
        raise ValueError("zeta_numeric requires n >= 2")
    if n >= 54:  # 0 < zeta(n) - 1 < 2^-n + 2^(1-n)/(n-1) < 2^-53, half an ulp of 1.0
        return 1.0
    half = 1 << (n - 1)
    return _alternating_double(lambda k, bits: (1 << bits) // (k + 1) ** n, 0, half, half - 1)


# -- tanh-sinh quadrature ------------------------------------------------------

_T_MAX = 6.5
_QUADRATURE_LEVELS = 12  # refinement levels after the first, each halving the step
# the node tables of levels 0-3, by which the oracle grid's calls stop at the default
# tolerance, are kept for the last 16 (interval, level) pairs read: the grid's four
# intervals, 0.006 MB each by tracemalloc, with up to _COLUMNS columns of values at their
# abscissae, as arrays of doubles, 0.002 MB per column and interval.  Levels 4-12, 99% of
# the nodes, would add 4 MB per interval; they are generated per call, in pieces of at most
# _PIECE nodes, and keep no columns.  Full-depth quadrature over 100 intervals, or of 500
# (n, p) over two, grows ru_maxrss by at most 1.7 MB with bytecode on Python 3.10-3.13, and
# by 0.8 MB where the package is compiled from source first
_CACHED_LEVELS = 4
_TABLE_ENTRIES = 16
_PIECE = 256
_COLUMNS = 32


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


class _Nodes(NamedTuple):
    """The nodes t > 0 of one level, or of a piece of one, on one interval (a, b).

    ``weights`` holds each node's weight, ``xs[0]`` and ``xs[1]`` the abscissae
    near b and near a of the nodes before those that clamp onto the last
    interior float there, and ``clamped`` how many do, on each side.  The
    clamped nodes are a suffix: the distance d to an endpoint falls by a factor
    of at least 1 - pi h from one node to the next, far more than its rounding,
    and where e2u is subnormal, d is width times it, so that ties stay ties.
    ``columns`` is the store of a tabled level, which keeps up to _COLUMNS
    columns of values at ``xs``, each under its name (build, *args), and None in
    a streamed piece, which keeps none."""

    weights: tuple[float, ...]
    xs: tuple[tuple[float, ...], tuple[float, ...]]
    clamped: tuple[int, int]
    columns: dict | None

    def column(self, name: tuple) -> tuple[Iterable[float], ...]:
        """The values ``build(self, side, *args)`` at ``xs[0]`` and ``xs[1]``, for ``name``
        the tuple (build, *args), kept under it as arrays of doubles while the store has
        room, else built afresh on each read; so a name holds the values of its builder."""
        store = self.columns
        if store is not None:
            found = store.get(name)
            if found is not None:
                return found
        build, *args = name
        if store is None or len(store) >= _COLUMNS:
            return build(self, 0, *args), build(self, 1, *args)
        # an array fills from a list at once, from an iterator one append at a time; racing
        # threads store equal columns, and may pass the bound
        found = store[name] = (array("d", list(build(self, 0, *args))), array("d", list(build(self, 1, *args))))
        return found


def _nodes(a: float, b: float, rows, columns: dict | None = None) -> _Nodes:
    width = b - a
    wscale = width / 2.0 * (math.pi / 2.0)  # the factor of each weight free of t
    lo_in, hi_in = math.nextafter(a, b), math.nextafter(b, a)
    weights, his, los = [], [], []
    for cosh_t, sech2, e2u, e2u1 in rows:
        w = wscale * cosh_t * sech2
        if w == 0.0:  # an underflowed weight adds 0 whatever f is there
            continue
        # distance to the near endpoint, computed without cancellation; nodes
        # falling inside the last representable ulp are clamped to the nearest
        # interior point, and _clamp_loss bounds what they misread
        d = width * e2u / e2u1
        weights.append(w)
        if b - d < hi_in:
            his.append(b - d)
        if a + d > lo_in:
            los.append(a + d)
    n = len(weights)
    return _Nodes(tuple(weights), (tuple(his), tuple(los)), (n - len(his), n - len(los)), columns)


@lru_cache(maxsize=_TABLE_ENTRIES)
def _node_table(a: float, b: float, level: int) -> _Nodes:
    return _nodes(a, b, _ts_rows(level), {})


def _streamed_nodes(a: float, b: float, level: int):
    rows = _ts_rows(level)  # each piece takes one row, then up to _PIECE - 1 more
    return (_nodes(a, b, chain((row,), islice(rows, _PIECE - 1))) for row in rows)


def _clamp_loss(f: Callable[[float], float], end: float, inward: float) -> float:
    """Bound on the mass misread by the nodes that read f at the point one ulp
    inside ``end``: four ulps times the change of f across the next ulp, which
    is about twice the loss at a log-type singularity and 0 where f is smooth.
    f is not read at ``inward``, the other limit, which may be singular: in an
    interval two ulps wide |f| at the one point inside stands for that change,
    and in one an ulp wide |f(end)|."""
    x1 = math.nextafter(end, inward)
    ulp = abs(x1 - end)
    if x1 == inward:
        return 4.0 * ulp * abs(f(end))
    x2 = math.nextafter(x1, inward)
    return 4.0 * ulp * abs(f(x1) - f(x2) if x2 != inward else f(x1))


def _tanh_sinh(
    f: Callable[[float], float],
    column: Callable[[_Nodes], tuple[Iterable[float], Iterable[float]]],
    a: float,
    b: float,
    tol: float,
) -> float:
    """The level loop of :func:`tanh_sinh_quadrature` to the absolute tolerance ``tol``,
    finite and > 0 as a NumericConfig checks, reading the integrand a column at a time:
    ``column(nodes)`` gives it at ``nodes.xs[0]`` and ``nodes.xs[1]``, and ``f`` at the
    center, once at each clamped endpoint and in _clamp_loss."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("finite integration limits required")
    if a == b:
        return 0.0
    if a > b:
        return -_tanh_sinh(f, column, b, a, tol)
    wscale = (b - a) / 2.0 * (math.pi / 2.0)
    ends = (math.nextafter(b, a), math.nextafter(a, b))  # the clamp points, b's side first
    read = {}  # f at the clamped points, read once

    def f_end(x: float) -> float:
        if x not in read:
            read[x] = f(x)
        return read[x]

    # the absolute mass: the magnitudes of each level, fsummed and added left to right, but only
    # once the floor is read, where a difference above tol may still count as converged
    levels, mass = [], 0.0

    def floor() -> float:  # differences below a few ulps of the mass carry no information
        nonlocal mass
        for vals in levels:
            mass += math.fsum(map(abs, vals))
        levels.clear()
        return 8.0 * 2.2e-16 * h * mass

    h, level_sum, value = 1.0, 0.0, math.nan
    for level in range(_QUADRATURE_LEVELS + 1):
        h /= 2.0
        # the node t = 0, at the center, has cosh t = sech^2 t = 1
        vals = [wscale * f((a + b) / 2.0) if wscale else 0.0] if level == 0 else []
        for nodes in (_node_table(a, b, level),) if level < _CACHED_LEVELS else _streamed_nodes(a, b, level):
            hi, lo = column(nodes)
            hi_clamped, lo_clamped = nodes.clamped
            if hi_clamped:  # the clamped nodes read one endpoint value
                hi = chain(hi, repeat(f_end(ends[0]), hi_clamped))
            if lo_clamped:
                lo = chain(lo, repeat(f_end(ends[1]), lo_clamped))
            vals += map(mul, nodes.weights, map(add, hi, lo))  # w * (y_hi + y_lo)
        level_sum += math.fsum(vals)
        levels.append(vals)
        prev, value = value, h * level_sum
        err = abs(value - prev)
        if level >= 2 and (err <= tol or err <= floor()):
            break
    if not math.isfinite(value):
        raise QuadratureError("integrand produced non-finite values", value, math.inf)
    # the nodes run far inside the last ulp of a nonzero limit, so they clamp there
    err += sum(_clamp_loss(f_end, end, to) for end, to in ((a, b), (b, a)) if end != 0.0)
    if not (err <= tol or err <= floor()):  # a NaN bound fails too
        raise QuadratureError(
            f"quadrature error estimate {err:.3e} above target {tol:.3e}",
            estimate=value,
            error_bound=err,
        )
    return value


def tanh_sinh_quadrature(
    f: Callable[[float], float],
    a: float,
    b: float,
    cfg: NumericConfig = DEFAULT_CONFIG,
) -> float:
    """Integral of f over (a, b) by double-exponential quadrature.

    One substitution x = (a+b)/2 + (b-a)/2 * tanh(pi/2 * sinh t) maps the
    whole interval, so both a and b sit at transform infinity, and the step
    halves over 12 refinement levels.  The nodes and weights of levels 0-3
    are read from a table kept for each recent interval, deeper ones are
    generated per call.  Nodes closer to a nonzero endpoint than float
    spacing allows are clamped onto the last interior float, where f is read
    once per call, and the error estimate bounds the mass they misread at a
    and b: a log singularity at 0 is harmless, one within an ulp of a nonzero
    limit raises unless that mass is within the tolerance.

    Raises :class:`QuadratureError` when the internal error estimate cannot
    reach ``cfg.target_abs_tol`` within 12 refinement levels.
    """
    return _tanh_sinh(f, lambda nodes: (map(f, nodes.xs[0]), map(f, nodes.xs[1])), a, b, cfg.target_abs_tol)


# -- polygamma on the positive real axis --------------------------------------

_ASYMPTOTIC_CUT = 20.0
_BERNOULLI_TERMS = 14
# the asymptotic series stops once a term is this small against the sum
_BERNOULLI_STOP = 1e-18


@lru_cache(maxsize=None)
def _asymptotic_coef(k: int, n: int) -> float:
    # B_2k (2k + n - 1)!/(2k)!: B_2k/(2k) at n = 0, else B_2k times (2k + 1) ... (2k + n - 1)
    b2k = float(bernoulli(2 * k))
    if n == 0:
        return b2k / (2 * k)
    return b2k * math.prod(range(2 * k + 1, 2 * k + n), start=1.0)


def _cut(n: int) -> float:
    # the asymptotic series is summed at y >= max(20, n): its terms then fall by about
    # ((n + 2k)/(2 pi y))^2 each, and at every order the last of 14 is below 5e-17 of the sum
    # (at y = n/2 it is 3e-11 of it at n = 40)
    return max(_ASYMPTOTIC_CUT, n)


def _polygamma_powers(n: int, x: float) -> float:
    shift_terms, y, cut = [], x, _cut(n)
    while y < cut:
        power = y ** (n + 1)  # 0.0 once it underflows, where 1/power is past every double
        shift_terms.append(1.0 / power if power else math.inf)
        y += 1.0
    if n == 0:
        head = -math.log(y) + 1.0 / (2.0 * y)
    else:
        head = math.factorial(n - 1) / y**n + math.factorial(n) / (2.0 * y ** (n + 1))
    ypow = y ** (n + 2)
    for k in range(1, _BERNOULLI_TERMS + 1):
        term = _asymptotic_coef(k, n) / ypow
        head += term
        if abs(term) < _BERNOULLI_STOP * abs(head):
            break
        ypow *= y * y
        if ypow == math.inf:  # the next terms would read 0 before the series converged
            raise OverflowError(f"y^(2k+n) passed binary64 at k = {k + 1}")
    # undo the recurrence shifts: psi^{(n)}(x) = psi^{(n)}(y) - (-1)^n n! sum 1/(x+i)^{n+1}
    return (-1.0) ** (n + 1) * head - (-1.0) ** n * math.factorial(n) * math.fsum(shift_terms)


def _polygamma_ratios(n: int, x: float) -> float:
    # the sums of _polygamma_powers over R = (n-1)!/x^n (1 at n = 0): a shift term is
    # n/(x+i) (x/(x+i))^n and an asymptotic one (x/y)^n B_2k/(2k)! prod_{j<2k} (n+j)/y, a
    # factor n + j = 0 read as 1 (so -log y + 1/(2y) + B_2k/(2k y^2k) at n = 0): powers of
    # ratios up to 1 and ratios near 1.  R is the top 64 bits of its exact quotient, times
    # a power of two, so the value leaves binary64 only where psi does (then it is +-inf)
    sign = (-1.0) ** (n + 1)
    if n:  # |psi| lies between R and R (1 + n/x), so a far-out R decides without the exact one
        log_r = math.lgamma(n) - n * math.log(x)
        if log_r > 710.0:  # e^710 is past the largest double
            return sign * math.inf
        if log_r + math.log1p(n / x) < -746.0:  # below half the least subnormal
            return sign * 0.0
    y, parts, cut = x, [], _cut(n)
    while y < cut:
        parts.append(max(n, 1) / y * (x / y) ** n)
        y += 1.0
    head, ratio = (1.0 if n else -math.log(y)) + max(n, 1) / (2.0 * y), 1.0
    for k in range(1, _BERNOULLI_TERMS + 1):
        ratio *= max(n + 2 * k - 2, 1) / y * ((n + 2 * k - 1) / y)
        term = float(bernoulli(2 * k) / math.factorial(2 * k)) * ratio
        head += term
        if abs(term) < _BERNOULLI_STOP * abs(head):
            break
    parts.append((x / y) ** n * head)
    num, den = x.as_integer_ratio()
    top, bottom = (math.factorial(n - 1) * den**n if n else 1), num**n
    cut_top, cut_bottom = max(top.bit_length() - 64, 0), max(bottom.bit_length() - 64, 0)
    total, exp = math.frexp(math.fsum(parts))
    try:
        value = math.ldexp((top >> cut_top) / (bottom >> cut_bottom) * total, exp + cut_top - cut_bottom)
    except OverflowError:
        value = math.inf
    return sign * value


def polygamma_real(order: int, x: float) -> float:
    """psi^(order)(x) for real x > 0.

    Shifts the argument upward with the recurrence
    psi^{(n)}(x) = psi^{(n)}(x+1) - (-1)^n n!/x^{n+1} to y >= max(20, n) and then sums
    the one asymptotic series of every order (DLMF 5.11.2, 5.15.8): (-1)^{n+1} times h_n(y)
    plus the terms B_2k (2k+n-1)!/(2k)!/y^{2k+n}, h_0 = -log y + 1/(2y),
    h_n = (n-1)!/y^n + n!/(2y^{n+1}), up to 14 terms but stopped once a term falls below
    1e-18 of the sum (three terms at y >= 2000).  Where a power, a factorial or the sum
    leaves binary64, the same sums are taken over (n-1)!/x^n, each term a product of
    ratios; a value that is still not a finite double raises OverflowError.
    """
    if order < 0:
        raise ValueError("polygamma order must be >= 0")
    if not x > 0:
        raise ValueError("polygamma_real requires x > 0")
    try:
        value = _polygamma_powers(order, x)
    except OverflowError:  # a power or a factorial past binary64, where psi may not be
        value = math.nan
    if not math.isfinite(value):
        value = _polygamma_ratios(order, x)
    if not math.isfinite(value):
        raise OverflowError(f"psi^({order})({x!r}) is {value}")
    return value


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
