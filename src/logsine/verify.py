"""Built-in verification suite: every reference identity the package
reproduces, each checked against an independent oracle (tanh-sinh quadrature
of the defining integral, exact values, brute-force series, or the second of
two independent recursions).

Exposed through the ``verify-paper`` CLI subcommand.  Identity ids are
stable; output ordering is deterministic (sorted by id).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Callable, Iterable, Sequence

from . import bell, binomderiv, integrals, numerics, specialfn
from .numerics import DEFAULT_CONFIG, NumericConfig
from .symbolic import eval_numeric, sym_log2, sym_zeta


@dataclass
class IdentityResult:
    id: str
    group: str
    exact: str | None
    numeric: float
    oracle: float
    abs_err: float
    tol: float
    status: str

    def to_json_obj(self) -> dict:  # a float row has no exact text and no "exact" key
        return {key: value for key, value in vars(self).items() if value is not None}


@dataclass
class Check:
    id: str
    group: str
    run: Callable[[NumericConfig], IdentityResult]


def _check(ident, group, tol, compute, exact=None) -> Check:
    """The one row constructor: ``compute(cfg)`` returns (exact text or None,
    value, oracle), and the row passes when |value - oracle| <= tol.  A None
    text falls back to ``exact``, the text of a form fixed when the row is built."""

    def run(cfg: NumericConfig) -> IdentityResult:
        text, value, oracle = compute(cfg)
        err = abs(value - oracle)
        text = exact if text is None else text
        return IdentityResult(ident, group, text, value, oracle, err, tol,
                              "pass" if err <= tol else "fail")

    return Check(ident, group, run)


def _closed_vs_quadrature(spec: integrals.IntegralSpec):
    def compute(cfg: NumericConfig):
        if spec.form == "ls":
            res = integrals.log_sine_integral(spec.p, spec.n, spec.z)
        else:
            res = integrals.log_sin_power_integral(spec)
        oracle = integrals.quadrature_value(spec, cfg)
        return res.value.text() if res.exact else None, res.numeric, oracle

    return compute


# the paper's tables: (id format, group, angle, form, (n, p) pairs, tolerance);
# scripts/reproduce_tables.py prints the same entries
TABLES = (
    ("int:pi:n{n}p{p}", "sec2", "pi", "logsin", ((1, 2), (2, 2), (3, 2), (4, 2), (1, 3)), 1e-9),
    ("ls:2pi:order{order}-index{n}", "sec2", "2pi", "ls",
     ((1, 2), (1, 3), (2, 2), (3, 2), (4, 2), (5, 2)), 1e-9),
    ("int:pi/2:n{n}p{p}", "sec3", "pi/2", "logsin", ((1, 2), (2, 2), (3, 2)), 1e-8),
    ("ls:pi:order{order}-index{n}", "sec3", "pi", "ls", ((1, 2), (2, 2), (3, 2), (4, 2)), 1e-8),
)


def _worst(gaps_of):
    """The compute of a grid row from ``gaps_of(cfg)``, which yields the row's gaps:
    the value is the largest gap, or NaN when any gap is NaN, so that the row
    fails where ``max(0.0, nan)`` would read 0.0 and pass."""

    def compute(cfg: NumericConfig):
        gaps = list(gaps_of(cfg))
        return None, math.nan if any(map(math.isnan, gaps)) else max(gaps), 0.0

    return compute


@lru_cache(maxsize=None)
def _delta_exact(j: int, m: float, k: int) -> float:
    """delta_j(m) for shift k at m = 1/2 or 3/2, from exact values: ``polygamma_int`` at 2m + 1,
    and at x = N + 1/2, with O_s = sum_{i=1}^N (2i - 1)^-s, psi^(j-1)(x) = (-1)^j (j-1)! ((2^j - 1)
    zeta(j) - 2^j O_j), or psi(x) = -2 log 2 + 2 O_1 less psi(1), whose weights 2, -1, -1 cancel."""
    def psi(x: Fraction):
        odd = sum(Fraction(1, (2 * i - 1) ** j) for i in range(1, int(x) + 1))
        if j == 1:
            return sym_log2(1, -2) + 2 * odd
        return (-1) ** j * math.factorial(j - 1) * ((2**j - 1) * sym_zeta(j) - 2**j * odd)

    m = Fraction(m)
    form = 2**j * specialfn.polygamma_int(j - 1, int(2 * m + 1)) - psi(m + 1 + k) - psi(m + 1 - k)
    return eval_numeric((-1) ** j * form)


@_worst
def _lemma_delta_worst(cfg: NumericConfig):  # past j = 4 the floats of the exact forms cancel
    for (m, k), j in product(((0.5, 0), (0.5, 1), (1.5, 0), (1.5, 1), (1.5, 2)), range(1, 5)):
        yield abs(binomderiv.delta_numeric(j, m, k) - _delta_exact(j, m, k))


@_worst
def _lemma_cot_bell_worst(cfg: NumericConfig):
    for n, k in product(range(0, 7), (0.1, 0.3, 0.45)):
        nu = [numerics.cot_derivative(j - 1, k) for j in range(1, n + 1)]
        got = bell.complete_bell(nu, one=1.0)
        yield abs(got - bell.bell_cot_closed_form(n, k)) / math.pi**n


def _lemma_rho(cfg: NumericConfig):
    # two independent recursions agree exactly, or the row reads abs_err inf
    ok = all(
        binomderiv.rho(n) == 2 * specialfn.polygamma_int(2 * n - 1, 1) for n in range(1, 7)
    )
    value = eval_numeric(binomderiv.rho(6))
    return binomderiv.rho(6).text(), value, value if ok else math.inf


def _deriv_worst(ps: Sequence[int], ks: Sequence[int]):
    @_worst
    def gaps(cfg: NumericConfig):
        for p, k, scaled in product(ps, ks, (False, True)):
            spec = binomderiv.DerivSpec(p, k, scaled)
            got = eval_numeric(binomderiv.binom_deriv(spec))
            yield abs(got - binomderiv.taylor_coefficient_oracle(spec))

    return gaps


def _moment_worst(z: str):
    @_worst
    def gaps(cfg: NumericConfig):
        zv = integrals.angle_value(z)
        for n, m in product(range(0, 4), range(0, 4)):
            sym = integrals.sine_power_moment_exact(n, m, z)
            oracle = integrals.sine_power_moment_quadrature(n, m, zv, cfg)
            yield abs(eval_numeric(sym) - oracle)

    return gaps


@_worst
def _moment_series_worst(cfg: NumericConfig):
    for n, m in product(range(0, 6), range(0, 6)):
        sym = eval_numeric(integrals.sine_power_moment_exact(n, m, "pi"))
        yield abs(sym - integrals.sine_power_moment_numeric(n, m, math.pi))


def _clausen(p: int):
    def compute(cfg: NumericConfig):
        val, _ = integrals.log_sine_any_angle(p, math.pi / 2)
        oracle = integrals.quadrature_value(integrals.IntegralSpec(0, p, "pi/2", form="ls"), cfg)
        bell_coef = Fraction(-1, 2**p) * binomderiv.central_binom_deriv(binomderiv.DerivSpec(p, 0))
        return bell_coef.text(), val, oracle

    return compute


def build_registry() -> list[Check]:
    checks = [
        _check(
            fmt.format(n=n, p=p, order=n + p + 1),
            group,
            tol,
            _closed_vs_quadrature(integrals.IntegralSpec(n, p, z, form=form)),
        )
        for fmt, group, z, form, pairs, tol in TABLES
        for n, p in pairs
    ]
    checks += [
        _check("lemma:delta-derivative", "lemmas", 1e-12, _lemma_delta_worst),
        _check("lemma:cot-bell-closed-form", "lemmas", 1e-6, _lemma_cot_bell_worst),
        _check("lemma:rho-recursion", "lemmas", 0.0, _lemma_rho),
    ]
    checks += [
        _check(
            f"deriv:shifted-p{p}",
            "derivs",
            1e-8,
            _deriv_worst((p,), range(1, 7)),
            exact=binomderiv.shifted_binom_deriv(binomderiv.DerivSpec(p, 1)).text(),
        )
        for p in (1, 2, 3, 4)
    ]
    checks += [
        _check("deriv:shifted-p5", "derivs", 1e-8, _deriv_worst((5,), range(1, 5))),
        _check("deriv:central-p0..6", "derivs", 1e-8, _deriv_worst(range(7), (0,))),
        _check("moment:pi-vs-quadrature", "moments", 1e-10, _moment_worst("pi")),
        _check("moment:pi/2-vs-quadrature", "moments", 1e-10, _moment_worst("pi/2")),
        _check("moment:closed-vs-series", "moments", 1e-10, _moment_series_worst),
    ]
    checks += [_check(f"clausen:pi/2-p{p}", "clausen", 1e-7, _clausen(p)) for p in (1, 2, 3)]
    return checks


def run_verification(
    group_filter: str | None = None, cfg: NumericConfig = DEFAULT_CONFIG
) -> list[IdentityResult]:
    selected = [
        c
        for c in build_registry()
        if not group_filter or group_filter == c.group or group_filter in c.id
    ]
    results = [check.run(cfg) for check in selected]
    return sorted(results, key=lambda r: r.id)


def all_passed(results: Iterable[IdentityResult]) -> bool:
    return all(r.status == "pass" for r in results)
