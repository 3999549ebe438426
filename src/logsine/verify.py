"""Built-in verification suite: every reference identity the package
reproduces, each checked against an independent oracle (tanh-sinh quadrature
of the defining integral, finite differences, brute-force series, or the
second of two independent recursions).

Exposed through the ``verify-paper`` CLI subcommand.  Identity ids are
stable; output ordering is deterministic (sorted by id).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from . import bell, binomderiv, integrals, numerics, specialfn
from .numerics import DEFAULT_CONFIG, NumericConfig
from .symbolic import eval_numeric


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
            res = integrals.log_sine_integral(spec.p, spec.n, spec.z, cfg)
        else:
            res = integrals.log_sin_power_integral(spec, cfg)
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


def _lemma_delta_worst(cfg: NumericConfig):
    worst = 0.0
    for m0, k in ((0.25, 0), (1.5, 1)):
        for j in (1, 2, 3):
            val, _ = numerics.richardson_derivative(
                lambda m: binomderiv.delta_numeric(j, m, k), m0, 1
            )
            worst = max(worst, abs(val + binomderiv.delta_numeric(j + 1, m0, k)))
    return None, worst, 0.0


def _lemma_cot_bell_worst(cfg: NumericConfig):
    worst = 0.0
    for n in range(0, 7):
        for k in (0.1, 0.3, 0.45):
            nu = [numerics.cot_derivative(j - 1, k) for j in range(1, n + 1)]
            got = bell.complete_bell(nu, one=1.0)
            want = bell.bell_cot_closed_form(n, k)
            worst = max(worst, abs(got - want) / math.pi**n)
    return None, worst, 0.0


def _lemma_rho(cfg: NumericConfig):
    # two independent recursions agree exactly, or the row reads abs_err inf
    ok = all(
        binomderiv.rho(n) == 2 * specialfn.polygamma_int(2 * n - 1, 1) for n in range(1, 7)
    )
    value = eval_numeric(binomderiv.rho(6))
    return binomderiv.rho(6).text(), value, value if ok else math.inf


def _deriv_worst(ps: Sequence[int], ks: Sequence[int]):
    def compute(cfg: NumericConfig):
        worst = 0.0
        for p in ps:
            for k in ks:
                for scaled in (False, True):
                    spec = binomderiv.DerivSpec(p, k, scaled)
                    got = eval_numeric(binomderiv.binom_deriv(spec))
                    want = binomderiv.taylor_coefficient_oracle(spec)
                    worst = max(worst, abs(got - want))
        return None, worst, 0.0

    return compute


def _moment_worst(z: str):
    def compute(cfg: NumericConfig):
        worst = 0.0
        zv = integrals.angle_value(z)
        for n in range(0, 4):
            for m in range(0, 4):
                sym = integrals.sine_power_moment_exact(n, m, z)
                oracle = numerics.tanh_sinh_quadrature(
                    lambda x: x**n * math.sin(x) ** (2 * m), 0.0, zv, cfg
                )
                worst = max(worst, abs(eval_numeric(sym) - oracle))
        return None, worst, 0.0

    return compute


def _moment_series_worst(cfg: NumericConfig):
    worst = 0.0
    for n in range(0, 6):
        for m in range(0, 6):
            sym = eval_numeric(integrals.sine_power_moment_exact(n, m, "pi"))
            num = integrals.sine_power_moment_numeric(n, m, math.pi)
            worst = max(worst, abs(sym - num))
    return None, worst, 0.0


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
        _check("lemma:delta-derivative", "lemmas", 1e-6, _lemma_delta_worst),
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
