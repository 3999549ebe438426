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
from typing import Callable, Iterable

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

    def to_json_obj(self) -> dict:
        obj: dict = {"id": self.id, "numeric": self.numeric, "status": self.status}
        if self.exact is not None:
            obj["exact"] = self.exact
        obj["abs_err"] = self.abs_err
        obj["oracle"] = self.oracle
        obj["tol"] = self.tol
        obj["group"] = self.group
        return obj


@dataclass
class Check:
    id: str
    group: str
    run: Callable[[NumericConfig], IdentityResult]


def _result(check: Check, exact, numeric, oracle, tol) -> IdentityResult:
    err = abs(numeric - oracle)
    return IdentityResult(
        id=check.id,
        group=check.group,
        exact=exact,
        numeric=numeric,
        oracle=oracle,
        abs_err=err,
        tol=tol,
        status="pass" if err <= tol else "fail",
    )


def _closed_vs_quadrature(ident, group, spec: integrals.IntegralSpec, tol) -> Check:
    def run(cfg: NumericConfig) -> IdentityResult:
        if spec.form == "ls":
            res = integrals.log_sine_integral(spec.p, spec.n, spec.z, cfg)
        else:
            res = integrals.log_sin_power_integral(spec, cfg)
        oracle = integrals.quadrature_value(spec, cfg)
        return _result(
            check, res.value.text() if res.exact else None, res.numeric, oracle, tol
        )

    check = Check(ident, group, run)
    return check


def _max_err_check(ident, group, tol, worst_fn, exact=None) -> Check:
    def run(cfg: NumericConfig) -> IdentityResult:
        worst = worst_fn(cfg)
        return _result(check, exact, worst, 0.0, tol)

    check = Check(ident, group, run)
    return check


def _lemma_delta_worst(cfg: NumericConfig) -> float:
    worst = 0.0
    for m0, k in ((0.25, 0), (1.5, 1)):
        for j in (1, 2, 3):
            val, _ = numerics.richardson_derivative(
                lambda m: binomderiv.delta_numeric(j, m, k), m0, 1
            )
            worst = max(worst, abs(val + binomderiv.delta_numeric(j + 1, m0, k)))
    return worst


def _lemma_cot_bell_worst(cfg: NumericConfig) -> float:
    worst = 0.0
    for n in range(0, 7):
        for k in (0.1, 0.3, 0.45):
            nu = [numerics.cot_derivative(j - 1, k) for j in range(1, n + 1)]
            got = bell.complete_bell(nu, one=1.0)
            want = bell.bell_cot_closed_form(n, k)
            worst = max(worst, abs(got - want) / math.pi**n)
    return worst


def _lemma_rho_check() -> Check:
    def run(cfg: NumericConfig) -> IdentityResult:
        ok = all(
            binomderiv.rho(n) == 2 * specialfn.polygamma_int(2 * n - 1, 1)
            for n in range(1, 7)
        )
        value = eval_numeric(binomderiv.rho(6))
        return IdentityResult(
            id=check.id,
            group=check.group,
            exact=binomderiv.rho(6).text(),
            numeric=value,
            oracle=value,
            abs_err=0.0 if ok else math.inf,
            tol=0.0,
            status="pass" if ok else "fail",
        )

    check = Check("lemma:rho-recursion", "lemmas", run)
    return check


def _shifted_deriv_worst(p: int, kmax: int):
    def worst_fn(cfg: NumericConfig) -> float:
        worst = 0.0
        for k in range(1, kmax + 1):
            for scaled in (False, True):
                spec = binomderiv.DerivSpec(p, k, scaled)
                got = eval_numeric(binomderiv.shifted_binom_deriv(spec))
                want = binomderiv.taylor_coefficient_oracle(spec)
                worst = max(worst, abs(got - want))
        return worst

    return worst_fn


def _central_deriv_worst(cfg: NumericConfig) -> float:
    worst = 0.0
    for p in range(0, 7):
        for scaled in (False, True):
            spec = binomderiv.DerivSpec(p, 0, scaled)
            got = eval_numeric(binomderiv.central_binom_deriv(spec))
            want = binomderiv.taylor_coefficient_oracle(spec)
            worst = max(worst, abs(got - want))
    return worst


def _moment_worst(z: str):
    def worst_fn(cfg: NumericConfig) -> float:
        worst = 0.0
        zv = integrals.angle_value(z)
        for n in range(0, 4):
            for m in range(0, 4):
                sym = integrals.sine_power_moment_exact(n, m, z)
                oracle = numerics.tanh_sinh_quadrature(
                    lambda x: x**n * math.sin(x) ** (2 * m), 0.0, zv, cfg
                )
                worst = max(worst, abs(eval_numeric(sym) - oracle))
        return worst

    return worst_fn


def _moment_series_worst(cfg: NumericConfig) -> float:
    worst = 0.0
    for n in range(0, 6):
        for m in range(0, 6):
            sym = eval_numeric(integrals.sine_power_moment_exact(n, m, "pi"))
            num = integrals.sine_power_moment_numeric(n, m, math.pi)
            worst = max(worst, abs(sym - num))
    return worst


def _clausen_check(p: int) -> Check:
    def run(cfg: NumericConfig) -> IdentityResult:
        val, bell_coef = integrals.log_sine_any_angle(p, math.pi / 2)
        oracle = -numerics.tanh_sinh_quadrature(
            lambda x: math.log(2.0 * math.sin(x / 2.0)) ** p, 0.0, math.pi / 2, cfg
        )
        return _result(check, bell_coef.text(), val, oracle, 1e-7)

    check = Check(f"clausen:pi/2-p{p}", "clausen", run)
    return check


def build_registry() -> list[Check]:
    checks: list[Check] = []
    for n, p in ((1, 2), (2, 2), (3, 2), (4, 2), (1, 3)):
        checks.append(
            _closed_vs_quadrature(
                f"int:pi:n{n}p{p}", "sec2", integrals.IntegralSpec(n, p, "pi"), 1e-9
            )
        )
    for p, n in ((2, 1), (3, 1), (2, 2), (2, 3), (2, 4), (2, 5)):
        checks.append(
            _closed_vs_quadrature(
                f"ls:2pi:order{p + n + 1}-index{n}",
                "sec2",
                integrals.IntegralSpec(n, p, "2pi", form="ls"),
                1e-9,
            )
        )
    for n, p in ((1, 2), (2, 2), (3, 2)):
        checks.append(
            _closed_vs_quadrature(
                f"int:pi/2:n{n}p{p}", "sec3", integrals.IntegralSpec(n, p, "pi/2"), 1e-8
            )
        )
    for p, n in ((2, 1), (2, 2), (2, 3), (2, 4)):
        checks.append(
            _closed_vs_quadrature(
                f"ls:pi:order{p + n + 1}-index{n}",
                "sec3",
                integrals.IntegralSpec(n, p, "pi", form="ls"),
                1e-8,
            )
        )
    checks.append(
        _max_err_check("lemma:delta-derivative", "lemmas", 1e-6, _lemma_delta_worst)
    )
    checks.append(
        _max_err_check(
            "lemma:cot-bell-closed-form", "lemmas", 1e-6, _lemma_cot_bell_worst
        )
    )
    checks.append(_lemma_rho_check())
    for p in (1, 2, 3, 4):
        checks.append(
            _max_err_check(
                f"deriv:shifted-p{p}",
                "derivs",
                1e-8,
                _shifted_deriv_worst(p, 6),
                exact=binomderiv.shifted_binom_deriv(binomderiv.DerivSpec(p, 1)).text(),
            )
        )
    checks.append(
        _max_err_check("deriv:shifted-p5", "derivs", 1e-8, _shifted_deriv_worst(5, 4))
    )
    checks.append(
        _max_err_check("deriv:central-p0..6", "derivs", 1e-8, _central_deriv_worst)
    )
    checks.append(
        _max_err_check("moment:pi-vs-quadrature", "moments", 1e-10, _moment_worst("pi"))
    )
    checks.append(
        _max_err_check(
            "moment:pi/2-vs-quadrature", "moments", 1e-10, _moment_worst("pi/2")
        )
    )
    checks.append(
        _max_err_check(
            "moment:closed-vs-series", "moments", 1e-10, _moment_series_worst
        )
    )
    checks.extend(_clausen_check(p) for p in (1, 2, 3))
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
