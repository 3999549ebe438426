import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import lru_cache
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logsine import (
    DerivSpec,
    IntegralSpec,
    NumericConfig,
    central_binom_deriv,
    complete_bell,
    eta_bar,
    eval_numeric,
    log_sin_power_integral,
    log_sine_any_angle,
    log_sine_integral,
    parse_text,
    quadrature_value,
    richardson_derivative,
    sine_power_moment_exact,
    sine_power_moment_numeric,
    sym_log2,
    sym_pi,
    tanh_sinh_quadrature,
)
from logsine import integrals
from logsine.numerics import AccelerationError, zeta_numeric
from logsine.symbolic import SymbolicValue


class TestMomentsExact:
    def test_cubic_monomial(self):
        assert sine_power_moment_exact(2, 0, "pi") == sym_pi(3, Fraction(1, 3))

    def test_wallis(self):
        assert sine_power_moment_exact(0, 1, "pi") == sym_pi(1, Fraction(1, 2))

    def test_half_interval_first_moment(self):
        want = sym_pi(2, Fraction(1, 16)) + SymbolicValue.rational(Fraction(1, 4))
        assert sine_power_moment_exact(1, 1, "pi/2") == want

    @pytest.mark.parametrize("z", ["pi", "pi/2"])
    @pytest.mark.parametrize("n", range(0, 9))
    def test_zero_power_degenerates(self, n, z):
        frac = Fraction(1) if z == "pi" else Fraction(1, 2 ** (n + 1))
        assert sine_power_moment_exact(n, 0, z) == sym_pi(n + 1, frac / (n + 1))

    @pytest.mark.parametrize("z", ["pi", "pi/2"])
    def test_against_quadrature(self, z, cfg):
        zv = math.pi if z == "pi" else math.pi / 2
        for n in range(0, 6):
            for m in range(0, 6):
                got = eval_numeric(sine_power_moment_exact(n, m, z), cfg)
                want = tanh_sinh_quadrature(
                    lambda x: x**n * math.sin(x) ** (2 * m), 0.0, zv, cfg
                )
                assert abs(got - want) < 1e-10, (n, m, z)


class TestMomentsNumeric:
    def test_plain_power(self):
        assert sine_power_moment_numeric(0, 0, 1.7) == pytest.approx(1.7, abs=1e-14)

    def test_against_quadrature(self, cfg):
        got = sine_power_moment_numeric(3, 2, 1.1)
        want = tanh_sinh_quadrature(lambda x: x**3 * math.sin(x) ** 4, 0.0, 1.1, cfg)
        assert abs(got - want) < 1e-10

    @pytest.mark.parametrize("n", range(0, 6))
    @pytest.mark.parametrize("m", range(0, 6))
    def test_matches_exact_at_pi(self, n, m, cfg):
        got = sine_power_moment_numeric(n, m, math.pi)
        want = eval_numeric(sine_power_moment_exact(n, m, "pi"), cfg)
        assert abs(got - want) < 1e-10


def _written_out_row(n, theta):
    """The log-sine weight row at theta in {pi, 2pi}, written out directly:
    (central, [(coef, alt, pow), ...])."""
    nfact = math.factorial(n)
    if theta == "2pi":
        central = sym_pi(n + 1, Fraction(2 ** (n + 1), n + 1))
        weights = [
            (
                sym_pi(
                    n + 1 - 2 * j,
                    Fraction(-nfact * (-1) ** j * 2 ** (n + 2 - 2 * j)) / math.factorial(n + 1 - 2 * j),
                ),
                True,
                2 * j,
            )
            for j in range(1, n // 2 + 1)
        ]
        return central, weights
    central = sym_pi(n + 1, Fraction(1, n + 1))
    weights = [
        (sym_pi(n + 1 - 2 * j, Fraction(-2 * nfact * (-1) ** j) / math.factorial(n + 1 - 2 * j)), False, 2 * j)
        for j in range(1, (n + 1) // 2 + 1)
    ]
    if n % 2 == 1:
        weights.append((SymbolicValue.rational(2 * nfact * (-1) ** ((n + 1) // 2)), True, n + 1))
    return central, weights


class TestHalfAngleMoment:
    """x = 2y: the integral of x^n (2 sin(x/2))^{2m} over (0, 2z) is 2^{n+1} 4^m
    times the x^n sin^{2m} x moment over (0, z), so the log-sine weight row at
    theta is 2^{n+1} times the scaled row at theta/2."""

    def test_trivial_case(self):
        # the integral of 1 over (0, 2pi), with no k-sum
        assert integrals._case_weights(0, "2pi", False) == (sym_pi(1, 2), ())

    def test_exact_scaling(self):
        for theta in ("pi", "2pi"):
            for n in range(41):
                central, weights = integrals._case_weights(n, theta, False)
                want_central, want_weights = _written_out_row(n, theta)
                assert central == want_central, (theta, n)
                assert [(w.coef, w.alt, w.pow) for w in weights] == want_weights, (theta, n)

    def test_against_quadrature(self, cfg):
        z, n, m = 1.3, 2, 1
        got = 2 ** (n + 1) * 4**m * sine_power_moment_numeric(n, m, z)
        want = tanh_sinh_quadrature(
            lambda x: x**n * (2 * math.sin(x / 2)) ** (2 * m), 0.0, 2 * z, cfg
        )
        assert abs(got - want) < 1e-9


REFERENCE_PI = {
    (1, 2): "1/24*pi^4 + 1/2*pi^2*log2^2",
    (2, 2): "13/360*pi^5 + pi*zeta3*log2 + 1/3*pi^3*log2^2",
    (3, 2): "1/30*pi^6 + 3/2*pi^2*zeta3*log2 + 1/4*pi^4*log2^2",
    (4, 2): "37/1260*pi^7 + 2*pi^3*zeta3*log2 - 3*pi*zeta5*log2 + 3/2*pi*zeta3^2 + 1/5*pi^5*log2^2",
}

REFERENCE_HALF_PI = {
    (1, 2): "11/2880*pi^4 + 1/8*pi^2*log2^2 - 7/8*zeta3*log2 + 1/2*zb1_3",
    (2, 2): "1/960*pi^5 + 1/24*pi^3*log2^2 - 3/8*pi*zeta3*log2 + 1/2*pi*zb1_3",
    (3, 2): "23/26880*pi^6 + 1/64*pi^4*log2^2 + 3/8*pi^2*zb1_3 - 3/4*zb1_5 "
    "- 3/8*zeta3^2 - 9/32*pi^2*zeta3*log2 + 93/64*zeta5*log2",
}


class TestLogSinClosedForms:
    @pytest.mark.parametrize("key", sorted(REFERENCE_PI))
    def test_reference_values_at_pi(self, key):
        n, p = key
        res = log_sin_power_integral(IntegralSpec(n, p, "pi"))
        assert res.exact
        assert res.value == parse_text(REFERENCE_PI[key])

    @pytest.mark.parametrize("key", sorted(REFERENCE_HALF_PI))
    def test_reference_values_at_half_pi(self, key):
        n, p = key
        res = log_sin_power_integral(IntegralSpec(n, p, "pi/2"))
        assert res.exact
        assert res.value == parse_text(REFERENCE_HALF_PI[key])

    def test_log_cubed_no_series(self):
        # n = 1 at z = pi has no k-sum, so any log power stays exact
        res = log_sin_power_integral(IntegralSpec(1, 3, "pi"))
        assert res.exact
        want = parse_text("-3/4*pi^2*zeta3 - 1/8*pi^4*log2 - 1/2*pi^2*log2^3")
        assert res.value == want

    def test_exactness_domain_grid(self, cfg):
        # every result flagged exact must match quadrature; p >= 3 with a
        # k-sum must downgrade to a numeric fallback, never a wrong value
        for z in ("pi", "pi/2"):
            for n in range(0, 5):
                for p in range(0, 4):
                    spec = IntegralSpec(n, p, z)
                    res = log_sin_power_integral(spec, cfg)
                    oracle = quadrature_value(spec, cfg)
                    assert abs(res.numeric - oracle) < 1e-8, (n, p, z, res.exact)
                    no_series = n <= 1 if z == "pi" else n == 0
                    assert res.exact == (p <= 2 or no_series), (n, p, z)

    def test_fallback_reports_reason(self, cfg):
        res = log_sin_power_integral(IntegralSpec(2, 3, "pi"), cfg)
        assert not res.exact
        assert res.value is None
        assert res.error is not None and res.error < 1e-8
        assert "catalog" in res.reason or "harmonic" in res.reason


REFERENCE_LS_2PI = {
    (2, 1): "-1/6*pi^4",
    (3, 1): "3*pi^2*zeta3",
    (2, 2): "-13/45*pi^5",
    (2, 3): "-8/15*pi^6",
    (2, 4): "-296/315*pi^7 - 48*pi*zeta3^2",
    (2, 5): "-100/63*pi^8 - 240*pi^2*zeta3^2",
}

REFERENCE_LS_PI = {
    (2, 1): "-11/720*pi^4 - 2*zb1_3",
    (2, 2): "-1/120*pi^5 - 4*pi*zb1_3",
    (2, 3): "-23/1680*pi^6 - 6*pi^2*zb1_3 + 6*zeta3^2 + 12*zb1_5",
    (2, 4): "-1/420*pi^7 - 8*pi^3*zb1_3 + 48*pi*zb1_5",
}


class TestLogSineIntegrals:
    @pytest.mark.parametrize("key", sorted(REFERENCE_LS_2PI))
    def test_full_angle_reference(self, key):
        p, n = key
        res = log_sine_integral(p, n, "2pi")
        assert res.exact
        assert res.value == parse_text(REFERENCE_LS_2PI[key])

    @pytest.mark.parametrize("key", sorted(REFERENCE_LS_PI))
    def test_half_angle_reference(self, key):
        p, n = key
        res = log_sine_integral(p, n, "pi")
        assert res.exact
        assert res.value == parse_text(REFERENCE_LS_PI[key])

    def test_zero_log_power(self, cfg):
        # p = 0 collapses to minus the plain monomial integral
        res = log_sine_integral(0, 2, "2pi", cfg)
        assert res.exact
        assert res.value == sym_pi(3, Fraction(-8, 3))

    def test_sign_convention(self, cfg):
        # the leading minus of the definition: order-4 value at 2pi is negative
        res = log_sine_integral(2, 1, "2pi", cfg)
        assert res.numeric < 0
        assert res.value == parse_text("-1/6*pi^4")

    def test_full_angle_values_are_log2_and_zb1_free(self):
        for p, n in REFERENCE_LS_2PI:
            res = log_sine_integral(p, n, "2pi")
            kinds = {gen.kind for gen in res.value.generators()}
            assert "log2" not in kinds and "zb1" not in kinds

    def test_against_quadrature(self, cfg):
        for key in REFERENCE_LS_2PI:
            p, n = key
            spec = IntegralSpec(n, p, "2pi", form="ls")
            res = log_sine_integral(p, n, "2pi", cfg)
            assert abs(res.numeric - quadrature_value(spec, cfg)) < 1e-8
        for key in REFERENCE_LS_PI:
            p, n = key
            spec = IntegralSpec(n, p, "pi", form="ls")
            res = log_sine_integral(p, n, "pi", cfg)
            assert abs(res.numeric - quadrature_value(spec, cfg)) < 1e-8


def _central_term(p, theta, n):
    # -2^{-p} theta^{n+1}/(n+1) times the p-th derivative of binom(2m, m) at m = 0
    coef = Fraction(-((2 if theta == "2pi" else 1) ** (n + 1)), 2**p * (n + 1))
    return sym_pi(n + 1, coef) * central_binom_deriv(DerivSpec(p, 0, False))


class TestLowOrderClosedForm:
    """At theta = 2pi with n in {0, 1}, and at theta = pi with n = 0, the
    k-series vanishes and the log-sine integral is its central term."""

    def test_order_five_full_angle(self):
        assert log_sine_integral(3, 1, "2pi").value == parse_text("3*pi^2*zeta3")

    def test_order_four_full_angle(self):
        assert log_sine_integral(2, 1, "2pi").value == parse_text("-1/6*pi^4")

    def test_vanishing_order_two(self):
        assert log_sine_integral(1, 0, "pi").value.is_zero

    def test_agrees_with_series_route(self):
        for p in (1, 2, 3, 4):
            for theta, n in (("2pi", 0), ("2pi", 1), ("pi", 0)):
                assert log_sine_integral(p, n, theta).value == _central_term(p, theta, n)

    def test_outside_validity_set(self):
        # at theta = pi with n = 1 the k-series contributes
        assert log_sine_integral(2, 1, "pi").value != _central_term(2, "pi", 1)


def _half_angle_cases():
    cases = {(theta, n, p) for theta in ("pi", "2pi") for n in range(21) for p in range(3)}
    cases |= {(theta, n, p) for theta, n in (("2pi", 0), ("2pi", 1), ("pi", 0)) for p in range(7)}
    return sorted(cases)


class TestHalfAngleIdentity:
    """log|2 sin(x/2)| = log 2 + log sin(x/2) and x = 2y give
    Ls = -2^{n+1} sum_i C(p, i) log2^{p-i} int_0^{theta/2} x^n log^i(sin x) dx.
    The two sides share the weight rows but not the derivatives: the left
    takes the unscaled m-derivatives, the right the 4^{-m}-scaled ones and
    the binomial sum in log 2."""

    @pytest.mark.parametrize("theta,n,p", _half_angle_cases())
    def test_exact_forms_agree(self, theta, n, p):
        half = {"pi": "pi/2", "2pi": "pi"}[theta]
        want = SymbolicValue.zero()
        for i in range(p + 1):
            part = log_sin_power_integral(IntegralSpec(n, i, half))
            assert part.exact
            want = want + math.comb(p, i) * (sym_log2(p - i) * part.value)
        got = log_sine_integral(p, n, theta)
        assert got.exact and got.value == -(2 ** (n + 1)) * want


class TestAnyAngle:
    def test_half_pi_grid(self, cfg):
        for p in (1, 2, 3):
            val, _ = log_sine_any_angle(p, math.pi / 2, cfg)
            want = -tanh_sinh_quadrature(
                lambda x, p=p: math.log(2 * math.sin(x / 2)) ** p, 0.0, math.pi / 2, cfg
            )
            assert abs(val - want) < 1e-7

    def test_at_pi_series_vanishes(self, cfg):
        val, bell = log_sine_any_angle(1, math.pi, cfg)
        assert val == pytest.approx(0.0, abs=1e-12)
        assert bell.is_zero
        val, bell = log_sine_any_angle(2, math.pi, cfg)
        assert val == pytest.approx(-math.pi**3 / 12, abs=1e-12)

    def test_third_of_full_angle(self, cfg):
        val, _ = log_sine_any_angle(2, 2 * math.pi / 3, cfg)
        want = -tanh_sinh_quadrature(
            lambda x: math.log(2 * math.sin(x / 2)) ** 2, 0.0, 2 * math.pi / 3, cfg
        )
        assert abs(val - want) < 1e-8

    def test_bell_coefficient_is_exact_symbolic(self):
        _, bell = log_sine_any_angle(3, math.pi / 2)
        assert bell == parse_text("3/2*zeta3")

    @pytest.mark.parametrize("p", range(1, 13))
    def test_bell_coefficient_is_the_bell_value_over_eta_bar(self, p, cfg):
        # B = (-1)^{p+1} 2^{-p} B_p(0, eta_bar_2, ..., eta_bar_p), float bits included
        seq = [SymbolicValue.zero()] + [eta_bar(j) for j in range(2, p + 1)]
        want = Fraction((-1) ** (p + 1), 2**p) * complete_bell(seq, one=SymbolicValue.one())
        _, bell = log_sine_any_angle(p, 5.0)
        assert bell == want
        assert eval_numeric(bell, cfg) == eval_numeric(want, cfg)

    @pytest.mark.parametrize("p", [1, 3, 6])
    def test_reflected_value_reads_no_tolerance(self, p, cfg):
        # 2pi B - Ls(2pi - z) with B evaluated once per p, whatever the cfg
        z = 5.0
        bell = eval_numeric(log_sine_any_angle(p, z)[1], cfg)
        want = 2 * math.pi * bell - integrals._log_sine_series(p, 2 * math.pi - z + integrals._TWO_PI_LOW)
        for tol in (1e-4, 1e-10, 1e-14):
            assert log_sine_any_angle(p, z, NumericConfig(target_abs_tol=tol))[0] == want

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            log_sine_any_angle(2, 7.0)

    def test_irrational_multiple_is_certified(self):
        want = _mp_reference("ls", 0, 2, 1.0)
        val, _ = log_sine_any_angle(2, 1.0)
        assert abs(val - want) <= 1e-12 * max(1.0, abs(want))

    def test_loose_tolerance_accepts_irrational_multiple(self):
        loose = NumericConfig(target_abs_tol=1e-4)
        val, _ = log_sine_any_angle(2, 1.0, loose)
        want = -tanh_sinh_quadrature(
            lambda x: math.log(2 * math.sin(x / 2)) ** 2, 0.0, 1.0, NumericConfig()
        )
        assert abs(val - want) < 1e-3


def _any_angle_cases():
    cases = [(a, b, p) for b in range(1, 13) for a in sorted({1, 2 * b - 1}) for p in (1, 2, 3)]
    return cases + [(2, 1, p) for p in (1, 2, 3)] + [(1, 3, 4), (1, 4, 4)]


class TestAnyAngleAgainstMpmath:
    @pytest.mark.parametrize("a,b,p", _any_angle_cases())
    def test_rational_multiple_of_pi(self, a, b, p):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            z = mpmath.mpf(a) * mpmath.pi / b
            want = -mpmath.quad(lambda x: mpmath.log(abs(2 * mpmath.sin(x / 2))) ** p, [0, z])
            val, _ = log_sine_any_angle(p, a * math.pi / b)
            assert abs(val - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize(
        "z", [1e-3, 0.5, 1.0, 2.5, math.pi / 2, 3.0, math.pi, 3.5, 5.0, 2 * math.pi - 1e-3, "2pi"]
    )
    @pytest.mark.parametrize("p", range(1, 7))
    def test_any_angle(self, p, z):
        want = _mp_reference("ls", 0, p, z)
        val, _ = log_sine_any_angle(p, integrals.angle_value(z))
        assert abs(val - want) <= 1e-13 * max(1.0, abs(want)), (val, want)

    @pytest.mark.parametrize("p", range(1, 7))
    def test_ten_more_terms_change_nothing_at_pi(self, p):
        base = integrals._log_sine_series(p, math.pi)
        longer = integrals._log_sine_series(p, math.pi, integrals._H_TERMS + 10)
        assert abs(longer - base) <= 1e-16 * max(1.0, abs(base))


def _mp_reference(form, n, p, z):
    """The defining integral over (0, z) at 30 digits, split where mpmath's
    own rule should meet the log singularities: at 0, L/2 and L."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        if form == "logsin":
            top, g = mpmath.pi, lambda x: mpmath.log(mpmath.sin(x)) ** p
        else:
            top, g = 2 * mpmath.pi, lambda x: -mpmath.log(abs(2 * mpmath.sin(x / 2))) ** p
        z = top if z in ("pi", "2pi") else mpmath.mpf(z)
        return float(mpmath.quad(lambda x: x**n * g(x), [0, min(z, top / 2), z]))


class TestQuadratureOracleAgainstMpmath:
    @pytest.mark.parametrize("n", range(6))
    @pytest.mark.parametrize("form,z", [("logsin", "pi"), ("ls", "2pi")])
    def test_far_endpoint_grid(self, form, z, n):
        # the log singularity at the far endpoint pi or 2pi lies inside the
        # last ulp of the float; the oracle must not lose its mass there
        for p in range(1, 7):
            want = _mp_reference(form, n, p, z)
            got = quadrature_value(IntegralSpec(n, p, z, form=form))
            assert abs(got - want) <= max(1e-10, 1e-14 * abs(want)), (n, p, got, want)

    @pytest.mark.parametrize("form,z", [("logsin", 3.0), ("logsin", 3.1), ("ls", 4.0), ("ls", 6.0)])
    @pytest.mark.parametrize("n,p", [(0, 1), (0, 6), (2, 3), (5, 2), (5, 6)])
    def test_split_and_reflect_past_the_middle(self, form, z, n, p):
        want = _mp_reference(form, n, p, z)
        got = quadrature_value(IntegralSpec(n, p, z, form=form))
        assert abs(got - want) <= max(1e-10, 1e-14 * abs(want)), (got, want)

    @pytest.mark.parametrize("form,token", [("logsin", "pi"), ("ls", "2pi")])
    def test_float_endpoint_folds_like_its_token(self, form, token):
        for n, p in ((0, 6), (3, 4), (5, 5)):
            by_token = quadrature_value(IntegralSpec(n, p, token, form=form))
            by_float = quadrature_value(IntegralSpec(n, p, integrals.angle_value(token), form=form))
            assert by_float == by_token

    def test_cli_prints_the_folded_value(self, capsys):
        from logsine.cli import main

        assert main(["numeric", "--z", "2pi", "--n", "2", "--p", "4", "--form", "ls"]) == 0
        assert abs(float(capsys.readouterr().out) + 943.1221943480932) <= 1e-10


class TestIrrationalAngle:
    @pytest.mark.parametrize("z", [1.0, 2.5])
    def test_first_order_certifies_against_clausen(self, z):
        mpmath = pytest.importorskip("mpmath")
        val, _ = log_sine_any_angle(1, z)
        assert abs(val - float(mpmath.clsin(2, z))) <= 1e-10

    @pytest.mark.parametrize("p,z", [(2, 1.0), (2, 2.5), (3, 1.0)])
    def test_higher_orders_certify_against_mpmath(self, p, z):
        want = _mp_reference("ls", 0, p, z)
        val, _ = log_sine_any_angle(p, z)
        assert abs(val - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-8])
    def test_looser_tolerances_hold(self, tol):
        mpmath = pytest.importorskip("mpmath")
        val, _ = log_sine_any_angle(2, 1.0, NumericConfig(target_abs_tol=tol))
        with mpmath.workdps(30):
            want = -mpmath.quad(lambda x: mpmath.log(2 * mpmath.sin(x / 2)) ** 2, [0, 1])
        assert abs(val - float(want)) <= tol


def _bell_sequence(p: int, scaled: bool):
    """Reference: B_{p-1}(xi_bar(k)) for k = 1, 2, ... by complete_bell on
    running float values of the xi_bar sequence along integer k."""
    fact = [math.factorial(j - 1) if j >= 1 else 0 for j in range(0, p)]
    zeta = [zeta_numeric(j) if j >= 2 else 0.0 for j in range(0, p)]
    front = [0.0, 0.0] + [
        (2.0**j - 2.0 if j % 2 == 0 else (-2.0) ** j) * ((-1.0) ** j * fact[j] * zeta[j])
        for j in range(2, p)
    ]
    log4 = math.log(4.0)
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
                    v += log4
            elif j % 2 == 0:
                v = front[j] + fact[j] / k**j
            else:
                k_j = k**j
                psi_k = -fact[j] * (zeta[j] - (harm[j] - 1.0 / k_j))
                v = front[j] + 2.0 * psi_k + fact[j] / k_j
            xi.append(v)
        yield complete_bell(xi, one=1.0)


_HEAD_COUNT = integrals._SERIES_CUTOFF + 24


@lru_cache(maxsize=None)
def _reference_head(p: int, scaled: bool) -> tuple[str, ...]:
    # bit patterns, so that a zero of the other sign would differ too
    return tuple(v.hex() for v in islice(_bell_sequence(p, scaled), _HEAD_COUNT))


def _hex(values) -> tuple[str, ...]:
    return tuple(v.hex() for v in values)


def _table_state() -> list:
    return [(col.xi.tolist(), col.core.tolist(), col.harm, [b.tolist() for b in col.bell])
            for col in integrals._BELL_TABLE]


class TestBellHead:
    @pytest.mark.parametrize("p,scaled", [(2, False), (3, True), (5, False)])
    def test_head_grown_in_steps_equals_one_fresh_run(self, p, scaled, monkeypatch):
        monkeypatch.setattr(integrals, "_BELL_TABLE", [])
        for step in (1, 18, 288, integrals._SERIES_CUTOFF, _HEAD_COUNT):
            head = integrals._bell_head(p, scaled, step)
        assert _hex(head[:_HEAD_COUNT]) == _reference_head(p, scaled)

    @settings(max_examples=30)
    @given(st.lists(
        st.tuples(st.integers(2, 8), st.booleans(), st.integers(1, _HEAD_COUNT)),
        min_size=1, max_size=12,
    ))
    def test_interleaved_heads_equal_the_reference(self, reads):
        # any order of widths, scalings and lengths reads the same bits
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(integrals, "_BELL_TABLE", [])
            for p, scaled, count in reads:
                got = integrals._bell_head(p, scaled, count)[:count]
                assert _hex(got) == _reference_head(p, scaled)[:count]

    def test_every_row_is_computed_once(self, monkeypatch):
        monkeypatch.setattr(integrals, "_BELL_TABLE", [])
        real, grown = integrals._extend_bell_column, []

        def recorded(j, count):
            grown.append((j, len(integrals._BELL_TABLE[j - 1].xi), count))
            real(j, count)

        monkeypatch.setattr(integrals, "_extend_bell_column", recorded)
        reads = [(4, True, 30), (3, False, 2000), (8, False, 50), (8, True, 50), (6, True, 2000),
                 (3, True, 2000), (5, False, 7), (7, False, 2024), (2, True, 1)]
        for p, scaled, count in reads * 2:
            integrals._bell_head(p, scaled, count)
        for j in range(1, 8):  # column j grows in consecutive runs up to the longest read of it
            runs = [(lo, hi) for col, lo, hi in grown if col == j]
            assert all(lo == prev for (lo, _), (_, prev) in zip(runs[1:], runs))
            assert runs[0][0] == 0 and runs[-1][1] == max(r[2] for r in reads if r[0] > j)

    def test_reading_one_k_at_a_time_grows_geometrically(self, monkeypatch):
        # an alternating sum asks for its terms in order, one k per call
        monkeypatch.setattr(integrals, "_BELL_TABLE", [])
        real, grown = integrals._extend_bell_column, []

        def recorded(j, count):
            grown.append((j, count))
            real(j, count)

        monkeypatch.setattr(integrals, "_extend_bell_column", recorded)
        cutoff = integrals._SERIES_CUTOFF
        values = [integrals._bell_head(5, False, k)[k - 1] for k in range(1, cutoff + 1)]
        assert _hex(values) == _reference_head(5, False)[:cutoff]
        assert [count for j, count in grown if j == 1] == [1, 2, 4, 8, 16, 32, 64, 128, 256,
                                                         512, 1024, cutoff]
        assert len(integrals._bell_head(5, False, 1)) == cutoff

    def test_a_failure_while_growing_is_not_cached(self, monkeypatch):
        monkeypatch.setattr(integrals, "_BELL_TABLE", [])
        integrals._bell_head(3, False, 50)
        before = _table_state()
        real, calls = integrals._extend_bell_column, []

        def failing(j, count):
            calls.append(j)
            if j == 4:  # after columns 1..3 grew: 1 and 2 to 100 rows, 3 new
                raise OverflowError("injected")
            real(j, count)

        monkeypatch.setattr(integrals, "_extend_bell_column", failing)
        with pytest.raises(OverflowError, match="injected"):
            integrals._bell_head(6, False, 100)
        assert calls == [1, 2, 3, 4]
        assert _table_state() == before  # no column or row of the failed growth stays
        monkeypatch.setattr(integrals, "_extend_bell_column", real)
        for p in (6, 3):
            head = integrals._bell_head(p, False, 100)
            assert _hex(head[:100]) == _reference_head(p, False)[:100]

    def test_an_overflowing_width_leaves_the_table_as_it_was(self, monkeypatch):
        monkeypatch.setattr(integrals, "_BELL_TABLE", [])
        integrals._bell_head(5, True, 20)
        before = _table_state()
        with pytest.raises(OverflowError):  # (j-1)! leaves binary64 at j = 172
            integrals._bell_head(200, False, 3)
        assert _table_state() == before

    def test_threads_growing_one_head_agree_with_a_fresh_run(self, monkeypatch):
        count = 600

        def grow(seed: int) -> None:
            start.wait(timeout=60)
            for step in range(1 + seed, count + 1, 7):
                integrals._bell_head(5 + seed % 3, seed % 2 == 0, step)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, mid-growth
        try:
            for _ in range(8):  # each round races eight threads on an empty table
                monkeypatch.setattr(integrals, "_BELL_TABLE", [])
                start = threading.Barrier(8)
                with ThreadPoolExecutor(max_workers=8) as pool:
                    list(pool.map(grow, range(8), timeout=60))
                for p in (5, 6, 7):
                    for scaled in (False, True):
                        head = integrals._bell_head(p, scaled, count)
                        assert _hex(head[:count]) == _reference_head(p, scaled)[:count]
        finally:
            sys.setswitchinterval(old)

    def test_any_angle_adds_no_head(self, monkeypatch):
        monkeypatch.setattr(integrals, "_BELL_TABLE", [])
        for p, z in ((2, math.pi / 64), (2, 1.0), (4, 5.0), (3, 2 * math.pi)):
            log_sine_any_angle(p, z)
        assert integrals._BELL_TABLE == []


class TestMonotoneTail:
    @pytest.mark.parametrize("nodes,weights", [integrals._LAGUERRE_8, integrals._LAGUERRE_12])
    def test_laguerre_rules_integrate_monomials(self, nodes, weights):
        # the n-point rule is exact for v^k e^{-v} over (0, inf), k <= 2n - 1
        assert len(nodes) == len(weights)
        for k in range(2 * len(nodes)):
            got = math.fsum(w * v**k for v, w in zip(nodes, weights))
            assert abs(got - math.factorial(k)) <= 1e-14 * math.factorial(k), k

    @pytest.mark.parametrize("scaled", [False, True])
    @pytest.mark.parametrize("s", [3, 5, 7])
    @pytest.mark.parametrize("p", range(3, 7))
    def test_tail_against_mpmath(self, p, s, scaled):
        mpmath = pytest.importorskip("mpmath")
        x0 = integrals._SERIES_CUTOFF + 0.5
        with mpmath.workdps(30):
            want = float(mpmath.quad(
                lambda x: p * integrals._bell_continuous(p, scaled, float(x)) / x**s,
                [x0, 10 * x0, mpmath.inf],
            ))
        got, est = integrals._monotone_tail(p, scaled, s, x0)
        assert abs(got - want) <= 1e-14 * abs(want)
        assert est <= 1e-14 * abs(want)


def _clear_k_series(monkeypatch):
    monkeypatch.setattr(integrals, "_BELL_TABLE", [])
    integrals._monotone_k_series.cache_clear()
    integrals._alternating_k_series.cache_clear()


def _k_series_outcome(key, cfg):
    try:
        return integrals._k_series_numeric(*key, cfg)
    except AccelerationError:  # some alternating sums at p >= 7 do not certify
        return AccelerationError


# every s = weight_pow + 1 <= 9, both scalings and both branches, p = 3..8
_K_SERIES_KEYS = [
    (p, scaled, alt, pow_)
    for p in range(3, 9) for scaled in (False, True) for alt in (False, True) for pow_ in range(2, 9)
]


class TestKSeriesMemo:
    def test_memoized_values_equal_a_fresh_computation(self, monkeypatch, cfg):
        _clear_k_series(monkeypatch)
        first = {key: _k_series_outcome(key, cfg) for key in _K_SERIES_KEYS}
        again = {key: _k_series_outcome(key, cfg) for key in _K_SERIES_KEYS}
        _clear_k_series(monkeypatch)
        fresh = {key: _k_series_outcome(key, cfg) for key in reversed(_K_SERIES_KEYS)}
        assert again == first == fresh  # floats compare bit for bit; no value here is nan
        assert sum(isinstance(v, tuple) for v in first.values()) > 0.9 * len(first)

    def test_a_repeated_call_sums_nothing(self, monkeypatch, cfg):
        _clear_k_series(monkeypatch)
        calls = []

        def counted(name):
            real = getattr(integrals, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return wrapper

        for name in ("compensated_sum", "_monotone_tail", "accelerate_alternating"):
            monkeypatch.setattr(integrals, name, counted(name))
        keys = [(4, True, True, 2), (4, True, False, 2), (5, False, True, 4), (5, False, False, 4)]
        first = [integrals._k_series_numeric(*key, cfg) for key in keys]
        assert set(calls) == {"compensated_sum", "_monotone_tail", "accelerate_alternating"}
        calls.clear()
        assert [integrals._k_series_numeric(*key, cfg) for key in keys] == first
        assert calls == []

    @pytest.mark.parametrize("p,scaled,pow_", [(3, False, 2), (4, True, 4), (6, False, 8)])
    def test_tolerance_moves_only_the_monotone_bound_floor(self, p, scaled, pow_, monkeypatch):
        _clear_k_series(monkeypatch)
        tight, loose = NumericConfig(target_abs_tol=1e-13), NumericConfig(target_abs_tol=1e-6)
        v_tight, e_tight = integrals._k_series_numeric(p, scaled, True, pow_, tight)
        v_loose, e_loose = integrals._k_series_numeric(p, scaled, True, pow_, loose)
        value, err = integrals._monotone_k_series(p, scaled, pow_ + 1)
        assert v_tight == v_loose == value
        assert (e_tight, e_loose) == (err + 1e-13, err + 1e-12)

    def test_a_raised_error_is_not_cached(self, monkeypatch, cfg):
        _clear_k_series(monkeypatch)
        key = (5, True, True, 4)
        want = integrals._k_series_numeric(*key, cfg)
        _clear_k_series(monkeypatch)
        real_tail = integrals._monotone_tail

        def failing_tail(*args):
            raise OverflowError("injected")

        monkeypatch.setattr(integrals, "_monotone_tail", failing_tail)
        with pytest.raises(OverflowError, match="injected"):
            integrals._k_series_numeric(*key, cfg)
        monkeypatch.setattr(integrals, "_monotone_tail", real_tail)
        assert integrals._k_series_numeric(*key, cfg) == want

        # an alternating sum that does not certify raises on every call: ten
        # terms are too few for the depth that 1e-10 asks for
        starved = NumericConfig(max_series_terms=10)
        calls = []
        real_acc = integrals.accelerate_alternating
        monkeypatch.setattr(
            integrals, "accelerate_alternating", lambda *a: calls.append(1) or real_acc(*a)
        )
        for _ in range(2):
            with pytest.raises(AccelerationError):
                integrals._k_series_numeric(5, False, False, 2, starved)
        assert len(calls) == 2

    def test_threads_agree_with_one_thread(self, monkeypatch, cfg):
        keys = [(p, scaled, alt, pow_) for p in (3, 4, 5) for scaled in (False, True)
                for alt in (False, True) for pow_ in (2, 4)]
        _clear_k_series(monkeypatch)
        want = [integrals._k_series_numeric(*key, cfg) for key in keys]
        _clear_k_series(monkeypatch)

        def run(seed: int) -> list:
            order = keys[seed:] + keys[:seed]
            got = {key: integrals._k_series_numeric(*key, cfg) for key in order}
            return [got[key] for key in keys]

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, mid-sum
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(run, range(8), timeout=120))
        finally:
            sys.setswitchinterval(old)
        assert len(results) == 8
        assert all(got == want for got in results)


class TestRoundingLimitedAlternatingSeries:
    # an alternating k-series whose passes differ by more than tol, but by no
    # more than 16 ulps of the sum, is limited by rounding: it returns its
    # estimate with twice that spread, and at least those 16 ulps, as its bound
    @pytest.mark.parametrize("spread,claim", [(2.0, 16.0), (16.0, 32.0), (16.5, None)])
    def test_the_rounding_limit_is_sixteen_ulps_of_the_estimate(self, spread, claim, monkeypatch):
        _clear_k_series(monkeypatch)
        estimate, ulp = 168890.0, 2.0**-52 * 168890.0

        def uncertified(term_fn, cfg):
            raise AccelerationError("injected", estimate=estimate, error_bound=spread * ulp)

        monkeypatch.setattr(integrals, "accelerate_alternating", uncertified)
        if claim is None:
            with pytest.raises(AccelerationError, match="injected"):
                integrals._k_series_numeric(7, False, False, 2, NumericConfig())
        else:
            got = integrals._k_series_numeric(7, False, False, 2, NumericConfig())
            assert got == (estimate, claim * ulp)

    @pytest.mark.parametrize("p", [7, 8])
    @pytest.mark.parametrize("scaled", [False, True])
    def test_high_order_sums_return_the_estimate(self, p, scaled, monkeypatch, cfg):
        _clear_k_series(monkeypatch)
        real, seen = integrals.accelerate_alternating, []

        def spy(term_fn, cfg):
            try:
                return real(term_fn, cfg)
            except AccelerationError as exc:
                seen.append(exc)
                raise

        monkeypatch.setattr(integrals, "accelerate_alternating", spy)
        value, err = integrals._k_series_numeric(p, scaled, False, 2, cfg)
        if seen:
            (exc,) = seen
            rounding = 16 * 2.0**-52 * abs(exc.estimate)
            assert exc.error_bound <= rounding
            assert (value, err) == ((-1.0) ** p * -exc.estimate, max(2 * exc.error_bound, rounding))
        else:
            assert err == cfg.target_abs_tol
        assert seen or p == 8  # (7, False, False, 2) is one such sum


class TestDerivativeConsistency:
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_half_angle_derivative_matches_log_sine(self, p, n, cfg):
        # differentiating the half-angle moment in the exponent at 0 recovers
        # -2^p times the log-sine integral value
        theta = math.pi

        def g(m: float) -> float:
            return tanh_sinh_quadrature(
                lambda x: x**n * (2 * math.sin(x / 2)) ** (2 * m), 0.0, theta, cfg
            )

        fd, _ = richardson_derivative(g, 0.0, p, cfg)
        ls = log_sine_integral(p, n, "pi", cfg)
        assert abs(fd + 2**p * ls.numeric) < 1e-5

    def test_full_angle_first_derivative(self, cfg):
        def g(m: float) -> float:
            return tanh_sinh_quadrature(
                lambda x: x * (2 * math.sin(x / 2)) ** (2 * m), 0.0, 2 * math.pi, cfg
            )

        fd, _ = richardson_derivative(g, 0.0, 1, cfg)
        ls = log_sine_integral(1, 1, "2pi", cfg)
        assert abs(fd + 2 * ls.numeric) < 1e-5


class TestSpecValidation:
    def test_angle_range(self):
        with pytest.raises(ValueError):
            IntegralSpec(1, 1, 7.5)
        with pytest.raises(ValueError):
            IntegralSpec(1, 1, "3pi")

    def test_logsin_stops_at_pi(self):
        IntegralSpec(0, 2, "pi")
        IntegralSpec(0, 2, 3.5, form="ls")
        with pytest.raises(ValueError, match=r"\(0, pi\]"):
            IntegralSpec(0, 2, 3.5)

    def test_form_validation(self):
        with pytest.raises(ValueError):
            IntegralSpec(1, 1, "pi", form="other")

    def test_closed_form_rejects_two_pi(self):
        with pytest.raises(ValueError):
            log_sin_power_integral(IntegralSpec(1, 2, "2pi"))
