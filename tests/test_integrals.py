import math
import operator
import random
import sys
import threading
import time
from fractions import Fraction
from functools import lru_cache

import pytest

from logsine import (
    DerivSpec,
    IntegralSpec,
    NumericConfig,
    alt_euler_sum_H,
    central_binom_deriv,
    complete_bell_recurrence,
    eta_bar,
    eta_value,
    euler_sum_H,
    eval_numeric,
    log_sin_power_integral,
    log_sine_any_angle,
    log_sine_integral,
    parse_text,
    quadrature_value,
    sine_power_moment_exact,
    sine_power_moment_numeric,
    sym_log2,
    sym_pi,
    sym_zeta,
    tanh_sinh_quadrature,
)
from logsine import binomderiv, integrals
from logsine.cli import main
from logsine.symbolic import SymbolicValue
from euler_maclaurin import zeta_double
from fresh import run_fresh


def _pi_weight(triple):
    """A weight triple (e, num, den) of integrals._case_weights as the value num/den pi^e."""
    e, num, den = triple
    return sym_pi(e, Fraction(num, den))


def _symbolic_case_weights(n, z):
    """integrals._case_weights(n, z) with the central triple and each coef triple rebuilt
    as its SymbolicValue."""
    central, weights = integrals._case_weights(n, z)
    return _pi_weight(central), tuple((_pi_weight(coef), alt, pow_) for coef, alt, pow_ in weights)


def _add_loop_moment(n, m, z):
    """The exact moment with the weighted k-sums added one value at a time."""
    central, weights = _symbolic_case_weights(n, z)
    want = central * Fraction(math.comb(2 * m, m), 4**m)
    for coef, alt, pow_ in weights:
        ksum = sum(Fraction((-1) ** (k * alt) * math.comb(2 * m, m + k), k**pow_) for k in range(1, m + 1))
        want = want + coef * Fraction(ksum, 4**m)
    return want


@lru_cache(maxsize=None)
def _fraction_moment_text(n, m, z):
    """The text of the integral of x^n sin^{2m} x over (0, z), z = pi or pi/2, re-derived in
    Fractions from sin^{2m} x = 4^{-m} (C(2m, m) + 2 sum_k (-1)^k C(2m, m+k) cos 2kx) and the
    antiderivative sum_j n!/(n-j)! x^{n-j} sin(ax + j pi/2) / a^{j+1} of x^n cos ax: at
    a = 2k, sin(2kz + j pi/2) is (-1)^{k [z = pi/2]} times sin(j pi/2)."""
    half, nfact = z == "pi/2", math.factorial(n)
    scale = Fraction(1, 2) if half else Fraction(1)  # z = scale * pi
    coef = {n + 1: Fraction(math.comb(2 * m, m), n + 1) * scale ** (n + 1)}  # pi power -> coefficient
    for k in range(1, m + 1):
        front = Fraction(2 * (-1) ** k * math.comb(2 * m, m + k))
        for j in range(n + 1):
            sine = (0, 1, 0, -1)[j % 4] * (-1) ** (k * half)
            if sine:
                term = front * sine * Fraction(nfact, math.factorial(n - j) * (2 * k) ** (j + 1)) * scale ** (n - j)
                coef[n - j] = coef.get(n - j, 0) + term
        coef[0] = coef.get(0, 0) - front * (0, 1, 0, -1)[n % 4] * Fraction(nfact, (2 * k) ** (n + 1))
    return sum((sym_pi(e, c / 4**m) for e, c in coef.items() if c), SymbolicValue.zero()).text()


class TestMomentsExact:
    def test_texts_equal_a_fraction_rederivation_in_any_call_order(self):
        # every n and both angles share the cached k-sums of m: the order that fills them must not matter
        keys = [(n, m, z) for n in range(25) for m in range(16) for z in ("pi", "pi/2")]
        shuffled = keys[:]
        random.Random(7).shuffle(shuffled)
        for order in (keys, keys[::-1], shuffled):
            integrals._moment_ksum.cache_clear()
            for n, m, z in order:
                assert sine_power_moment_exact(n, m, z).text() == _fraction_moment_text(n, m, z), (n, m, z)

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
    def test_one_pass_equals_the_add_loop(self, z):
        # the weighted k-sums added one value at a time
        for n in range(13):
            for m in range(21):
                assert sine_power_moment_exact(n, m, z) == _add_loop_moment(n, m, z), (n, m)

    def test_the_two_weights_on_pi_to_the_0_are_summed(self):
        # at odd n on the pi/2 row the last even weight and the parity weight both weigh pi^0,
        # so their two rational k-sums land on one term of the moment
        for n in range(1, 22, 2):
            (even, plain, _), (parity, alt, _) = integrals._case_weights(n, "pi/2")[1][-2:]
            assert even[0] == parity[0] == 0 and not plain and alt, n
            for m in range(13):
                got, want = sine_power_moment_exact(n, m, "pi/2"), _add_loop_moment(n, m, "pi/2")
                assert got == want and got.text() == want.text(), (n, m)

    @pytest.mark.parametrize("z", ["pi", "pi/2"])
    def test_weights_are_reduced_int_triples(self, z):
        for n in range(41):
            central, weights = integrals._case_weights(n, z)
            for e, num, den in [central, *(coef for coef, _, _ in weights)]:
                assert all(type(x) is int for x in (e, num, den)), (n, z)
                assert e >= 0 and den > 0 and num != 0 and math.gcd(num, den) == 1, (n, z)

    @pytest.mark.parametrize("z", ["pi", "pi/2"])
    def test_against_quadrature(self, z, cfg):
        zv = math.pi if z == "pi" else math.pi / 2
        for n in range(0, 6):
            for m in range(0, 6):
                got = eval_numeric(sine_power_moment_exact(n, m, z))
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
    def test_matches_exact_at_pi(self, n, m):
        got = sine_power_moment_numeric(n, m, math.pi)
        want = eval_numeric(sine_power_moment_exact(n, m, "pi"))
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
        central, weights = _symbolic_case_weights(0, integrals.CLOSED_FORM_ANGLES["ls"]["2pi"])
        assert (2 * central, weights) == (sym_pi(1, 2), ())

    def test_exact_scaling(self):
        for theta in ("pi", "2pi"):
            for n in range(41):
                central, weights = _symbolic_case_weights(n, integrals.CLOSED_FORM_ANGLES["ls"][theta])
                scale = 2 ** (n + 1)
                want_central, want_weights = _written_out_row(n, theta)
                assert scale * central == want_central, (theta, n)
                assert [(scale * coef, alt, pow_) for coef, alt, pow_ in weights] == want_weights, (theta, n)

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
                    res = log_sin_power_integral(spec)
                    oracle = quadrature_value(spec, cfg)
                    assert abs(res.numeric - oracle) < 1e-8, (n, p, z, res.exact)
                    no_series = n <= 1 if z == "pi" else n == 0
                    assert res.exact == (p <= 2 or no_series), (n, p, z)

    def test_fallback_reports_reason(self):
        res = log_sin_power_integral(IntegralSpec(2, 3, "pi"))
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


def _add_loop_closed_form(n, p, z, scaled):
    """The closed form added one weighted k-sum at a time, then scaled."""
    row, scale = (z, 1) if scaled else (integrals.CLOSED_FORM_ANGLES["ls"][z], -(2 ** (n + 1)))
    central, weights = _symbolic_case_weights(n, row)
    total = central * central_binom_deriv(DerivSpec(p, 0, scaled))
    for coef, alt, pow_ in weights:
        total = total + coef * integrals._ksum(p, scaled, alt, pow_)
    return Fraction(scale, 2**p) * total


@pytest.mark.parametrize("p", range(3))
@pytest.mark.parametrize("z,scaled", [("pi", True), ("pi/2", True), ("pi", False), ("2pi", False)])
def test_one_pass_closed_forms_equal_the_add_loop(z, scaled, p):
    for n in range(41):
        res = log_sin_power_integral(IntegralSpec(n, p, z)) if scaled else log_sine_integral(p, n, z)
        want = _add_loop_closed_form(n, p, z, scaled)
        assert res.exact and res.value == want and res.value.text() == want.text(), n
        assert res.numeric == eval_numeric(want), n


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

    def test_zero_log_power(self):
        # p = 0 collapses to minus the plain monomial integral
        res = log_sine_integral(0, 2, "2pi")
        assert res.exact
        assert res.value == sym_pi(3, Fraction(-8, 3))

    def test_sign_convention(self):
        # the leading minus of the definition: order-4 value at 2pi is negative
        res = log_sine_integral(2, 1, "2pi")
        assert res.numeric < 0
        assert res.value == parse_text("-1/6*pi^4")

    def test_full_angle_values_are_log2_and_zb1_free(self):
        for p, n in REFERENCE_LS_2PI:
            res = log_sine_integral(p, n, "2pi")
            text = res.value.text()
            assert "log2" not in text and "zb1_" not in text

    def test_against_quadrature(self, cfg):
        for key in REFERENCE_LS_2PI:
            p, n = key
            spec = IntegralSpec(n, p, "2pi", form="ls")
            res = log_sine_integral(p, n, "2pi")
            assert abs(res.numeric - quadrature_value(spec, cfg)) < 1e-8
        for key in REFERENCE_LS_PI:
            p, n = key
            spec = IntegralSpec(n, p, "pi", form="ls")
            res = log_sine_integral(p, n, "pi")
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


def _exact_bell(p):
    """The exact coefficient B of z in Ls_{p+1}(z)."""
    return Fraction(-1, 2**p) * central_binom_deriv(DerivSpec(p, 0))


class TestAnyAngle:
    def test_half_pi_grid(self, cfg):
        for p in (1, 2, 3):
            val, _ = log_sine_any_angle(p, math.pi / 2)
            want = -tanh_sinh_quadrature(
                lambda x, p=p: math.log(2 * math.sin(x / 2)) ** p, 0.0, math.pi / 2, cfg
            )
            assert abs(val - want) < 1e-7

    def test_at_pi_series_vanishes(self):
        val, _ = log_sine_any_angle(1, math.pi)
        assert val == pytest.approx(0.0, abs=1e-12)
        val, _ = log_sine_any_angle(2, math.pi)
        assert val == pytest.approx(-math.pi**3 / 12, abs=1e-12)

    def test_third_of_full_angle(self, cfg):
        val, _ = log_sine_any_angle(2, 2 * math.pi / 3)
        want = -tanh_sinh_quadrature(
            lambda x: math.log(2 * math.sin(x / 2)) ** 2, 0.0, 2 * math.pi / 3, cfg
        )
        assert abs(val - want) < 1e-8

    def test_bell_coefficient_is_exact_symbolic(self):
        assert _exact_bell(3) == parse_text("3/2*zeta3")

    @pytest.mark.parametrize("p", range(1, 13))
    def test_bell_coefficient_is_the_bell_value_over_eta_bar(self, p):
        # B = (-1)^{p+1} 2^{-p} B_p(0, eta_bar_2, ..., eta_bar_p), float bits included
        seq = [SymbolicValue.zero()] + [eta_bar(j) for j in range(2, p + 1)]
        want = Fraction((-1) ** (p + 1), 2**p) * complete_bell_recurrence(seq, one=SymbolicValue.one())
        bell = _exact_bell(p)
        assert bell == want
        assert eval_numeric(bell) == eval_numeric(want)

    @pytest.mark.parametrize("p", range(1, 13))
    def test_float_bell_coefficient_lies_within_the_moment_bound(self, p):
        # 2pi B = Ls_{p+1}(2pi) = -2 M_0, so B = -M_0/pi within the moment's bound over pi
        _, bell = log_sine_any_angle(p, 5.0)
        bound = integrals._log_sine_moment(p, 0, False)[1]
        assert abs(bell - eval_numeric(_exact_bell(p))) <= bound / math.pi

    @pytest.mark.parametrize("p", [1, 3, 6])
    def test_reflected_value_is_twice_moment_zero_less_the_mirrored_series(self, p):
        z = 5.0
        moment = integrals._log_sine_moment(p, 0, False)[0]
        want = -2 * moment + integrals._log_sine_series(p, 2 * math.pi - z + integrals._TWO_PI_LOW)
        assert log_sine_any_angle(p, z)[0] == want

    def test_cold_call_does_no_symbolic_work(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the any-angle path did symbolic work")

        for name in ("_constant_row", "eval_numeric"):
            monkeypatch.setattr(integrals, name, refuse)
        monkeypatch.setattr(binomderiv, "central_binom_deriv", refuse)
        monkeypatch.setattr(SymbolicValue, "__mul__", refuse)
        for p in (3, 40):
            for z in (1.0, 5.0):
                for cached in vars(integrals).values():
                    getattr(cached, "cache_clear", lambda: None)()
                assert math.isfinite(log_sine_any_angle(p, z)[0])

    @pytest.mark.parametrize("z", [1.0, 5.0])
    def test_value_past_binary64_is_an_overflow(self, z):
        # the series at p = 200 is nan, and a non-finite value is never returned
        with pytest.raises(OverflowError):
            log_sine_any_angle(200, z)

    def test_largest_order_below_the_factorial_overflow(self):
        # the moment's tail bound divides b! by an int power before it meets a float,
        # so 170! is never converted; the reference is 40-digit mpmath over x = e^-t
        val, bell = log_sine_any_angle(170, 1.0)
        want = -7.257415615307998967396728211129263114717e306
        assert abs(val - want) <= 1e-15 * abs(want)
        assert math.isfinite(bell)
        with pytest.raises(OverflowError):  # 171! itself is past binary64
            log_sine_any_angle(171, 1.0)

    @pytest.mark.parametrize("p,z", [(60, 1.0), (60, 5.0), (170, 1.0)])
    def test_a_high_order_in_a_fresh_interpreter_returns_at_once(self, p, z):
        """Any-angle values at p = 60 do no symbolic work and return at once
        The any-angle value at p = 170 is a finite double, not an overflow of 170!"""
        run_fresh(f"from logsine import log_sine_any_angle as f; print(f({p}, {z}))", timeout=10)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            log_sine_any_angle(2, 7.0)

    def test_irrational_multiple_is_certified(self):
        want = _mp_reference("ls", 0, 2, 1.0)
        val, _ = log_sine_any_angle(2, 1.0)
        assert abs(val - want) <= 1e-12 * max(1.0, abs(want))


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
        parts = integrals._log_sine_parts(p, math.pi, 0, integrals._H_TERMS + 10)
        longer = math.pi * math.fsum(parts)
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
    def test_float_endpoint_folds_like_its_token(self, form, token, monkeypatch):
        # the folded pieces halve the caller's tolerance as a float: no config is built per call
        built, new = [], NumericConfig.__new__
        monkeypatch.setattr(NumericConfig, "__new__", lambda cls, *args: built.append(args) or new(cls, *args))
        for n, p in ((0, 6), (3, 4), (5, 5)):
            by_token = quadrature_value(IntegralSpec(n, p, token, form=form))
            by_float = quadrature_value(IntegralSpec(n, p, integrals.angle_value(token), form=form))
            assert by_float == by_token
        assert built == []

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


# the two weight rows, each over the scaled and the unscaled coefficients
_ROWS = [(z, scaled) for z in ("pi", "pi/2") for scaled in (True, False)]


def _catalog_sum(p, scaled, alt, pow_):
    # sum_k (-1)^{k*alt} D_p(k) / k^pow over the derivatives written out: D_0 = 0,
    # D_1 = -(-1)^k/k and D_2 = (-1)^k (4 H_k/k - 2/k^2, plus 4 log 2/k scaled);
    # each carries (-1)^k, so the sums alternate when alt is false
    bare = sym_zeta if alt else (lambda s: -eta_value(s))
    harmonic = euler_sum_H if alt else alt_euler_sum_H
    if p == 0:
        return SymbolicValue.zero()
    if p == 1:
        return -bare(pow_ + 1)
    total = 4 * harmonic(pow_ + 1) - 2 * bare(pow_ + 2)
    return total + sym_log2(1, 4) * bare(pow_ + 1) if scaled else total


def _catalog_keys(n_max=12):
    # every k-sum of the weights with n <= n_max that an exact closed form takes at p <= 2
    return sorted({(p, scaled, alt, pow_)
                   for z, scaled in _ROWS
                   for n in range(n_max + 1)
                   for _, alt, pow_ in integrals._case_weights(n, z)[1]
                   for p in range(3)})


class TestKSum:
    @pytest.mark.parametrize("key", _catalog_keys())
    def test_equals_the_sum_over_the_kform_and_is_cached(self, key):
        integrals._ksum.cache_clear()
        got = integrals._ksum(*key)
        assert got == _catalog_sum(*key)
        assert integrals._ksum(*key) is got

    def test_every_exact_closed_form_sums_in_the_catalog(self):
        for key in _catalog_keys(60):
            integrals._ksum(*key)  # a miss raises CatalogMissError

    @pytest.mark.parametrize(
        "key", [(3, True, False, 2), (1, True, True, 0), (2, False, False, 1), (2, False, True, 0)]
    )
    def test_a_catalog_miss_raises(self, key):
        with pytest.raises(integrals.CatalogMissError):
            integrals._ksum(*key)


class TestKSeriesFourier:
    @pytest.mark.parametrize("key", _catalog_keys())
    def test_catalog_sums_lie_within_the_claim(self, key, cfg):
        value, claim = integrals._k_series_numeric(*key, cfg)
        want = eval_numeric(_catalog_sum(*key))
        assert abs(value - want) <= claim, (value, want, claim)
        assert claim <= 1e-12 * max(1.0, abs(want))

    def test_a_repeated_call_returns_the_cached_result(self, cfg):
        first = integrals._k_series_numeric(5, True, False, 4, cfg)
        assert integrals._k_series_numeric(5, True, False, 4, cfg) is first

    def test_the_tolerance_is_not_read(self):
        sums = {integrals._k_series_numeric(6, False, True, 4, NumericConfig(tol))
                for tol in (1e-3, 1e-10, 1e-15)}
        assert len(sums) == 1

    def test_weights_at_power_two_are_the_bernoulli_polynomial(self):
        # sum_k cos(ky) / k^2 = pi^2/6 - pi y/2 + y^2/4 on [0, 2pi]
        got = integrals._fourier_weights(True, 2)
        assert got == pytest.approx({0: math.pi**2 / 6, 1: -math.pi / 2, 2: 0.25}, rel=1e-15)

    @pytest.mark.parametrize("pow_", [4, 6, 8])
    @pytest.mark.parametrize("alt", [False, True])
    def test_weights_sum_the_cosine_series(self, alt, pow_):
        weights = integrals._fourier_weights(alt, pow_)
        for y in (0.0, 0.3, 1.0, 2.0, math.pi):
            poly = math.fsum(c * y**i for i, c in weights.items())
            direct = math.fsum(
                (1 if alt else (-1) ** k) * math.cos(k * y) / k**pow_ for k in range(1, 4000)
            )
            assert abs(poly - direct) <= 1e-11, y

    @pytest.mark.parametrize("p,i,scaled", [(3, 0, False), (6, 8, True), (10, 10, True), (40, 20, True)])
    def test_moment_lies_within_its_bound(self, p, i, scaled):
        mpmath = pytest.importorskip("mpmath")
        value, bound = integrals._log_sine_moment(p, i, scaled)
        log_z = math.log(math.pi / 2 if scaled else math.pi)
        with mpmath.workdps(30):
            c = 1 if scaled else 2
            want = float(mpmath.quad(
                lambda y: y**i * mpmath.log(c * mpmath.sin(y / 2)) ** p, [0, mpmath.pi / 2, mpmath.pi]
            ))
        size = abs(reference_series(p, math.pi, 32, i, -log_z))  # every part of one sign
        assert abs(value - want) <= bound <= 1e-12 * size, (value, want, bound)
        # there the first 32 terms leave out 1e-3, so the terms doubled
        short = reference_series(p, math.pi, 32, i, log_z)
        assert (abs(short - want) > bound) == ((p, i) == (40, 20))


# -- the log-sine moments as first written: h's powers rebuilt per (p, terms), zeta
# rounded from its Euler-Maclaurin bracket at every n, and a moment's magnitude and
# value in two calls


@lru_cache(maxsize=None)
def reference_rows(p, terms):
    h = [0.0] + [-zeta_double(2 * k) / k for k in range(1, terms)]
    powers = [[1.0] + [0.0] * (terms - 1)]  # powers[j][k] = [t^k] h^j
    for _ in range(p):
        powers.append([math.fsum(powers[-1][i] * h[k - i] for i in range(k)) for k in range(terms)])
    return tuple(
        tuple(math.comb(p, i) * powers[p - i][k] for i in range(p + 1)) for k in range(terms)
    )


def reference_series(p, z, terms=32, i=0, log_z=None):
    t = (z / (2 * math.pi)) ** 2
    log_pows = [(math.log(z) if log_z is None else log_z) ** a for a in range(p + 1)]
    parts, t_k = [], 1.0
    for k, row in enumerate(reference_rows(p, terms)):
        m1 = 2 * k + i + 1
        j = 1.0 / m1
        acc = row[0] * j
        for a in range(1, p + 1):
            j = (log_pows[a] - a * j) / m1
            acc += row[a] * j
        parts.append(t_k * acc)
        t_k *= t
    return z ** (i + 1) * math.fsum(parts)


reference_terms = {}  # (p, i, scaled) -> the terms the reference moment summed


@lru_cache(maxsize=None)
def reference_moment(p, i, scaled):
    log_z = math.log(math.pi / 2 if scaled else math.pi)
    terms, a = 32, log_z + integrals._TAIL_H
    while True:
        size = abs(reference_series(p, math.pi, terms, i, -log_z))
        m1 = i + 2 * terms + 1
        tail = math.pi ** (i + 1) / 3.6**terms * math.fsum(
            math.comb(p, b) * a ** (p - b) * (math.factorial(b) / m1 ** (b + 1))
            for b in range(p + 1)
        )
        if tail <= 2**-53 * size:
            break
        terms *= 2
    reference_terms[p, i, scaled] = terms
    value = reference_series(p, math.pi, terms, i, log_z)
    return value, tail + (12 * p + i + 12) * 2**-53 * size


def _clear_log_sine_caches():
    integrals._h_powers.clear()
    integrals._log_sine_rows.cache_clear()
    integrals._j_table.cache_clear()
    integrals._log_sine_moment.cache_clear()


def _hex(pair):
    return tuple(x.hex() for x in pair)


_MOMENT_KEYS = [(p, i, scaled) for p in range(13) for i in range(41) for scaled in (False, True)]


class TestLogSineBitsAgainstReference:
    def test_every_moment_and_bound_has_the_reference_bits(self):
        _clear_log_sine_caches()  # the shared table grows from empty, as in a fresh process
        for key in _MOMENT_KEYS:
            assert _hex(integrals._log_sine_moment(*key)) == _hex(reference_moment(*key)), key
        # 544 of them double to 64 terms, past the 32-term prefix the table built first; of
        # the moments the fallbacks at p <= 6, n <= 5 read, these two
        assert {reference_terms[key] for key in _MOMENT_KEYS} == {32, 64}
        doubled = {key for key in _MOMENT_KEYS if reference_terms[key] > 32}
        assert len(doubled) == 544
        in_fallbacks = {(p, i, s) for p, i, s in doubled if p <= 6 and i <= 5}
        assert in_fallbacks == {(6, 4, True), (6, 5, True)}
        assert {len(power) for power in integrals._h_powers.values()} == {64}

    @pytest.mark.parametrize("terms", [32, 42, 64])
    def test_parts_have_the_reference_bits(self, terms):
        # the series' log z at i = 0; the moments' log factors and i > 0 are the J tables',
        # held to the reference by the test above
        rng = random.Random(terms)
        for _ in range(120):
            p, z = rng.randrange(13), rng.uniform(1e-3, math.pi)
            parts = integrals._log_sine_parts(p, z, 0, terms)
            assert (z * math.fsum(parts)).hex() == reference_series(p, z, terms).hex(), (p, z)

    def test_series_have_the_reference_bits(self):
        rng = random.Random(32)
        for _ in range(500):
            p, z = rng.randrange(13), rng.uniform(1e-3, math.pi)
            assert integrals._log_sine_series(p, z).hex() == reference_series(p, z).hex(), (p, z)

    def test_any_angle_values_have_the_reference_bits(self, monkeypatch):
        angles = [1e-3, 0.5, 1.0, 2.5, math.pi / 3, math.pi, 3.5, 5.0, 2 * math.pi - 1e-3, 2 * math.pi]
        got = {(p, z): _hex(log_sine_any_angle(p, z)) for p in range(1, 13) for z in angles}
        monkeypatch.setattr(integrals, "_log_sine_series", reference_series)
        monkeypatch.setattr(integrals, "_log_sine_moment", reference_moment)
        assert got == {(p, z): _hex(log_sine_any_angle(p, z)) for p in range(1, 13) for z in angles}

    @pytest.mark.parametrize("form,z", [("ls", "pi"), ("ls", "2pi"), ("logsin", "pi/2"), ("logsin", "pi")])
    def test_fallback_values_and_claims_have_the_reference_bits(self, monkeypatch, form, z):
        def outcomes():
            for n in range(30):
                for p in range(3, 9):
                    res = log_sine_integral(p, n, z) if form == "ls" else log_sin_power_integral(
                        IntegralSpec(n, p, z))
                    yield res.exact, res.numeric.hex(), res.error and res.error.hex(), res.reason

        got = list(outcomes())
        assert sum(not exact for exact, *_ in got) >= 28 * 6  # n <= 1 may be exact
        monkeypatch.setattr(integrals, "_log_sine_moment", reference_moment)
        assert got == list(outcomes())


def test_threads_building_moments_get_the_bits_of_one_thread():
    keys = [(p, i, scaled) for p in range(1, 9) for i in range(8) for scaled in (False, True)]
    _clear_log_sine_caches()
    want = {key: _hex(integrals._log_sine_moment(*key)) for key in keys}
    table, js = dict(integrals._h_powers), dict(integrals._j_tables)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside the table's check-then-store
    try:
        for round_ in range(5):  # each round races four cold builds, two of them in one order
            _clear_log_sine_caches()
            barrier, got = threading.Barrier(4), [None] * 4

            def build(n):
                order = keys if n < 2 else random.Random(4 * round_ + n).sample(keys, len(keys))
                barrier.wait()
                got[n] = {key: _hex(integrals._log_sine_moment(*key)) for key in order}

            threads = [threading.Thread(target=build, args=(n,)) for n in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert got == [want] * 4
            # each power is the one-thread table cut at a length some moment asked for, never
            # a prefix extended twice or spliced from two builds
            assert sorted(integrals._h_powers) == sorted(table)
            for j, power in integrals._h_powers.items():
                assert len(power) in (32, 64) and power == table[j][: len(power)], (round_, j)
            # and each log factor's J table a prefix of the one-thread table, every entry a
            # prefix of its entry
            assert sorted(integrals._j_tables) == sorted(js)
            for log_z, entries in integrals._j_tables.items():
                assert len(entries) <= len(js[log_z]), (round_, log_z)
                assert all(entry == js[log_z][m][: len(entry)] for m, entry in enumerate(entries)), (round_, log_z)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("i", [4, 5])
def test_a_moment_reads_one_j_table_per_log_factor(i):
    # moment i reads m = i + 2k + 1 for k below its row count from the table of m = 1, 2, ..,
    # keyed by the float log factor alone, whatever the parity of i
    _clear_log_sine_caches()
    integrals._log_sine_moment(3, i, True)
    log_z = math.log(math.pi / 2)
    assert sorted(integrals._j_tables) == sorted({-log_z, log_z})
    for c, entries in integrals._j_tables.items():
        assert len(entries) >= i + 2 * integrals._H_TERMS - 1, c
        m = float(len(entries))  # the last entry, by the recursion of J_a
        js = [1.0 / m]
        for a in range(1, 4):
            js.append((c**a - a * js[-1]) / m)
        assert entries[-1] == tuple(js), c


def test_any_angle_calls_keep_the_j_tables_of_the_moments_alone():
    # the series' log z is new on every call, so it runs its own J_a; only moment 0, read
    # for the Bell coefficient and the reflection, keys a J table
    _clear_log_sine_caches()
    rng = random.Random(1000)
    for _ in range(1000):
        log_sine_any_angle(rng.randint(1, 14), rng.uniform(1e-3, 2 * math.pi))
    assert sorted(integrals._j_tables) == sorted({-math.log(math.pi), math.log(math.pi)})


def _grid_any_angle_calls():
    # the 78 any-angle calls of the benchmark's series grid: the least and largest a*pi/b in
    # (0, 2pi] for b <= 12 at p = 1..3, the four coarsest at p = 4, and 1.0 and 2.5 at p = 1
    angles = [math.pi, 2 * math.pi]
    for b in range(2, 13):
        angles += [math.pi / b, (2 * b - 1) * math.pi / b]
    calls = [(p, z) for p in range(1, 4) for z in angles]
    return calls + [(4, math.pi / b) for b in range(1, 5)] + [(1, 1.0), (1, 2.5)]


def _outcome(p, z):
    try:
        return _hex(log_sine_any_angle(p, z))
    except Exception as exc:
        return type(exc).__name__, str(exc)


class TestSeriesStopsWhenItsTailCannotMoveIt:
    @pytest.fixture
    def cold_caches(self):
        _clear_log_sine_caches()
        yield
        _clear_log_sine_caches()  # no 96-row table outlives the test

    def test_the_bound_covers_the_rows_left_out_as_computed(self, cold_caches):
        rng = random.Random(44)
        for _ in range(900):
            p, k, z = rng.randrange(15), rng.randrange(2, 29), rng.uniform(1e-4, math.pi)
            rows = integrals._log_sine_parts(p, z, k, 96)
            assert math.fsum(map(abs, rows)) <= integrals._log_sine_tail(p, z, k) / 2, (p, z, k)

    @pytest.mark.parametrize("parts,bound,unmoved", [
        ([1.0, 2**-53], 2**-54, False),  # 1 + 2^-53 ties to 1, a little more rounds up
        ([1.0, 2**-53], 0.0, True),
        ([1.0], 2**-60, True),
        ([1.0], math.nan, False),
        ([1.0], math.inf, False),
        ([math.inf], 1.0, False),  # every end rounds to inf, and inf is not a value
        ([math.inf, -math.inf], 1.0, False),  # fsum raises ValueError
        ([1e308, 1e308], 1.0, False),  # fsum raises OverflowError
    ])
    def test_the_rounding_test(self, parts, bound, unmoved):
        assert integrals._unmoved(parts, bound) is unmoved

    def test_a_tail_that_moves_the_double_extends_the_sum(self, monkeypatch):
        def parts(p, z, start, stop):
            return [1.0, 2**-53] if start == 0 else [2**-54]

        monkeypatch.setattr(integrals, "_log_sine_parts", parts)
        monkeypatch.setattr(integrals, "_log_sine_tail", lambda *args: 2**-54)
        assert integrals._log_sine_series(3, 0.5) == 0.5 * (1 + 2**-52)

    def test_rows_read(self, monkeypatch):
        read, tables, parts, rows = [], [], integrals._log_sine_parts, integrals._log_sine_rows

        def count(p, z, start, stop):
            read.append(stop - start)
            return parts(p, z, start, stop)

        def keep(p, terms):
            tables.append(rows(p, terms))
            return tables[-1]

        for z in (math.pi / 12, math.pi / 3, 1.0, math.pi):
            log_sine_any_angle(3, z)  # caches moment 0
            monkeypatch.setattr(integrals, "_log_sine_parts", count)
            monkeypatch.setattr(integrals, "_log_sine_rows", keep)
            read.clear()
            log_sine_any_angle(3, z)
            monkeypatch.undo()
            assert (sum(read) < 32) == (z != math.pi) and sum(read) <= 32, (z, read)
        # a short run reads a prefix of the table of p, never a table of its own
        longest = max(tables, key=len)
        assert len(longest) >= 32
        assert all(all(map(operator.is_, table, longest)) for table in tables)

    def test_any_angle_values_have_the_bits_of_every_row(self, monkeypatch):
        rng = random.Random(20000)
        calls = _grid_any_angle_calls() + [(rng.randint(1, 14), rng.uniform(0.0, 2 * math.pi))
                                           for _ in range(20000)]
        calls = [(p, z) for p, z in calls if z > 0.0]
        got = [_hex(log_sine_any_angle(p, z)) for p, z in calls]
        monkeypatch.setattr(integrals, "_log_sine_series", reference_series)
        monkeypatch.setattr(integrals, "_log_sine_moment", reference_moment)
        assert got == [_hex(log_sine_any_angle(p, z)) for p, z in calls]

    def test_outcomes_past_binary64_are_unchanged(self):
        # each outcome as it was when every row was summed: value bits, or the exception; a
        # power of log z past binary64 names p and z, where float pow's own text named neither
        nan, inf = ("OverflowError", "the log-sine series is nan"), ("OverflowError", "the log-sine series is -inf")

        def power(p, z):
            return "OverflowError", f"log-sine series at p = {p}, z = {z!r}: powers of log z pass binary64"

        want = {
            (170, 0.001): inf, (170, 1.0): ("-0x1.4ab7864418635p+1019", "-0x1.a514f28632ae3p+1017"),
            (200, 0.001): nan, (200, 1.0): nan, (300, 0.001): nan, (300, 1.0): nan,
            (338, 0.001): nan, (338, 1.0): nan, (387, 0.001): power(387, 0.001), (387, 1.0): nan,
        }
        want.update({(p, 1e-300): power(p, 1e-300) for p in (170, 200, 300, 338, 387)})  # t underflows to 0
        for (p, z), outcome in want.items():
            start = time.perf_counter()
            assert _outcome(p, z) == outcome, (p, z)
            assert time.perf_counter() - start < 1.0, (p, z)


class TestCentralTermIsMomentZero:
    @pytest.mark.parametrize("scaled", [False, True])
    @pytest.mark.parametrize("p", range(3, 13))
    def test_moment_zero_lies_within_its_claim_of_the_exact_term(self, p, scaled):
        # the k-series with C(y) = 1: 2^p/pi times the integral of L^p over (0, pi)
        moment, bound = integrals._log_sine_moment(p, 0, scaled)
        scale = 2.0**p / math.pi
        want = eval_numeric(central_binom_deriv(DerivSpec(p, 0, scaled)))
        assert abs(scale * moment - want) <= scale * (bound + 17 * 2**-53 * abs(moment))

    def test_a_warm_fallback_builds_no_symbolic_value(self, monkeypatch):
        requests = [
            lambda: log_sine_integral(4, 3, "pi"),
            lambda: log_sine_integral(4, 3, "2pi"),
            lambda: log_sin_power_integral(IntegralSpec(3, 5, "pi/2")),
            lambda: log_sin_power_integral(IntegralSpec(3, 5, "pi")),
        ]

        def refuse(*args):
            raise AssertionError("a fallback did symbolic work")

        # cold or warm, a fallback sums moments and never evaluates a weight row
        for name in ("eval_numeric", "_k_series_numeric", "_fourier_weights"):
            monkeypatch.setattr(integrals, name, refuse)
        integrals._case_weights.cache_clear()
        for request in requests:
            request()  # builds and caches the weight row

        monkeypatch.setattr(integrals, "_constant_row", refuse)
        monkeypatch.setattr(binomderiv, "central_binom_deriv", refuse)
        monkeypatch.setattr(SymbolicValue, "__mul__", refuse)
        monkeypatch.setattr(SymbolicValue, "__rmul__", refuse)
        for request in requests:
            assert not request().exact


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("n", [10, 20, 40])
@pytest.mark.parametrize("form,z", [("ls", "pi"), ("ls", "2pi"), ("logsin", "pi/2"), ("logsin", "pi")])
def test_fallback_with_cancelling_weights_lies_within_its_claim(form, z, n, p):
    # at n = 40 the weights of the exact form cancel by 20 digits and more, so
    # a fallback built on them had no digit left; the moment sum keeps most
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        top = {"pi/2": mpmath.pi / 2, "pi": mpmath.pi, "2pi": 2 * mpmath.pi}[z]
        if form == "ls":
            g = lambda x: -(x**n) * mpmath.log(abs(2 * mpmath.sin(x / 2))) ** p  # noqa: E731
        else:
            g = lambda x: x**n * mpmath.log(mpmath.sin(x)) ** p  # noqa: E731
        want = float(mpmath.quad(g, [0, top / 2, top]))
    if form == "ls":
        res = log_sine_integral(p, n, z)
    else:
        res = log_sin_power_integral(IntegralSpec(n, p, z))
    assert not res.exact
    assert abs(res.numeric - want) <= res.error, (res.numeric, want, res.error)
    assert res.error <= 1e-4 * abs(want)


@pytest.mark.parametrize("n", [170, 600])
def test_a_half_angle_fallback_near_the_float_range_lies_within_its_claim(n):
    # Ls at pi is one moment; at n = 600 it is about 1e295, near the top of binary64
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        g = lambda x: -(x**n) * mpmath.log(2 * mpmath.sin(x / 2)) ** 3  # noqa: E731
        want = float(mpmath.quad(g, mpmath.linspace(0, mpmath.pi, 9)))
    res = log_sine_integral(3, n, "pi")
    assert not res.exact
    assert abs(res.numeric - want) <= res.error <= 1e-11 * abs(want), (res.numeric, want, res.error)


class TestAlternatingFallbacksAgainstMpmath:
    # ls at pi and logsin at pi/2 sum alternating k-series; every value lies
    # within its claim
    @pytest.mark.parametrize("p", range(3, 10))
    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("form", ["ls", "logsin"])
    def test_value_lies_within_its_claim(self, form, n, p):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            if form == "ls":
                g, z = lambda x: -(x**n) * mpmath.log(2 * mpmath.sin(x / 2)) ** p, mpmath.pi
            else:
                g, z = lambda x: x**n * mpmath.log(mpmath.sin(x)) ** p, mpmath.pi / 2
            want = float(mpmath.quad(g, [0, z / 2, z]))
        if form == "ls":
            res = log_sine_integral(p, n, "pi")
        else:
            res = log_sin_power_integral(IntegralSpec(n, p, "pi/2"))
        assert not res.exact
        assert abs(res.numeric - want) <= res.error, (res.numeric, want, res.error)


class TestDerivativeConsistency:
    # differentiating the half-angle moment int_0^theta x^n (2 sin(x/2))^{2m} dx in the
    # exponent at m = 0 recovers -2^p times the log-sine integral value
    @staticmethod
    def _moment_derivative(n: int, p: int, theta: str) -> float:
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(20):
            top = {"pi": mpmath.pi, "2pi": 2 * mpmath.pi}[theta]
            g = lambda m: mpmath.quad(lambda x: x**n * (2 * mpmath.sin(x / 2)) ** (2 * m), [0, top])
            return float(mpmath.diff(g, 0, p))

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_half_angle_derivative_matches_log_sine(self, p, n):
        ls = log_sine_integral(p, n, "pi")
        assert abs(self._moment_derivative(n, p, "pi") + 2**p * ls.numeric) < 1e-12

    def test_full_angle_first_derivative(self):
        ls = log_sine_integral(1, 1, "2pi")
        assert abs(self._moment_derivative(1, 1, "2pi") + 2 * ls.numeric) < 1e-12


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

    @pytest.mark.parametrize("z,want", [
        ("pi/2", math.pi / 2), ("2pi", 2 * math.pi), ("1.1", 1.1), (" 3e-1", 0.3), (2, 2.0),
    ])
    def test_an_angle_is_a_token_a_numeric_string_or_a_number(self, z, want):
        assert integrals.angle_value(z) == want

    def test_an_unreadable_angle_is_named(self):
        with pytest.raises(ValueError, match=r"^cannot parse angle 'abc'$"):
            integrals.angle_value("abc")


# -- the closed-form domain: CLOSED_FORM_ANGLES is the one list of the angles each form takes

_CLOSED_FORM_FLAG = {"logsin": ("closed-form", "--z"), "ls": ("ls", "--theta")}
# per form: a token of the other form, a token of no form, a float inside its domain, a float
# equal to one of its tokens
_OFF_TABLE = [("logsin", z) for z in ("2pi", "3pi", 1.0, math.pi)] + [
    ("ls", z) for z in ("pi/2", "3pi", 1.0, 2 * math.pi)]


def _closed_form(form, z):
    return log_sine_integral(2, 1, z) if form == "ls" else log_sin_power_integral(IntegralSpec(1, 2, z))


def _closed_form_cli(form, z):
    command, flag = _CLOSED_FORM_FLAG[form]
    try:
        return main([command, flag, str(z), "--n", "1", "--p", "2"])
    except SystemExit as exc:  # argparse's own usage errors
        return exc.code


@pytest.mark.parametrize("form,z", [(form, z) for form, rows in integrals.CLOSED_FORM_ANGLES.items()
                                    for z in rows])
def test_each_angle_of_the_table_has_an_exact_result(capsys, form, z):
    assert _closed_form(form, z).exact
    assert _closed_form_cli(form, z) == 0 and capsys.readouterr().out.startswith("exact:   ")


@pytest.mark.parametrize("form,z", _OFF_TABLE)
def test_every_other_angle_is_refused_by_the_library_and_the_cli(capsys, form, z):
    with pytest.raises(ValueError):
        _closed_form(form, z)
    code = _closed_form_cli(form, z)
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("usage error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("form", ["logsin", "ls"])
def test_the_library_error_text_does_not_depend_on_the_hash_seed(form):
    call = "log_sine_integral(2, 1, z)" if form == "ls" else "log_sin_power_integral(IntegralSpec(1, 2, z))"
    angles = tuple(z for f, z in _OFF_TABLE if f == form)
    code = ("from logsine import IntegralSpec, log_sin_power_integral, log_sine_integral\n"
            f"for z in {angles!r}:\n"
            "    try:\n"
            f"        {call}\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n")
    # a set of two tokens prints in one order under seeds 1, 2, 3 and 5 alike, in the other under 4 or 6
    texts = {run_fresh(code, env={"PYTHONHASHSEED": str(seed)}).stdout for seed in range(1, 9)}
    assert len(texts) == 1 and texts.pop().count("\n") == len(angles)


def test_exact_sine_moments_take_the_angles_of_the_logsin_form():
    for z in integrals.CLOSED_FORM_ANGLES["logsin"]:
        want = sine_power_moment_numeric(2, 3, integrals.angle_value(z))
        assert eval_numeric(sine_power_moment_exact(2, 3, z)) == pytest.approx(want, rel=1e-14)
    for form, z in _OFF_TABLE:
        if form == "logsin":
            with pytest.raises(ValueError):
                sine_power_moment_exact(2, 3, z)


# -- FORMS: each form's range, log factor, sign and row scaling, stated once


@pytest.mark.parametrize("call,message", [
    (lambda: IntegralSpec(0, 1, 3.5), "z must lie in (0, pi] for form 'logsin'"),
    (lambda: IntegralSpec(0, 1, 7.0, form="ls"), "z must lie in (0, 2*pi] for form 'ls'"),
    (lambda: IntegralSpec(0, 1, 0.0, form="ls"), "z must lie in (0, 2*pi] for form 'ls'"),
    (lambda: IntegralSpec(0, 1, 1.0, form="sin"), "form must be 'logsin' or 'ls'"),
    (lambda: log_sine_any_angle(2, 7.0), "z must lie in (0, 2*pi]"),
    # a float n once failed inside math.factorial, a float p as a complex log power
    (lambda: IntegralSpec(2.0, 1, "pi"), "n must be an int, got 2.0"),
    (lambda: IntegralSpec(2, 1.5, 1.0), "p must be an int, got 1.5"),
], ids=["logsin-past-pi", "ls-past-2pi", "ls-at-0", "unknown-form", "any-angle-past-2pi", "float-n", "float-p"])
def test_out_of_range_messages_are_unchanged(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_the_log_sine_factor_at_the_least_double_is_log_x():
    # x/2 rounds to 0 only at x = 5e-324, where 2 sin(x/2) is x; log(2 sin 0) once raised
    tiny = 5e-324
    assert integrals._log_2sin_half(tiny) == math.log(tiny)
    for x in (2 * tiny, 1e-320, 1e-300, 1.0, 6.0):
        assert integrals._log_2sin_half(x) == math.log(2.0 * math.sin(x / 2.0)), x
