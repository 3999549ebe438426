import math

import pytest

from logsine import (
    AccelerationError,
    IntegralSpec,
    NumericConfig,
    PowerSeries,
    QuadratureError,
    accelerate_alternating,
    cot_derivative,
    log_sin_power_integral,
    polygamma_real,
    richardson_derivative,
    tanh_sinh_quadrature,
    zeta_numeric,
)

EULER_GAMMA = 0.5772156649015329  # the Euler-Mascheroni constant, correctly rounded


class TestAlternatingAcceleration:
    def test_log_two(self, cfg):
        assert abs(accelerate_alternating(lambda k: 1.0 / k, cfg) - math.log(2)) < 1e-12

    def test_eta_two(self, cfg):
        got = accelerate_alternating(lambda k: 1.0 / k**2, cfg)
        assert abs(got - math.pi**2 / 12) < 1e-12

    def test_harmonic_cubed_against_double_sum(self, cfg):
        # independent double-sum oracle for sum_{n1>n2} (-1)^{n1}/(n1^3 n2):
        # bracketed alternating partial sums of (-1)^k H_{k-1}/k^3
        h, s = 0.0, 0.0
        partials = []
        for k in range(1, 100001):
            if k >= 2:
                s += (-1) ** k * h / k**3
                partials.append(s)
            h += 1.0 / k
        zb13 = (partials[-1] + partials[-2]) / 2.0
        eta4 = (1 - 2.0**-3) * math.pi**4 / 90
        harm = [0.0]

        def magnitude(k):
            while len(harm) <= k:
                harm.append(harm[-1] + 1.0 / len(harm))
            return harm[k] / k**3

        got = accelerate_alternating(magnitude, cfg)
        # sum (-1)^{k+1} H_k/k^3 = -(zb1(3) - (1-2^{-3}) zeta(4))
        assert abs(got + (zb13 - eta4)) < 1e-10

    def test_agrees_with_raw_partial_sums(self, cfg):
        for exponent in (2, 3):
            raw = math.fsum(
                [(-1.0) ** (k + 1) / k**exponent for k in range(1, 100001)]
            )
            tail = 1.0 / 100001.0**exponent  # alternating remainder bound
            got = accelerate_alternating(lambda k, e=exponent: 1.0 / k**e, cfg)
            assert abs(got - raw) <= tail + 1e-12

    def test_failure_carries_estimate(self):
        # 1e-300 asks for more terms than one pass reads, so only a best effort remains
        tight = NumericConfig(target_abs_tol=1e-300)
        with pytest.raises(AccelerationError) as exc:
            accelerate_alternating(lambda k: 1.0 / math.sqrt(k), tight)
        assert math.isfinite(exc.value.estimate)
        # the best-effort estimate is still in the right neighbourhood
        assert abs(exc.value.estimate - 0.6048986434216305) < 1e-5
        assert exc.value.error_bound > 0


class TestQuadrature:
    def test_log_sine(self, cfg):
        got = tanh_sinh_quadrature(lambda x: math.log(math.sin(x)), 0.0, math.pi, cfg)
        assert abs(got + math.pi * math.log(2)) < 1e-12

    def test_constant(self, cfg):
        assert abs(tanh_sinh_quadrature(lambda x: 1.0, 0.0, 1.0, cfg) - 1.0) < 1e-14

    def test_x_log_squared(self, cfg):
        got = tanh_sinh_quadrature(
            lambda x: x * math.log(math.sin(x)) ** 2, 0.0, math.pi, cfg
        )
        want = math.pi**4 / 24 + math.pi**2 / 2 * math.log(2) ** 2
        assert abs(got - want) < 1e-10

    @pytest.mark.parametrize("n", range(0, 9))
    @pytest.mark.parametrize("z", [math.pi / 2, math.pi, 2 * math.pi])
    def test_monomials(self, n, z, cfg):
        got = tanh_sinh_quadrature(lambda x: x**n, 0.0, z, cfg)
        want = z ** (n + 1) / (n + 1)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_one_map_of_the_interval_puts_one_node_at_its_midpoint(self, cfg):
        # both endpoints at transform infinity: the nodes crowd at 0 and 1 only
        nodes = []
        got = tanh_sinh_quadrature(lambda x: nodes.append(x) or x * x, 0.0, 1.0, cfg)
        assert abs(got - 1.0 / 3.0) < 1e-14
        assert sum(abs(x - 0.5) < 1e-6 for x in nodes) <= 1

    def test_orientation(self, cfg):
        fwd = tanh_sinh_quadrature(math.exp, 0.0, 1.0, cfg)
        assert abs(tanh_sinh_quadrature(math.exp, 1.0, 0.0, cfg) + fwd) < 1e-13

    @pytest.mark.parametrize("p", [5, 6])
    def test_singularity_in_the_last_ulp_raises(self, p, cfg):
        # log^p(sin x) is singular at pi, inside the last ulp of fl(pi): the
        # clamped nodes misread 1e-8 (p = 5) to 4e-7 (p = 6) of mass
        with pytest.raises(QuadratureError):
            tanh_sinh_quadrature(lambda x: math.log(math.sin(x)) ** p, 0.0, math.pi, cfg)

    @pytest.mark.parametrize("n", range(6))
    def test_singularity_in_the_last_ulp_never_certifies_a_wrong_value(self, n, cfg):
        for p in range(1, 7):
            want = log_sin_power_integral(IntegralSpec(n, p, "pi"), cfg).numeric
            try:
                got = tanh_sinh_quadrature(
                    lambda x: x**n * math.log(math.sin(x)) ** p, 0.0, math.pi, cfg
                )
            except QuadratureError:
                continue
            assert abs(got - want) <= cfg.target_abs_tol, (p, got, want)

    @pytest.mark.parametrize("p", range(1, 7))
    def test_singularity_at_an_exact_endpoint_is_bounded(self, p, cfg):
        # int_0^1 log^p(1 - x) dx = (-1)^p p!; whatever certifies is within tol
        f = lambda x: math.log1p(-x) ** p
        try:
            got = tanh_sinh_quadrature(f, 0.0, 1.0, cfg)
        except QuadratureError as exc:
            assert exc.error_bound >= abs(exc.estimate - (-1) ** p * math.factorial(p))
        else:
            assert abs(got - (-1) ** p * math.factorial(p)) <= cfg.target_abs_tol

    def test_unreachable_tolerance_fails(self, cfg):
        # a jump inside the interval: halving the step only halves the error
        with pytest.raises(QuadratureError) as exc:
            tanh_sinh_quadrature(lambda x: 1.0 if x < 1.0 else 0.0, 0.0, math.pi, cfg)
        assert abs(exc.value.estimate - 1.0) < 1e-3
        assert exc.value.error_bound > 1e-10


class TestPolygammaReal:
    def test_trigamma_at_one(self):
        assert abs(polygamma_real(1, 1.0) - math.pi**2 / 6) < 1e-12

    def test_digamma_at_two(self):
        assert abs(polygamma_real(0, 2.0) - (1 - EULER_GAMMA)) < 1e-12

    def test_brute_force_series(self):
        want = -2 * sum(1.0 / (k + 0.5) ** 3 for k in range(400000))
        assert abs(polygamma_real(2, 0.5) - want) < 1e-10

    @pytest.mark.parametrize("order", range(0, 6))
    @pytest.mark.parametrize("x", [0.5, 1.0, 2.5])
    def test_recurrence(self, order, x):
        lhs = polygamma_real(order, x + 1) - polygamma_real(order, x)
        rhs = (-1.0) ** order * math.factorial(order) / x ** (order + 1)
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))

    @pytest.mark.parametrize("order", range(0, 5))
    def test_reflection(self, order):
        z = 0.3
        lhs = polygamma_real(order, 1 - z) - (-1.0) ** order * polygamma_real(order, z)
        rhs = (-1.0) ** order * cot_derivative(order, z)
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))

    @pytest.mark.parametrize("order", range(0, 6))
    @pytest.mark.parametrize("x", [0.5, 1.0, 19.5, 20.0, 2000.5, 1e6, 1e15])
    def test_against_mpmath(self, order, x):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            want = mpmath.psi(order, x)
            assert abs(polygamma_real(order, x) - want) <= 2e-15 * abs(want)

    def test_domain(self):
        with pytest.raises(ValueError):
            polygamma_real(1, 0.0)
        with pytest.raises(ValueError):
            polygamma_real(-1, 1.0)


class TestRichardson:
    def test_exp_third_derivative(self):
        val, err = richardson_derivative(math.exp, 0.0, 3)
        assert abs(val - 1.0) < 1e-8
        assert err < 1e-6

    def test_square_second_derivative(self):
        val, _ = richardson_derivative(lambda x: x * x, 1.0, 2)
        assert abs(val - 2.0) < 1e-10

    def test_order_cap(self):
        with pytest.raises(ValueError):
            richardson_derivative(math.exp, 0.0, 5)


class TestPowerSeries:
    def test_exp_of_identity(self):
        got = PowerSeries([0.0, 1.0, 0.0, 0.0]).exp()
        assert got.coeffs == pytest.approx([1.0, 1.0, 0.5, 1 / 6])

    def test_product(self):
        got = PowerSeries([1.0, 1.0]) * PowerSeries([1.0, -1.0])
        assert got.coeffs == [1.0, 0.0]

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            PowerSeries([1.0, 2.0]) * PowerSeries([1.0])

    def test_exp_log_round_trip(self):
        series = PowerSeries([0.0, 0.3, -0.2, 0.11, 0.07])
        twice = series.exp()
        # recover the log-series by the inverse recurrence; round trip to eps
        n = series.order
        back = [math.log(twice.coeffs[0])] + [0.0] * n
        for i in range(1, n + 1):
            acc = twice.coeffs[i] * i
            for j in range(1, i):
                acc -= j * back[j] * twice.coeffs[i - j]
            back[i] = acc / (i * twice.coeffs[0])
        assert back == pytest.approx(series.coeffs, abs=1e-14)

    def test_exp_of_log_gamma_series_vs_finite_differences(self):
        # coefficients of Gamma(1+2m) from exp of its log series, checked by
        # Richardson differentiation of the gamma function itself
        order = 4
        coeffs = [0.0, -2 * EULER_GAMMA] + [
            (-1.0) ** j * zeta_numeric(j) * 2.0**j / j for j in range(2, order + 1)
        ]
        series = PowerSeries(coeffs).exp()
        f = lambda m: math.gamma(1 + 2 * m)
        for p in (1, 2, 3):
            fd, _ = richardson_derivative(f, 0.0, p)
            assert abs(series.coeffs[p] - fd / math.factorial(p)) < 1e-8
        fd, _ = richardson_derivative(f, 0.0, 4)
        # order-4 central differences bottom out near 1e-6..1e-7 in binary64
        assert abs(series.coeffs[4] - fd / math.factorial(4)) < 2e-6


class TestCotDerivative:
    def test_quarter(self):
        assert abs(cot_derivative(0, 0.25) - math.pi) < 1e-14

    def test_first_derivative_at_half(self):
        assert abs(cot_derivative(1, 0.5) + math.pi**2) < 1e-12

    def test_against_finite_differences(self):
        val, _ = richardson_derivative(
            lambda k: math.pi / math.tan(math.pi * k), 0.3, 3
        )
        assert abs(cot_derivative(3, 0.3) - val) < 1e-7

    def test_pole(self):
        with pytest.raises(ValueError):
            cot_derivative(2, 3.0)


class TestNumericConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            NumericConfig(target_abs_tol=0.0)
