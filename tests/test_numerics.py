import math

import pytest

from logsine import (
    AccelerationError,
    IntegralSpec,
    NumericConfig,
    QuadratureError,
    accelerate_alternating,
    cot_derivative,
    log_sin_power_integral,
    numerics,
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


def eta_series_zeta(n):
    """zeta(n) as zeta_numeric sums it below its cut: the accelerated eta series."""
    eta = accelerate_alternating(lambda k: 1.0 / numerics.float_power(k, n), numerics.CONSTANT_CONFIG)
    return eta / (1.0 - 2.0 ** (1 - n))


class TestZetaCut:
    def test_from_55_on_the_cut_returns_the_series_own_value(self):
        for n in range(55, 401):
            assert zeta_numeric(n) == eta_series_zeta(n) == 1.0, n

    def test_54_keeps_the_series_value_one_ulp_above_one(self):
        assert zeta_numeric(54).hex() == eta_series_zeta(54).hex() == "0x1.0000000000001p+0"

    def test_the_cut_sums_no_series_and_is_cached_like_any_n(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a series was summed past the cut")

        monkeypatch.setattr(numerics, "accelerate_alternating", refuse)
        zeta_numeric.cache_clear()
        assert [zeta_numeric(n) for n in (55, 126, 55)] == [1.0] * 3
        info = zeta_numeric.cache_info()
        assert (info.hits, info.misses) == (1, 2)
        with pytest.raises(AssertionError, match="past the cut"):
            zeta_numeric(54)


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
            want = log_sin_power_integral(IntegralSpec(n, p, "pi")).numeric
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
        # the call ran all 12 levels, yet only the tables of levels 0-7 are kept
        assert sorted(numerics._ts_tables) == list(range(8))


def reference_tanh_sinh(f, a, b, cfg):
    """The kernel as it was before its node tables: every call rebuilds each
    abscissa and weight and reads f at every node, clamped ones included."""
    if a > b:
        return -reference_tanh_sinh(f, b, a, cfg)
    tol, halfw, center = cfg.target_abs_tol, (b - a) / 2.0, (a + b) / 2.0

    def nodes(level, h):
        if level == 0:
            k = 0
            while k * h <= 6.5:
                yield k * h
                k += 1
        else:
            t = h
            while t <= 6.5:
                yield t
                t += 2 * h

    def weighted(t):
        u = (math.pi / 2.0) * math.sinh(t)
        e2u = math.exp(-2.0 * u)
        sech2 = 4.0 * e2u / (1.0 + e2u) ** 2
        w = halfw * (math.pi / 2.0) * math.cosh(t) * sech2
        if w == 0.0:
            return 0.0
        if t == 0.0:
            return w * f(center)
        d = (b - a) * e2u / (1.0 + e2u)
        x_hi = b - d
        if x_hi >= b:
            x_hi = math.nextafter(b, a)
        x_lo = a + d
        if x_lo <= a:
            x_lo = math.nextafter(a, b)
        return w * (f(x_hi) + f(x_lo))

    def clamp_loss(end, inward):
        x1 = math.nextafter(end, inward)
        return 4.0 * abs(x1 - end) * abs(f(x1) - f(math.nextafter(x1, inward)))

    h, level_sum, scale, prev = 1.0, 0.0, 0.0, math.nan
    for level in range(13):
        h /= 2.0
        vals = [weighted(t) for t in nodes(level, h)]
        level_sum += math.fsum(vals)
        scale += math.fsum(abs(v) for v in vals)
        value = h * level_sum
        err = abs(value - prev)
        prev = value
        floor = 8.0 * 2.2e-16 * h * scale
        if level >= 2 and err <= max(tol, floor):
            break
    if not math.isfinite(value):
        raise QuadratureError("integrand produced non-finite values", value, math.inf)
    err += sum(clamp_loss(end, to) for end, to in ((a, b), (b, a)) if end != 0.0)
    if not err <= max(tol, floor):
        raise QuadratureError(
            f"quadrature error estimate {err:.3e} above target {tol:.3e}", value, err
        )
    return value


def outcome(quadrature, f, a, b, cfg):
    """A call's value, or its error's message, estimate and bound, as exact text."""
    try:
        return quadrature(f, a, b, cfg).hex()
    except QuadratureError as exc:
        return str(exc), exc.estimate.hex(), exc.error_bound.hex()


def integrands():
    for n, p in ((0, 1), (1, 2), (3, 4), (6, 7)):
        yield lambda x, n=n, p=p: x**n * math.log(math.sin(x)) ** p
        yield lambda x, n=n, p=p: -(x**n) * math.log(2.0 * math.sin(x / 2.0)) ** p


class TestQuadratureTables:
    @pytest.mark.parametrize("tol", [1e-6, 1e-10, 5e-11, 1e-13])
    @pytest.mark.parametrize("a,b", [
        (0.0, math.pi / 2), (0.0, math.pi), (0.0, math.pi - 1e-9), (0.5, 2.0),
        (math.pi, 0.0), (1.0, 2 * math.pi - 1e-9), (math.pi / 2, math.pi),
    ])
    def test_every_value_and_error_has_the_bits_of_the_per_node_kernel(self, a, b, tol):
        cfg = NumericConfig(target_abs_tol=tol)
        for f in integrands():
            try:
                want = outcome(reference_tanh_sinh, f, a, b, cfg)
            except ValueError:  # log of a negative sine past pi
                with pytest.raises(ValueError):
                    tanh_sinh_quadrature(f, a, b, cfg)
                continue
            assert outcome(tanh_sinh_quadrature, f, a, b, cfg) == want

    @pytest.mark.parametrize("f,a,b", [
        (lambda x: math.log(math.sin(x)), 0.0, math.pi),
        (lambda x: x * x, 0.5, 2.0),
    ])
    def test_each_clamped_endpoint_is_read_at_most_once(self, f, a, b, cfg):
        reads = []
        tanh_sinh_quadrature(lambda x: reads.append(x) or f(x), a, b, cfg)
        for end, inward in ((b, a), (a, b)):
            if end != 0.0:
                assert reads.count(math.nextafter(end, inward)) <= 1, end


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
