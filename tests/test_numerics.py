import math
import random
import sys
import threading
from fractions import Fraction
from itertools import product

import pytest

from logsine import (
    IntegralSpec,
    NumericConfig,
    QuadratureError,
    cot_derivative,
    delta_numeric,
    integrals,
    log_sin_power_integral,
    numerics,
    polygamma_real,
    quadrature_value,
    tanh_sinh_quadrature,
    zeta_numeric,
)
from logsine.specialfn import bernoulli
from euler_maclaurin import zeta_bracket
from fresh import run_fresh

EULER_GAMMA = 0.5772156649015329  # the Euler-Mascheroni constant, correctly rounded


class TestZetaCorrectlyRounded:
    def test_every_index_to_59_rounds_inside_its_euler_maclaurin_bracket(self):
        for n in range(2, 60):
            lo, hi = map(float, zeta_bracket(n))
            assert zeta_numeric(n) == lo == hi, n


class TestZetaCut:
    def test_from_54_on_the_cut_returns_the_series_own_value(self):
        for n in range(54, 161):
            half = 1 << (n - 1)
            series = numerics._alternating_double(lambda k, bits: (1 << bits) // (k + 1) ** n, 0, half, half - 1)
            assert zeta_numeric(n) == series == 1.0, n

    def test_53_is_one_ulp_above_one_and_54_is_one(self):
        # zeta(n) - 1 lies between 2^-n + 3^-n and 2^-n + 2^(1-n)/(n-1), half an ulp of 1.0
        # being 2^-53: above it at n = 53, below it from n = 54 on
        assert Fraction(1, 2**53) + Fraction(1, 3**53) > Fraction(1, 2**53)
        assert Fraction(1, 2**54) + Fraction(1, 53 * 2**53) < Fraction(1, 2**53)
        assert zeta_numeric(53).hex() == "0x1.0000000000001p+0"
        assert zeta_numeric(54) == 1.0

    def test_the_cut_sums_no_series_and_is_cached_like_any_n(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a series was summed past the cut")

        monkeypatch.setattr(numerics, "_alternating_double", refuse)
        zeta_numeric.cache_clear()
        assert [zeta_numeric(n) for n in (54, 126, 54, 999_999_999)] == [1.0] * 4
        info = zeta_numeric.cache_info()
        assert (info.hits, info.misses) == (1, 3)
        with pytest.raises(AssertionError, match="past the cut"):
            zeta_numeric(53)


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
        numerics._node_table.cache_clear()
        with pytest.raises(QuadratureError) as exc:
            tanh_sinh_quadrature(lambda x: 1.0 if x < 1.0 else 0.0, 0.0, math.pi, cfg)
        assert abs(exc.value.estimate - 1.0) < 1e-3
        assert exc.value.error_bound > 1e-10
        # the call ran all 12 levels, yet only the tables of levels 0-7 are kept
        assert numerics._node_table.cache_info().currsize == 8


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


def reference_quadrature_value(spec, cfg):
    """The oracle as it was before its log columns: one scalar closure per
    integrand, summed by the per-node kernel."""
    n, p, z = spec.n, spec.p, integrals.angle_value(spec.z)
    if spec.form == "logsin":
        top = math.pi
        f = lambda x: x**n * math.log(math.sin(x)) ** p
        folded = lambda x: (x**n + (top - x) ** n) * math.log(math.sin(x)) ** p
    else:
        top = 2 * math.pi
        f = lambda x: -(x**n) * math.log(2.0 * math.sin(x / 2.0)) ** p
        folded = lambda x: (x**n + (top - x) ** n) * -(math.log(2.0 * math.sin(x / 2.0)) ** p)
    if z <= top / 2:
        return reference_tanh_sinh(f, 0.0, z, cfg)
    mirror, half = max(top - z, 0.0), NumericConfig(cfg.target_abs_tol / 2)
    return reference_tanh_sinh(f, 0.0, mirror, half) + reference_tanh_sinh(folded, mirror, top / 2, half)


def oracle_outcome(quadrature, spec, cfg):
    """An oracle value, or its error's message, estimate and bound, as exact text."""
    try:
        return quadrature(spec, cfg).hex()
    except QuadratureError as exc:
        return str(exc), exc.estimate.hex(), exc.error_bound.hex()


ORACLE_ANGLES = {
    "logsin": ("pi/2", "pi", 1.1, 3.0, math.pi - 1e-9),
    "ls": ("pi/2", "pi", "2pi", 1.1, 3.0, math.pi - 1e-9, 2 * math.pi - 1e-9),
}
ORACLE_TOLS = (1e-6, 1e-10, 1e-13)


def oracle_cases():
    return [(IntegralSpec(n, p, z, form=form), NumericConfig(tol))
            for form, angles in ORACLE_ANGLES.items() for z in angles
            for n in range(7) for p in range(8) for tol in ORACLE_TOLS]


@pytest.fixture(scope="module")
def oracle_reference():
    return {case: oracle_outcome(reference_quadrature_value, *case) for case in oracle_cases()}


def reference_clamps(a, b, level):
    """Each node's weight and whether it clamps near b and near a, node by node."""
    wscale, lo_in, hi_in = (b - a) / 2.0 * (math.pi / 2.0), math.nextafter(a, b), math.nextafter(b, a)
    for cosh_t, sech2, e2u, e2u1 in numerics._ts_rows(level):
        w = wscale * cosh_t * sech2
        if w != 0.0:
            d = (b - a) * e2u / e2u1
            yield w, b - d, not b - d < hi_in, a + d, not a + d > lo_in


class TestOracleTables:
    """quadrature_value reads node tables and log columns; each outcome keeps
    the bits of the per-node kernel over the parent's scalar closures."""

    def test_cold_every_outcome_has_the_bits_of_the_per_node_oracle(self, oracle_reference):
        numerics._node_table.cache_clear()
        for case, want in oracle_reference.items():
            assert oracle_outcome(quadrature_value, *case) == want, case

    def test_warm_every_outcome_has_the_bits_of_the_per_node_oracle(self, oracle_reference):
        for case in oracle_reference:
            oracle_outcome(quadrature_value, *case)
        for case, want in oracle_reference.items():
            assert oracle_outcome(quadrature_value, *case) == want, case

    def test_shuffled_every_outcome_has_the_bits_of_the_per_node_oracle(self, oracle_reference):
        numerics._node_table.cache_clear()
        cases = list(oracle_reference)
        random.Random(41).shuffle(cases)
        for case in cases:
            assert oracle_outcome(quadrature_value, *case) == oracle_reference[case], case

    def test_eight_threads_agree_with_one(self, oracle_reference):
        cases = [case for case in oracle_reference if case[1].target_abs_tol == 1e-10]
        results = [None] * 8

        def work(slot):
            order = cases[:]
            random.Random(slot).shuffle(order)
            results[slot] = {case: oracle_outcome(quadrature_value, *case) for case in order}

        numerics._node_table.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(slot,)) for slot in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        want = {case: oracle_reference[case] for case in cases}
        assert all(result == want for result in results)

    def test_the_table_cache_stays_at_its_bound(self, cfg):
        numerics._node_table.cache_clear()
        for k in range(40):
            quadrature_value(IntegralSpec(2, 3, 0.5 + k / 16, form="ls"), cfg)
            tanh_sinh_quadrature(math.exp, 0.0, 0.5 + k / 16, cfg)
        info = numerics._node_table.cache_info()
        assert info.currsize == info.maxsize == numerics._TABLE_ENTRIES

    @pytest.mark.parametrize("a,b", [
        (0.0, math.pi / 2), (0.0, 1.1), (0.0, math.pi), (0.0, 3.0), (0.0, math.pi - 1e-9),
        (0.0, 2 * math.pi - 1e-9), (1.0, 2.0), (0.5, 2.0), (math.pi / 2, math.pi),
        (1e-300, 1.0), (-3.0, -1e-3), (0.0, 0.3),
    ])
    @pytest.mark.parametrize("level", range(numerics._CACHED_LEVELS))
    def test_each_sides_clamped_nodes_are_a_suffix_of_its_table(self, a, b, level):
        rows = list(reference_clamps(a, b, level))
        nodes = numerics._node_table(a, b, level)
        assert nodes.weights == tuple(row[0] for row in rows)
        for side, (x_at, clamp_at) in enumerate(((1, 2), (3, 4))):
            flags = [row[clamp_at] for row in rows]
            kept = len(rows) - nodes.clamped[side]
            assert flags == [False] * kept + [True] * nodes.clamped[side]
            assert nodes.xs[side] == tuple(row[x_at] for row in rows[:kept])


# the grid's four intervals in both forms, the folds onto (0, pi/2) and (0, pi), and
# two mirror splits at angles that are no token, one per form
STORE_ANGLES = {"logsin": ("pi/2", 1.1, "pi", 2.0), "ls": ("pi/2", 1.1, "pi", 3.0, "2pi", 4.0)}
STORE_PAIRS = [(n, p) for n in range(7) for p in range(8)]


def store_sweep(order_seed):
    """Every (form, angle, n, p) of the column-store sweep at tolerance 1e-10, with the
    (n, p) pairs in a shuffled order and the angles taken in turn for each pair."""
    pairs = STORE_PAIRS[:]
    random.Random(order_seed).shuffle(pairs)
    return [(IntegralSpec(n, p, z, form=form), NumericConfig(1e-10))
            for n, p in pairs for form, angles in STORE_ANGLES.items() for z in angles]


@pytest.fixture(scope="module")
def store_reference():
    return {case: oracle_outcome(reference_quadrature_value, *case) for case in store_sweep(0)}


def evict_node_tables():
    for k in range(numerics._TABLE_ENTRIES):
        numerics._node_table(10.0 + k, 11.0 + k, 0)


class TestColumnStore:
    """quadrature_value multiplies columns kept in each table's store; whatever the
    order of the requests and the state of the tables, each outcome keeps the bits
    of the per-node oracle."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_cold_warm_and_evicted_sweeps_have_the_bits_of_the_per_node_oracle(self, seed, store_reference):
        numerics._node_table.cache_clear()
        for state in ("cold", "warm", "evicted"):
            if state == "evicted":
                evict_node_tables()
            for case in store_sweep(seed):
                assert oracle_outcome(quadrature_value, *case) == store_reference[case], (state, case)

    def test_a_full_store_computes_what_it_cannot_keep(self, store_reference, monkeypatch):
        monkeypatch.setattr(numerics, "_COLUMNS", 3)
        numerics._node_table.cache_clear()
        for case in store_sweep(3):
            assert oracle_outcome(quadrature_value, *case) == store_reference[case], case
        quadrature_value(IntegralSpec(1, 2, "pi/2"), NumericConfig(1e-10))  # reads three columns or more
        assert all(len(numerics._node_table(0.0, math.pi / 2, level).columns) == 3 for level in range(3))
        numerics._node_table.cache_clear()

    def test_each_store_stays_at_its_bound(self):
        # (0, pi/2) is asked for 36 columns: x^n and the fold about pi for 7 n, the log
        # factor and 8 powers of each form, and sin^{2m} x for 4 m
        numerics._node_table.cache_clear()
        for n, p in STORE_PAIRS:
            for z, form in (("pi/2", "logsin"), ("pi", "logsin"), ("pi/2", "ls")):
                quadrature_value(IntegralSpec(n, p, z, form=form), NumericConfig(1e-10))
        for n, m in product(range(4), range(4)):
            integrals.sine_power_moment_quadrature(n, m, math.pi / 2, NumericConfig(1e-10))
        for level in range(3):
            assert len(numerics._node_table(0.0, math.pi / 2, level).columns) == numerics._COLUMNS

    def test_eight_threads_agree_with_one(self, store_reference):
        results = [None] * 8

        def work(slot):
            results[slot] = {case: oracle_outcome(quadrature_value, *case) for case in store_sweep(10 + slot)}

        numerics._node_table.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(slot,)) for slot in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(result == store_reference for result in results)

    @pytest.mark.parametrize("spec", [
        IntegralSpec(3, 4, 1.6), IntegralSpec(10, 10, 1.6), IntegralSpec(0, 1, 1.6),
    ])
    def test_full_depth_streams_the_deep_levels_with_the_same_bits(self, spec):
        # the fold onto (pi - 1.6, pi/2) runs 8 to 12 levels at this tolerance
        cfg = NumericConfig(1e-300)
        want = oracle_outcome(reference_quadrature_value, spec, cfg)
        assert oracle_outcome(quadrature_value, spec, cfg) == want
        assert oracle_outcome(quadrature_value, spec, cfg) == want

    @pytest.mark.parametrize("a,b", [(0.0, math.pi / 2), (0.5, 2.0)])
    def test_each_key_holds_the_values_of_its_own_expression(self, a, b):
        # one table asked for every column the oracles read, in two orders: x^n for
        # each n, x^n + (top - x)^n for each n and top, the log powers of both forms
        # (the log-sine one negated) and sin^k x, each equal to its expression node by node
        want = {
            ("x", n): lambda x, n=n: x**n for n in range(4)
        } | {
            ("fold", n, top): lambda x, n=n, top=top: x**n + (top - x) ** n
            for n in range(4) for top in (math.pi, 2 * math.pi)
        } | {
            ("logsin", p): lambda x, p=p: math.log(math.sin(x)) ** p for p in range(4)
        } | {
            ("ls", p): lambda x, p=p: -(math.log(2.0 * math.sin(x / 2.0)) ** p) for p in range(4)
        } | {
            ("sin", k): lambda x, k=k: math.sin(x) ** k for k in range(0, 8, 2)
        }
        read = {
            "x": integrals._x_power,
            "fold": integrals._fold_power,
            "logsin": lambda p: integrals._log_power("logsin", p),
            "ls": lambda p: integrals._log_power("ls", p),
            "sin": integrals._sin_power,
        }
        for keys in (list(want), list(reversed(want))):
            numerics._node_table.cache_clear()
            for level in range(3):
                nodes = numerics._node_table(a, b, level)
                for key in keys:
                    got = nodes.column(*read[key[0]](*key[1:]))
                    values = tuple(tuple(map(want[key], xs)) for xs in nodes.xs)
                    assert tuple(map(tuple, got)) == values, (level, key)
        numerics._node_table.cache_clear()


# full-depth quadrature in a fresh interpreter, whose ru_maxrss (KiB on Linux) no other
# work has raised; a jump inside the interval never converges, so all 12 levels run
_FULL_DEPTH = """
import math, resource, sys
from logsine import IntegralSpec, NumericConfig, QuadratureError, quadrature_value, tanh_sinh_quadrature

def raises(quadrature, *args):
    try:
        quadrature(*args)
    except QuadratureError:
        return True
    return False

jump = lambda x: 1.0 if x < 1.0 else 0.0
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
"""
_TWICE = """
if not (raises(tanh_sinh_quadrature, jump, 0.0, math.pi) and raises(tanh_sinh_quadrature, jump, 0.0, math.pi)):
    sys.exit("the unreachable tolerance certified")
"""
_INTERVALS = """
for k in range(100):
    b = 1.5 + k / 64
    if not raises(tanh_sinh_quadrature, jump, 0.0, b):
        sys.exit(f"the jump over (0, {b}) certified")
    for form in ("logsin", "ls"):  # and the interval's log columns
        raises(quadrature_value, IntegralSpec(3, 4, b, form=form), NumericConfig(1e-300))
"""
# over (0, pi - 1.6) and the fold onto (pi - 1.6, pi/2), which runs 8 to 12 levels
_ORDERS = """
for n in range(25):
    for p in range(1, 21):
        raises(quadrature_value, IntegralSpec(n, p, 1.6), NumericConfig(1e-300))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
@pytest.mark.parametrize("work,seconds", [(_TWICE, 10), (_INTERVALS, 60), (_ORDERS, 120)],
                         ids=["twice", "100-intervals", "500-orders"])
def test_full_depth_quadrature_grows_ru_maxrss_by_under_2_mb(work, seconds):
    """Quadrature that runs all 12 levels twice keeps only the level 0-7 node tables
    Quadrature at full depth over 100 distinct intervals keeps the node tables at their bound
    Quadrature at full depth of 500 distinct (n, p) over two intervals keeps each column store at its bound"""
    program = _FULL_DEPTH + work + "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)"
    grown = int(run_fresh(program, timeout=seconds).stdout)
    assert grown < 2048, f"ru_maxrss grew {grown} KiB"


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

    @pytest.mark.parametrize("call", [
        lambda: polygamma_real(1, 1e-200),  # 1e-200^2 underflows to 0, and 1/0 once raised
        lambda: delta_numeric(21, -0.5 + 2**-53, 0),  # psi^(20)(2^-52) likewise
        lambda: polygamma_real(3, 1e-80),  # 6/1e-320 is inf, once returned as the value
    ], ids=["psi1-at-1e-200", "delta21-near-m=-1/2", "psi3-at-1e-80"])
    @pytest.mark.within(10)
    def test_a_value_past_binary64_raises_overflow(self, call):
        """Polygamma past binary64 raises OverflowError; a 4,401-digit coefficient prints whole"""
        with pytest.raises(OverflowError) as info:
            call()
        assert "\n" not in str(info.value) and "inf" in str(info.value)

    @pytest.mark.parametrize("order,x", [
        (52, 1e6), (45, 1e7), (40, 1e8), (171, 30.0), (170, 1.0), (171, 1.0), (0, 1e200),
        (1, 1e200), (300, 1e300), (1000, 300.0), (2, 1e-154), (2, 1e-155),
    ])
    def test_large_orders_and_arguments_against_mpmath(self, order, x):
        # a power or factorial past binary64 once raised at the first four; OverflowError
        # is right only where |psi| passes the largest double, as at (171, 1.0)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            want = mpmath.psi(order, x)
            if abs(want) > sys.float_info.max:
                with pytest.raises(OverflowError):
                    polygamma_real(order, x)
            else:
                # a value below the least subnormal rounds to 0
                assert abs(polygamma_real(order, x) - want) <= 2e-15 * abs(want) + math.ulp(0.0)

    @pytest.mark.parametrize("order,x", [(1, 1e-150), (3, 2e-77)])  # about 1e300 and 3.7e307
    def test_a_value_that_fits_a_double_keeps_its_bits(self, order, x):
        assert polygamma_real(order, x) == reference_polygamma(order, x)


def reference_polygamma(n, x):
    # polygamma_real as first written: a digamma loop and an order >= 1 loop
    shift_terms, y = [], x
    while y < 20.0:
        shift_terms.append(1.0 / y ** (n + 1))
        y += 1.0
    if n == 0:
        tail, ypow = math.log(y) - 1.0 / (2.0 * y), y * y
        for k in range(1, 15):
            term = float(bernoulli(2 * k)) / (2 * k * ypow)
            tail -= term
            if abs(term) < 1e-18 * abs(tail):
                break
            ypow *= y * y
        return tail - math.fsum(shift_terms)
    head = math.factorial(n - 1) / y**n + math.factorial(n) / (2.0 * y ** (n + 1))
    ypow = y ** (n + 2)
    for k in range(1, 15):
        rising = 1.0
        for i in range(2 * k + 1, 2 * k + n):
            rising *= i
        term = float(bernoulli(2 * k)) * rising / ypow
        head += term
        if abs(term) < 1e-18 * abs(head):
            break
        ypow *= y * y
    return (-1.0) ** (n + 1) * head - (-1.0) ** n * math.factorial(n) * math.fsum(shift_terms)


_rng = random.Random(39)
_POLYGAMMA_POINTS = (
    [0.5 * i for i in range(1, 130)]  # 0.5, 1.0, ..., 64.5
    + [_rng.uniform(0.001, 80.0) for _ in range(200)]
    + [1e3, 1e6]
)


@pytest.mark.parametrize("order", range(21))
def test_polygamma_has_the_bits_of_the_two_loops(order):
    bad = [x for x in _POLYGAMMA_POINTS if polygamma_real(order, x) != reference_polygamma(order, x)]
    assert not bad, bad[:5]


@pytest.mark.parametrize("order", range(21, 41))
def test_polygamma_past_order_20_against_mpmath(order):
    # the shift to y >= max(20, n) lets the 14 asymptotic terms converge where the
    # first loops, shifting to 20, stopped short: psi^(40)(20) was 5.8e-12 off
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        wants = [(x, mpmath.psi(order, x)) for x in _POLYGAMMA_POINTS]
        bad = [x for x, want in wants if not abs(polygamma_real(order, x) - want) <= 1e-14 * abs(want)]
    assert not bad, bad[:5]


@pytest.mark.parametrize("order,x", [
    (40, 20.0), (30, 20.0), (60, 30.0), (200, 100.0),  # the shift once stopped at max(20, n/2)
    (100, 1000.0), (152, 100.0), (130, 200.0),  # y^(2k+n) once overflowed before the series converged
])
def test_polygamma_converges_before_it_stops(order, x):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        want = mpmath.psi(order, x)
        assert abs(polygamma_real(order, x) - want) <= 1e-14 * abs(want)


_SCAN_ARGUMENTS = (0.25, 0.5, 1.0, 1.7, 2.5, 7.0, 19.5, 20.0, 33.3, 100.0, 1e3, 1e4, 1e5, 1e6, 1e7)


@pytest.mark.parametrize("order", range(0, 400, 19))
def test_polygamma_scan_against_mpmath(order):
    # every value in the normal range of binary64 within 1e-14: a shift to max(20, n/2)
    # left 60 points of the scan over all orders below 400 off by more; this takes every 19th
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for x in _SCAN_ARGUMENTS:
            want = mpmath.psi(order, x)
            if 1e-300 < abs(want) < 1e300:
                assert abs(polygamma_real(order, x) - want) <= 1e-14 * abs(want), x


class TestCotDerivative:
    def test_quarter(self):
        assert abs(cot_derivative(0, 0.25) - math.pi) < 1e-14

    def test_first_derivative_at_half(self):
        assert abs(cot_derivative(1, 0.5) + math.pi**2) < 1e-12

    def test_against_the_written_out_third_derivative(self):
        # d^3/dk^3 pi cot(pi k) = -2 pi^4 csc^2 u (csc^2 u + 2 cot^2 u), u = pi k
        u = math.pi * 0.3
        want = -2 * math.pi**4 * (2 * math.cos(u) ** 2 + 1) / math.sin(u) ** 4
        assert cot_derivative(3, 0.3) == pytest.approx(want, rel=1e-13)

    def test_pole(self):
        with pytest.raises(ValueError):
            cot_derivative(2, 3.0)


class TestNumericConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            NumericConfig(target_abs_tol=0.0)
