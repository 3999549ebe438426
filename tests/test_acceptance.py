"""Acceptance suite: every exit criterion at its stated tolerance.

Each test covers one criterion, prints one pass/fail line (visible under
``pytest -s``), and asserts.  The reference closed forms asserted here are
the published table values this package reproduces, with the one erratum
below corrected.

Erratum in the reference table: the published entry for the n=1, p=3
integral at z=pi, ``3/8*pi^2*zeta3 - 1/16*pi^4*log2 - 1/4*pi^2*log2^3``
(= -0.5927), is half of the true value with the sign of the zeta3 term
flipped.  Criterion 1 asserts the corrected entry
``-3/4*pi^2*zeta3 - 1/8*pi^4*log2 - 1/2*pi^2*log2^3`` (= -18.98113...),
which three independent checks confirm:

- reflection: x -> pi - x gives int_0^pi x f(sin x) dx
  = (pi/2) int_0^pi f(sin x) dx, and pi/2 times the classical n=0, p=3
  value -pi*log2^3 - 1/4*pi^3*log2 - 3/2*pi*zeta3 is the corrected entry
  (criterion 1 asserts this identity exactly for p = 1..6);
- the tanh-sinh quadrature oracle agrees within 1e-9;
- mpmath at 40 digits gives -18.98113496319915737934401662070450101809,
  which the corrected closed form matches to 4e-38.

The classical value is in Lewin, *Polylogarithms and Associated Functions*
(1981); cf. Borwein & Straub, "Special values of generalized log-sine
integrals" (ISSAC 2011).
"""

import math
import random
from fractions import Fraction

from logsine import (
    DerivSpec,
    IntegralSpec,
    NumericConfig,
    complete_bell,
    complete_bell_recurrence,
    bell_binomial_convolution,
    bell_cot_closed_form,
    cot_derivative,
    eval_numeric,
    harmonic,
    log_sin_power_integral,
    log_sine_any_angle,
    log_sine_integral,
    parse_text,
    polygamma_int,
    polygamma_real,
    quadrature_value,
    rho,
    shifted_binom_deriv,
    sine_power_moment_exact,
    sym_pi,
    tanh_sinh_quadrature,
    taylor_coefficient_oracle,
)
from logsine.specialfn import alt_euler_sum_H, euler_sum_H
from logsine.symbolic import SymbolicValue

CFG = NumericConfig()


def _report(name: str, failures: list[str]):
    status = "PASS" if not failures else "FAIL"
    print(f"[ACCEPTANCE] {name}: {status}")
    assert not failures, "\n".join(failures)


# -- criterion 1: integral table at z = pi -------------------------------------

TABLE_PI = {
    (1, 2): "1/24*pi^4 + 1/2*pi^2*log2^2",
    (2, 2): "13/360*pi^5 + pi*zeta3*log2 + 1/3*pi^3*log2^2",
    (3, 2): "1/30*pi^6 + 3/2*pi^2*zeta3*log2 + 1/4*pi^4*log2^2",
    (4, 2): "37/1260*pi^7 + 2*pi^3*zeta3*log2 - 3*pi*zeta5*log2 + 3/2*pi*zeta3^2 + 1/5*pi^5*log2^2",
    # Corrected entry.  The published table reads
    # 3/8*pi^2*zeta3 - 1/16*pi^4*log2 - 1/4*pi^2*log2^3 (= -0.5927): half of
    # the true value with the sign of the zeta3 term flipped.  The value below
    # is pi/2 times the classical n=0 value (reflection x -> pi - x, asserted
    # exactly in the test), agrees with tanh-sinh quadrature within 1e-9, and
    # matches mpmath at 40 digits (-18.98113496319915737934401662070450101809)
    # to 4e-38.  See the module docstring.
    (1, 3): "-3/4*pi^2*zeta3 - 1/8*pi^4*log2 - 1/2*pi^2*log2^3",
}

# int_0^pi log^3(sin x) dx (Lewin 1981), the n=0 side of the reflection.
CLASSICAL_N0_P3 = "-pi*log2^3 - 1/4*pi^3*log2 - 3/2*pi*zeta3"


def test_criterion_1_integral_table_at_pi():
    failures = []
    for (n, p), text in sorted(TABLE_PI.items()):
        spec = IntegralSpec(n, p, "pi")
        res = log_sin_power_integral(spec)
        oracle = quadrature_value(spec, CFG)
        if abs(res.numeric - oracle) > 1e-9:
            failures.append(
                f"(n={n},p={p}): |closed-form - quadrature| = {abs(res.numeric - oracle):.2e} > 1e-9"
            )
        if res.value != parse_text(text):
            failures.append(
                f"(n={n},p={p}): closed form {res.value.text()} != reference table entry {text}"
            )
    # Reflection x -> pi - x: int_0^pi x f(sin x) dx = (pi/2) int_0^pi f(sin x) dx.
    # With the n=0, p=3 value pinned to the classical one, this ties the
    # corrected (1, 3) entry to pi/2 times that classical value.
    for p in range(1, 7):
        n1 = log_sin_power_integral(IntegralSpec(1, p, "pi")).value
        n0 = log_sin_power_integral(IntegralSpec(0, p, "pi")).value
        if p == 3 and n0 != parse_text(CLASSICAL_N0_P3):
            failures.append(f"(n=0,p=3): {n0.text()} != classical value {CLASSICAL_N0_P3}")
        if n1 != sym_pi(1, Fraction(1, 2)) * n0:
            failures.append(
                f"(p={p}): n=1 value {n1.text()} != pi/2 * n=0 value {n0.text()}"
            )
    _report(
        "criterion 1 (integral table at z=pi exact incl. corrected (1,3) entry, "
        "quadrature 1e-9, reflection n=1 = pi/2*n=0 exact for p<=6)",
        failures,
    )


# -- criterion 2: log-sine table at 2pi -----------------------------------------

TABLE_LS_2PI = {
    (2, 1): "-1/6*pi^4",
    (3, 1): "3*pi^2*zeta3",
    (2, 2): "-13/45*pi^5",
    (2, 3): "-8/15*pi^6",
    (2, 4): "-296/315*pi^7 - 48*pi*zeta3^2",
    (2, 5): "-100/63*pi^8 - 240*pi^2*zeta3^2",
}


def test_criterion_2_log_sine_table_at_2pi():
    failures = []
    for (p, n), text in sorted(TABLE_LS_2PI.items()):
        res = log_sine_integral(p, n, "2pi")
        if res.value != parse_text(text):
            failures.append(f"Ls_{p+n+1}^({n})(2pi): {res.value.text()} != {text}")
        oracle = quadrature_value(IntegralSpec(n, p, "2pi", form="ls"), CFG)
        if abs(res.numeric - oracle) > 1e-9:
            failures.append(
                f"Ls_{p+n+1}^({n})(2pi): |closed - quadrature| = {abs(res.numeric - oracle):.2e}"
            )
    _report("criterion 2 (log-sine table at 2pi, 1e-9)", failures)


# -- criterion 3: integral table at pi/2 ------------------------------------------

TABLE_HALF_PI = {
    (1, 2): "11/2880*pi^4 + 1/8*pi^2*log2^2 - 7/8*zeta3*log2 + 1/2*zb1_3",
    (2, 2): "1/960*pi^5 + 1/24*pi^3*log2^2 - 3/8*pi*zeta3*log2 + 1/2*pi*zb1_3",
    (3, 2): "23/26880*pi^6 + 1/64*pi^4*log2^2 + 3/8*pi^2*zb1_3 - 3/4*zb1_5 "
    "- 3/8*zeta3^2 - 9/32*pi^2*zeta3*log2 + 93/64*zeta5*log2",
}


def test_criterion_3_integral_table_at_half_pi():
    failures = []
    for (n, p), text in sorted(TABLE_HALF_PI.items()):
        spec = IntegralSpec(n, p, "pi/2")
        res = log_sin_power_integral(spec)
        if res.value != parse_text(text):
            failures.append(f"(n={n},p={p}): {res.value.text()} != {text}")
        oracle = quadrature_value(spec, CFG)
        if abs(res.numeric - oracle) > 1e-8:
            failures.append(
                f"(n={n},p={p}): |closed - quadrature| = {abs(res.numeric - oracle):.2e}"
            )
    _report("criterion 3 (integral table at pi/2 incl. zb1 terms, 1e-8)", failures)


# -- criterion 4: log-sine table at pi ---------------------------------------------

TABLE_LS_PI = {
    (2, 1): "-11/720*pi^4 - 2*zb1_3",
    (2, 2): "-1/120*pi^5 - 4*pi*zb1_3",
    (2, 3): "-23/1680*pi^6 - 6*pi^2*zb1_3 + 6*zeta3^2 + 12*zb1_5",
    (2, 4): "-1/420*pi^7 - 8*pi^3*zb1_3 + 48*pi*zb1_5",
}


def test_criterion_4_log_sine_table_at_pi():
    failures = []
    for (p, n), text in sorted(TABLE_LS_PI.items()):
        res = log_sine_integral(p, n, "pi")
        if res.value != parse_text(text):
            failures.append(f"Ls_{p+n+1}^({n})(pi): {res.value.text()} != {text}")
        oracle = quadrature_value(IntegralSpec(n, p, "pi", form="ls"), CFG)
        if abs(res.numeric - oracle) > 1e-8:
            failures.append(
                f"Ls_{p+n+1}^({n})(pi): |closed - quadrature| = {abs(res.numeric - oracle):.2e}"
            )
    _report("criterion 4 (log-sine table at pi, 1e-8)", failures)


# -- criterion 5: shifted binomial derivative formulas ------------------------------


def _displayed_derivative(p: int, k: int) -> SymbolicValue:
    rat = SymbolicValue.rational
    hk = rat(2 * harmonic(k) - Fraction(1, k))
    if p == 1:
        return rat(Fraction((-1) ** (k + 1), k))
    if p == 2:
        return Fraction(2 * (-1) ** k, k) * hk
    if p == 3:
        inner = hk * hk + rat(Fraction(1, k**2)) + 2 * polygamma_int(1, 1)
        return Fraction(3 * (-1) ** (k + 1), k) * inner
    inner = (
        hk * hk * hk
        + 3 * (hk * (2 * polygamma_int(1, 1) + rat(Fraction(1, k**2))))
        + 2 * polygamma_int(2, k)
        + rat(Fraction(2, k**3))
        - 8 * polygamma_int(2, 1)
    )
    return Fraction(4 * (-1) ** k, k) * inner


def test_criterion_5_derivative_formulas():
    failures = []
    for p in range(1, 5):
        for k in range(1, 7):
            got = shifted_binom_deriv(DerivSpec(p, k))
            want = _displayed_derivative(p, k)
            if got != want:
                failures.append(f"p={p} k={k}: {got.text()} != {want.text()}")
    for p in range(1, 6):
        for k in range(1, 7):
            spec = DerivSpec(p, k)
            got = eval_numeric(shifted_binom_deriv(spec))
            want = taylor_coefficient_oracle(spec)
            if abs(got - want) > 1e-8:
                failures.append(f"p={p} k={k}: |symbolic - oracle| = {abs(got - want):.2e}")
    _report("criterion 5 (derivative formulas p<=4 symbolic, p<=5 vs oracle)", failures)


# -- criterion 6: Bell values over cotangent-derivative sequences --------------------


def test_criterion_6_cot_bell_closed_form():
    failures = []
    for n in range(0, 7):
        for k in (0.1, 0.3, 0.45):
            nu = [cot_derivative(j - 1, k) for j in range(1, n + 1)]
            got = complete_bell(nu, one=1.0)
            want = bell_cot_closed_form(n, k)
            if abs(got - want) > 1e-6 * math.pi**n:
                failures.append(f"n={n} k={k}: |{got} - {want}| > 1e-6*pi^n")
    _report("criterion 6 (cot-sequence Bell closed form, 1e-6*pi^n)", failures)


# -- criterion 7: the rho recursion ---------------------------------------------------


def test_criterion_7_rho_recursion_exact():
    failures = []
    for n in range(1, 7):
        lhs = rho(n)
        rhs = 2 * polygamma_int(2 * n - 1, 1)
        if lhs != rhs:
            failures.append(f"n={n}: {lhs.text()} != {rhs.text()}")
    _report("criterion 7 (rho recursion equals 2*psi^(2n-1)(1) exactly)", failures)


# -- criterion 8: sine-power moments vs quadrature -------------------------------------


def test_criterion_8_moments():
    failures = []
    for z_token, z in (("pi/2", math.pi / 2), ("pi", math.pi)):
        for n in range(0, 6):
            for m in range(0, 6):
                got = eval_numeric(sine_power_moment_exact(n, m, z_token))
                want = tanh_sinh_quadrature(
                    lambda x: x**n * math.sin(x) ** (2 * m), 0.0, z, CFG
                )
                if abs(got - want) > 1e-10:
                    failures.append(f"n={n} m={m} z={z_token}: {abs(got - want):.2e}")
    for z_token in ("pi/2", "pi"):
        for n in range(0, 9):
            frac = Fraction(1) if z_token == "pi" else Fraction(1, 2 ** (n + 1))
            want = sym_pi(n + 1, frac / (n + 1))
            if sine_power_moment_exact(n, 0, z_token) != want:
                failures.append(f"degeneracy n={n} z={z_token}")
    _report("criterion 8 (moment closed forms vs quadrature 1e-10, m=0 exact)", failures)


# -- criterion 9: arbitrary-angle series at pi/2 ----------------------------------------


def test_criterion_9_any_angle_series():
    failures = []
    for p in (1, 2, 3):
        val, _ = log_sine_any_angle(p, math.pi / 2)
        want = -tanh_sinh_quadrature(
            lambda x, p=p: math.log(2 * math.sin(x / 2)) ** p, 0.0, math.pi / 2, CFG
        )
        if abs(val - want) > 1e-7:
            failures.append(f"p={p}: |series - quadrature| = {abs(val - want):.2e}")
    _report("criterion 9 (Bell + sine series at pi/2, p<=3, 1e-7)", failures)


# -- criterion 10: property suites --------------------------------------------------------


def _random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-8, 8), rng.randint(1, 9))


def test_criterion_10_property_suites():
    failures = []
    rng = random.Random(20260811)

    for n in range(0, 11):
        seq = [_random_fraction(rng) for _ in range(n)]
        # the binomial identity over (s_1, 0, ..., 0) + (0, s_2, ..., s_n)
        first, rest = [*seq[:1], *(0 * s for s in seq[1:])], [*(0 * s for s in seq[:1]), *seq[1:]]
        if complete_bell(seq, one=Fraction(1)) != bell_binomial_convolution(first, rest, one=Fraction(1)):
            failures.append(f"dual Bell recursion mismatch at n={n}")

    for _ in range(5):
        a = [_random_fraction(rng) for _ in range(6)]
        b = [_random_fraction(rng) for _ in range(6)]
        merged = [x + y for x, y in zip(a, b)]
        if bell_binomial_convolution(a, b, one=Fraction(1)) != complete_bell_recurrence(
            merged, one=Fraction(1)
        ):
            failures.append("binomial convolution identity failed")

    for order in range(0, 6):
        for x in (0.5, 1.0, 2.5):
            lhs = polygamma_real(order, x + 1) - polygamma_real(order, x)
            rhs = (-1.0) ** order * math.factorial(order) / x ** (order + 1)
            if abs(lhs - rhs) > 1e-8 * max(1.0, abs(rhs)):
                failures.append(f"polygamma recurrence order={order} x={x}")
    for order in range(0, 5):
        z = 0.3
        lhs = polygamma_real(order, 1 - z) - (-1.0) ** order * polygamma_real(order, z)
        rhs = (-1.0) ** order * cot_derivative(order, z)
        if abs(lhs - rhs) > 1e-8 * max(1.0, abs(rhs)):
            failures.append(f"polygamma reflection order={order}")

    gamma = -polygamma_real(0, 1.0)
    for n in (2, 3, 4, 5):
        acc = []
        h = 0.0
        terms = 10**6
        for k in range(1, terms + 1):
            h += 1.0 / k
            acc.append(h / float(k) ** n)
        a = terms + 0.5
        tail = (math.log(a) + gamma) * a ** (1 - n) / (n - 1) + a ** (1 - n) / (
            n - 1
        ) ** 2 + a**-n / (2 * n)
        brute = math.fsum(acc) + tail
        if abs(eval_numeric(euler_sum_H(n)) - brute) > 1e-6:
            failures.append(f"harmonic Euler sum n={n} vs brute force")
    for n in (3, 5):
        h = 0.0
        s = 0.0
        terms = 200001
        for k in range(1, terms):
            h += 1.0 / k
            s += (-1) ** k * h / float(k) ** n
        bound = (h + 1.0 / terms) / float(terms) ** n
        got = eval_numeric(alt_euler_sum_H(n))
        if abs(got - s) > bound + 1e-6:
            failures.append(f"alternating Euler sum n={n} vs brute force")
    _report("criterion 10 (Bell/polygamma/Euler-sum property suites)", failures)
