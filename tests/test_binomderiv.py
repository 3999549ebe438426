import math
import sys
from fractions import Fraction

import pytest

from logsine import (
    DerivSpec,
    IntegralSpec,
    alt_euler_sum_H,
    binom_deriv,
    central_binom_deriv,
    delta_numeric,
    eta_bar,
    eta_value,
    euler_sum_H,
    eval_numeric,
    harmonic,
    log_sin_power_integral,
    polygamma_int,
    quadrature_value,
    rho,
    shifted_binom_deriv,
    sym_log2,
    sym_pi,
    sym_zeta,
    taylor_coefficient_oracle,
    xi_bar,
    xi_bar_scaled,
)
from logsine import binomderiv, verify
from logsine.bell import complete_bell, complete_bell_all, complete_bell_recurrence
from logsine.binomderiv import _constant_row, _rational_row, _xi_rational
from logsine.cli import MAX_BINOM_DERIV_K, MAX_BINOM_DERIV_P
from logsine.integrals import _ksum
from logsine.symbolic import SymbolicValue, linear_combination, sym_zeta_odd


DELTA_POINTS = [(j, m, k) for m, ks in ((0.5, (0, 1)), (1.5, (0, 1, 2))) for k in ks
                for j in range(1, 5)]


def _rat(q):
    return SymbolicValue.rational(q)


class TestDeltaNumeric:
    def test_vanishes_at_origin(self):
        assert delta_numeric(1, 0.0, 0) == pytest.approx(0.0, abs=1e-13)

    def test_trigamma_combination(self):
        assert delta_numeric(2, 0.0, 0) == pytest.approx(math.pi**2 / 3, abs=1e-12)

    def test_telescoped_digamma(self):
        assert delta_numeric(1, 1.0, 1) == pytest.approx(-1.5, abs=1e-12)

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            delta_numeric(1, 0.0, 1)  # m+1-k = 0

    # pinned bits at the lemma row's points and the inputs above: the Taylor oracle
    # reads the same polygamma sequence, and no change to it may move these values
    @pytest.mark.parametrize("j,m0,k,bits", [
        (1, 0.25, 0, "-0x1.0e4734f052840p-1"),
        (2, 0.25, 0, "0x1.5834760bf6519p+0"),
        (3, 0.25, 0, "0x1.fcc94d8ec507cp+1"),
        (4, 0.25, 0, "0x1.0fb2ddc49956dp+4"),
        (1, 1.5, 1, "-0x1.5f61f978e0d74p+0"),
        (2, 1.5, 1, "-0x1.09f84dd8268bcp-3"),
        (3, 1.5, 1, "-0x1.2fcda0388513ep-2"),
        (4, 1.5, 1, "-0x1.85ea18710a2ccp-1"),
        (1, 0.0, 0, "-0x0.0p+0"),
        (2, 0.0, 0, "0x1.a51a6625307d2p+1"),
        (1, 1.0, 1, "-0x1.8000000000000p+0"),
        (1, 2.0, 0, "-0x1.2aaaaaaaaaaa8p+0"),
    ])
    def test_values_keep_their_bits(self, j, m0, k, bits):
        assert delta_numeric(j, m0, k).hex() == bits

    # the lemma row's 20 points: 2m + 1 is an integer there and m + 1 +- k half-integers,
    # so each delta_j has an exact value over zeta, log 2 and rationals
    @pytest.mark.parametrize("j,m0,k", DELTA_POINTS)
    def test_exact_values_at_half_integer_points(self, j, m0, k):
        assert abs(delta_numeric(j, m0, k) - verify._delta_exact(j, m0, k)) <= 1e-12

    @pytest.mark.parametrize("j,m0,k", DELTA_POINTS)
    def test_exact_values_against_mpmath(self, j, m0, k):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            m = mpmath.mpf(m0)
            want = (-1) ** j * (2**j * mpmath.psi(j - 1, 2 * m + 1) - mpmath.psi(j - 1, m + 1 + k)
                                - mpmath.psi(j - 1, m + 1 - k))
        # the forms at m = 3/2, j = 4 cancel to 1e-13 of their value, 3e-14 absolute
        assert abs(verify._delta_exact(j, m0, k) - float(want)) <= 1e-13


class TestXiBar:
    def test_first(self):
        assert xi_bar(1, 2) == _rat(Fraction(5, 2))
        for k in range(1, 8):
            assert xi_bar(1, k) == _rat(2 * harmonic(k) - Fraction(1, k))

    def test_second(self):
        for k in range(1, 6):
            want = 2 * polygamma_int(1, 1) + _rat(Fraction(1, k**2))
            assert xi_bar(2, k) == want

    def test_scaled_changes_only_first(self):
        assert xi_bar_scaled(1, 3) == xi_bar(1, 3) + sym_log2(1, 2)
        for j in (2, 3, 4):
            assert xi_bar_scaled(j, 3) == xi_bar(j, 3)

    def test_rejects_central_shift(self):
        with pytest.raises(ValueError):
            xi_bar(1, 0)


class TestEtaBar:
    def test_first_vanishes(self):
        assert eta_bar(1).is_zero

    def test_second(self):
        assert eta_bar(2) == sym_pi(2, Fraction(1, 3))

    def test_third(self):
        assert eta_bar(3) == 12 * sym_zeta_odd(3)


class TestRho:
    def test_base_case(self):
        assert rho(1) == sym_pi(2, Fraction(1, 3))

    def test_second(self):
        assert rho(2) == sym_pi(4, Fraction(2, 15))

    def test_third(self):
        assert rho(3) == sym_pi(6, Fraction(16, 63))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_equals_odd_polygamma(self, n):
        assert rho(n) == 2 * polygamma_int(2 * n - 1, 1)


class TestShiftedDerivatives:
    def test_first_order_displayed_form(self):
        for k in range(1, 7):
            want = _rat(Fraction((-1) ** (k + 1), k))
            assert shifted_binom_deriv(DerivSpec(1, k)) == want

    def test_second_order_displayed_form(self):
        for k in range(1, 7):
            want = Fraction(2 * (-1) ** k, k) * _rat(2 * harmonic(k) - Fraction(1, k))
            assert shifted_binom_deriv(DerivSpec(2, k)) == want

    def test_third_order_displayed_form(self):
        for k in range(1, 7):
            hk = _rat(2 * harmonic(k) - Fraction(1, k))
            inner = hk * hk + _rat(Fraction(1, k**2)) + 2 * polygamma_int(1, 1)
            want = Fraction(3 * (-1) ** (k + 1), k) * inner
            assert shifted_binom_deriv(DerivSpec(3, k)) == want

    def test_fourth_order_displayed_form(self):
        for k in range(1, 7):
            hk = _rat(2 * harmonic(k) - Fraction(1, k))
            inner = (
                hk * hk * hk
                + 3 * (hk * (2 * polygamma_int(1, 1) + _rat(Fraction(1, k**2))))
                + 2 * polygamma_int(2, k)
                + _rat(Fraction(2, k**3))
                - 8 * polygamma_int(2, 1)
            )
            want = Fraction(4 * (-1) ** k, k) * inner
            assert shifted_binom_deriv(DerivSpec(4, k)) == want

    def test_order_zero_vanishes(self):
        assert shifted_binom_deriv(DerivSpec(0, 3)).is_zero

    @pytest.mark.parametrize("p", range(1, 6))
    @pytest.mark.parametrize("k", range(1, 5))
    @pytest.mark.parametrize("scaled", [False, True])
    def test_against_taylor_oracle(self, p, k, scaled):
        spec = DerivSpec(p, k, scaled)
        got = eval_numeric(shifted_binom_deriv(spec))
        assert abs(got - taylor_coefficient_oracle(spec)) < 1e-8


class TestCentralDerivatives:
    def test_order_zero(self):
        assert central_binom_deriv(DerivSpec(0, 0)) == SymbolicValue.one()

    def test_order_one(self):
        assert central_binom_deriv(DerivSpec(1, 0)).is_zero
        assert central_binom_deriv(DerivSpec(1, 0, scaled=True)) == sym_log2(1, -2)

    def test_order_two(self):
        assert central_binom_deriv(DerivSpec(2, 0)) == sym_pi(2, Fraction(1, 3))
        want = sym_log2(2, 4) + sym_pi(2, Fraction(1, 3))
        assert central_binom_deriv(DerivSpec(2, 0, scaled=True)) == want

    def test_order_three_unscaled(self):
        assert central_binom_deriv(DerivSpec(3, 0)) == -12 * sym_zeta_odd(3)

    @pytest.mark.parametrize("p", range(0, 7))
    @pytest.mark.parametrize("scaled", [False, True])
    def test_against_taylor_oracle(self, p, scaled):
        spec = DerivSpec(p, 0, scaled)
        got = eval_numeric(central_binom_deriv(spec))
        assert abs(got - taylor_coefficient_oracle(spec)) < 1e-8


class TestParityStructure:
    def test_alpha_sequence_inner_terms(self):
        # the Bell row over (0, -rho_1, 0, -rho_2, ...) alternates between 0
        # and the exact even values (-1)^i pi^{2i} / (2i+1)
        max_i = 4
        alpha = []
        for j in range(1, 2 * max_i + 1):
            if j % 2 == 1:
                alpha.append(SymbolicValue.zero())
            else:
                alpha.append(-1 * rho(j // 2))
        terms = complete_bell_all(alpha, one=SymbolicValue.one())
        for i in range(0, max_i + 1):
            if 2 * i + 1 <= len(alpha):
                assert terms[2 * i + 1].is_zero
            want = sym_pi(2 * i, Fraction((-1) ** i, 2 * i + 1))
            assert terms[2 * i] == want


class TestTaylorOracle:
    def test_first_derivative_shift_three(self):
        assert taylor_coefficient_oracle(DerivSpec(1, 3)) == pytest.approx(1 / 3, abs=1e-10)

    def test_scaled_second_derivative_matches_symbolic(self):
        spec = DerivSpec(2, 2, scaled=True)
        got = taylor_coefficient_oracle(spec)
        want = eval_numeric(shifted_binom_deriv(spec))
        assert abs(got - want) < 1e-9

    def test_central_third(self):
        want = eval_numeric(-12 * sym_zeta_odd(3))
        assert abs(taylor_coefficient_oracle(DerivSpec(3, 0)) - want) < 1e-9

    @pytest.mark.parametrize("p", range(1, 7))
    @pytest.mark.parametrize("scaled", [False, True])
    def test_central_vs_the_moment_identity(self, p, scaled):
        # int_0^{pi/2} sin^{2m} x dx = (pi/2) 4^-m binom(2m, m), differentiated p times at
        # m = 0, and its full-angle form int_0^pi (2 sin(t/2))^{2m} dt = pi binom(2m, m)
        if scaled:
            want = 2 ** (p + 1) / math.pi * quadrature_value(IntegralSpec(0, p, "pi/2"))
        else:
            want = -(2**p) / math.pi * quadrature_value(IntegralSpec(0, p, "pi", form="ls"))
        got = taylor_coefficient_oracle(DerivSpec(p, 0, scaled))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("p,k", [(p, k) for p in range(13) for k in range(7)]
                             + [(20, 0), (40, 0), (20, 30)])
    @pytest.mark.parametrize("scaled", [False, True])
    def test_high_orders_vs_exact_floats(self, p, k, scaled):
        spec = DerivSpec(p, k, scaled)
        want = eval_numeric(binom_deriv(spec))
        assert taylor_coefficient_oracle(spec) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("k", [0, 1, 5, 30])
    @pytest.mark.parametrize("scaled", [False, True])
    def test_against_mpmath_derivatives(self, k, scaled):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(20):
            f = lambda m: (mpmath.gamma(2 * m + 1) * mpmath.rgamma(m + 1 + k)
                           * mpmath.rgamma(m + 1 - k) * mpmath.power(4, -m * scaled))
            wants = [float(d) for d in mpmath.diffs(f, 0, 20)]
        for p, want in enumerate(wants):
            got = taylor_coefficient_oracle(DerivSpec(p, k, scaled))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12), p

    def test_each_log_gamma_derivative_is_computed_once(self, monkeypatch):
        binomderiv._log_gamma_deriv_at_zero.cache_clear()
        specs = [DerivSpec(6, k, scaled) for k in (0, 3) for scaled in (False, True)]
        first = [taylor_coefficient_oracle(spec) for spec in specs]
        calls = []
        polygamma = binomderiv.polygamma_real
        monkeypatch.setattr(binomderiv, "polygamma_real",
                            lambda n, x: calls.append((n, x)) or polygamma(n, x))
        assert [taylor_coefficient_oracle(spec) for spec in specs] == first  # the same bits
        assert calls == []


class TestGeneralArgumentDerivatives:
    """The complete Bell polynomial of the delta sequence gives the p-th
    m-derivative of binom(2m, m+k) at a general m0, times (-1)^p binom."""

    @staticmethod
    def _derivative(p, m0, k):
        binom = math.gamma(2 * m0 + 1) / (math.gamma(m0 + 1 + k) * math.gamma(m0 + 1 - k))
        deltas = [delta_numeric(j, m0, k) for j in range(1, p + 1)]
        return (-1.0) ** p * binom * complete_bell(deltas, one=1.0)

    def test_first_derivative_central(self):
        # binom(4, 2) (2 psi(5) - 2 psi(3)) = 6 * 2 (1/3 + 1/4) = 7
        assert abs(self._derivative(1, 2.0, 0) - 7.0) < 1e-13

    def test_second_derivative_shifted(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            f = lambda m: mpmath.gamma(2 * m + 1) * mpmath.rgamma(m + 2) * mpmath.rgamma(m)
            want = float(mpmath.diff(f, mpmath.mpf(1.5), 2))
        assert abs(self._derivative(2, 1.5, 1) - want) < 1e-13


class TestCaching:
    def test_xi_bar_cached_instances(self):
        assert xi_bar(3, 2) is xi_bar(3, 2)

    def test_eta_bar_cached(self):
        assert eta_bar(4) is eta_bar(4)

    def test_cache_safe_under_concurrent_reads(self):
        from concurrent.futures import ThreadPoolExecutor

        xi_bar.cache_clear()

        def worker(base: int):
            return [xi_bar(1 + (base + i) % 5, 1 + i % 7) for i in range(30)]

        with ThreadPoolExecutor(max_workers=6) as pool:
            results = list(pool.map(worker, range(6)))
        for base, out in enumerate(results):
            assert out == worker(base)


def _bell_over_xi_bar(p: int, k: int, scaled: bool) -> SymbolicValue:
    # the defining form: (-1)^{p+k} (p/k) B_{p-1} over the symbolic xi_bar values
    maker = xi_bar_scaled if scaled else xi_bar
    bell = complete_bell_recurrence([maker(j, k) for j in range(1, p)], one=SymbolicValue.one())
    return Fraction((-1) ** (p + k) * p, k) * bell


class TestBellBinomialSplit:
    @pytest.mark.parametrize("p", range(1, 13))
    @pytest.mark.parametrize("scaled", [False, True])
    def test_equals_bell_over_xi_bar(self, p, scaled):
        for k in range(1, 31):
            got = shifted_binom_deriv(DerivSpec(p, k, scaled))
            want = _bell_over_xi_bar(p, k, scaled)
            assert got == want
            assert eval_numeric(got) == eval_numeric(want)  # same float bits

    @pytest.mark.parametrize("j", range(1, 10))
    def test_xi_bar_is_constant_plus_rational(self, j):
        # the k-free eta_bar_j carries every generator, r_j(k) is rational
        for k in range(1, 31):
            assert xi_bar(j, k) == eta_bar(j) + _xi_rational(j, k)
            assert xi_bar(j, k) - eta_bar(j) == _xi_rational(j, k)

    @pytest.mark.parametrize("j", range(2, 10))
    def test_xi_bar_matches_its_polygamma_definition(self, j):
        # xi_bar_j = (-2)^j psi^{(j-1)}(1) + 2[j odd] psi^{(j-1)}(k)
        #            - 2[j even] psi^{(j-1)}(1) + (j-1)!/k^j
        psi_one = polygamma_int(j - 1, 1)
        for k in range(1, 12):
            want = (-2) ** j * psi_one + _rat(Fraction(math.factorial(j - 1), k**j))
            want = want + (2 * polygamma_int(j - 1, k) if j % 2 else -2 * psi_one)
            assert xi_bar(j, k) == want

    def test_central_row_is_the_constant_row(self):
        for scaled in (False, True):
            for p in range(0, 10):
                first = sym_log2(1, 2) if scaled else SymbolicValue.zero()
                seq = ([first] + [eta_bar(j) for j in range(2, p + 1)])[:p]
                want = (-1) ** p * complete_bell_recurrence(seq, one=SymbolicValue.one())
                assert central_binom_deriv(DerivSpec(p, 0, scaled)) == want


class TestCachedValuesStayPut:
    def test_arithmetic_leaves_cached_values_unchanged(self):
        cached = [
            central_binom_deriv(DerivSpec(6, 0, True)),
            *_constant_row(6, True),
            euler_sum_H(5),
            alt_euler_sum_H(5),
            eta_value(4),
            sym_zeta(6),
            sym_zeta(7),
            xi_bar(3, 4),
        ]
        before = [dict(v.terms) for v in cached]
        for v in cached:
            for other in (v, 3, Fraction(-1, 2), sym_log2(1), SymbolicValue.zero()):
                _ = v + other, v - other, v * other, other * v, -v, v**2
        shifted_binom_deriv(DerivSpec(7, 3, True))
        shifted_binom_deriv(DerivSpec(7, 4, True))
        assert [dict(v.terms) for v in cached] == before
        assert central_binom_deriv(DerivSpec(6, 0, True)).terms == before[0]

    def test_scalar_products_share_no_term_map(self):
        value = central_binom_deriv(DerivSpec(5, 0, True))
        for scalar in (1, Fraction(1), 0):
            product = scalar * value
            assert product._terms is not value._terms


class TestRationalRow:
    @pytest.mark.parametrize("k", [1, 2, 7, 30])
    def test_ascending_and_descending_orders_agree(self, k):
        orders = (range(1, 13), range(12, 0, -1), (5, 12, 3, 9, 1, 11, 2, 8, 4, 10, 6, 7))
        texts = []
        for order in orders:
            _rational_row.cache_clear()
            got = {(p, scaled): shifted_binom_deriv(DerivSpec(p, k, scaled)).text()
                   for p in order for scaled in (False, True)}
            texts.append(sorted(got.items()))
        assert texts[0] == texts[1] == texts[2]
        assert len(texts[0]) == 24

    def test_a_row_is_a_prefix_of_every_longer_row(self):
        _rational_row.cache_clear()
        lcm, short = _rational_row(3, 4)
        lcm_longer, longer = _rational_row(9, 4)
        assert lcm == lcm_longer == 12
        assert longer[: len(short)] == short and len(longer) == 10
        assert _rational_row(2, 4)[1] is longer  # a shorter request reads the stored row
        fresh = complete_bell_all([_xi_rational(j, 4) for j in range(1, 10)], Fraction(1))
        assert [Fraction(b, lcm**i) for i, b in enumerate(longer)] == fresh

    def test_the_integer_sequence_is_the_harmonic_number_form(self):
        # r_j(k) = (j-1)!/k^j + 2 (j-1)! H_{k-1}^{(j)} [j odd], by Fractions
        for j in range(1, 15):
            fact = math.factorial(j - 1)
            for k in range(1, 41):
                want = Fraction(fact, k**j) + (2 * fact * harmonic(k - 1, j) if j % 2 else 0)
                assert _xi_rational(j, k) == want, (j, k)

    @pytest.mark.parametrize("k_values,n", [(range(1, 61), 20), ((200,), 39)])
    def test_the_integer_row_is_the_fraction_row_times_powers_of_lcm(self, k_values, n):
        # B_i(L s_1, L^2 s_2, ...) = L^i B_i(s), L = lcm(1..k), over integers r_j(k) L^j
        _rational_row.cache_clear()
        for k in k_values:
            lcm, row = _rational_row(n, k)
            assert lcm == math.lcm(*range(1, k + 1))
            seq = [_xi_rational(j, k) for j in range(1, n + 1)]
            assert all((r * lcm**j).denominator == 1 for j, r in enumerate(seq, 1)), k
            fresh = complete_bell_all(seq, Fraction(1))
            assert all(type(b) is int for b in row) and len(row) == n + 1
            assert [Fraction(b, lcm**i) for i, b in enumerate(row)] == fresh, k


class TestConstantRow:
    def test_rows_grown_in_any_order_equal_fresh_builds(self):
        fresh = {}
        for scaled in (False, True):
            first = sym_log2(1, 2) if scaled else SymbolicValue.zero()
            seq = [first] + [eta_bar(j) for j in range(2, 15)]
            fresh[scaled] = complete_bell_all(seq, SymbolicValue.one())
        orders = (range(15), range(14, -1, -1), (5, 12, 0, 3, 14, 9, 1, 11, 2, 8, 13, 4, 10, 6, 7))
        for order in orders:
            _constant_row.cache_clear()
            for n in order:
                for scaled in (True, False):
                    row = _constant_row(n, scaled)
                    assert list(row) == fresh[scaled][: n + 1], (n, scaled)
                    assert [v.text() for v in row] == [v.text() for v in fresh[scaled][: n + 1]]
        _constant_row.cache_clear()  # as TestConcurrentDerivatives clears it
        assert not binomderiv._constant_rows


def _weight(mono) -> int:
    # pi and log 2 weigh 1, zeta(j) and zb1(j) weigh j
    return sum(exp * (index if rank >= 2 else 1) for (rank, index), exp in mono)


class TestGradedProduct:
    @pytest.mark.parametrize("scaled", [False, True])
    def test_each_constant_row_entry_is_homogeneous_of_its_index(self, scaled):
        # so B_{n-i}(c) and B_{n-j}(c) share no monomial for i != j; unscaled, B_1(c) = c_1 = 0
        row = _constant_row(20, scaled)
        for j, value in enumerate(row):
            assert {_weight(mono) for mono in value._terms} <= {j}, j
        assert [value.is_zero for value in row] == [j == 1 and not scaled for j in range(21)]

    @pytest.mark.parametrize("scaled", [False, True])
    def test_equals_the_accumulator_over_the_same_weights_and_rows(self, scaled):
        for p in range(1, 15):
            n = p - 1
            for k in range(1, 31):
                lcm, rational = _rational_row(n, k)
                sign_p = (-1) ** (p + k) * p
                weights = [(math.comb(n, i) * sign_p * r, k * lcm**i) for i, r in enumerate(rational[: n + 1])]
                want = linear_combination(weights, _constant_row(n, scaled)[n::-1])
                got = shifted_binom_deriv(DerivSpec(p, k, scaled))
                assert got._terms == want._terms, (p, k)  # the same reduced pairs


class TestTextDigitMargin:
    @pytest.mark.parametrize("k", [0, 30, MAX_BINOM_DERIV_K])
    @pytest.mark.parametrize("scaled", [False, True])
    def test_the_largest_outputs_stay_below_the_int_to_str_limit(self, k, scaled):
        # text() converts each coefficient with str(), which refuses an int of more than
        # 4,300 digits; the largest output today, at p = 40, k = 200, has 3,493
        value, bound = binom_deriv(DerivSpec(MAX_BINOM_DERIV_P, k, scaled)), 10**4300
        assert all(abs(num) < bound and den < bound for num, den in value._terms.values())


class TestConcurrentDerivatives:
    def test_eight_threads_agree_with_one(self):
        from concurrent.futures import ThreadPoolExecutor

        specs = [DerivSpec(p, k, scaled) for p in range(0, 11) for k in (0, 1, 2, 5, 13, 30)
                 for scaled in (False, True)]
        # exact closed forms share the central derivatives and fill the k-sum cache
        specs += [IntegralSpec(n, p, z) for z in ("pi", "pi/2") for n in range(7) for p in range(3)]

        def compute(spec):
            if isinstance(spec, IntegralSpec):
                value = log_sin_power_integral(spec).value
            else:
                value = binom_deriv(spec)
            return value.text(), eval_numeric(value)

        def clear():
            for fn in (_constant_row, _rational_row, _ksum, xi_bar, eta_bar, euler_sum_H, sym_zeta):
                fn.cache_clear()

        clear()
        serial = [compute(s) for s in specs]
        clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often while they fill the caches together
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                threaded = list(pool.map(compute, specs[::-1], timeout=120))[::-1]
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial
