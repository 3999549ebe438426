import math
from fractions import Fraction
from itertools import accumulate

import hypothesis.strategies as st
import pytest
from hypothesis import given

from logsine import (
    alt_euler_sum_H,
    bernoulli,
    eval_numeric,
    euler_sum_H,
    harmonic,
    polygamma_int,
    polygamma_real,
    sym_pi,
    sym_zeta_bar1,
    zeta_bar1_numeric,
    zeta_even,
)
from logsine import numerics, sym_zeta_odd
from logsine.specialfn import eta_value
from logsine.symbolic import SymbolicValue, sym_zeta


def _rat(q):
    return SymbolicValue.rational(q)


def harmonic_floats(m):
    """H_0, ..., H_m in floats."""
    return list(accumulate((1.0 / k for k in range(1, m + 1)), initial=0.0))


def alternating_bracket(terms):
    """The last two partial sums, each by math.fsum, of a series whose terms alternate
    in sign and fall in magnitude: they bracket its limit, up to the rounding of the terms."""
    terms = list(terms)
    a, b = math.fsum(terms[:-1]), math.fsum(terms)
    return min(a, b), max(a, b)


class TestBernoulli:
    @pytest.mark.parametrize(
        "n,value",
        [(0, Fraction(1)), (1, Fraction(-1, 2)), (2, Fraction(1, 6)), (12, Fraction(-691, 2730))],
    )
    def test_values(self, n, value):
        assert bernoulli(n) == value

    def test_odd_vanish(self):
        assert all(bernoulli(2 * k + 1) == 0 for k in range(1, 16))

    def test_every_value_to_1600_matches_mpmath(self):
        # the tangent-number table against an independent implementation, B_1 included
        mpmath = pytest.importorskip("mpmath")
        for n in range(1601):
            b = bernoulli(n)
            assert (b.numerator, b.denominator) == mpmath.bernfrac(n), n

    def test_a_table_grown_in_steps_equals_one_built_at_once(self, monkeypatch):
        from logsine import specialfn

        want = [bernoulli(n) for n in range(121)]
        monkeypatch.setattr(specialfn, "_bernoulli_table", ((1,), (Fraction(1), Fraction(1, 6))))
        assert bernoulli(30) == Fraction(8615841276005, 14322)
        assert len(specialfn._bernoulli_table[1]) == 16  # B_0, B_2, ..., B_30
        bernoulli(64)
        assert [bernoulli(n) for n in range(121)] == want


class TestHarmonic:
    def test_empty_sum(self):
        assert harmonic(0, 1) == 0

    def test_examples(self):
        assert harmonic(4, 1) == Fraction(25, 12)
        assert harmonic(3, 2) == Fraction(49, 36)

    @given(st.integers(1, 200), st.integers(1, 4))
    def test_recurrence(self, m, r):
        assert harmonic(m, r) == harmonic(m - 1, r) + Fraction(1, m**r)


class TestPolygammaInt:
    def test_at_one(self):
        assert polygamma_int(1, 1) == zeta_even(1)
        assert polygamma_int(2, 1) == -2 * sym_zeta_odd(3)

    def test_shifted(self):
        assert polygamma_int(1, 3) == zeta_even(1) - _rat(Fraction(5, 4))

    def test_order_zero_is_harmonic_difference(self):
        # psi(z) - psi(1), the only gamma-free digamma combination here
        assert polygamma_int(0, 4) == _rat(harmonic(3))

    def test_domain(self):
        with pytest.raises(ValueError):
            polygamma_int(1, 0)

    @pytest.mark.parametrize("order", range(1, 6))
    @pytest.mark.parametrize("z", range(1, 7))
    def test_against_numeric_polygamma(self, order, z):
        sym = eval_numeric(polygamma_int(order, z))
        num = polygamma_real(order, float(z))
        assert abs(sym - num) < 1e-9


def _harmonic_sum_oracle(n: int, terms: int = 10**6) -> float:
    """Brute-force sum of H_k / k^n plus an integral tail estimate."""
    acc = []
    h = 0.0
    for k in range(1, terms + 1):
        h += 1.0 / k
        acc.append(h / float(k) ** n)
    head = math.fsum(acc)
    gamma = -polygamma_real(0, 1.0)
    a = terms + 0.5
    tail = (math.log(a) + gamma) * a ** (1 - n) / (n - 1) + a ** (1 - n) / (n - 1) ** 2
    tail += a**-n / (2 * n)  # from H_x ~ log x + gamma + 1/(2x)
    return head + tail


class TestEulerSums:
    def test_weight_two(self):
        assert euler_sum_H(2) == 2 * sym_zeta_odd(3)

    def test_weight_three_reduces_to_pi4(self):
        assert euler_sum_H(3) == sym_pi(4, Fraction(1, 72))

    def test_weight_four(self):
        expected = 3 * sym_zeta_odd(5) - zeta_even(1) * sym_zeta_odd(3)
        assert euler_sum_H(4) == expected

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_against_brute_force(self, n):
        got = eval_numeric(euler_sum_H(n))
        assert abs(got - _harmonic_sum_oracle(n)) < 1e-6

    def test_rejects_small_weight(self):
        with pytest.raises(ValueError):
            euler_sum_H(1)

    def test_every_weight_to_120_is_the_classical_sum_over_all_zeta_pairs(self):
        # the reference adds the n - 2 products term by term, even pairs and both orders included
        for n in range(2, 121):
            want = Fraction(n + 2, 2) * sym_zeta(n + 1)
            for k in range(1, n - 1):
                want = want - Fraction(1, 2) * (sym_zeta(k + 1) * sym_zeta(n - k))
            got = euler_sum_H(n)
            assert got == want and got.text() == want.text(), n


class TestAlternatingEulerSums:
    def test_weight_three(self):
        assert alt_euler_sum_H(3) == sym_zeta_bar1(3) - Fraction(7, 8) * zeta_even(2)

    def test_weight_five(self):
        assert alt_euler_sum_H(5) == sym_zeta_bar1(5) - Fraction(31, 32) * zeta_even(3)

    def test_rejects_even_weight(self):
        with pytest.raises(ValueError):
            alt_euler_sum_H(4)

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_against_bracketed_partial_sums(self, n):
        got = eval_numeric(alt_euler_sum_H(n))
        # sum (-1)^k H_k / k^n, whose terms fall from k = 1 on
        h = harmonic_floats(5000)
        lo, hi = alternating_bracket((-1) ** k * h[k] / k**n for k in range(1, 5001))
        assert lo - 1e-15 <= got <= hi + 1e-15
        assert hi - lo < 1e-10


class TestZetaBar1:
    def test_double_sum_oracle(self):
        # independent summation order: partial sums of (-1)^k H_{k-1}/k^3, each by
        # math.fsum, bracket the limit 1.2e-14 wide
        h = harmonic_floats(100_000)
        lo, hi = alternating_bracket((-1) ** k * h[k - 1] / k**3 for k in range(2, 100_001))
        assert hi - lo < 2e-14
        assert lo - 1e-15 <= zeta_bar1_numeric(3) <= hi + 1e-15

    def test_alternating_envelope(self):
        h = 0.0
        s = 0.0
        partials = []
        for k in range(1, 40):
            if k >= 2:
                s += (-1) ** k * h / k**3
                partials.append(s)
            h += 1.0 / k
        limit = zeta_bar1_numeric(3)
        for a, b in zip(partials, partials[1:]):
            assert min(a, b) <= limit <= max(a, b)

    def test_catalog_consistency_weight_five(self):
        h = harmonic_floats(1000)
        lo, hi = alternating_bracket((-1) ** k * h[k] / k**5 for k in range(1, 1001))
        want = zeta_bar1_numeric(5) - (1 - 2.0**-5) * eval_numeric(zeta_even(3))
        assert lo - 1e-15 <= want <= hi + 1e-15
        assert hi - lo < 1e-13

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            zeta_bar1_numeric(4)

    @pytest.mark.parametrize("n", range(3, 130, 2))
    def test_is_60_digit_mpmath_rounded(self, n):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            h = [mpmath.mpf(0)]

            def term(k):
                k = int(k)
                while len(h) < k:
                    h.append(h[-1] + mpmath.mpf(1) / len(h))
                return (-1) ** k * h[k - 1] / k**n

            assert zeta_bar1_numeric(n) == float(mpmath.nsum(term, [2, mpmath.inf]))


class TestZetaBar1Cut:
    def test_from_94_on_the_first_term_rounds_the_sum(self):
        # 0 < 1 - 2^n zb1(n) < H_2 (2/3)^n, below 2^-54, half an ulp under 1.0, from n = 94 on
        bound = [Fraction(3, 2) * Fraction(2, 3) ** n for n in (93, 94)]
        assert bound[1] < Fraction(1, 2**54) < bound[0]

    def test_the_cut_sums_no_series(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a series was summed past the cut")

        monkeypatch.setattr(numerics, "_alternating_double", refuse)
        for n in (95, 1073, 1075, 999_999_999):
            assert zeta_bar1_numeric(n) == 0.5**n, n
        assert zeta_bar1_numeric(1073) == 2.0**-1073 and zeta_bar1_numeric(1075) == 0.0
        # past 2^1024 the index itself overflows a float, and the value is still 0.0
        assert zeta_bar1_numeric(2**1024 + 1) == zeta_bar1_numeric(10**400 + 1) == 0.0
        with pytest.raises(AssertionError, match="past the cut"):
            zeta_bar1_numeric(93)


class TestEta:
    def test_eta_values(self):
        assert eta_value(2) == Fraction(1, 2) * zeta_even(1)
        got = eval_numeric(eta_value(3))
        lo, hi = alternating_bracket((-1) ** (k + 1) / k**3 for k in range(1, 20001))
        assert lo - 1e-15 <= got <= hi + 1e-15
        assert hi - lo < 1e-12


class TestConcurrentCaches:
    def test_harmonic_and_bernoulli_under_contention(self):
        from concurrent.futures import ThreadPoolExecutor

        def worker(seed: int):
            out = []
            for i in range(1, 40):
                out.append(harmonic(200 + (seed * i) % 150, 1 + (i % 3)))
                out.append(bernoulli(2 * ((seed + i) % 14)))
            return out

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(worker, range(8)))
        # every thread must observe the same exact values
        for seed, out in enumerate(results):
            assert out == worker(seed)

    def test_harmonic_table_grown_by_racing_threads_matches_exact_sums(self):
        # the re-run above reads the same shared table, so it cannot see a
        # wrong entry; compare what racing threads read from a table they
        # grow from empty with fresh sums
        import sys
        from concurrent.futures import ThreadPoolExecutor

        from logsine import specialfn

        top = 300
        running = [Fraction(0)]
        for m in range(1, top):
            running.append(running[-1] + Fraction(1, m * m))

        def read(worker: int) -> list[tuple[int, Fraction]]:
            # odd workers grow the table at once, even ones a term at a time
            # and may store a shorter tuple over a longer one
            order = range(top)[:: -1 if worker % 2 else 1]
            return sorted((m, harmonic(m, 2)) for m in order)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, mid-extension
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                for _ in range(10):
                    specialfn._harmonic_rows.clear()
                    for seen in pool.map(read, range(8), timeout=60):
                        assert [value for _, value in seen] == running
        finally:
            sys.setswitchinterval(old)
        assert [harmonic(m, 2) for m in range(top)] == running
