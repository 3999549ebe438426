import math
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from logsine import (
    SymbolicValue,
    bell_binomial_convolution,
    bell_cot_closed_form,
    complete_bell,
    complete_bell_recurrence,
    cot_derivative,
    sym_log2,
    sym_pi,
    sym_zeta_odd,
)

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=8)
sequences = st.lists(rationals, min_size=0, max_size=10)
# pi, log 2 and zeta(3) with small rational coefficients, as in the constant rows
small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
symbolic_values = st.builds(
    lambda q, a, b, c: SymbolicValue.rational(q) + sym_pi(1, a) + sym_log2(1, b) + sym_zeta_odd(3, c),
    small, small, small, small,
)

BELL_NUMBERS = [1, 1, 2, 5, 15, 52, 203]


class TestClosedExpansions:
    def test_empty_sequence(self):
        assert complete_bell([], one=Fraction(1)) == 1

    @given(rationals, rationals)
    def test_two_terms(self, a, b):
        assert complete_bell([a, b], one=Fraction(1)) == a**2 + b

    @given(rationals, rationals, rationals)
    def test_three_terms(self, a, b, c):
        assert complete_bell([a, b, c], one=Fraction(1)) == a**3 + 3 * a * b + c

    @given(rationals, rationals, rationals, rationals)
    def test_four_terms(self, a, b, c, d):
        want = a**4 + 6 * a**2 * b + 4 * a * c + d + 3 * b**2
        assert complete_bell([a, b, c, d], one=Fraction(1)) == want

    def test_all_ones_gives_bell_numbers(self):
        for n, want in enumerate(BELL_NUMBERS):
            assert complete_bell([1] * n) == want
            assert complete_bell_recurrence([1] * n) == want


class TestDualRecursion:
    @given(sequences)
    def test_agreement(self, seq):
        one = Fraction(1)
        assert complete_bell(seq, one=one) == complete_bell_recurrence(seq, one=one)

    @given(sequences, st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(lambda c: c != 0))
    def test_homogeneity(self, seq, c):
        if len(seq) > 8:
            seq = seq[:8]
        one = Fraction(1)
        scaled = [c ** (j + 1) * s for j, s in enumerate(seq)]
        assert complete_bell(scaled, one=one) == c ** len(seq) * complete_bell(seq, one=one)


class TestBinomialConvolution:
    @given(rationals, rationals)
    def test_length_one(self, x, y):
        assert bell_binomial_convolution([x], [y], one=Fraction(1)) == x + y

    @given(rationals, rationals, rationals, rationals)
    def test_length_two(self, x, u, y, v):
        got = bell_binomial_convolution([x, u], [y, v], one=Fraction(1))
        assert got == (x + y) ** 2 + (u + v)

    @given(st.lists(rationals, min_size=6, max_size=6), st.lists(rationals, min_size=6, max_size=6))
    def test_equals_bell_of_sum(self, a, b):
        one = Fraction(1)
        merged = [x + y for x, y in zip(a, b)]
        assert bell_binomial_convolution(a, b, one=one) == complete_bell_recurrence(
            merged, one=one
        )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            bell_binomial_convolution([1], [1, 2])


class TestSymbolicSequences:
    @given(st.lists(symbolic_values, max_size=5))
    def test_complete_bell_agrees_with_the_recurrence(self, seq):
        one = SymbolicValue.one()
        assert complete_bell(seq, one=one) == complete_bell_recurrence(seq, one=one)

    @given(st.lists(st.tuples(symbolic_values, symbolic_values), max_size=5))
    def test_convolution_equals_bell_of_sum(self, pairs):
        one = SymbolicValue.one()
        a = [x for x, _ in pairs]
        b = [y for _, y in pairs]
        merged = [x + y for x, y in pairs]
        assert bell_binomial_convolution(a, b, one=one) == complete_bell_recurrence(merged, one=one)


class TestCotSequenceClosedForm:
    @pytest.mark.parametrize("k", [0.1, 0.3, 0.45])
    @pytest.mark.parametrize("n", range(0, 7))
    def test_matches_bell_of_numeric_sequence(self, n, k):
        nu = [cot_derivative(j - 1, k) for j in range(1, n + 1)]
        got = complete_bell(nu, one=1.0)
        assert abs(got - bell_cot_closed_form(n, k)) <= 1e-6 * math.pi**n

    def test_even_case_is_k_free(self):
        assert bell_cot_closed_form(0, 0.3) == 1.0
        assert bell_cot_closed_form(2, 0.1) == bell_cot_closed_form(2, 0.45) == -math.pi**2

    def test_odd_case(self):
        k = 0.3
        want = -math.pi**3 / math.tan(math.pi * k)
        assert abs(bell_cot_closed_form(3, k) - want) < 1e-12

    def test_pole(self):
        with pytest.raises(ValueError):
            bell_cot_closed_form(2, 2.0)
