import json
import math
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from logsine import eval_numeric, parse_text, sym_pi, sym_zeta, zeta_even
from logsine.symbolic import (
    LOG2,
    PI,
    Generator,
    Monomial,
    SymbolicValue,
    from_json_obj,
    linear_combination,
    sym_log2,
    sym_zeta_bar1,
    sym_zeta_odd,
    zb1_gen,
    zeta_gen,
)

generators = st.sampled_from([PI, LOG2, zeta_gen(3), zeta_gen(5), zb1_gen(3), zb1_gen(5)])
coefficients = st.fractions(
    min_value=-50, max_value=50, max_denominator=40
).filter(lambda q: q != 0)


@st.composite
def monomials(draw):
    pairs = draw(st.lists(st.tuples(generators, st.integers(1, 3)), max_size=3))
    merged: dict[Generator, int] = {}
    for gen, exp in pairs:
        merged[gen] = min(merged.get(gen, 0) + exp, 4)
    return Monomial(tuple(merged.items()))


@st.composite
def symbolic_values(draw):
    terms = draw(st.dictionaries(monomials(), coefficients, max_size=4))
    return SymbolicValue(terms)


class TestRingLaws:
    @given(symbolic_values(), symbolic_values(), symbolic_values())
    def test_add_mul_laws(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(symbolic_values())
    def test_additive_inverse(self, a):
        assert (a - a).is_zero
        assert a + SymbolicValue.zero() == a
        assert a * SymbolicValue.one() == a

    @given(symbolic_values())
    def test_normalization_idempotent(self, a):
        assert a.normalize() == a
        assert a.normalize().normalize() == a.normalize()


class TestExamples:
    def test_pi_squared_product(self):
        v = sym_pi(2, Fraction(1, 6))
        assert v * v == sym_pi(4, Fraction(1, 36))

    def test_zeta3_collect(self):
        assert 2 * sym_zeta_odd(3) + 3 * sym_zeta_odd(3) == sym_zeta_odd(3, 5)

    def test_cancellation_empty_map(self):
        v = sym_pi(4, Fraction(1, 24)) + sym_log2(2, Fraction(1, 2)) * sym_pi(2)
        assert (v - v).is_zero
        assert (v - v).terms == {}


class TestZetaEven:
    @pytest.mark.parametrize(
        "k,expected",
        [
            (1, sym_pi(2, Fraction(1, 6))),
            (2, sym_pi(4, Fraction(1, 90))),
            (5, sym_pi(10, Fraction(1, 93555))),
        ],
    )
    def test_known_values(self, k, expected):
        assert zeta_even(k) == expected

    @pytest.mark.parametrize("k", range(1, 7))
    def test_against_direct_summation(self, k):
        cutoff = 100000
        direct = math.fsum([1.0 / m ** (2 * k) for m in range(1, cutoff + 1)])
        # Euler-Maclaurin continuation of the tail from the cutoff
        a = float(cutoff)
        s = 2 * k
        direct += a ** (1 - s) / (s - 1) - 0.5 * a**-s + s / 12.0 * a ** (-s - 1)
        assert abs(eval_numeric(zeta_even(k)) - direct) < 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            zeta_even(0)


class TestEvalNumeric:
    def test_pi_squared_over_six(self):
        assert abs(eval_numeric(zeta_even(1)) - 1.6449340668482264) < 1e-12

    def test_zeta3(self):
        assert abs(eval_numeric(sym_zeta_odd(3)) - 1.2020569031595943) < 1e-12

    def test_log2_power(self):
        assert abs(eval_numeric(sym_log2(3)) - math.log(2.0) ** 3) < 1e-14

    # the terms overflow to +inf, or to +inf and -inf, which math.fsum refuses
    @pytest.mark.parametrize("minus", [0, 10**201])
    def test_terms_that_overflow_raise_overflow(self, minus):
        with pytest.raises(OverflowError):
            eval_numeric(sym_pi(300, 10**200) - sym_pi(299, minus) + 1)

    @given(symbolic_values(), symbolic_values())
    def test_ring_homomorphism(self, a, b):
        lhs = eval_numeric(a * b)
        rhs = eval_numeric(a) * eval_numeric(b)
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))


class TestSerialization:
    def test_canonical_text(self):
        v = sym_pi(4, Fraction(-11, 720)) - 2 * sym_zeta_bar1(3)
        assert v.text() == "-11/720*pi^4 - 2*zb1_3"

    def test_zero_text(self):
        assert SymbolicValue.zero().text() == "0"
        assert parse_text("0").is_zero

    @given(symbolic_values())
    def test_text_round_trip(self, a):
        assert parse_text(a.text()) == a

    @given(symbolic_values())
    def test_json_round_trip(self, a):
        payload = json.dumps(a.to_json_obj())
        assert from_json_obj(json.loads(payload)) == a

    def test_json_shape(self):
        v = sym_pi(4, Fraction(-11, 720))
        assert v.to_json_obj() == {"terms": [{"coef": "-11/720", "mono": [["pi", 4]]}]}


class TestGeneratorValidation:
    def test_zeta_index_must_be_odd(self):
        with pytest.raises(ValueError):
            Generator("zeta", 4)
        with pytest.raises(ValueError):
            Generator("zb1", 2)

    def test_sym_zeta_dispatch(self):
        assert sym_zeta(4) == zeta_even(2)
        assert sym_zeta(5) == sym_zeta_odd(5)


class TestLinearCombination:
    @given(st.lists(st.tuples(coefficients | st.just(Fraction(0)), symbolic_values()), max_size=6))
    def test_equals_the_ring_sum(self, pairs):
        weights, values = [w for w, _ in pairs], [v for _, v in pairs]
        want = sum((w * v for w, v in pairs), SymbolicValue.zero())
        got = linear_combination(weights, values)
        assert got == want
        assert all(type(c) is Fraction and c for c in got._terms.values())

    @given(st.lists(st.tuples(coefficients, symbolic_values()), min_size=1, max_size=4))
    def test_cancellation_leaves_zero(self, pairs):
        weights = [w for w, _ in pairs] + [-w for w, _ in pairs]
        values = [v for _, v in pairs] * 2
        got = linear_combination(weights, values)
        assert got.is_zero and got._terms == {}

    def test_empty_input_is_zero(self):
        assert linear_combination([], []).is_zero

    def test_integer_weights_and_shared_denominators(self):
        v = sym_pi(2, Fraction(1, 6)) + Fraction(1, 4)
        got = linear_combination([3, Fraction(1, 2), -4], [v, v, sym_log2(1, Fraction(1, 6))])
        assert got == Fraction(7, 2) * v - 4 * sym_log2(1, Fraction(1, 6))
        assert got.text() == "7/8 + 7/12*pi^2 - 2/3*log2"


class TestMonomial:
    @given(st.permutations([(PI, 2), (LOG2, 1), (zeta_gen(3), 1), (zb1_gen(5), 3)]))
    def test_equality_and_hash_ignore_factor_order(self, factors):
        canonical = Monomial(((PI, 2), (LOG2, 1), (zeta_gen(3), 1), (zb1_gen(5), 3)))
        mono = Monomial(tuple(factors))
        assert mono == canonical and hash(mono) == hash(canonical)
        assert mono.factors == canonical.factors
        assert mono.sort_key == canonical.sort_key
        assert {mono: 1}[canonical] == 1

    def test_unequal_monomials(self):
        assert Monomial(((PI, 2),)) != Monomial(((PI, 3),))
        assert Monomial(((PI, 1),)) != Monomial(((LOG2, 1),))
        assert Monomial() != "1"

    def test_validation_still_raises(self):
        with pytest.raises(ValueError, match="exponents"):
            Monomial(((PI, 0),))
        with pytest.raises(ValueError, match="duplicate"):
            Monomial(((PI, 1), (LOG2, 2), (PI, 3)))

    def test_product_merges_exponents(self):
        a, b = Monomial(((LOG2, 1), (PI, 2))), Monomial(((PI, 1), (zeta_gen(3), 1)))
        assert a * b == Monomial(((PI, 3), (LOG2, 1), (zeta_gen(3), 1)))
        assert a * Monomial() is a and Monomial() * b is b
        assert (a * b).text() == "pi^3*log2*zeta3"
