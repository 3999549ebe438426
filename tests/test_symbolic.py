import math
import sys
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from logsine import eval_numeric, parse_text, sym_pi, sym_zeta, symbolic, zeta_even
from logsine.symbolic import (
    SymbolicValue,
    _generator_value,
    _mono_merge,
    graded_combination,
    linear_combination,
    pi_power_combination,
    sym_log2,
    sym_zeta_bar1,
    sym_zeta_odd,
)
from fresh import run_fresh

generators = st.sampled_from(
    [sym_pi(), sym_log2(), sym_zeta_odd(3), sym_zeta_odd(5), sym_zeta_bar1(3), sym_zeta_bar1(5)]
)
coefficients = st.fractions(
    min_value=-50, max_value=50, max_denominator=40
).filter(lambda q: q != 0)
# rational weights in the ring's own form, not reduced: zero and negative numerators too
int_pairs = st.tuples(st.integers(-60, 60), st.integers(1, 40))


@st.composite
def monomials(draw):
    """A product of powers of up to three generators, each power at most 4."""
    mono = SymbolicValue.one()
    for gen, exp in draw(st.dictionaries(generators, st.integers(1, 4), max_size=3)).items():
        mono = mono * gen**exp
    return mono


@st.composite
def symbolic_values(draw):
    terms = draw(st.dictionaries(monomials(), coefficients, max_size=4))
    return sum((coef * mono for mono, coef in terms.items()), SymbolicValue.zero())


def assert_canonical(value):
    """Every stored coefficient is a reduced int pair (num, den), den > 0, num != 0."""
    for num, den in value._terms.values():
        assert type(num) is int and type(den) is int
        assert den > 0 and num != 0 and math.gcd(num, den) == 1


def fraction_sum(*maps):
    """The sum of monomial -> Fraction maps by Fraction arithmetic, zeros dropped."""
    out = {}
    for terms in maps:
        for mono, coef in terms.items():
            out[mono] = out.get(mono, Fraction(0)) + coef
    return {mono: coef for mono, coef in out.items() if coef}


def fraction_product(a, b):
    return fraction_sum(*({_mono_merge(m1, m2): c1 * c2} for m1, c1 in a.items() for m2, c2 in b.items()))


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
        rebuilt = SymbolicValue(a.terms)
        assert rebuilt == a
        assert SymbolicValue(rebuilt.terms) == rebuilt


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

    def test_each_power_is_computed_once_and_kept(self):
        symbolic._generator_powers.clear()
        value = sym_pi(3, 2) + sym_pi(3) * sym_zeta_odd(3) + sym_log2(2)
        eval_numeric(value)
        assert symbolic._generator_powers == {
            (gen, exp): _generator_value(gen) ** exp
            for gen, exp in (((0, 0), 3), ((2, 3), 1), ((1, 0), 2))}

    def test_cached_powers_give_the_bits_of_a_pow_per_factor(self):
        from logsine.binomderiv import DerivSpec, shifted_binom_deriv
        from logsine.integrals import IntegralSpec, log_sin_power_integral, log_sine_integral

        def per_factor(value):  # each factor's power taken afresh, as before the cache
            terms = []
            for mono, (num, den) in value._terms.items():
                x = num / den
                for gen, exp in mono:
                    x *= _generator_value(gen) ** exp
                terms.append(x)
            return math.fsum(terms)

        # every exact hit at n <= 30, p <= 2 of the four tables, and the benchmark's 600 shifted derivatives
        values = [log_sin_power_integral(IntegralSpec(n, p, z)).value
                  for z in ("pi", "pi/2") for n in range(31) for p in range(3)]
        values += [log_sine_integral(p, n, theta).value
                   for theta in ("pi", "2pi") for n in range(31) for p in range(3)]
        values += [shifted_binom_deriv(DerivSpec(p, k, scaled))
                   for p in range(1, 11) for k in range(1, 31) for scaled in (False, True)]
        symbolic._generator_powers.clear()
        for _ in range(2):  # the pass that fills the cache and the one that reads it
            assert [eval_numeric(v).hex() for v in values] == [per_factor(v).hex() for v in values]

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

    @pytest.mark.parametrize("text", ["pi -", "pi ++ zeta3", "pi + - zeta3", "- - pi", "+", "pi*2 -"])
    def test_a_doubled_stray_or_trailing_sign_raises(self, text):
        with pytest.raises(ValueError, match="sign"):
            parse_text(text)

    @pytest.mark.parametrize("text", [
        "", "   ", "pi^1.9", "pi^2.0", "pi^x", "pi^", "pi^-1", "pi^2^3", "0.1*pi", "2.0",
        "1/0", "1/0*pi", "0/0", "1//2", "foo", "zeta", "zb1", "zb1_", "zeta3_1", "Pi",
        "1e3*pi", "nan", "pi**2", "pi*", "*pi", "(pi)",
    ])
    def test_text_that_is_not_a_value_raises_value_error(self, text):
        with pytest.raises(ValueError):
            parse_text(text)

    @pytest.mark.parametrize("text,canonical", [
        ("zeta3 + pi", "pi + zeta3"),
        ("log2*pi", "pi*log2"),
        ("zb1_3 + zeta3 + log2 + pi + 1", "1 + pi + log2 + zeta3 + zb1_3"),
        ("pi + 1/2", "1/2 + pi"),
        ("2/4*pi", "1/2*pi"),
        ("1/1*pi", "pi"),
        ("3*pi - 2*pi", "pi"),
        ("log2^1*log2", "log2^2"),
        ("0*pi", "0"),
        ("-0", "0"),
        ("zeta5*pi - pi*zeta5", "0"),
    ])
    def test_text_in_any_order_reads_back_to_its_canonical_text(self, text, canonical):
        assert parse_text(text).text() == canonical

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str limit")
    @pytest.mark.parametrize("limit", [None, 640])
    @pytest.mark.within(10)
    def test_a_coefficient_past_the_int_digit_limit_prints_whole(self, limit, monkeypatch):
        """Polygamma past binary64 raises OverflowError; a 4,401-digit coefficient prints whole"""
        # 10^4400 + 1 has 4,401 digits, past the interpreter's default 4,300-digit limit
        before, set_limit = sys.get_int_max_str_digits(), sys.set_int_max_str_digits
        value = SymbolicValue.rational(Fraction(10**4400 + 1, 3))
        digits = "1" + "0" * 4399 + "1"

        def refuse(digits):
            raise AssertionError("printing a value changed the interpreter-wide digit limit")

        try:
            if limit:
                set_limit(limit)
            monkeypatch.setattr(sys, "set_int_max_str_digits", refuse)
            assert value.text() == digits + "/3"
            assert (-sym_pi() * value).text() == f"-{digits}/3*pi"
            assert SymbolicValue.rational(Fraction(-7, 10**4400 + 1)).text() == f"-7/{digits}"
            assert sys.get_int_max_str_digits() == (limit or before)
        finally:
            set_limit(before)

    def test_a_leading_sign_is_kept(self):
        assert parse_text("+ pi - zeta3") == sym_pi() - sym_zeta_odd(3)
        assert parse_text("-pi") == -sym_pi()

    def test_a_long_text_is_parsed_without_adding_values(self, monkeypatch):
        # the term map is built once: adding term by term copies the map per term
        monos = [sym_pi(i) * sym_log2(j) for i in range(50) for j in range(45)]
        coefs = [Fraction((-1) ** i * (j + 1), i + 2) for i in range(50) for j in range(45)]
        value = linear_combination(coefs, monos)
        text = value.text()
        calls = []
        for name in ("__add__", "__radd__"):
            add = getattr(SymbolicValue, name)
            monkeypatch.setattr(SymbolicValue, name, lambda a, b, add=add: calls.append(b) or add(a, b))
        assert parse_text(text) == value
        assert parse_text("pi + 1/2*pi - log2 + log2") == sym_pi(1, Fraction(3, 2))
        assert len(value.terms) >= 2000 and not calls


class TestCanonicalStore:
    @given(symbolic_values(), symbolic_values(), coefficients | st.integers(-6, 6), st.integers(0, 3))
    def test_every_operation_stores_reduced_pairs_equal_to_fraction_arithmetic(self, a, b, q, e):
        fa, fb = a.terms, b.terms
        scaled = {mono: q * coef for mono, coef in fa.items()}
        power = {(): Fraction(1)}
        for _ in range(e):
            power = fraction_product(power, fa)
        cases = [
            (a + b, fraction_sum(fa, fb)),
            (a - b, fraction_sum(fa, {mono: -coef for mono, coef in fb.items()})),
            (a * b, fraction_product(fa, fb)),
            (a**e, power),
            (q * a, fraction_sum(scaled)),
            (a * q, fraction_sum(scaled)),
            (linear_combination([q, Fraction(-3, 4)], [a, b]),
             fraction_sum(scaled, {mono: Fraction(-3, 4) * coef for mono, coef in fb.items()})),
        ]
        for got, want in cases:
            assert_canonical(got)
            assert got.terms == want
            assert all(type(coef) is Fraction for coef in got.terms.values())


class TestGeneratorValidation:
    @pytest.mark.parametrize("name", ["zeta4", "zeta1", "zb1_2", "zb1_1"])
    def test_zeta_index_must_be_odd_and_at_least_3(self, name):
        with pytest.raises(ValueError, match="odd and >= 3"):
            parse_text(f"2*pi*{name}")

    @pytest.mark.parametrize("build", [sym_zeta_odd, sym_zeta_bar1])
    @pytest.mark.parametrize("j", [4, 1, -3])
    def test_the_constructors_refuse_the_same_indices(self, build, j):
        with pytest.raises(ValueError, match="odd and >= 3"):
            build(j)

    def test_equal_by_value(self):
        assert sym_zeta_odd(3) == sym_zeta_odd(3) and hash(sym_zeta_odd(3)) == hash(sym_zeta_odd(3))
        assert sym_zeta_odd(3) != sym_zeta_bar1(3)

    def test_sym_zeta_dispatch(self):
        assert sym_zeta(4) == zeta_even(2)
        assert sym_zeta(5) == sym_zeta_odd(5)


class TestPickle:
    # a str hashes differently in another process, so a value must keep no
    # hash of one: a value pickled in one must load right in the next
    BUILD = (
        "from logsine.symbolic import sym_log2, sym_pi, sym_zeta_odd\n"
        "v = sym_pi(2) + sym_log2(1) + sym_zeta_odd(3, 2) * sym_pi(1)\n"
    )

    def run(self, code: str, seed: str, stdin: str = "") -> str:
        return run_fresh(self.BUILD + code, env={"PYTHONHASHSEED": seed}, stdin=stdin).stdout

    @pytest.mark.parametrize("seed", ["1", "2"])
    def test_a_value_pickled_in_one_process_loads_in_another(self, seed):
        blob = self.run("import pickle; print(pickle.dumps(v).hex())", "0")  # hex: the pipes carry text
        out = self.run(
            "import pickle, sys\n"
            "w = pickle.loads(bytes.fromhex(sys.stdin.read()))\n"
            "print(w == v, (w + sym_pi(2)).text())",
            seed,
            blob,
        )
        fresh = sym_pi(2) + sym_log2(1) + sym_zeta_odd(3, 2) * sym_pi(1) + sym_pi(2)
        assert out == f"True {fresh.text()}\n"


class TestLinearCombination:
    @given(st.lists(st.tuples(coefficients | st.just(Fraction(0)), symbolic_values()), max_size=6))
    def test_equals_the_ring_sum(self, pairs):
        weights, values = [w for w, _ in pairs], [v for _, v in pairs]
        want = sum((w * v for w, v in pairs), SymbolicValue.zero())
        got = linear_combination(weights, values)
        assert got == want
        assert_canonical(got)

    @given(st.lists(st.tuples(coefficients, symbolic_values()), min_size=1, max_size=4))
    def test_cancellation_leaves_zero(self, pairs):
        weights = [w for w, _ in pairs] + [-w for w, _ in pairs]
        values = [v for _, v in pairs] * 2
        got = linear_combination(weights, values)
        assert got.is_zero and got._terms == {}

    def test_empty_input_is_zero(self):
        assert linear_combination([], []).is_zero

    @given(st.lists(st.tuples(coefficients | symbolic_values(), symbolic_values()), max_size=4),
           coefficients | st.just(Fraction(0)))
    def test_symbolic_weights_and_a_scale_equal_the_ring_sum(self, pairs, scale):
        weights, values = [w for w, _ in pairs], [v for _, v in pairs]
        want = scale * sum((w * v for w, v in pairs), SymbolicValue.zero())
        got = linear_combination(weights, values, scale)
        assert got == want
        assert_canonical(got)

    @given(st.lists(st.tuples(int_pairs | coefficients | symbolic_values(), symbolic_values()),
                    max_size=5),
           coefficients | st.just(Fraction(0)))
    def test_int_pair_weights_equal_the_ring_sum(self, pairs, scale):
        # an int pair (num, den), den > 0, is the rational num/den, reduced or not
        def weight(w):
            return Fraction(*w) if type(w) is tuple else w
        want = scale * sum((weight(w) * v for w, v in pairs), SymbolicValue.zero())
        got = linear_combination([w for w, _ in pairs], [v for _, v in pairs], scale)
        assert got == want
        assert_canonical(got)

    def test_an_unreduced_pair_is_its_rational(self):
        v = sym_pi(2, Fraction(1, 6)) + Fraction(1, 4)
        got = linear_combination([(6, 4), (0, 7), (-3, 9)], [v, sym_log2(), v])
        assert got == Fraction(7, 6) * v
        assert got.text() == "7/24 + 7/36*pi^2"
        assert_canonical(got)

    @pytest.mark.parametrize("scaled", [False, True])
    def test_shifted_derivatives_store_reduced_coefficients(self, scaled):
        from logsine.binomderiv import DerivSpec, shifted_binom_deriv

        for p in range(1, 11):
            for k in range(1, 31):
                assert_canonical(shifted_binom_deriv(DerivSpec(p, k, scaled)))

    @pytest.mark.parametrize("z", ["pi", "pi/2"])
    def test_sine_power_moments_store_reduced_coefficients(self, z):
        from logsine.integrals import sine_power_moment_exact

        for n in range(11):
            for m in range(11):
                assert_canonical(sine_power_moment_exact(n, m, z))

    def test_integer_weights_and_shared_denominators(self):
        v = sym_pi(2, Fraction(1, 6)) + Fraction(1, 4)
        got = linear_combination([3, Fraction(1, 2), -4], [v, v, sym_log2(1, Fraction(1, 6))])
        assert got == Fraction(7, 2) * v - 4 * sym_log2(1, Fraction(1, 6))
        assert got.text() == "7/8 + 7/12*pi^2 - 2/3*log2"


class TestPiPowerCombination:
    # weights num/den pi^e over few exponents, so that exponents repeat; zero numerators too
    pi_weights = st.tuples(st.integers(0, 3), st.integers(-60, 60), st.integers(1, 40))

    @given(st.lists(st.tuples(pi_weights, symbolic_values() | int_pairs), max_size=6),
           st.tuples(st.integers(-12, 12), st.integers(1, 12)))
    def test_equals_the_accumulator_over_pi_values(self, pairs, scale):
        # each weight (e, num, den) is the value sym_pi(e, num/den), and an int-pair value
        # (num, den) the rational num/den
        def value(v):
            return SymbolicValue.rational(Fraction(*v)) if type(v) is tuple else v
        weights, values = [w for w, _ in pairs], [v for _, v in pairs]
        got = pi_power_combination(weights, values, scale)
        want = linear_combination([sym_pi(e, Fraction(num, den)) for e, num, den in weights],
                                  [value(v) for v in values], Fraction(*scale))
        assert got == want and got.text() == want.text()
        assert_canonical(got)

    def test_two_weights_on_one_exponent_over_rationals_are_summed(self):
        # pi^0 twice: 1/2 * 3/4 + (-5/6) * 1/2 = -1/24, then times -2/3
        got = pi_power_combination([(2, 1, 3), (0, 1, 2), (0, -5, 6)], [(7, 1), (3, 4), (2, 4)], (-2, 3))
        assert got.text() == "1/36 - 14/9*pi^2"


class TestGradedCombination:
    @given(st.lists(st.tuples(int_pairs, symbolic_values()), max_size=5))
    def test_values_with_no_shared_monomial_give_the_accumulator_pairs(self, pairs):
        # pi's exponent is at most 4 in a drawn value, so pi^(5 i) keeps the values apart
        weights = [w for w, _ in pairs]
        values = [sym_pi(5 * i) * v for i, (_, v) in enumerate(pairs)]
        got = graded_combination(weights, values)
        assert got._terms == linear_combination(weights, values)._terms
        assert_canonical(got)

    def test_a_shared_monomial_raises(self):
        with pytest.raises(ValueError, match="share no monomial"):
            graded_combination([(1, 2), (3, 4)], [sym_pi(2) + 1, sym_log2() + sym_pi(2, 3)])


class TestMonomial:
    @given(st.permutations(["pi^2", "log2", "zeta3", "zb1_5^3"]))
    def test_equality_and_hash_ignore_factor_order(self, factors):
        canonical = parse_text("pi^2*log2*zeta3*zb1_5^3")
        mono = parse_text("*".join(factors))
        assert mono == canonical and hash(mono) == hash(canonical)
        assert mono.text() == canonical.text() == "pi^2*log2*zeta3*zb1_5^3"
        assert {mono: 1}[canonical] == 1

    def test_a_monomial_key_is_its_sorted_rank_index_exponent_tuple(self):
        assert (sym_log2() * sym_pi(2)).terms == {(((0, 0), 2), ((1, 0), 1)): 1}
        assert SymbolicValue.one().terms == {(): 1}

    def test_unequal_monomials(self):
        assert sym_pi(2) != sym_pi(3)
        assert sym_pi() != sym_log2()
        assert SymbolicValue.one() != "1"

    @pytest.mark.parametrize("text", ["pi^0", "log2^0*zeta3"])
    def test_exponents_must_be_at_least_1(self, text):
        with pytest.raises(ValueError, match="exponents"):
            parse_text(text)

    def test_text_merges_a_repeated_generator(self):
        assert parse_text("pi*pi") == sym_pi(2)
        assert parse_text("pi*log2*pi^2").text() == "pi^3*log2"

    @given(st.integers(1, 60), monomials())
    def test_a_pi_power_times_a_monomial_is_the_general_merge(self, e, value):
        # the accumulator shifts pi's exponent inline, whichever side the power of pi is on
        (mono,) = value._terms  # one monomial, 1 included
        (pi,) = sym_pi(e)._terms
        products = (sym_pi(e) * value, value * sym_pi(e), pi_power_combination([(e, 1, 1)], [value]))
        assert all(list(product._terms) == [_mono_merge(pi, mono)] for product in products)

    def test_product_merges_exponents(self):
        a, b = sym_log2() * sym_pi(2), sym_pi() * sym_zeta_odd(3)
        assert a * b == parse_text("pi^3*log2*zeta3")
        assert (a * b).text() == "pi^3*log2*zeta3"
