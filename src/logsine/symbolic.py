"""Exact constant algebra over the generator set {pi, log 2, zeta(odd), zb1(odd)}.

A :class:`SymbolicValue` is a rational-coefficient linear combination of
monomials in a small fixed set of transcendental generators:

* ``pi``
* ``log2``   (log 2)
* ``zeta{j}``  for odd j >= 3  (zeta(j))
* ``zb1_{j}``  for odd j >= 3  (the alternating double sum
  sum_{n1>n2>0} (-1)^n1 / (n1^j n2))

A generator is the int pair ``(rank, index)``: ``(0, 0)`` pi, ``(1, 0)``
log 2, ``(2, j)`` zeta(j), ``(3, j)`` zb1(j).  A monomial is the tuple of its
``((rank, index), exponent)`` pairs sorted by generator, ``()`` being 1, so
plain tuple order is the canonical text order and no hash depends on the
process.  Even zeta values are never stored: they reduce eagerly to rational
multiples of pi powers, so equality of closed forms is plain map equality
after normalization.  Each coefficient is stored as a reduced int pair
``(num, den)``, den > 0, and the ring's arithmetic runs in Python ints;
:class:`fractions.Fraction` values are built only by the ``terms`` view.
The one serialized form is the canonical text of :meth:`SymbolicValue.text`,
which :func:`parse_text` reads back.  All arithmetic is exact.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

RationalLike = Fraction | int

_PREFIXES = ("pi", "log2", "zeta", "zb1_")
_PI, _LOG2 = (0, 0), (1, 0)


def _key(rank: int, index: int) -> tuple[int, int]:
    if index < 3 or index % 2 == 0:
        kind = ("zeta", "zb1")[rank - 2]
        raise ValueError(f"{kind} generator index must be odd and >= 3, got {index}")
    return (rank, index)


_GEN_NAME_RE = re.compile(r"^(?:pi|log2|zeta(\d+)|zb1_(\d+))$")


def _key_from_name(name: str) -> tuple[int, int]:
    m = _GEN_NAME_RE.match(name)
    if not m:
        raise ValueError(f"unknown generator name {name!r}")
    if m[1]:
        return _key(2, int(m[1]))
    if m[2]:
        return _key(3, int(m[2]))
    return _PI if name == "pi" else _LOG2


def _name(key: tuple[int, int]) -> str:
    rank, index = key
    return _PREFIXES[rank] + str(index) if rank >= 2 else _PREFIXES[rank]


def _monomial(factors: Mapping[tuple[int, int], int]) -> tuple:
    if any(exp < 1 for exp in factors.values()):
        raise ValueError("monomial exponents must be >= 1")
    return tuple(sorted(factors.items()))


def _mono_merge(a: tuple, b: tuple) -> tuple:
    """The product of two monomials."""
    if not b:
        return a
    if not a:
        return b
    merged = dict(a)
    for gen, exp in b:
        merged[gen] = merged.get(gen, 0) + exp
    return tuple(sorted(merged.items()))


def _mono_text(mono: tuple) -> str:
    return "*".join(_name(gen) if exp == 1 else f"{_name(gen)}^{exp}" for gen, exp in mono)


def _reduced(num: int, den: int) -> tuple[int, int]:
    g = math.gcd(num, den)
    return num // g, den // g


def _collect(rows) -> dict[tuple, tuple[int, int]]:
    """The stored terms of the sum over ``rows`` (shift, num, den, terms) of num/den pi^shift
    times each term, a (monomial, (num, den)) pair, every den > 0.  It is the ring's one loop
    over products: pi is the first generator, so pi^shift times a monomial raises pi's
    exponent or prepends pi, inline, with no merge and no sort; each monomial's products are
    summed as one unreduced fraction over the lcm of their denominators, and reduced by one
    gcd at the end."""
    sums: dict[tuple, list[int]] = {}
    for shift, n1, d1, terms in rows:
        for mono, (n2, d2) in terms:
            if shift:
                mono = (((_PI, shift + mono[0][1]),) + mono[1:] if mono and mono[0][0] == _PI
                        else ((_PI, shift),) + mono)
            num, den = n1 * n2, d1 * d2
            acc = sums.get(mono)
            if acc is None:
                sums[mono] = [num, den]
            elif acc[1] == den:
                acc[0] += num
            else:  # over lcm(acc_den, den) = acc_den * (den / g), g their gcd
                g = math.gcd(acc[1], den)
                acc[0] = acc[0] * (den // g) + num * (acc[1] // g)
                acc[1] *= den // g
    terms = {}
    for mono, (num, den) in sums.items():
        if num:
            g = math.gcd(num, den)
            terms[mono] = (num // g, den // g)
    return terms


def _coef_text(num: int, den: int) -> str:
    try:
        return str(num) if den == 1 else f"{num}/{den}"  # as str(Fraction(num, den))
    except ValueError:  # past the int-to-str digit limit, which guards parsing text, not a value:
        # an int Decimal is exact and prints the digits of str, with no limit
        return str(Decimal(num)) if den == 1 else f"{Decimal(num)}/{Decimal(den)}"


class SymbolicValue:
    """Exact rational linear combination of generator monomials.

    Values are immutable in practice: every operation returns a fresh
    instance whose map holds each monomial's coefficient as a reduced int
    pair (num, den), den > 0 and num != 0.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple, RationalLike] | None = None):
        pairs = [(mono, (coef.numerator, coef.denominator)) for mono, coef in (terms or {}).items()]
        self._terms = _collect([(0, 1, 1, pairs)])

    @staticmethod
    def _of(terms: dict[tuple, tuple[int, int]]) -> "SymbolicValue":
        out = SymbolicValue.__new__(SymbolicValue)
        out._terms = terms
        return out

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "SymbolicValue":
        return SymbolicValue._of({})

    @staticmethod
    def one() -> "SymbolicValue":
        return _single((), 1)

    @staticmethod
    def rational(q: RationalLike) -> "SymbolicValue":
        return _single((), q)

    # -- views -------------------------------------------------------------

    @property
    def terms(self) -> dict[tuple, Fraction]:
        """The map from each monomial, a sorted tuple of ((rank, index),
        exponent) pairs, to its nonzero coefficient, built afresh."""
        return {mono: Fraction(*pair) for mono, pair in self._terms.items()}

    @property
    def is_zero(self) -> bool:
        return not self._terms

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self._terms)
        for mono, (n2, d2) in other._terms.items():
            n1, d1 = terms.get(mono, (0, d2))
            num, den = (n1 + n2, d1) if d1 == d2 else (n1 * d2 + n2 * d1, d1 * d2)
            if num:
                terms[mono] = _reduced(num, den) if n1 else (num, den)  # n1 = 0: a new term
            else:
                del terms[mono]
        return SymbolicValue._of(terms)

    __radd__ = __add__

    def __neg__(self):
        return SymbolicValue._of({m: (-n, d) for m, (n, d) in self._terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if type(other) is not SymbolicValue:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            qn, qd = other.numerator, other.denominator  # a rational scalar keeps every monomial
            return SymbolicValue._of(
                {m: _reduced(n * qn, d * qd) for m, (n, d) in self._terms.items()} if qn else {}
            )
        return linear_combination((self,), (other,))

    __rmul__ = __mul__

    def __pow__(self, exp: int):
        if not isinstance(exp, int) or exp < 0:
            raise ValueError("symbolic powers must be nonnegative integers")
        result = SymbolicValue.one()
        base = self
        e = exp
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        return f"SymbolicValue({self.text()})"

    # -- serialization -----------------------------------------------------

    def text(self) -> str:
        """Canonical text form, e.g. ``-11/720*pi^4 - 2*zb1_3``."""
        if not self._terms:
            return "0"
        parts = []
        for mono in sorted(self._terms):
            num, den = self._terms[mono]
            mag = _coef_text(abs(num), den)
            if not mono:
                body = mag
            else:
                body = _mono_text(mono) if mag == "1" else f"{mag}*{_mono_text(mono)}"
            parts.append(f" {'-' if num < 0 else '+'} {body}")
        out = "".join(parts)  # the leading " + " goes, a leading " - " keeps its sign
        return out[3:] if out[1] == "+" else "-" + out[3:]


def linear_combination(weights, values, scale: RationalLike = 1) -> SymbolicValue:
    """scale * sum_i w_i v_i for SymbolicValues v_i and weights w_i that are rationals,
    int pairs (num, den) with den > 0, not necessarily reduced, or SymbolicValues, in one
    pass of the ring's accumulator: the scale enters each weight unreduced, and each
    monomial's coefficient is summed as one integer fraction and reduced once at the end."""
    sn, sd = scale.numerator, scale.denominator
    rows = [row for w, v in zip(weights, values)
            for row in _weight_rows(w, v._terms.items(), sn, sd)] if sn else []
    return SymbolicValue._of(_collect(rows))


def graded_combination(weights, values) -> SymbolicValue:
    """sum_i w_i v_i for int-pair weights (num, den), den > 0, not necessarily reduced, over
    values no two of which share a monomial, as homogeneous values of distinct weights never
    do (pi and log 2 weigh 1, zeta(j) and zb1(j) weigh j).  Each coefficient is then one
    product, written out with no sum: each weight is reduced once, and its product with a
    reduced coefficient num/den is cross-reduced (Knuth, TAOCP vol. 2, section 4.5.1), with
    g1 = gcd(w_num, den) and g2 = gcd(num, w_den), (w_num/g1)(num/g2) over (w_den/g2)(den/g1),
    two gcds of the factors in place of the accumulator's one of their product.  Values that
    share a monomial raise ValueError."""
    gcd = math.gcd
    terms: dict[tuple, tuple[int, int]] = {}
    size = 0
    for (wn, wd), value in zip(weights, values):
        if not wn:
            continue
        wn, wd = _reduced(wn, wd)
        for mono, (num, den) in value._terms.items():
            g1, g2 = gcd(wn, den), gcd(num, wd)
            terms[mono] = ((wn // g1) * (num // g2), (wd // g2) * (den // g1))
        size += len(value._terms)
    if len(terms) != size:
        raise ValueError("graded_combination takes values that share no monomial")
    return SymbolicValue._of(terms)


def pi_power_combination(weights, values, scale: tuple[int, int] = (1, 1)) -> SymbolicValue:
    """scale * sum_i w_i v_i for pi-power weights w_i = (e, num, den), num/den pi^e with
    e >= 0, over values that are SymbolicValues or int pairs (num, den), and an int-pair
    scale, every den > 0 and no pair necessarily reduced, in one pass of the ring's
    accumulator: each weight is one row that shifts pi's exponent, the scale entered
    unreduced, so that a closed form's weights build no Fraction and no SymbolicValue.
    Weights of one exponent over rational values land on one monomial and are summed there."""
    sn, sd = scale
    rows = [(e, num * sn, den * sd, value._terms.items() if type(value) is SymbolicValue else (((), value),))
            for (e, num, den), value in zip(weights, values)] if sn else []
    return SymbolicValue._of(_collect(rows))


def _weight_rows(weight, terms, sn: int, sd: int) -> list[tuple]:
    """The accumulator rows of a rational, int pair or SymbolicValue weight times sn/sd over
    the value terms ``terms``: a weight term that is a power of pi shifts pi's exponent in
    the accumulator, and any other monomial is multiplied into the terms here."""
    if type(weight) is SymbolicValue:
        return [(m1[0][1], n * sn, d * sd, terms) if len(m1) == 1 and m1[0][0] == _PI
                else (0, n * sn, d * sd, [(_mono_merge(m1, m2), c) for m2, c in terms] if m1 else terms)
                for m1, (n, d) in weight._terms.items()]
    num, den = weight if type(weight) is tuple else (weight.numerator, weight.denominator)
    return [(0, num * sn, den * sd, terms)] if num else []


def _coerce(value) -> "SymbolicValue":
    if type(value) is SymbolicValue:
        return value
    if isinstance(value, (int, Fraction)):
        return SymbolicValue.rational(value)
    return NotImplemented


# -- convenience constructors ----------------------------------------------


def _single(mono: tuple, coef: RationalLike) -> SymbolicValue:
    """coef * mono, stored as it stands: an int or Fraction coefficient is reduced already."""
    return SymbolicValue._of({mono: (coef.numerator, coef.denominator)} if coef else {})


def sym_pi(exp: int = 1, coef: RationalLike = 1) -> SymbolicValue:
    return _single(_monomial({_PI: exp}) if exp else (), coef)


def sym_log2(exp: int = 1, coef: RationalLike = 1) -> SymbolicValue:
    return _single(_monomial({_LOG2: exp}) if exp else (), coef)


def sym_zeta_odd(j: int, coef: RationalLike = 1) -> SymbolicValue:
    return _single(((_key(2, j), 1),), coef)


def sym_zeta_bar1(j: int, coef: RationalLike = 1) -> SymbolicValue:
    return _single(((_key(3, j), 1),), coef)


def zeta_even(k: int) -> SymbolicValue:
    """zeta(2k) as an exact rational multiple of pi^{2k}.

    Uses the Bernoulli-number closed form
    zeta(2k) = (-1)^{k+1} B_{2k} (2 pi)^{2k} / (2 (2k)!), its coefficient in ints.
    """
    if k < 1:
        raise ValueError("zeta_even requires k >= 1")
    from .specialfn import bernoulli

    b = bernoulli(2 * k)
    num, den = _reduced((-1) ** (k + 1) * b.numerator * 4**k, b.denominator * 2 * math.factorial(2 * k))
    return SymbolicValue._of({((_PI, 2 * k),): (num, den)})


@lru_cache(maxsize=None)
def sym_zeta(n: int) -> SymbolicValue:
    """zeta(n) for integer n >= 2: pi powers when n is even, a generator when odd."""
    if n < 2:
        raise ValueError("sym_zeta requires n >= 2")
    if n % 2 == 0:
        return zeta_even(n // 2)
    return sym_zeta_odd(n)


# -- numeric rendering -------------------------------------------------------


def _generator_value(gen: tuple[int, int]) -> float:  # zeta(odd) and zb1 are kept where built
    from . import numerics, specialfn

    rank, index = gen
    if rank == 0:
        return math.pi
    if rank == 1:
        return math.log(2.0)
    if rank == 2:
        return numerics.zeta_numeric(index)
    return specialfn.zeta_bar1_numeric(index)


# the float _generator_value(gen) ** exp per factor (gen, exp) of a monomial; a power that
# overflows raises before it is stored
_generator_powers: dict[tuple, float] = {}


def eval_numeric(value: SymbolicValue) -> float:
    """Substitute numeric constants for the generators and sum the terms.

    Each generator is its correctly rounded double, pi and log 2 from
    ``math``, zeta(odd) and zb1 built once per process in integers, so the
    value does not depend on any tolerance.  Each term is its coefficient's
    float times the float power of each factor, ``_generator_value(gen) ** exp``,
    which is computed once per process per (generator, exponent).  The terms
    are summed by ``math.fsum``, correctly rounded; a sum that is not finite,
    or a power past binary64, raises OverflowError.
    """
    powers = _generator_powers
    contributions = []
    for mono, (num, den) in value._terms.items():
        x = num / den  # what float(Fraction(num, den)) computes
        for factor in mono:
            power = powers.get(factor)
            if power is None:
                gen, exp = factor
                power = powers[factor] = _generator_value(gen) ** exp
            x *= power
        contributions.append(x)
    try:
        total = math.fsum(contributions)
    except ValueError:  # fsum refuses inf - inf
        total = math.nan
    if not math.isfinite(total):
        raise OverflowError(f"the terms of the exact value sum to {total}")
    return total


# -- parsing -----------------------------------------------------------------

# a denominator of zero matches no factor, so it is refused as one
_COEF_RE = re.compile(r"^(\d+)(?:/(\d*[1-9]\d*))?$")
_FACTOR_RE = re.compile(r"^([a-z0-9_]+?)(?:\^(\d+))?$")
_TERM_RE = re.compile(r"([+-]?)([^+-]+)")


def _parse_term(term: str) -> tuple[tuple, Fraction]:
    coef = Fraction(1)
    factors: dict[tuple[int, int], int] = {}
    for piece in term.split("*"):
        piece = piece.strip()
        if not piece:
            raise ValueError("empty factor in symbolic text")
        m = _COEF_RE.match(piece)
        if m:
            coef *= Fraction(int(m.group(1)), int(m.group(2) or 1))
            continue
        m = _FACTOR_RE.match(piece)
        if not m:
            raise ValueError(f"cannot parse factor {piece!r}")
        gen = _key_from_name(m.group(1))
        factors[gen] = factors.get(gen, 0) + int(m.group(2) or 1)
    return _monomial(factors), coef


def parse_text(text: str) -> SymbolicValue:
    """Parse the canonical text form back into a SymbolicValue (exact round trip)."""
    s = text.strip()
    if not s:
        raise ValueError("empty symbolic text")
    if s == "0":
        return SymbolicValue.zero()
    s = s.replace(" ", "")
    terms = _TERM_RE.findall(s)
    # the terms must cover the text, so each but the first starts with its sign
    if "".join(sign + body for sign, body in terms) != s:
        raise ValueError("a doubled, stray or trailing sign in symbolic text")
    pairs = []
    for sign, body in terms:
        mono, coef = _parse_term(body)
        pairs.append((mono, (-coef.numerator if sign == "-" else coef.numerator, coef.denominator)))
    return SymbolicValue._of(_collect([(0, 1, 1, pairs)]))
