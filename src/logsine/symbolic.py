"""Exact constant algebra over the generator set {pi, log 2, zeta(odd), zb1(odd)}.

A :class:`SymbolicValue` is a rational-coefficient linear combination of
monomials in a small fixed set of transcendental generators:

* ``pi``
* ``log2``   (log 2)
* ``zeta{j}``  for odd j >= 3  (zeta(j))
* ``zb1_{j}``  for odd j >= 3  (the alternating double sum
  sum_{n1>n2>0} (-1)^n1 / (n1^j n2))

Even zeta values are never stored: they reduce eagerly to rational
multiples of pi powers, so equality of closed forms is plain map equality
after normalization.  Coefficients are exact :class:`fractions.Fraction`
values; all arithmetic is exact.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

RationalLike = Fraction | int

_KIND_RANK = {"pi": 0, "log2": 1, "zeta": 2, "zb1": 3}


@dataclass(frozen=True, order=False)
class Generator:
    """One transcendental basis constant.

    ``kind`` is one of ``pi``, ``log2``, ``zeta``, ``zb1``; ``index`` is the
    odd integer >= 3 for the zeta kinds and 0 otherwise.
    """

    kind: str
    index: int = 0

    def __post_init__(self):
        if self.kind not in _KIND_RANK:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.kind in ("zeta", "zb1"):
            if self.index < 3 or self.index % 2 == 0:
                raise ValueError(
                    f"{self.kind} generator index must be odd and >= 3, got {self.index}"
                )
        elif self.index != 0:
            raise ValueError(f"{self.kind} generator takes no index")
        object.__setattr__(self, "_hash", hash((self.kind, self.index)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):  # str hashes differ between processes: rebuild on load
        return (Generator, (self.kind, self.index))

    @property
    def sort_key(self) -> tuple[int, int]:
        return (_KIND_RANK[self.kind], self.index)

    @property
    def name(self) -> str:
        if self.kind == "pi":
            return "pi"
        if self.kind == "log2":
            return "log2"
        if self.kind == "zeta":
            return f"zeta{self.index}"
        return f"zb1_{self.index}"


PI = Generator("pi")
LOG2 = Generator("log2")


def zeta_gen(j: int) -> Generator:
    return Generator("zeta", j)


def zb1_gen(j: int) -> Generator:
    return Generator("zb1", j)


_GEN_NAME_RE = re.compile(r"^(pi|log2|zeta(\d+)|zb1_(\d+))$")


def generator_from_name(name: str) -> Generator:
    m = _GEN_NAME_RE.match(name)
    if not m:
        raise ValueError(f"unknown generator name {name!r}")
    if name == "pi":
        return PI
    if name == "log2":
        return LOG2
    if name.startswith("zeta"):
        return zeta_gen(int(m.group(2)))
    return zb1_gen(int(m.group(3)))


class Monomial:
    """A product of generator powers; the empty product is the unit.  Immutable in
    practice: the factors are sorted by generator and hashed once, at construction."""

    __slots__ = ("factors", "_hash")

    def __init__(self, factors: tuple[tuple[Generator, int], ...] = ()):
        if any(exp < 1 for _, exp in factors):
            raise ValueError("monomial exponents must be >= 1")
        if len({gen for gen, _ in factors}) != len(factors):
            raise ValueError("duplicate generator in monomial")
        self.factors = tuple(sorted(factors, key=lambda fe: fe[0].sort_key))
        self._hash = hash(self.factors)

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.factors == other.factors

    def __hash__(self):
        return self._hash

    def __reduce__(self):  # the stored hash is per process: rebuild it on load
        return (Monomial, (self.factors,))

    def __repr__(self):
        return f"Monomial(factors={self.factors!r})"

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not other.factors:
            return self
        if not self.factors:
            return other
        merged: dict[Generator, int] = dict(self.factors)
        for gen, exp in other.factors:
            merged[gen] = merged.get(gen, 0) + exp
        return Monomial(tuple(merged.items()))

    @property
    def sort_key(self):
        return tuple((gen.sort_key, exp) for gen, exp in self.factors)

    @property
    def is_unit(self) -> bool:
        return not self.factors

    def generators(self) -> set[Generator]:
        return {gen for gen, _ in self.factors}

    def text(self) -> str:
        return "*".join(
            gen.name if exp == 1 else f"{gen.name}^{exp}" for gen, exp in self.factors
        )


UNIT_MONOMIAL = Monomial()


class SymbolicValue:
    """Exact rational linear combination of generator monomials.

    Values are immutable in practice: every operation returns a fresh,
    normalized instance (no zero coefficients stored).
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, RationalLike] | None = None):
        cleaned: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coef in terms.items():
                frac = Fraction(coef)
                if frac:
                    cleaned[mono] = cleaned.get(mono, Fraction(0)) + frac
                    if not cleaned[mono]:
                        del cleaned[mono]
        self._terms = cleaned

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "SymbolicValue":
        return SymbolicValue()

    @staticmethod
    def one() -> "SymbolicValue":
        return SymbolicValue({UNIT_MONOMIAL: Fraction(1)})

    @staticmethod
    def rational(q: RationalLike) -> "SymbolicValue":
        return SymbolicValue({UNIT_MONOMIAL: Fraction(q)})

    @staticmethod
    def from_generator(gen: Generator, exp: int = 1, coef: RationalLike = 1) -> "SymbolicValue":
        if exp == 0:
            return SymbolicValue.rational(coef)
        return SymbolicValue({Monomial(((gen, exp),)): Fraction(coef)})

    # -- views -------------------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        return dict(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def rational_part(self) -> Fraction:
        return self._terms.get(UNIT_MONOMIAL, Fraction(0))

    def as_rational(self) -> Fraction:
        """The value as an exact rational; raises if any generator is present."""
        if any(not m.is_unit for m in self._terms):
            raise ValueError("value is not purely rational")
        return self.rational_part()

    def generators(self) -> set[Generator]:
        out: set[Generator] = set()
        for mono in self._terms:
            out |= mono.generators()
        return out

    def normalize(self) -> "SymbolicValue":
        """Re-normalization is idempotent; exposed for property tests."""
        return SymbolicValue(self._terms)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self._terms)
        for mono, coef in other._terms.items():
            acc = terms.get(mono, Fraction(0)) + coef
            if acc:
                terms[mono] = acc
            else:
                terms.pop(mono, None)
        out = SymbolicValue.__new__(SymbolicValue)
        out._terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = SymbolicValue.__new__(SymbolicValue)
        out._terms = {m: -c for m, c in self._terms.items()}
        return out

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
        if isinstance(other, (int, Fraction)):  # a rational scalar keeps every monomial
            out = SymbolicValue.__new__(SymbolicValue)
            out._terms = {m: c * other for m, c in self._terms.items()} if other else {}
            return out
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms: dict[Monomial, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = m1 * m2
                acc = terms.get(mono, Fraction(0)) + c1 * c2
                if acc:
                    terms[mono] = acc
                else:
                    terms.pop(mono, None)
        out = SymbolicValue.__new__(SymbolicValue)
        out._terms = terms
        return out

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
        for mono in sorted(self._terms, key=lambda m: m.sort_key):
            coef = self._terms[mono]
            mag = abs(coef)
            if mono.is_unit:
                body = str(mag)
            elif mag == 1:
                body = mono.text()
            else:
                body = f"{mag}*{mono.text()}"
            parts.append(("-" if coef < 0 else "+", body))
        sign, body = parts[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def to_json_obj(self) -> dict:
        return {
            "terms": [
                {
                    "coef": str(self._terms[mono]),
                    "mono": [[gen.name, exp] for gen, exp in mono.factors],
                }
                for mono in sorted(self._terms, key=lambda m: m.sort_key)
            ]
        }


def linear_combination(weights, values) -> SymbolicValue:
    """sum_i q_i v_i for rationals q_i and SymbolicValues v_i, one monomial at a
    time: its coefficients are summed as integers over a running lcm of their
    denominators and become one Fraction at the end."""
    sums: dict[Monomial, list[int]] = {}  # monomial -> [numerator, denominator]
    for q, v in zip(weights, values):
        q = Fraction(q)
        if not q:
            continue
        for mono, c in v._terms.items():
            num, den = q.numerator * c.numerator, q.denominator * c.denominator
            acc = sums.get(mono)
            if acc is None:
                sums[mono] = [num, den]
            else:
                lcm = math.lcm(acc[1], den)
                acc[0] = acc[0] * (lcm // acc[1]) + num * (lcm // den)
                acc[1] = lcm
    out = SymbolicValue.__new__(SymbolicValue)
    out._terms = {mono: Fraction(num, den) for mono, (num, den) in sums.items() if num}
    return out


def _coerce(value) -> "SymbolicValue":
    if isinstance(value, SymbolicValue):
        return value
    if isinstance(value, (int, Fraction)):
        return SymbolicValue.rational(value)
    return NotImplemented


# -- convenience constructors ----------------------------------------------


def sym_pi(exp: int = 1, coef: RationalLike = 1) -> SymbolicValue:
    return SymbolicValue.from_generator(PI, exp, coef)


def sym_log2(exp: int = 1, coef: RationalLike = 1) -> SymbolicValue:
    return SymbolicValue.from_generator(LOG2, exp, coef)


def sym_zeta_odd(j: int, coef: RationalLike = 1) -> SymbolicValue:
    return SymbolicValue.from_generator(zeta_gen(j), 1, coef)


def sym_zeta_bar1(j: int, coef: RationalLike = 1) -> SymbolicValue:
    return SymbolicValue.from_generator(zb1_gen(j), 1, coef)


def zeta_even(k: int) -> SymbolicValue:
    """zeta(2k) as an exact rational multiple of pi^{2k}.

    Uses the Bernoulli-number closed form
    zeta(2k) = (-1)^{k+1} B_{2k} (2 pi)^{2k} / (2 (2k)!).
    """
    if k < 1:
        raise ValueError("zeta_even requires k >= 1")
    from .specialfn import bernoulli

    coef = (
        Fraction((-1) ** (k + 1))
        * bernoulli(2 * k)
        * Fraction(2 ** (2 * k))
        / (2 * math.factorial(2 * k))
    )
    return sym_pi(2 * k, coef)


@lru_cache(maxsize=None)
def sym_zeta(n: int) -> SymbolicValue:
    """zeta(n) for integer n >= 2: pi powers when n is even, a generator when odd."""
    if n < 2:
        raise ValueError("sym_zeta requires n >= 2")
    if n % 2 == 0:
        return zeta_even(n // 2)
    return sym_zeta_odd(n)


# -- numeric rendering -------------------------------------------------------


@lru_cache(maxsize=None)
def _generator_value(gen: Generator) -> float:
    from . import numerics, specialfn

    if gen.kind == "pi":
        return math.pi
    if gen.kind == "log2":
        return math.log(2.0)
    if gen.kind == "zeta":
        return numerics.zeta_numeric(gen.index)
    return specialfn.zeta_bar1_numeric(gen.index)


def eval_numeric(value: SymbolicValue) -> float:
    """Substitute numeric constants for the generators and sum the terms.

    zeta(odd) is evaluated through the accelerated eta series and zb1
    through the accelerated alternating double-sum rearrangement, each once
    per process, so the value does not depend on any tolerance.  The terms
    are summed by ``math.fsum``, correctly rounded; a sum that is not finite
    raises OverflowError.
    """
    contributions = []
    for mono, coef in value._terms.items():
        x = float(coef)
        for gen, exp in mono.factors:
            x *= _generator_value(gen) ** exp
        contributions.append(x)
    try:
        total = math.fsum(contributions)
    except ValueError:  # fsum refuses inf - inf
        total = math.nan
    if not math.isfinite(total):
        raise OverflowError(f"the terms of the exact value sum to {total}")
    return total


# -- parsing -----------------------------------------------------------------

_COEF_RE = re.compile(r"^(\d+)(?:/(\d+))?$")
_FACTOR_RE = re.compile(r"^([a-z0-9_]+?)(?:\^(\d+))?$")


def _parse_term(term: str) -> tuple[Monomial, Fraction]:
    coef = Fraction(1)
    factors: dict[Generator, int] = {}
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
        gen = generator_from_name(m.group(1))
        factors[gen] = factors.get(gen, 0) + int(m.group(2) or 1)
    return Monomial(tuple(factors.items())), coef


def parse_text(text: str) -> SymbolicValue:
    """Parse the canonical text form back into a SymbolicValue (exact round trip)."""
    s = text.strip()
    if not s:
        raise ValueError("empty symbolic text")
    if s == "0":
        return SymbolicValue.zero()
    s = s.replace(" ", "")
    chunks: list[tuple[int, str]] = []
    sign = 1
    buf = ""
    for ch in s:
        if ch in "+-" and buf:
            chunks.append((sign, buf))
            sign = 1 if ch == "+" else -1
            buf = ""
        elif ch == "-" and not buf and not chunks and sign == 1:
            sign = -1
        elif ch == "+" and not buf:
            continue
        else:
            buf += ch
    if buf:
        chunks.append((sign, buf))
    total = SymbolicValue.zero()
    for sign, chunk in chunks:
        mono, coef = _parse_term(chunk)
        total = total + SymbolicValue({mono: sign * coef})
    return total


def from_json_obj(obj: dict) -> SymbolicValue:
    terms: dict[Monomial, Fraction] = {}
    for entry in obj["terms"]:
        mono = Monomial(
            tuple((generator_from_name(name), int(exp)) for name, exp in entry["mono"])
        )
        terms[mono] = terms.get(mono, Fraction(0)) + Fraction(entry["coef"])
    return SymbolicValue(terms)
