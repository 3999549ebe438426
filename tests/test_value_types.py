"""The request, config and result types: small immutable namedtuple classes, whose
constructors validate, that keep the fields, defaults, equality, hash and repr text
they had as dataclasses."""

import math

import pytest

from logsine import ClosedFormResult, DerivSpec, IntegralSpec, NumericConfig, sym_pi
from logsine.verify import Check, IdentityResult

# per type: positional arguments, the same by keyword, the defaults they leave out, a field
# whose change makes the value unequal (and its new value), the repr and the rejected calls
# with their messages
TYPES = {
    "IntegralSpec": (
        IntegralSpec, (2, 1, "pi"), {"z": "pi", "p": 1, "n": 2}, {"form": "logsin"}, ("z", "pi/2"),
        "IntegralSpec(n=2, p=1, z='pi', form='logsin')",
        [(lambda: IntegralSpec(2.0, 1, "pi"), "n must be an int, got 2.0"),
         (lambda: IntegralSpec(2, 1.5, 1.0), "p must be an int, got 1.5"),
         (lambda: IntegralSpec("1", 1, "pi"), "n must be an int, got '1'"),
         (lambda: IntegralSpec(-1, 1, "pi"), "n and p must be >= 0"),
         (lambda: IntegralSpec(1, -1, "pi"), "n and p must be >= 0"),
         (lambda: IntegralSpec(1, 1, "pi", form="sin"), "form must be 'logsin' or 'ls'"),
         (lambda: IntegralSpec(1, 1, "3pi"), "cannot parse angle '3pi'"),
         (lambda: IntegralSpec(1, 1, 3.5), "z must lie in (0, pi] for form 'logsin'"),
         (lambda: IntegralSpec(1, 1, 0.0, form="ls"), "z must lie in (0, 2*pi] for form 'ls'")],
    ),
    "DerivSpec": (
        DerivSpec, (3, 2), {"k": 2, "p": 3}, {"scaled": False}, ("scaled", True),
        "DerivSpec(p=3, k=2, scaled=False)",
        [(lambda: DerivSpec(3.0, 2), "p must be an int, got 3.0"),
         (lambda: DerivSpec(3, 2.5), "k must be an int, got 2.5"),
         (lambda: DerivSpec(2, 1, "False"), "scaled must be False or True, got 'False'"),
         (lambda: DerivSpec(2, 1, None), "scaled must be False or True, got None"),
         (lambda: DerivSpec(3, None), "k must be an int, got None"),
         (lambda: DerivSpec(-1, 2), "derivative order p must be >= 0"),
         (lambda: DerivSpec(3, -2), "shift k must be >= 0")],
    ),
    "NumericConfig": (
        NumericConfig, (), {}, {"target_abs_tol": 1e-10}, ("target_abs_tol", 1e-8),
        "NumericConfig(target_abs_tol=1e-10)",
        [(lambda: NumericConfig("1e-3"), "target_abs_tol must be a real number, got '1e-3'"),
         (lambda: NumericConfig(1j), "target_abs_tol must be a real number, got 1j"),
         (lambda: NumericConfig(0.0), "the tolerance must be finite and > 0, got 0.0"),
         (lambda: NumericConfig(-1e-3), "the tolerance must be finite and > 0, got -0.001"),
         (lambda: NumericConfig(math.inf), "the tolerance must be finite and > 0, got inf"),
         (lambda: NumericConfig(target_abs_tol=math.nan), "the tolerance must be finite and > 0, got nan")],
    ),
    "ClosedFormResult": (
        ClosedFormResult, (sym_pi(2), 9.87), {"numeric": 9.87, "value": sym_pi(2)},
        {"error": None, "reason": None}, ("value", sym_pi(3)),
        "ClosedFormResult(value=SymbolicValue(pi^2), numeric=9.87, error=None, reason=None)", [],
    ),
    "IdentityResult": (
        IdentityResult, ("a", "g", None, 1.0, 1.0, 0.0, 1e-8, "pass"),
        {"status": "pass", "tol": 1e-8, "abs_err": 0.0, "oracle": 1.0, "numeric": 1.0, "exact": None,
         "group": "g", "id": "a"}, {}, ("status", "fail"),
        "IdentityResult(id='a', group='g', exact=None, numeric=1.0, oracle=1.0, abs_err=0.0, tol=1e-08, "
        "status='pass')", [],
    ),
    "Check": (
        Check, ("a", "g", len), {"run": len, "group": "g", "id": "a"}, {}, ("run", abs),
        "Check(id='a', group='g', run=<built-in function len>)", [],
    ),
}


@pytest.mark.parametrize("name", TYPES)
def test_a_value_type_keeps_its_fields_equality_hash_repr_and_messages(name):
    cls, args, kwargs, defaults, (field, other), text, rejected = TYPES[name]
    value = cls(*args)
    assert value == cls(**kwargs) == cls(*args, **defaults)
    assert hash(value) == hash(cls(**kwargs))
    assert {key: getattr(value, key) for key in defaults} == defaults
    assert set(cls._fields) == {*kwargs, *defaults}  # their order is the repr's
    assert value != cls(**{**kwargs, **defaults, field: other})
    assert repr(value) == text
    for key in cls._fields:
        with pytest.raises(AttributeError):
            setattr(value, key, getattr(value, key))
    with pytest.raises(AttributeError):
        value.note = "a new attribute"
    for call, message in rejected:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message
    if rejected:  # a copy with a field replaced is validated as a new value is
        with pytest.raises(ValueError):
            value._replace(**{cls._fields[0]: -1})
        assert value._replace() == value and type(value._replace()) is cls

