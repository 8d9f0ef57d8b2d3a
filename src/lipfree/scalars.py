"""Exact rational scalar layer.

All values are exact, fractions.Fraction or int. The hot loops run on
Python ints over common denominators (:func:`over_common_denominator`) and
make Fractions only of their results: the simplex pivots and the
certificate checker (see lp), the Lipschitz-constant and inequality
kernels (see metric) and the McShane extensions (see functions).
Values parsed from floats are converted to their exact binary rational.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Union

Scalar = Union[int, Fraction]


def rat(value) -> Fraction:
    """Convert int/str/Fraction/float to an exact rational.

    Strings accept "p/q", decimal ("2.5", "1e-9") and integer forms; other
    strings, "inf", "nan" and a zero denominator ("1/0") included, raise
    ValueError. Floats are converted exactly (binary expansion), not via
    repr rounding.
    """
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"{value!r} has a zero denominator") from None


def parse_rat(value, field: str) -> Fraction:
    """rat for input data: a value that is no finite number or numeric
    string (a boolean, inf, nan, "1/0", a list) is a ValueError naming the
    field it was read from."""
    if value.__class__ is not bool:
        try:
            return Fraction(value)
        except (TypeError, ValueError, OverflowError, ZeroDivisionError):
            pass
    raise ValueError(f"field {field!r} holds {value!r}, not a number")


def json_field(obj: dict, name: str, kind: str):
    """obj[name] of an input object of the given kind ("space", "element",
    "function"); a missing field is a ValueError that names it."""
    try:
        return obj[name]
    except KeyError:
        raise ValueError(f"{kind} field {name!r} is missing") from None


def over_common_denominator(values) -> tuple:
    """(nums, den): the exact values as int numerators over den, the least
    common denominator, so values[i] == Fraction(nums[i], den)."""
    values = list(values)
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


ZERO = rat(0)
ONE = rat(1)
TWO = rat(2)


def rat_str(value: Scalar) -> str:
    """Canonical string form: "p/q" or "p"."""
    return str(rat(value))


def as_float(value: Scalar) -> float:
    return float(rat(value))


def format_scalar(value: Scalar, mode: str = "exact") -> str:
    if mode == "float":
        return repr(as_float(value))
    return rat_str(value)
