"""Exact quaternion scalars over arbitrary-precision rationals.

Every coefficient is a ``fractions.Fraction``, so all arithmetic is exact:
sums that must cancel really cancel, and equality is structural. The
multiplication follows the Hamilton convention ``i*j = k`` (together with
``i*i = j*j = k*k = -1`` this fixes the whole table).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError, SizeCapExceeded

_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/\d+)?")


def _frac(value) -> Fraction:
    if isinstance(value, bool):
        raise TypeError("bool is not a quaternion component")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot treat {value!r} as an exact rational")


@dataclass(frozen=True)
class Quaternion:
    """a0 + a1*i + a2*j + a3*k with exact rational coefficients."""

    a0: Fraction = Fraction(0)
    a1: Fraction = Fraction(0)
    a2: Fraction = Fraction(0)
    a3: Fraction = Fraction(0)

    def __post_init__(self):
        for name in ("a0", "a1", "a2", "a3"):
            object.__setattr__(self, name, _frac(getattr(self, name)))

    # -- ring structure -------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Quaternion(self.a0 + other.a0, self.a1 + other.a1,
                          self.a2 + other.a2, self.a3 + other.a3)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Quaternion(self.a0 - other.a0, self.a1 - other.a1,
                          self.a2 - other.a2, self.a3 - other.a3)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return Quaternion(-self.a0, -self.a1, -self.a2, -self.a3)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        p, q = self, other
        return Quaternion(
            p.a0 * q.a0 - p.a1 * q.a1 - p.a2 * q.a2 - p.a3 * q.a3,
            p.a0 * q.a1 + p.a1 * q.a0 + p.a2 * q.a3 - p.a3 * q.a2,
            p.a0 * q.a2 - p.a1 * q.a3 + p.a2 * q.a0 + p.a3 * q.a1,
            p.a0 * q.a3 + p.a1 * q.a2 - p.a2 * q.a1 + p.a3 * q.a0,
        )

    def __rmul__(self, other):
        # Only exact real scalars arrive here, and those are central.
        if isinstance(other, bool) or not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self * other

    def __truediv__(self, other):
        """Division by an exact real scalar; quaternion divisors are
        deliberately unsupported because left and right division differ."""
        if isinstance(other, bool) or not isinstance(other, (int, Fraction)):
            return NotImplemented
        if other == 0:
            raise ZeroDivisionError("division of a quaternion by zero")
        return Quaternion(self.a0 / other, self.a1 / other,
                          self.a2 / other, self.a3 / other)

    # -- involution and inverse -----------------------------------------

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.a0, -self.a1, -self.a2, -self.a3)

    def norm2(self) -> Fraction:
        """Squared norm a0^2 + a1^2 + a2^2 + a3^2, a nonnegative rational."""
        return self.a0 ** 2 + self.a1 ** 2 + self.a2 ** 2 + self.a3 ** 2

    def inverse(self) -> "Quaternion":
        n2 = self.norm2()
        if n2 == 0:
            raise ZeroDivisionError("the zero quaternion has no inverse")
        return self.conjugate() / n2

    # -- predicates ------------------------------------------------------

    def is_real(self) -> bool:
        return self.a1 == 0 and self.a2 == 0 and self.a3 == 0

    def is_zero(self) -> bool:
        return self.is_real() and self.a0 == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- presentation ----------------------------------------------------

    def __str__(self) -> str:
        terms = []
        if self.a0 != 0:
            terms.append((self.a0, ""))
        for coeff, unit in ((self.a1, "i"), (self.a2, "j"), (self.a3, "k")):
            if coeff != 0:
                terms.append((coeff, unit))
        if not terms:
            return "0"
        parts = []
        for pos, (coeff, unit) in enumerate(terms):
            sign = "-" if coeff < 0 else "+"
            mag = abs(coeff)
            if unit and mag == 1:
                body = unit
            elif unit:
                body = f"{mag} {unit}"
            else:
                body = str(mag)
            if pos == 0:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Quaternion({self.a0!r}, {self.a1!r}, {self.a2!r}, {self.a3!r})"


def _coerce(value):
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, Fraction)):
        return Quaternion(value)
    return None


ZERO = Quaternion()
ONE = Quaternion(1)
I = Quaternion(0, 1)
J = Quaternion(0, 0, 1)
K = Quaternion(0, 0, 0, 1)


# -- exact JSON forms ----------------------------------------------------
#
# A quaternion travels as a 4-element array [a0, a1, a2, a3]; each element
# is an integer or a decimal-free fraction string "p/q". Floats are
# rejected so nothing inexact can sneak in. Python refuses to convert
# integers longer than sys.get_int_max_str_digits() to or from decimal;
# such a component is a ParseError on the way in and SizeCapExceeded on
# the way out.

def _decimal(n: int) -> str:
    try:
        return str(n)
    except ValueError as exc:
        raise SizeCapExceeded(
            "a result component has more decimal digits than can be written") from exc


def rational_to_json(value: Fraction):
    num = _decimal(value.numerator)
    if value.denominator == 1:
        return value.numerator  # written by json itself, checked just above
    return f"{num}/{_decimal(value.denominator)}"


def rational_from_json(value) -> Fraction:
    if isinstance(value, bool):
        raise ParseError("rational component cannot be a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL_RE.fullmatch(value):
            raise ParseError(f"not a decimal-free rational: {value!r}")
        num, _, den = value.partition("/")
        try:
            num, den = int(num), int(den or 1)
        except ValueError as exc:
            raise ParseError(
                f"rational component of {len(value)} characters has more digits "
                "than can be read") from exc
        if den == 0:
            raise ParseError(f"zero denominator in {value!r}")
        return Fraction(num, den)
    raise ParseError(
        f"rational component must be an integer or 'p/q' string, got {type(value).__name__}")


def quaternion_to_json(q: Quaternion) -> list:
    return [rational_to_json(q.a0), rational_to_json(q.a1),
            rational_to_json(q.a2), rational_to_json(q.a3)]


def quaternion_from_json(obj) -> Quaternion:
    if not isinstance(obj, list) or len(obj) != 4:
        raise ParseError(f"quaternion must be a 4-element array, got {obj!r}")
    return Quaternion(*(rational_from_json(v) for v in obj))
