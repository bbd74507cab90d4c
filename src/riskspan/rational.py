"""Exact rational scalars: parsing, formatting, and the +infinity sentinel.

Every quantity in this package is a :class:`fractions.Fraction` (arbitrary
precision, canonical form, positive denominator) or the distinguished value
``INF``.  No floats are used anywhere; values cross the JSON boundary as
strings ``"p/q"`` or plain integers.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

from .errors import ValidationError

# ASCII digits, matched in full: Fraction() also reads other scripts' digits
# and surrounding whitespace, which the "p/q" grammar excludes.
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[1-9][0-9]*)?")


class _PositiveInfinity:
    """The single +inf value used for gauges and risk values.

    Totally ordered above every Fraction and absorbing under addition and
    max.  There is deliberately no negative counterpart: finite values live
    in (-inf, inf] throughout the package.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "INF"

    def __eq__(self, other: object) -> bool:
        return other is self

    def __hash__(self) -> int:
        return hash("riskspan.INF")

    def __lt__(self, other: object) -> bool:
        return False

    def __le__(self, other: object) -> bool:
        return other is self

    def __gt__(self, other: object) -> bool:
        return other is not self

    def __ge__(self, other: object) -> bool:
        return True

    def __add__(self, other: object) -> "_PositiveInfinity":
        return self

    __radd__ = __add__

    def __sub__(self, other: object) -> "_PositiveInfinity":
        if other is self:
            raise ArithmeticError("INF - INF is undefined")
        return self

    def __neg__(self) -> "_PositiveInfinity":
        raise ArithmeticError("negative infinity is not representable")


INF = _PositiveInfinity()

ExtendedValue = Union[Fraction, _PositiveInfinity]


def parse_rational(value: object) -> Fraction:
    """Parse an exact rational from an int or a ``"p/q"`` string."""
    if isinstance(value, bool):
        raise ValidationError(f"not a rational literal: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        if not _RATIONAL_RE.fullmatch(value):
            raise ValidationError(f"not a rational literal: {value!r}")
        try:
            return Fraction(value)
        except ValueError as exc:  # above the int-string digit limit
            raise ValidationError(f"rational literal too long: {exc}") from None
    raise ValidationError(f"not a rational literal: {value!r}")


def format_rational(value: Fraction) -> str:
    """Render a Fraction as ``"p/q"`` (always with the denominator)."""
    return f"{value.numerator}/{value.denominator}"


def format_extended(value: ExtendedValue) -> str:
    return "inf" if value is INF else format_rational(value)
