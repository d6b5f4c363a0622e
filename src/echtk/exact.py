"""Exact rational numbers extended by a formal positive infinitesimal.

Every "sufficiently small" irrational offset in the index and filtration
formulas is represented by one shared symbol ``d``, taken to be positive
and smaller than any positive rational.  A number is a pair ``r + s*d``
with ``r`` rational and ``s`` an integer; the total order is lexicographic
in ``(r, s)``, which is correct for any concrete value of ``d`` small
enough.  No ``d**2`` terms ever arise, so products are only defined
against plain rational scalars.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Scalar = Union[int, Fraction]


def _as_fraction(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


@dataclass(frozen=True)
class InfRat:
    """A number of the form ``rat + delta*d`` with d a formal positive
    infinitesimal."""

    rat: Fraction = Fraction(0)
    delta: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "rat", _as_fraction(self.rat))
        if not isinstance(self.delta, int) or isinstance(self.delta, bool):
            raise TypeError("delta coefficient must be an integer")

    # arithmetic ------------------------------------------------------

    def __add__(self, other: "InfRat | Scalar") -> "InfRat":
        other = coerce(other)
        return InfRat(self.rat + other.rat, self.delta + other.delta)

    __radd__ = __add__

    def __sub__(self, other: "InfRat | Scalar") -> "InfRat":
        other = coerce(other)
        return InfRat(self.rat - other.rat, self.delta - other.delta)

    def __rsub__(self, other: "InfRat | Scalar") -> "InfRat":
        return coerce(other) - self

    def __neg__(self) -> "InfRat":
        return InfRat(-self.rat, -self.delta)

    def __mul__(self, other: Scalar) -> "InfRat":
        # scalar multiplication only: d**2 is outside the model
        if isinstance(other, InfRat):
            raise TypeError("product of two infinitesimal numbers is not supported")
        s = _as_fraction(other)
        d = self.delta * s
        if d.denominator != 1:
            raise ValueError(f"delta coefficient {d} is not an integer")
        return InfRat(self.rat * s, int(d))

    __rmul__ = __mul__

    # order -----------------------------------------------------------

    def _key(self) -> tuple[Fraction, int]:
        return (self.rat, self.delta)

    def __lt__(self, other: "InfRat | Scalar") -> bool:
        return self._key() < coerce(other)._key()

    def __le__(self, other: "InfRat | Scalar") -> bool:
        return self._key() <= coerce(other)._key()

    def __gt__(self, other: "InfRat | Scalar") -> bool:
        return self._key() > coerce(other)._key()

    def __ge__(self, other: "InfRat | Scalar") -> bool:
        return self._key() >= coerce(other)._key()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (InfRat, int, Fraction)):
            return self._key() == coerce(other)._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    # rendering -------------------------------------------------------

    def __str__(self) -> str:
        return render(self)

    def to_json(self) -> dict:
        return {
            "num": self.rat.numerator,
            "den": self.rat.denominator,
            "delta": self.delta,
        }


def coerce(x: "InfRat | Scalar") -> InfRat:
    if isinstance(x, InfRat):
        return x
    return InfRat(_as_fraction(x), 0)


def cmp_inf(x: "InfRat | Scalar", y: "InfRat | Scalar") -> int:
    """Three-way lexicographic comparison: -1, 0 or +1."""
    a, b = coerce(x)._key(), coerce(y)._key()
    return (a > b) - (a < b)


def floor_inf(x: "InfRat | Scalar") -> int:
    """Largest integer <= x.

    The infinitesimal part only matters when the rational part is itself
    an integer: a negative offset then pulls the value just below it.
    """
    x = coerce(x)
    if x.rat.denominator != 1:
        return math.floor(x.rat)
    n = x.rat.numerator
    return n if x.delta >= 0 else n - 1


def ceil_inf(x: "InfRat | Scalar") -> int:
    """Smallest integer >= x."""
    return -floor_inf(-coerce(x))


def render_fraction(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def delta_suffix(delta: int) -> str:
    """The ``+c*d`` tail of a rendered value; empty when the coefficient is zero."""
    if delta == 0:
        return ""
    sign = "+" if delta > 0 else "-"
    return f"{sign}{abs(delta)}*d"


def render(x: InfRat) -> str:
    """Exact text form ``a/b+c*d``; the delta term is dropped when zero."""
    return render_fraction(x.rat) + delta_suffix(x.delta)


_INFRAT_RE = re.compile(
    r"^\s*(?P<num>-?\d+)(?:/(?P<den>\d+))?"
    r"(?:\s*(?P<sign>[+-])\s*(?P<coef>\d+)\*d)?\s*$"
)


def parse(text: str) -> InfRat:
    """Inverse of :func:`render`; also accepts plain integers and a/b."""
    m = _INFRAT_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse infinitesimal-rational value: {text!r}")
    num = int(m.group("num"))
    den = int(m.group("den") or 1)
    if den == 0:
        raise ValueError(f"zero denominator in infinitesimal-rational value: {text!r}")
    delta = 0
    if m.group("coef") is not None:
        delta = int(m.group("coef"))
        if m.group("sign") == "-":
            delta = -delta
    return InfRat(Fraction(num, den), delta)
