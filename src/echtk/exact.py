"""Exact rational numbers extended by a formal positive infinitesimal.

Every "sufficiently small" irrational offset in the index and filtration
formulas is represented by one shared symbol ``d``, taken to be positive
and smaller than any positive rational.  A number is a pair ``r + s*d``
with ``r`` rational and ``s`` an integer; the total order is lexicographic
in ``(r, s)``, which is correct for any concrete value of ``d`` small
enough.  No ``d**2`` terms ever arise, so products are only defined
against plain rational scalars.  :func:`_check_budget` words every
over-budget refusal, within Python's int/str limit ``_LIMIT``.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import NamedTuple, Union

Scalar = Union[int, Fraction]
# CPython's int/str conversion limit, 4300 by default from 3.10.7 on
_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


def _as_fraction(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


_tuple_new = tuple.__new__
_tuple_eq = tuple.__eq__
_tuple_ne = tuple.__ne__


class _ValidatedTuple:
    """Mixin for a named tuple whose ``__new__`` validates: ``_make``,
    ``_replace``, pickle and copy all go through ``cls(...)``, and a value
    equals only a value of its own class, never a bare tuple."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):
        return self.__class__, tuple(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return _tuple_eq(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    # tuple defines its own __ne__, which would not follow __eq__
    def __ne__(self, other):
        if other.__class__ is self.__class__:
            return _tuple_ne(self, other)
        return True if isinstance(other, tuple) else NotImplemented

    __hash__ = tuple.__hash__  # defining __eq__ would otherwise unset it


class _InfRatFields(NamedTuple):
    rat: Fraction
    delta: int


class InfRat(_ValidatedTuple, _InfRatFields):
    """A number of the form ``rat + delta*d`` with d a formal positive
    infinitesimal, held as the named tuple ``(rat, delta)``.  It equals the
    int or Fraction ``rat`` when ``delta`` is 0, and compares and computes
    as a number: ``+``, ``-`` and ``*`` never concatenate or repeat."""

    __slots__ = ()

    def __new__(cls, rat: Scalar = Fraction(0), delta: int = 0) -> "InfRat":
        rat = _as_fraction(rat)
        if not isinstance(delta, int) or isinstance(delta, bool):
            raise TypeError("delta coefficient must be an integer")
        return _tuple_new(cls, (rat, delta))

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

    # order: the tuple order of (rat, delta) against the coerced operand

    def __lt__(self, other: "InfRat | Scalar") -> bool:
        return tuple.__lt__(self, coerce(other))

    def __le__(self, other: "InfRat | Scalar") -> bool:
        return tuple.__le__(self, coerce(other))

    def __gt__(self, other: "InfRat | Scalar") -> bool:
        return tuple.__gt__(self, coerce(other))

    def __ge__(self, other: "InfRat | Scalar") -> bool:
        return tuple.__ge__(self, coerce(other))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (InfRat, int, Fraction)):
            return _tuple_eq(self, coerce(other))
        return False if isinstance(other, tuple) else NotImplemented

    __ne__ = object.__ne__  # the negated __eq__ above, not the mixin's class test

    def __hash__(self) -> int:
        # a value equal to its rational part hashes as that int or Fraction
        return tuple.__hash__(self) if self.delta else hash(self.rat)

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
    return x if isinstance(x, InfRat) else InfRat(x)


def cmp_inf(x: "InfRat | Scalar", y: "InfRat | Scalar") -> int:
    """Three-way lexicographic comparison: -1, 0 or +1."""
    a, b = coerce(x), coerce(y)
    return tuple.__gt__(a, b) - tuple.__lt__(a, b)


def floor_inf(x: "InfRat | Scalar") -> int:
    """Largest integer <= x.

    The infinitesimal part only matters when the rational part is itself
    an integer: a negative offset then pulls the value just below it.
    Taking one from the numerator does that, and changes no other floor.
    """
    x = coerce(x)
    return (x.rat.numerator - (x.delta < 0)) // x.rat.denominator


def ceil_inf(x: "InfRat | Scalar") -> int:
    """Smallest integer >= x."""
    return -floor_inf(-coerce(x))


def _check_budget(what: str, count: int, unit: str, budget: int, item_bytes: int, verb: str) -> None:
    """Refuse more than ``budget`` items of ``item_bytes`` each in one run; a
    count past Python's int/str limit is given as a power of ten."""
    if count > budget:
        size = (f"10^{_LIMIT} or more {unit}" if count >= 10**_LIMIT
                else f"{count} {unit}, about {count * item_bytes // 10**6} MB")
        raise ValueError(f"{what} has {size}; at most {budget} {unit} are {verb}")


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
