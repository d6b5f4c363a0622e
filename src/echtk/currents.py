"""Reeb currents on the four embedded orbits b, h, p, q.

A current is an exponent vector (B, H, P, Q); it is admissible when the
hyperbolic orbit h carries multiplicity at most one.  Degree, action,
pairwise linking and the knot filtration all reduce to small closed
formulas in these exponents.

:class:`ReebCurrent` is a named tuple of the exponents whose constructor
validates them, so a current unpacks like ``B, H, P, Q = c`` and costs one
tuple to build; it equals only another current, never a bare tuple.
:func:`_power` and :func:`_join` make its name, and those of the admissible
currents, a line at a time, in :func:`echtk.complexes._line_renderer`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .exact import InfRat, _tuple_new, _ValidatedTuple
from .nseq import _check_pq

ORBITS = ("b", "h", "p", "q")


class _PQ(NamedTuple):
    p: int
    q: int


class KnotParams(_ValidatedTuple, _PQ):
    """The coprime pair (p, q)."""

    __slots__ = ()

    def __new__(cls, p: int, q: int) -> "KnotParams":
        _check_pq(p, q)
        return _tuple_new(cls, (p, q))

    @property
    def pq(self) -> int:
        return self.p * self.q


class _Exponents(NamedTuple):
    B: int
    H: int
    P: int
    Q: int


class ReebCurrent(_ValidatedTuple, _Exponents):
    """The current b^B h^H p^P q^Q, held as the named tuple of its exponents."""

    __slots__ = ()

    def __new__(cls, B: int = 0, H: int = 0, P: int = 0, Q: int = 0) -> "ReebCurrent":
        # one test for the common case of plain ints; anything else (bool,
        # int subclasses, bad values) takes the per-field checks below
        if not (
            type(B) is type(H) is type(P) is type(Q) is int
            and B >= 0 and P >= 0 and Q >= 0 and 0 <= H <= 1
        ):
            for name, v in zip("BHPQ", (B, H, P, Q)):
                if not isinstance(v, int) or v < 0:
                    raise ValueError(f"multiplicity {name}={v!r} must be a nonnegative integer")
            if H > 1:
                raise ValueError("hyperbolic orbit multiplicity must be 0 or 1")
        return _tuple_new(cls, (B, H, P, Q))

    def multiplicity(self, orbit: str) -> int:
        return {"b": self.B, "h": self.H, "p": self.P, "q": self.Q}[orbit]

    def name(self) -> str:
        """Canonical text form, zero exponents omitted; the empty current is "1"."""
        return _join(*map(_power, ORBITS, self))

    def __str__(self) -> str:
        return self.name()

    def to_json(self) -> dict:
        return self._asdict()

    @classmethod
    def from_json(cls, data: dict) -> "ReebCurrent":
        return cls(data["B"], data["H"], data["P"], data["Q"])

    @classmethod
    def from_name(cls, text: str) -> "ReebCurrent":
        text = text.strip()
        if text in ("1", ""):
            return cls()
        mult: dict[str, int] = {}
        for token in text.split():
            m = re.fullmatch(r"([bhpq])(?:\^(\d+))?", token)
            if not m:
                raise ValueError(f"bad orbit token {token!r}")
            orbit, e = m.group(1), int(m.group(2) or 1)
            if orbit in mult:
                raise ValueError(f"orbit {orbit!r} repeated in {text!r}")
            mult[orbit] = e
        return cls(*(mult.get(o, 0) for o in ORBITS))


def _power(orbit: str, mult: int) -> str:
    """One factor of a canonical name: "" for mult 0, the bare orbit for 1."""
    return "" if mult == 0 else orbit if mult == 1 else f"{orbit}^{mult}"


def _join(b: str, h: str, p: str, q: str) -> str:
    """The canonical name from the four rendered factors."""
    return " ".join([s for s in (b, h, p, q) if s]) or "1"


def degree(c: ReebCurrent, kp: KnotParams) -> int:
    """Weighted fiber multiplicity pq(B+H) + qP + pQ."""
    return kp.pq * (c.B + c.H) + kp.q * c.P + kp.p * c.Q


def action(c: ReebCurrent, kp: KnotParams) -> Fraction:
    """Symplectic action B + H + P/p + Q/q in the unperturbed limit."""
    return Fraction(degree(c, kp), kp.pq)


def linking(c1: ReebCurrent, c2: ReebCurrent, kp: KnotParams) -> int:
    """Linking number of two currents, bilinear over multiplicities: the
    pairs (p, q), (b or h, p), (b or h, q) and (b, h) link 1, q, p and pq
    times.

    Rejected when both currents contain a common embedded orbit:
    self-linking is a different invariant and is deliberately not
    conflated with this one.
    """
    shared = [o for o, m1, m2 in zip(ORBITS, c1, c2) if m1 > 0 and m2 > 0]
    if shared:
        raise ValueError(f"self-linking of orbit(s) {shared} is undefined")
    B1, H1, P1, Q1 = c1
    B2, H2, P2, Q2 = c2
    bh1, bh2 = B1 + H1, B2 + H2
    return (
        P1 * Q2 + Q1 * P2
        + kp.q * (bh1 * P2 + P1 * bh2)
        + kp.p * (bh1 * Q2 + Q1 * bh2)
        + kp.pq * (B1 * H2 + H1 * B2)
    )


def knot_filtration(c: ReebCurrent, kp: KnotParams) -> InfRat:
    """Filtration level degree + B*d of a current against the binding.

    The rational part is the degree; the infinitesimal coefficient counts
    binding multiplicity and encodes strictness of the threshold even in
    the limit regime.
    """
    return InfRat(Fraction(degree(c, kp)), c.B)
