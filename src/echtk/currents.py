"""Reeb currents on the four embedded orbits b, h, p, q.

A current is an exponent vector (B, H, P, Q); it is admissible when the
hyperbolic orbit h carries multiplicity at most one.  Degree, action,
pairwise linking and the knot filtration all reduce to small closed
formulas in these exponents.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .exact import InfRat

ORBITS = ("b", "h", "p", "q")


@dataclass(frozen=True)
class KnotParams:
    """The coprime pair (p, q)."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p < 1 or self.q < 1:
            raise ValueError(f"p and q must be positive, got ({self.p}, {self.q})")
        if gcd(self.p, self.q) != 1:
            raise ValueError(f"p and q must be coprime, got ({self.p}, {self.q})")

    @property
    def pq(self) -> int:
        return self.p * self.q


@dataclass(frozen=True)
class ReebCurrent:
    B: int = 0
    H: int = 0
    P: int = 0
    Q: int = 0

    def __post_init__(self) -> None:
        for name in ("B", "H", "P", "Q"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"multiplicity {name}={v!r} must be a nonnegative integer")
        if self.H > 1:
            raise ValueError("hyperbolic orbit multiplicity must be 0 or 1")

    @property
    def is_empty(self) -> bool:
        return (self.B, self.H, self.P, self.Q) == (0, 0, 0, 0)

    def exponents(self) -> tuple[int, int, int, int]:
        return (self.B, self.H, self.P, self.Q)

    def multiplicity(self, orbit: str) -> int:
        return {"b": self.B, "h": self.H, "p": self.P, "q": self.Q}[orbit]

    def name(self) -> str:
        """Canonical text form, zero exponents omitted; the empty current is "1"."""
        if self.is_empty:
            return "1"
        parts = []
        for orbit, mult in zip(ORBITS, self.exponents()):
            if mult == 1:
                parts.append(orbit)
            elif mult > 1:
                parts.append(f"{orbit}^{mult}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.name()

    def to_json(self) -> dict:
        return {"B": self.B, "H": self.H, "P": self.P, "Q": self.Q}

    @classmethod
    def from_json(cls, data: dict) -> "ReebCurrent":
        return cls(data["B"], data["H"], data["P"], data["Q"])

    @classmethod
    def from_name(cls, text: str) -> "ReebCurrent":
        text = text.strip()
        if text in ("1", ""):
            return cls()
        mult = {o: 0 for o in ORBITS}
        for token in text.split():
            m = re.fullmatch(r"([bhpq])(?:\^(\d+))?", token)
            if not m:
                raise ValueError(f"bad orbit token {token!r}")
            orbit, e = m.group(1), int(m.group(2) or 1)
            if mult[orbit]:
                raise ValueError(f"orbit {orbit!r} repeated in {text!r}")
            mult[orbit] = e
        return cls(mult["b"], mult["h"], mult["p"], mult["q"])


def admissible_exponents(kp: KnotParams, max_degree: int) -> Iterator[tuple[int, int, int, int]]:
    """Exponents (B, H, P, Q) of every admissible current of degree at most
    the cutoff, ordered by B + H, then H, P and Q."""
    p, q, pq = kp.p, kp.q, kp.pq
    for bh in range(max_degree // pq + 1):
        rem_bh = max_degree - pq * bh
        for H in (0, 1) if bh else (0,):
            for P in range(rem_bh // q + 1):
                for Q in range((rem_bh - q * P) // p + 1):
                    yield bh - H, H, P, Q


def degree(c: ReebCurrent, kp: KnotParams) -> int:
    """Weighted fiber multiplicity pq(B+H) + qP + pQ."""
    return kp.pq * (c.B + c.H) + kp.q * c.P + kp.p * c.Q


def action(c: ReebCurrent, kp: KnotParams) -> Fraction:
    """Symplectic action B + H + P/p + Q/q in the unperturbed limit."""
    return Fraction(degree(c, kp), kp.pq)


def _pairwise_linking(kp: KnotParams) -> dict[frozenset, int]:
    p, q = kp.p, kp.q
    return {
        frozenset(("p", "q")): 1,
        frozenset(("b", "p")): q,
        frozenset(("h", "p")): q,
        frozenset(("b", "q")): p,
        frozenset(("h", "q")): p,
        frozenset(("b", "h")): p * q,
    }


def linking(c1: ReebCurrent, c2: ReebCurrent, kp: KnotParams) -> int:
    """Linking number of two currents, bilinear over multiplicities.

    Rejected when both currents contain a common embedded orbit:
    self-linking is a different invariant and is deliberately not
    conflated with this one.
    """
    shared = [
        o for o in ORBITS if c1.multiplicity(o) > 0 and c2.multiplicity(o) > 0
    ]
    if shared:
        raise ValueError(f"self-linking of orbit(s) {shared} is undefined")
    table = _pairwise_linking(kp)
    total = 0
    for o1 in ORBITS:
        m1 = c1.multiplicity(o1)
        if not m1:
            continue
        for o2 in ORBITS:
            m2 = c2.multiplicity(o2)
            if not m2:
                continue
            total += m1 * m2 * table[frozenset((o1, o2))]
    return total


def knot_filtration(c: ReebCurrent, kp: KnotParams) -> InfRat:
    """Filtration level degree + B*d of a current against the binding.

    The rational part is the degree; the infinitesimal coefficient counts
    binding multiplicity and encodes strictness of the threshold even in
    the limit regime.
    """
    return InfRat(Fraction(degree(c, kp)), c.B)
