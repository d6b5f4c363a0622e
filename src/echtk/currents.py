"""Reeb currents on the four embedded orbits b, h, p, q.

A current is an exponent vector (B, H, P, Q); it is admissible when the
hyperbolic orbit h carries multiplicity at most one.  Degree, action,
pairwise linking and the knot filtration all reduce to small closed
formulas in these exponents.

:class:`ReebCurrent` is a named tuple of the exponents whose constructor
validates them, so a current unpacks like ``B, H, P, Q = c`` and costs one
tuple to build; it equals only another current, never a bare tuple.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterator
from fractions import Fraction
from functools import lru_cache
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


def _half_line_renderer(kp: KnotParams, max_degree: int) -> tuple[
    Callable[[int, int, int, int, int, int, int], list[str]],
    Callable[[int, int, int, int, int], list[tuple[int, int, int, int]]],
]:
    """``(rows, exponents)`` for the half-lines of degree at most the cutoff:
    the n currents b^B h^H p^P q^Q with P = P0 + i*p and Q = Q0 - i*q
    (i < n), in name order.  ``rows(D, g, B, H, P0, Q0, n)`` gives each
    current as the finished CSV row ``f"{D},{name},{g}\\n"``, where ``name``
    equals ``ReebCurrent(B, H, P, Q).name()``; ``exponents(B, H, P0, Q0,
    n)`` gives its (B, H, P, Q) and renders no name.

    Every power and every ``b``/``h`` prefix is rendered once per window, so
    a row is the head, ``p^P``, a space, ``q^Q`` and the tail in one
    f-string; only the first current can have P = 0 and only the last
    Q = 0, and those two go through :func:`_join`.  A name's place in its
    half-line depends on P alone: the ``q`` factor follows a space (or
    nothing), which sorts before any character that lengthens a ``p``
    factor, and P = 0 (a name with no ``p``) sorts last.  So the order is
    one sort per (P0, n), kept in a bounded cache that both share."""
    p, q = kp.p, kp.q
    tops = (max_degree // kp.pq, 1, max_degree // q, max_degree // p)
    bs, hs, ps, qs = ([_power(orbit, m) for m in range(top + 1)] for orbit, top in zip(ORBITS, tops))
    heads = [[" ".join([s for s in (b, h) if s] + [""]) for b in bs] for h in hs]

    @lru_cache(maxsize=4096)
    def order(P0: int, n: int) -> tuple[tuple[int, ...], list[str], int]:
        """The points i in name order, their ``p`` factors in that order,
        and the place of the last point."""
        rank = tuple(sorted(range(n), key=[ps[P0 + i * p] or "q" for i in range(n)].__getitem__))
        return rank, [ps[P0 + i * p] for i in rank], rank.index(n - 1)

    def rows(D: int, g: int, B: int, H: int, P0: int, Q0: int, n: int) -> list[str]:
        rank, pstrs, last = order(P0, n)
        head, tail = f"{D},{heads[H][B]}", f",{g}\n"
        block = [f"{head}{P} {qs[Q0 - i * q]}{tail}" for P, i in zip(pstrs, rank)]
        if P0 == 0:  # the first current, sorted last
            block[-1] = f"{D},{_join(bs[B], hs[H], '', qs[Q0])}{tail}"
        if Q0 == (n - 1) * q:  # the last current has Q = 0
            block[last] = f"{D},{_join(bs[B], hs[H], ps[P0 + (n - 1) * p], '')}{tail}"
        return block

    def exponents(B: int, H: int, P0: int, Q0: int, n: int) -> list[tuple[int, int, int, int]]:
        return [(B, H, P0 + i * p, Q0 - i * q) for i in order(P0, n)[0]]

    return rows, exponents


def admissible_exponents(kp: KnotParams, max_degree: int) -> Iterator[tuple[int, int, int, int]]:
    """Exponents (B, H, P, Q) of every admissible current of degree at most
    the cutoff, ordered by B + H, then H, P and Q.

    The complex has a second loop, the walk over lines in
    :mod:`echtk.complexes`, which relies on facts about the index and the
    lattice.  This one relies on none, so the crosscheck built on it can
    check that walk, and it is the faster list: the 222 windows of the
    seed-1 benchmark query mix took 0.017 s here against 0.22-0.27 s by
    the walk (2-vCPU VM, CPython 3.11)."""
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
