"""The Z/2 chain complex of admissible currents below a degree cutoff.

The differential sends h*gamma to p^p*gamma + q^q*gamma for every gamma
without the hyperbolic orbit and vanishes elsewhere; it preserves degree
and drops the index by exactly one.

Its connected pieces are lines.  The line (D, B) holds the m points
b^B*p^P*q^Q with qP + pQ = c = D - pq*B, from the smallest P0 = c/q mod p
in steps of (p, -q), and the m - 1 currents h*b^B*p^P*q^Q with
qP + pQ = c - pq, each of which hits the two neighbouring points it sits
between.  A line is therefore a path: it adds exactly 1 to the homology,
at the index g that all its points share (its h-currents sit at g + 1).
:func:`_lines` yields one record ``(g, D, B, P0, Q0, m)`` per line, in
(D, B) order, the k-th at g = 2k, so the generators come out in
(index, name) order one line at a time, with no global sort.
:func:`_line_renderer` puts each line in name order, points then
h-currents, as finished ``generators`` rows or as exponents with no name
rendered.  Every column lies inside its line and names only points, whose
columns are empty, so :func:`d_squared_is_zero` looks up each h-current's
two targets among the points of its line, holding one line at a time.

The lines of degree D are the representations counted by
:func:`echtk.nseq._walk` with p and q swapped, so the k-th line is the
index-2k class and ``lattice_count(n)`` lines have degree at most n.  The
knot filtration D + B*d is constant on a line, so a filtered subcomplex
keeps a prefix of the classes, which :func:`_classes` counts with no walk.
:func:`echtk.crosscheck.verify_index_identities` checks the closed-form
index of every current of this walk against the grade of its line.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from functools import lru_cache
from itertools import starmap
from typing import NamedTuple

from .currents import ORBITS, KnotParams, ReebCurrent, _join, _power, degree
from .exact import InfRat, _check_budget, _tuple_new, _ValidatedTuple, coerce
from .indices import ech_index
from .nseq import _walk, lattice_count, nk

Exponents = tuple[int, int, int, int]  # (B, H, P, Q) of b^B h^H p^P q^Q


class _SpecFields(NamedTuple):
    kp: KnotParams
    max_degree: int


class ComplexSpec(_ValidatedTuple, _SpecFields):
    __slots__ = ()

    def __new__(cls, kp: KnotParams, max_degree: int) -> "ComplexSpec":
        if max_degree < 0:
            raise ValueError("degree cutoff must be nonnegative")
        return _tuple_new(cls, (kp, max_degree))


def _lines(kp: KnotParams, top: int) -> Iterator[tuple[int, int, int, int, int, int]]:
    """``(g, D, B, P0, Q0, m)`` for every nonempty line of degree D <= top,
    in (D, B) order: its m points b^B*p^P*q^Q with qP + pQ = D - pq*B are
    (P, Q) = (P0 + i*p, Q0 - i*q) for i < m.  The walk of the representations
    D = P*q + Q*p gives P0 = D/q mod p, the same for every B of one D, their
    count n, and k = lattice_count(D - 1), the number of lines of lower
    degree; m = n - B falls by one per B, so D has n lines.  Line B of D is
    line k + B: the paths of its points have k + B + 1 lattice points under
    them, so the points share the ECH index g = 2(k + B)."""
    p, q = kp.p, kp.q
    for k, D, P0, n in _walk(q, p, top):
        Q = (D - q * P0) // p  # the first point of line B has Q0 = Q - q*B
        for B in range(n):
            yield 2 * (k + B), D, B, P0, Q - q * B, n - B


def _line_renderer(kp: KnotParams, max_degree: int) -> tuple[
    Callable[..., list[str]], Callable[..., list[Exponents]]
]:
    """``(rows, exponents)`` for the lines of degree at most the cutoff, each
    taking a record of :func:`_lines`.  ``rows(*line)`` gives the line's
    points at g, then its h-currents at g + 1, each half in name order, as
    finished CSV rows ``f"{D},{name},{index}\\n"`` where ``name`` equals
    ``ReebCurrent(B, H, P, Q).name()``; ``exponents(*line)`` gives their
    (B, H, P, Q) in the same order and renders no name.  The i-th h-current
    has the P of point i and the Q of point i + 1, so a half is the
    n = m - H currents with P = P0 + i*p and Q = Q0 - (i + H)*q.

    Every power and every ``b``/``h`` prefix is rendered once per window, so
    a row is the head, ``p^P``, a space, ``q^Q`` and the tail in one
    f-string; only the first current of a half can have P = 0 and only the
    last Q = 0, and those two go through :func:`echtk.currents._join`.  A
    name's place in its half depends on P alone: the ``q`` factor follows a
    space (or nothing), which sorts before any character that lengthens a
    ``p`` factor, and P = 0 (a name with no ``p``) sorts last.  So the order
    is one sort per (P0, n), kept in a bounded cache that both share."""
    p, q = kp.p, kp.q
    tops = (max_degree // kp.pq, 1, max_degree // q, max_degree // p)
    bs, hs, ps, qs = ([_power(orbit, m) for m in range(top + 1)] for orbit, top in zip(ORBITS, tops))
    heads = [[" ".join([s for s in (b, h) if s] + [""]) for b in bs] for h in hs]

    @lru_cache(maxsize=4096)
    def order(P0: int, n: int) -> tuple[tuple[int, ...], list[str], int]:
        """The currents i of a half in name order, their ``p`` factors in
        that order, and the place of the last one."""
        rank = tuple(sorted(range(n), key=[ps[P0 + i * p] or "q" for i in range(n)].__getitem__))
        return rank, [ps[P0 + i * p] for i in rank], rank.index(n - 1)

    def rows(g: int, D: int, B: int, P0: int, Q0: int, m: int) -> list[str]:
        block: list[str] = []
        for H in range(min(m, 2)):  # the points, then the h-currents
            n, Qh = m - H, Q0 - H * q
            rank, pstrs, last = order(P0, n)
            head, tail = f"{D},{heads[H][B]}", f",{g + H}\n"
            half = [f"{head}{P} {qs[Qh - i * q]}{tail}" for P, i in zip(pstrs, rank)]
            if P0 == 0:  # the first current, sorted last
                half[-1] = f"{D},{_join(bs[B], hs[H], '', qs[Qh])}{tail}"
            if Qh == (n - 1) * q:  # the last current has Q = 0
                half[last] = f"{D},{_join(bs[B], hs[H], ps[P0 + (n - 1) * p], '')}{tail}"
            block += half
        return block

    def exponents(g: int, D: int, B: int, P0: int, Q0: int, m: int) -> list[Exponents]:
        return [(B, H, P0 + i * p, Q0 - (i + H) * q) for H in range(min(m, 2))
                for i in order(P0, m - H)[0]]

    return rows, exponents


def _generator_rows(spec: ComplexSpec) -> Iterator[list[str]]:
    """The finished CSV rows ``degree,generator,index`` of each line,
    rendered whole by :func:`_line_renderer`.  The concatenated blocks list
    every admissible current once, in increasing (ech_index, name) order."""
    rows, _ = _line_renderer(spec.kp, spec.max_degree)
    return starmap(rows, _lines(spec.kp, spec.max_degree))


def enumerate_currents(spec: ComplexSpec) -> list[ReebCurrent]:
    """All admissible currents of degree at most the cutoff, sorted by
    (ech_index, canonical name), in the order of the generator rows but
    with no name rendered."""
    _, exponents = _line_renderer(spec.kp, spec.max_degree)
    return [ReebCurrent(*e) for line in _lines(spec.kp, spec.max_degree) for e in exponents(*line)]


def d_squared_is_zero(spec: ComplexSpec) -> bool:
    """Whether d^2 = 0 below the cutoff, on the currents the complex lists:
    the first m of a line are its points, and each later h*b^B*p^P*q^Q hits
    b^B*p^(P+p)*q^Q and b^B*p^P*q^(Q+q), which must be among them.  A point
    has no boundary, so every square is a sum of empty columns."""
    p, q = spec.kp.p, spec.kp.q
    _, exponents = _line_renderer(spec.kp, spec.max_degree)
    for line in _lines(spec.kp, spec.max_degree):
        currents, m = exponents(*line), line[-1]
        points = set(currents[:m])
        for B, _, P, Q in currents[m:]:
            if (B, 0, P + p, Q) not in points or (B, 0, P, Q + q) not in points:
                raise AssertionError("a column must stay inside its line")  # also under -O
    return True


class WindowError(ValueError):
    """Raised when a requested index range is not certified by the cutoff."""

    def __init__(self, max_index: int, required_degree: int):
        self.required_degree = required_degree
        super().__init__(
            f"index window up to {max_index} needs max_degree >= {required_degree}"
        )


def required_degree(kp: KnotParams, max_index: int) -> int:
    """Degree cutoff needed so every generator of index <= max_index + 1
    is enumerated: generators at indices 2k and 2k+1 live in degree N_k."""
    return nk(kp.p, kp.q, (max_index + 1) // 2)


# Rows of an index window: at 10^6 rows the homology dict peaks at 101 MB max
# RSS and a table at 88 MB, against 16 MB for a bare import or a streamed CSV,
# about 85 bytes a row held, so this budget is about 425 MB (2-vCPU VM, CPython 3.11).
_MAX_INDEX_ROWS = 5_000_000
_ROW_BYTES = 85


def _certify(spec: ComplexSpec, max_index: int) -> None:
    """Refuse an index window the degree cutoff does not certify, reporting
    the cutoff that would, and then one with more rows than the budget."""
    if max_index < 0:
        raise ValueError("max index must be nonnegative")
    need = required_degree(spec.kp, max_index)
    if spec.max_degree < need:
        raise WindowError(max_index, need)
    _check_budget(f"index window up to {max_index}", max_index + 1, "rows", _MAX_INDEX_ROWS,
                  _ROW_BYTES, "held")


def _classes(spec: ComplexSpec, max_index: int, level: InfRat | int | None = None) -> int:
    """The number K of classes in the window, of knot filtration at most
    ``level`` = rat + e*d if given: H_g is 1 at the even g < 2K.  The lines
    in (D, B) order are the classes in index order, at levels D + B*d, so
    the kept ones, D < rat or D = rat and B <= e, are a prefix."""
    _certify(spec, max_index)
    if level is None:
        return max_index // 2 + 1
    rat, e = coerce(level)
    p, q, n = spec.kp.p, spec.kp.q, rat.numerator // rat.denominator
    kept = lattice_count(p, q, n)
    if rat == n:
        kept = min(kept, lattice_count(p, q, n - 1) + max(e + 1, 0))
    return min(max_index // 2 + 1, kept)


def homology(spec: ComplexSpec, max_index: int) -> dict[int, int]:
    """Homology rank in each index 0..max_index; refuses a window the degree
    cutoff does not certify, reporting the cutoff that would."""
    top = 2 * _classes(spec, max_index)
    return {i: int(i < top and i % 2 == 0) for i in range(max_index + 1)}


def knot_filtered_homology(spec: ComplexSpec, filtration: InfRat | int,
                           max_index: int) -> dict[int, int]:
    """Homology of the subcomplex of currents with knot filtration <= K;
    a cutoff below 0 keeps nothing."""
    top = 2 * _classes(spec, max_index, filtration)
    return {i: int(i < top and i % 2 == 0) for i in range(max_index + 1)}


def linking_threshold(kp: KnotParams, k: int) -> InfRat:
    """Filtration level at which the index-2k class first appears."""
    value = nk(kp.p, kp.q, k)
    return InfRat(value, k - lattice_count(kp.p, kp.q, value - 1))  # repeats - 1


def homology_representative(spec: ComplexSpec, index: int) -> ReebCurrent:
    """Canonical cycle b^B p^P q^Q with P < p generating homology at an
    even index; its degree is N_k for index 2k."""
    if index < 0 or index % 2:
        raise ValueError("homology is supported in nonnegative even indices")
    k = index // 2
    p, q = spec.kp.p, spec.kp.q
    value = nk(p, q, k)
    if value > spec.max_degree:
        raise WindowError(index, value)
    # the first point of the index-2k line (D, B) = (N_k, repeats - 1), on qP + pQ = D - pq*B
    B, P0 = k - lattice_count(p, q, value - 1), value * pow(q, -1, p) % p
    rep = ReebCurrent(B, 0, P0, (value - spec.kp.pq * B - q * P0) // p)
    assert degree(rep, spec.kp) == value
    assert ech_index(rep, spec.kp) == index
    return rep
