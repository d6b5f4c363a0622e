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
Walked in (D, B) order the indices g strictly increase, so the generators
come out in (index, name) order one line at a time, with no global sort,
and H_g is 1 exactly at the index of a line.  Each half of a line, its
points or its h-currents, is put in name order as one batch by
:func:`echtk.currents._half_line_renderer`: as finished ``generators``
rows, or, for :func:`enumerate_currents`, as exponents with no name
rendered.  The knot filtration key (D, B) is constant on a line, so the
lines of a filtered subcomplex are a prefix of the walk.  Every column
lies inside its line and names only points, whose columns are empty, so
:func:`d_squared_is_zero` looks up each h-current's two targets among the
points of its line, and no command holds more of the complex than one line.

The lines of degree D are the representations counted by
:func:`echtk.nseq._walk` with p and q swapped, so the k-th line is the
index-2k class.  :func:`echtk.currents.admissible_exponents` is a second
enumeration that relies on none of this, kept for the crosscheck (its
docstring says why); the tests build the whole boundary matrix from it.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import starmap
from typing import NamedTuple

from .currents import KnotParams, ReebCurrent, _half_line_renderer, degree
from .exact import InfRat, _check_budget, _tuple_new, _ValidatedTuple, coerce
from .indices import _index_evaluator, ech_index
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


def _lines(kp: KnotParams, top: int) -> Iterator[tuple[int, int, int, int, int]]:
    """``(g, D, B, P0, m)`` for every nonempty line of degree D <= top, in
    (D, B) order: its m points b^B*p^P*q^Q with qP + pQ = c = D - pq*B are
    P = P0, P0 + p, ..., they share the ECH index g, and g strictly
    increases along the walk.  The walk of the representations
    D = P*q + Q*p gives P0 = D/q mod p, the same for every B of one D, and
    their count n; m = n - B falls by one per B, so D has n lines."""
    p, q = kp.p, kp.q
    index = _index_evaluator(p, q).index
    last = -1
    for D, P0, n in _walk(q, p, top):
        Q0 = (D - q * P0) // p  # the first point of line B has Q = Q0 - q*B
        for B in range(n):
            g = index(B, 0, P0, Q0 - q * B)
            assert g > last, "line indices must increase along the walk"
            last = g
            yield g, D, B, P0, n - B


def _line(kp: KnotParams, D: int, B: int, P0: int, m: int, H: int) -> list[Exponents]:
    """The exponents of the m points (H = 0) or the m - 1 h-currents (H = 1)
    of the line (D, B) that starts at P0: the i-th h-current has the P of
    point i and the Q of point i + 1."""
    p, q = kp.p, kp.q
    Q0 = (D - kp.pq * B - q * P0) // p
    return [(B, H, P0 + i * p, Q0 - (i + H) * q) for i in range(m - H)]


def _half_lines(spec: ComplexSpec) -> Iterator[tuple[int, int, int, int, int, int, int]]:
    """``(D, g, B, H, P0, Q0, n)`` for each nonempty half of every line of
    degree at most the cutoff: line by line, its n = m points at g, then,
    when m > 1, its m - 1 h-currents at g + 1, each half as the currents
    b^B h^H p^P q^Q with P = P0 + i*p and Q = Q0 - i*q."""
    kp = spec.kp
    p, q = kp.p, kp.q
    for g, D, B, P0, m in _lines(kp, spec.max_degree):
        Q0 = (D - kp.pq * B - q * P0) // p
        yield D, g, B, 0, P0, Q0, m
        if m > 1:  # the i-th h-current has the P of point i and the Q of point i + 1
            yield D, g + 1, B, 1, P0, Q0 - q, m - 1


def _generator_rows(spec: ComplexSpec) -> Iterator[list[str]]:
    """The finished CSV rows ``degree,generator,index`` of each half-line,
    rendered whole by :func:`echtk.currents._half_line_renderer`.  The
    concatenated blocks list every admissible current once, in increasing
    (ech_index, name) order."""
    rows, _ = _half_line_renderer(spec.kp, spec.max_degree)
    return starmap(rows, _half_lines(spec))


def enumerate_currents(spec: ComplexSpec) -> list[ReebCurrent]:
    """All admissible currents of degree at most the cutoff, sorted by
    (ech_index, canonical name), in the order of the generator rows but
    with no name rendered."""
    _, exponents = _half_line_renderer(spec.kp, spec.max_degree)
    return [ReebCurrent(*e) for half in _half_lines(spec) for e in exponents(*half[2:])]


def d_squared_is_zero(spec: ComplexSpec) -> bool:
    """Whether d^2 = 0 below the cutoff: each h-current h*b^B*p^P*q^Q hits
    b^B*p^(P+p)*q^Q and b^B*p^P*q^(Q+q), both points of its own line, and a
    point has no boundary, so every square is a sum of empty columns."""
    kp = spec.kp
    p, q = kp.p, kp.q
    for _, D, B, P0, m in _lines(kp, spec.max_degree):
        points = set(_line(kp, D, B, P0, m, 0))
        for _, _, P, Q in _line(kp, D, B, P0, m, 1):
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


# Rows of an index window that one run holds: homology at 10^6 rows took
# 156 MB max RSS in CSV and 163 MB as a table, about 160 bytes a row, so
# this budget is about 800 MB (2-vCPU VM, CPython 3.11).
_MAX_INDEX_ROWS = 5_000_000
_ROW_BYTES = 160


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


def _counted(spec: ComplexSpec, max_index: int, den: int, bound: tuple[int, int]) -> dict[int, int]:
    """Homology rank in each index 0..max_index of the lines whose key
    (D * den, B) is at most ``bound``: 1 at the index of each, 0 elsewhere.
    The indices and the keys both increase along the walk, so the kept
    lines are its prefix up to the first index or key past the window."""
    ranks = dict.fromkeys(range(max_index + 1), 0)
    for g, D, B, _, _ in _lines(spec.kp, spec.max_degree):
        if g > max_index or (D * den, B) > bound:
            break
        ranks[g] = 1
    return ranks


def homology(spec: ComplexSpec, max_index: int) -> dict[int, int]:
    """Homology rank in each index 0..max_index.

    Refuses when the degree cutoff does not certify the window, reporting
    the cutoff that would.
    """
    _certify(spec, max_index)
    # every line of the window has D <= max_degree and B <= D
    return _counted(spec, max_index, 1, (spec.max_degree, spec.max_degree))


def knot_filtered_homology(
    spec: ComplexSpec, filtration: InfRat | int, max_index: int
) -> dict[int, int]:
    """Homology of the subcomplex of currents with knot filtration <= K.

    On integers, D + B*d <= num/den + e*d is the lexicographic order of the
    pairs (D * den, B) and (num, e); a cutoff below 0 keeps nothing."""
    _certify(spec, max_index)
    cutoff = coerce(filtration)
    return _counted(spec, max_index, cutoff.rat.denominator, (cutoff.rat.numerator, cutoff.delta))


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
    # the first point of the index-2k line, (D, B) = (N_k, repeats - 1)
    P0 = value * pow(q, -1, p) % p
    rep = ReebCurrent(*_line(spec.kp, value, k - lattice_count(p, q, value - 1), P0, 1, 0)[0])
    assert degree(rep, spec.kp) == value
    assert ech_index(rep, spec.kp) == index
    return rep
