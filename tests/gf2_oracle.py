"""Slow GF(2) oracle for the homology of the currents complex.

Columns are int bitsets over row positions and are reduced left to right
in the standard persistence style.  The library reduces nothing: each
line of the complex, the points b^B p^P q^Q of one degree D and one B
together with the h-currents between them, is a path with rank 1 at its
index, and the library counts the lines of a window with ``lattice_count``.
This module is the independent check of that count, used only by the
tests: the keep mask compares every current with the cutoff through
``knot_filtration``, and the members of a line are found by solving its
equation, not by the library's walk.

The whole boundary matrix (:func:`differential`) is built here, from
:func:`admissible_exponents`, a loop over the exponent box that uses none
of the facts of the walk and that the other tests compare the walk with.
Its d^2 is formed here too (:func:`squares_vanish`): each column squared
as the XOR of the bitsets of the columns it names.  The library forms no
such sum; it only checks that each h-current's targets are points of its
line.
"""

from dataclasses import dataclass
from functools import cached_property

from echtk.complexes import ComplexSpec, homology, knot_filtered_homology
from echtk.currents import ReebCurrent, knot_filtration
from echtk.indices import _index_evaluator
from echtk.nseq import lattice_count


def admissible_exponents(kp, max_degree):
    """Exponents (B, H, P, Q) of every admissible current of degree at most
    the cutoff, ordered by B + H, then H, P and Q.

    The library lists the currents one way, by the walk over lines in
    :mod:`echtk.complexes`, which relies on facts about the index and the
    lattice.  This loop relies on none, so the tests built on it check that
    walk."""
    p, q, pq = kp.p, kp.q, kp.pq
    for bh in range(max_degree // pq + 1):
        rem_bh = max_degree - pq * bh
        for H in (0, 1) if bh else (0,):
            for P in range(rem_bh // q + 1):
                for Q in range((rem_bh - q * P) // p + 1):
                    yield bh - H, H, P, Q


@dataclass
class BoundaryMatrix:
    """Sparse GF(2) boundary matrix with generator gradings attached.

    Rows are the exponent tuples in the order of ``admissible_exponents``;
    the ranks do not depend on it, and no map from current to row is kept.
    ``generators``, the rows as currents, is built on first read."""

    spec: ComplexSpec
    exponents: list
    grading: list
    columns: list  # row positions: () or the two targets

    @cached_property
    def generators(self):
        return [ReebCurrent(*e) for e in self.exponents]

    def d_squared_is_zero(self):
        return squares_vanish(self.columns)


def _complex(spec):
    """``(exponents, grading, columns)`` of the complex: the (B, H, P, Q)
    tuples in the order of ``admissible_exponents``, their ECH indices, and
    the boundary columns as row positions.  h*b^B*p^P*q^Q hits
    b^B*p^(P+p)*q^Q and b^B*p^P*q^(Q+q), of the same degree, so both are
    listed."""
    p, q, top = spec.kp.p, spec.kp.q, spec.max_degree
    exponents = list(admissible_exponents(spec.kp, top))
    row = {e: i for i, e in enumerate(exponents)}
    columns = [(row[B, 0, P + p, Q], row[B, 0, P, Q + q]) if H else () for B, H, P, Q in exponents]
    evaluator = _index_evaluator(p, q)
    evaluator.index(0, 0, top // q, top // p)  # grows the prefix sums once, up front
    return exponents, [evaluator.index(*e) for e in exponents], columns


def differential(spec):
    return BoundaryMatrix(spec, *_complex(spec))


def bitset_columns(columns):
    """Sparse row-position columns as int bitsets over GF(2): one bit
    toggled per occurrence, so a row named twice cancels."""
    bitsets = []
    for col in columns:
        bits = 0
        for row in col:
            bits ^= 1 << row
        bitsets.append(bits)
    return bitsets


def squares_vanish(columns):
    """Whether d^2 = 0 for the GF(2) columns given as row positions into
    the same list: each column's square is the XOR of the bitsets of the
    columns it names, one per occurrence, so a row named twice cancels."""
    bitsets = bitset_columns(columns)
    for col in columns:
        square = 0
        for row in col:
            square ^= bitsets[row]
        if square:
            return False
    return True


def bitset_ranks(grading, columns):
    """Homology rank per grading by column reduction of bitset columns.
    Columns must be ordered compatibly with the grading (the enumeration
    order is)."""
    columns = list(columns)
    pivot_of = {}
    n_cols_by_grade = {}
    pivots_by_grade = {}
    kills_by_grade = {}
    for j, col in enumerate(columns):
        g = grading[j]
        n_cols_by_grade[g] = n_cols_by_grade.get(g, 0) + 1
        while col:
            low = col.bit_length() - 1
            other = pivot_of.get(low)
            if other is None:
                break
            col ^= columns[other]
        columns[j] = col
        if col:
            low = col.bit_length() - 1
            pivot_of[low] = j
            pivots_by_grade[g] = pivots_by_grade.get(g, 0) + 1
            kills_by_grade[grading[low]] = kills_by_grade.get(grading[low], 0) + 1
    ranks = {}
    for g, n in n_cols_by_grade.items():
        cycles = n - pivots_by_grade.get(g, 0)
        ranks[g] = cycles - kills_by_grade.get(g, 0)
    return ranks


def subcomplex_ranks(grading, columns, keep):
    """Ranks of the subcomplex of generators flagged in ``keep``, with the
    kept generators renumbered and their columns rebuilt as bitsets."""
    kept = [j for j, flag in enumerate(keep) if flag]
    old_to_new = {j: i for i, j in enumerate(kept)}
    bitsets = []
    for j in kept:
        col = 0
        for row in columns[j]:
            assert keep[row], "a kept source hits a dropped target"
            col |= 1 << old_to_new[row]
        bitsets.append(col)
    return bitset_ranks([grading[j] for j in kept], bitsets)


def keep_mask(kp, exponents):
    """``mask(cutoff)``: per exponent tuple, whether its current has knot
    filtration <= cutoff; each distinct level is compared once per cutoff."""
    ids = {}
    slots = [ids.setdefault(knot_filtration(ReebCurrent(*e), kp), len(ids)) for e in exponents]

    def mask(cutoff):
        flags = [level <= cutoff for level in ids]
        return [flags[i] for i in slots]

    return mask


def line_currents(kp, D, B):
    """The points (B, 0, P, Q) with qP + pQ = D - pq*B and the h-currents
    (B, 1, P, Q) with qP + pQ = D - pq*(B + 1) of the line (D, B), each
    list ordered by P."""
    p, q, pq = kp.p, kp.q, kp.pq

    def solutions(c):
        return [(P, (c - q * P) // p) for P in range(c // q + 1) if (c - q * P) % p == 0]

    c = D - pq * B
    return [(B, 0, P, Q) for P, Q in solutions(c)], [(B, 1, P, Q) for P, Q in solutions(c - pq)]


def assert_ranks_match_oracle(kp, max_degree, levels):
    """The library's ranks equal the oracle's for the whole complex and for
    the knot-filtered subcomplex at each level: in every grading, and over
    the largest index window the cutoff certifies.  ``homology`` and
    ``knot_filtered_homology`` count the classes of the window with
    ``lattice_count`` and walk no line; the oracle reduces the matrix."""
    spec = ComplexSpec(kp, max_degree)
    matrix = differential(spec)
    top = 2 * (lattice_count(kp.p, kp.q, max_degree) - 1)
    oracle = bitset_ranks(matrix.grading, bitset_columns(matrix.columns))
    assert homology(spec, top) == {g: oracle.get(g, 0) for g in range(top + 1)}
    mask = keep_mask(kp, matrix.exponents)
    for level in levels:
        oracle = subcomplex_ranks(matrix.grading, matrix.columns, mask(level))
        assert knot_filtered_homology(spec, level, top) == {
            g: oracle.get(g, 0) for g in range(top + 1)
        }
