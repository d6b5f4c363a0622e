"""Slow GF(2) oracle for the homology of the currents complex.

Columns are int bitsets over row positions and are reduced left to right
in the standard persistence style.  The library counts ranks with a
union-find pass over two-entry columns instead; this module is the
independent check of that shortcut, used only by the tests.
"""

from echtk.complexes import (
    ComplexSpec,
    _reduce_ranks,
    differential,
    knot_filtered_homology,
)
from echtk.currents import knot_filtration
from echtk.nseq import lattice_count


def bitset_columns(columns):
    """Sparse row-position columns as int bitsets."""
    return [sum(1 << row for row in col) for col in columns]


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


def assert_ranks_match_oracle(kp, max_degree, levels):
    """The library's ranks equal the oracle's for the whole complex and for
    the knot-filtered subcomplex at each level: in every grading, and over
    the largest index window the cutoff certifies."""
    spec = ComplexSpec(kp, max_degree)
    matrix = differential(spec)
    top = 2 * (lattice_count(kp.p, kp.q, max_degree) - 1)
    oracle = bitset_ranks(matrix.grading, bitset_columns(matrix.columns))
    everything = [True] * len(matrix.generators)
    assert _reduce_ranks(matrix.grading, matrix.columns, everything) == oracle
    assert matrix.homology(top) == {g: oracle.get(g, 0) for g in range(top + 1)}
    for level in levels:
        keep = [knot_filtration(c, kp) <= level for c in matrix.generators]
        oracle = subcomplex_ranks(matrix.grading, matrix.columns, keep)
        assert _reduce_ranks(matrix.grading, matrix.columns, keep) == oracle
        assert knot_filtered_homology(spec, level, top) == {
            g: oracle.get(g, 0) for g in range(top + 1)
        }
