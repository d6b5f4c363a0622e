"""Slow references for the N(p,q) machinery of ``echtk.nseq``.

:func:`lattice_count_rows` counts the triangle lattice points row by row,
the loop the library's floor sum replaces.  :func:`nk_prefix` lists
N_0..N_{k_max} by expanding ``runs``; it checks nothing by itself and
stands where a test needs the values as one list.
"""

from echtk.nseq import runs


def lattice_count_rows(p, q, bound):
    """Pairs (a, b) of nonnegative integers with a*p + b*q <= bound, one
    row of a at a time."""
    if bound < 0:
        return 0
    return sum((bound - a * p) // q + 1 for a in range(bound // p + 1))


def nk_prefix(p, q, k_max):
    return [value for value, length in runs(p, q, k_max) for _ in range(length)]
