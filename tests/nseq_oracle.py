"""Slow references for the N(p,q) machinery of ``echtk.nseq``.

:func:`lattice_count_rows` counts the triangle lattice points row by row,
the loop the library's floor sum replaces.  :func:`nk_doubling` finds
N_k by the search the library's area bracket replaces.  :func:`nk_prefix` lists
N_0..N_{k_max} by expanding ``runs``; it checks nothing by itself and
stands where a test needs the values as one list.
"""

from echtk.nseq import lattice_count, runs


def lattice_count_rows(p, q, bound):
    """Pairs (a, b) of nonnegative integers with a*p + b*q <= bound, one
    row of a at a time."""
    if bound < 0:
        return 0
    return sum((bound - a * p) // q + 1 for a in range(bound // p + 1))


def nk_doubling(p, q, k):
    """N_k, the least n with more than k lattice points: double a bound from
    max(p, q) until it holds k + 1 of them, then bisect."""
    if k == 0:
        return 0
    lo, hi = 0, max(p, q)
    while lattice_count(p, q, hi) < k + 1:
        lo, hi = hi, hi * 2
    while lo < hi:
        mid = (lo + hi) // 2
        if lattice_count(p, q, mid) >= k + 1:
            hi = mid
        else:
            lo = mid + 1
    return lo


def nk_prefix(p, q, k_max):
    return [value for _, value, length in runs(p, q, k_max) for _ in range(length)]
