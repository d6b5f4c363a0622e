"""The N(p,q) sequence and its lattice-point machinery.

``N_k(p,q)`` is the k-th smallest nonnegative integer combination
``a*p + b*q`` counted with multiplicity.  The production path computes it
by binary search on triangle lattice-point counts; :class:`NSeq` keeps a
deliberately independent brute-force path for cross-validation.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import groupby
from math import gcd, isqrt

from .exact import InfRat, ceil_inf, floor_inf


def _check_pq(p: int, q: int) -> None:
    if p < 1 or q < 1:
        raise ValueError(f"p and q must be positive, got ({p}, {q})")
    if gcd(p, q) != 1:
        raise ValueError(f"p and q must be coprime, got ({p}, {q})")


def lattice_count(p: int, q: int, bound: int) -> int:
    """Number of pairs (a, b) of nonnegative integers with a*p + b*q <= bound."""
    if bound < 0:
        return 0
    if p < q:
        p, q = q, p  # sum over the sparser generator: fewer rows
    total = 0
    for a in range(bound // p + 1):
        total += (bound - a * p) // q + 1
    return total


def nk(p: int, q: int, k: int) -> int:
    """k-th value (with multiplicity) of the sorted combinations a*p + b*q."""
    _check_pq(p, q)
    if k < 0:
        raise ValueError("k must be nonnegative")
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


def nk_upto(p: int, q: int, k_max: int) -> list[int]:
    """The values N_0 .. N_{k_max} in one pass (bulk form used by scans)."""
    _check_pq(p, q)
    bound = nk(p, q, k_max)
    vals = [
        a * p + b * q
        for a in range(bound // p + 1)
        for b in range((bound - a * p) // q + 1)
    ]
    vals.sort()
    return vals[: k_max + 1]


def repeat_counts(values: Iterable[int]) -> Iterator[tuple[int, int]]:
    """(value, length) for each run of equal consecutive values, in order.

    Over the sorted prefix N_0..N_k the j-th index of a run (from 1) is the
    repeat count of that index, and the runs partition 0..k in order.
    """
    for value, run in groupby(values):
        yield value, len(list(run))


def repeat_count(p: int, q: int, k: int) -> int:
    """How many indices j <= k have N_j = N_k."""
    v = nk(p, q, k)
    return k + 1 - lattice_count(p, q, v - 1)


def nk_closed_form(p: int, q: int, n: int) -> tuple[int, int, int]:
    """Largest k with N_k = n*p*q, with the radical closed form for N_k.

    Returns (k, N_k, repeats).  At these special indices
    ``N_k = (sqrt(8pqk + (p+q+1)^2) - (p+q+1)) / 2`` exactly and the value
    occurs ``n + 1`` times up to k.  The closed form is recomputed and
    checked against the search path; a mismatch means a bug.
    """
    _check_pq(p, q)
    if n < 0:
        raise ValueError("n must be nonnegative")
    value = n * p * q
    k = lattice_count(p, q, value) - 1
    radical = 8 * p * q * k + (p + q + 1) ** 2
    root = isqrt(radical)
    if root * root != radical:
        raise RuntimeError(f"radical {radical} is not a perfect square at n={n}")
    if (root - (p + q + 1)) % 2 != 0:
        raise RuntimeError(f"closed form for N_k is not integral at n={n}")
    closed = (root - (p + q + 1)) // 2
    if closed != value or nk(p, q, k) != value:
        raise RuntimeError(
            f"closed form/search mismatch at (p,q,n)=({p},{q},{n}): "
            f"{closed} vs {value} vs {nk(p, q, k)}"
        )
    repeats = n + 1
    if repeat_count(p, q, k) != repeats:
        raise RuntimeError(f"repeat count mismatch at (p,q,n)=({p},{q},{n})")
    return k, value, repeats


class NSeq:
    """Materialized prefix of N(p,q), grown on demand.

    Generation is by nested loops plus a sort and shares no code with
    :func:`nk`, so the two paths cross-validate each other.
    """

    def __init__(self, p: int, q: int):
        _check_pq(p, q)
        self.p = p
        self.q = q
        self._bound = 0
        self._vals: list[int] = [0]

    def _grow(self, k: int) -> None:
        while len(self._vals) <= k:
            self._bound = 2 * self._bound + max(self.p, self.q)
            vals = []
            a = 0
            while a * self.p <= self._bound:
                b = 0
                while a * self.p + b * self.q <= self._bound:
                    vals.append(a * self.p + b * self.q)
                    b += 1
                a += 1
            vals.sort()
            self._vals = vals

    def value(self, k: int) -> int:
        if k < 0:
            raise ValueError("k must be nonnegative")
        if k >= len(self._vals):
            self._grow(k)
        return self._vals[k]

    def prefix(self, k_max: int) -> list[int]:
        self.value(k_max)
        return self._vals[: k_max + 1]

    def __getitem__(self, k: int) -> int:
        return self.value(k)


# -- partition conditions ---------------------------------------------


def _cross(o: tuple[int, int], a: tuple[int, int], b: tuple[int, int]) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull(points: list[tuple[int, int]], upper: bool) -> list[tuple[int, int]]:
    # monotone chain over points already sorted by x; collinear points dropped
    chain: list[tuple[int, int]] = []
    for pt in points:
        while len(chain) >= 2:
            c = _cross(chain[-2], chain[-1], pt)
            if (c >= 0) if upper else (c <= 0):
                chain.pop()
            else:
                break
        chain.append(pt)
    return chain


def _edge_parts(chain: list[tuple[int, int]]) -> tuple[int, ...]:
    # split every edge at its interior lattice points, read left to right
    parts: list[int] = []
    for (x1, y1), (x2, y2) in zip(chain, chain[1:]):
        g = gcd(x2 - x1, abs(y2 - y1))
        parts.extend([(x2 - x1) // g] * g)
    return tuple(parts)


def partition(theta: InfRat | Fraction | int, m: int, sign: str) -> tuple[int, ...]:
    """Partition of m read off the extremal lattice path against y = theta*x.

    ``sign='+'``: highest concave path below the line, through the points
    ``(x, floor(theta*x))``.  ``sign='-'``: lowest convex path above the
    line, through ``(x, ceil(theta*x))``.  Parts are the horizontal
    displacements between consecutive lattice points on the path.
    """
    if m < 1:
        raise ValueError("multiplicity must be at least 1")
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    if not isinstance(theta, InfRat):
        theta = InfRat(theta, 0)
    if sign == "+":
        pts = [(x, floor_inf(theta * x)) for x in range(m + 1)]
        chain = _hull(pts, upper=True)
    else:
        pts = [(x, ceil_inf(theta * x)) for x in range(m + 1)]
        chain = _hull(pts, upper=False)
    parts = _edge_parts(chain)
    assert sum(parts) == m
    return parts
