"""The N(p,q) sequence and its lattice-point machinery.

``N_k(p,q)`` is the k-th smallest nonnegative integer combination
``a*p + b*q`` counted with multiplicity.  One value is found by binary
search on triangle lattice-point counts, each a floor sum, among the
p + q + 2 values that the lattice-area bounds of :func:`_bracket` leave;
the same bounds settle the order of two sequences far out
(:func:`_ordered_from`).  A whole prefix comes as runs of equal values
from the closed representation count of :func:`_walk`, which also lays
out the lines of the chain complex.
:class:`NSeq` keeps a deliberately independent brute-force path for
cross-validation.  The partition conditions are read off lattice paths,
each one upper hull of integer floor points (:func:`partition`).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from fractions import Fraction
from math import gcd, isqrt

from .exact import InfRat, coerce


def _check_pq(p: int, q: int) -> None:
    if p < 1 or q < 1:
        raise ValueError(f"p and q must be positive, got ({p}, {q})")
    if gcd(p, q) != 1:
        raise ValueError(f"p and q must be coprime, got ({p}, {q})")


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """Sum of (a*i + b) // m over i = 0..n-1, for m >= 1 and a, b >= 0, in
    O(log m) steps of a Euclid-like reduction (floor_sum of the AtCoder
    Library)."""
    total = 0
    while True:
        if a >= m:
            total += n * (n - 1) // 2 * (a // m)
            a %= m
        if b >= m:
            total += n * (b // m)
            b %= m
        top = a * n + b
        if top < m:
            return total
        n, b, m, a = top // m, top % m, a, m


def lattice_count(p: int, q: int, bound: int) -> int:
    """Number of pairs (a, b) of nonnegative integers with a*p + b*q <= bound.

    Row a of the n = bound // p + 1 rows holds (bound - a*p) // q + 1; with
    i = n - 1 - a that is 1 + (p*i + bound mod p) // q, summed by a floor sum."""
    if p < 1 or q < 1:
        raise ValueError(f"p and q must be positive, got ({p}, {q})")
    if bound < 0:
        return 0
    n = bound // p + 1
    return n + _floor_sum(n, q, p, bound % p)


def _least(holds: Callable[[int], bool], lo: int, hi: int) -> int:
    """Least n in lo..hi with holds(n), for a holds that is true at hi and
    stays true from its least true n on."""
    while lo < hi:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _bracket(p: int, q: int, k: int) -> tuple[int, int]:
    """(lo, hi) with lo <= N_k <= hi <= lo + p + q + 1.  The unit squares at
    the lattice points cover the triangle px + qy <= n and lie inside
    px + qy <= n + s, s = p + q, so n^2 <= 2pq*lattice_count(n) <= (n + s)^2:
    lattice_count(hi) > k, and lattice_count(n) > k needs n >= lo."""
    s, two_pq = p + q, 2 * p * q
    return max(0, isqrt(two_pq * (k + 1) - 1) + 1 - s), isqrt(two_pq * k) + 1


def nk(p: int, q: int, k: int) -> int:
    """k-th value (with multiplicity) of the sorted combinations a*p + b*q:
    the least n in :func:`_bracket` with lattice_count(n) > k."""
    _check_pq(p, q)
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _least(lambda n: lattice_count(p, q, n) > k, *_bracket(p, q, k))


def _ordered_from(src: tuple[int, int], dst: tuple[int, int]) -> int:
    """Least j0 with sqrt(2P*j0) - sqrt(2P'*j0) >= c = s_src + 1, for
    P = pq > P' = p'q'; by :func:`_bracket`, every j >= j0 then has
    N_j(src) >= sqrt(2Pj) - s_src >= sqrt(2P'j) + 1 >= N_j(dst).  The
    difference grows with j and reaches c by j = 2Pc^2/(P - P')^2, as
    sqrt(2P) - sqrt(2P') > (P - P')/sqrt(2P).  ``proven`` is that test squared."""
    P, P2, c = src[0] * src[1], dst[0] * dst[1], src[0] + src[1] + 1

    def proven(j: int) -> bool:
        lhs = 2 * j * (P - P2) - c * c
        return lhs >= 0 and lhs * lhs >= 8 * c * c * P2 * j

    return _least(proven, 0, 2 * P * c * c // (P - P2) ** 2 + 1)


def runs(p: int, q: int, k_max: int) -> Iterator[tuple[int, int, int]]:
    """(k, value, length) for each run of equal values in N_0 .. N_{k_max},
    in order, k its first index and the last run cut at k_max; bad
    arguments are refused at the call.

    The run of n has one index per representation n = a*p + b*q, so the
    runs are the counts of :func:`_walk` up to N_{k_max}, cut at k_max.
    """
    _check_pq(p, q)
    if k_max < 0:
        raise ValueError("k must be nonnegative")
    return ((k, n, count if k + count <= k_max else k_max + 1 - k)  # min() made runs 1.7x slower
            for k, n, _, count in _walk(p, q, nk(p, q, k_max)))


def _walk(p: int, q: int, top: int) -> Iterator[tuple[int, int, int, int]]:
    """``(k, n, a0, count)`` for n = 0, 1, ..., top that have a representation
    n = a*p + b*q: a0 = n * p^-1 mod q is the least a, and there are
    count = (n - a0*p) // pq + 1 of them, a = a0, a0 + q, ... (Popoviciu).
    k = lattice_count(p, q, n - 1), the sum of the earlier counts, is the
    first index with N_k = n.  The runs of N(p,q) and the lines of the chain
    complex are cut from it."""
    pq, step = p * q, pow(p, -1, q)  # a0 grows by p^-1 mod q per n
    a0 = k = 0
    for n in range(top + 1):
        if a0 * p <= n:
            count = (n - a0 * p) // pq + 1
            yield k, n, a0, count
            k += count
        a0 = (a0 + step) % q


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
    :func:`nk` or :func:`runs`, so the paths cross-validate each other.
    """

    def __init__(self, p: int, q: int):
        _check_pq(p, q)
        self.p = p
        self.q = q
        self._bound = 0
        self._vals: list[int] = [0]

    def _grow(self, k: int) -> None:
        while len(self._vals) <= k:
            p, q = self.p, self.q
            bound = self._bound = 2 * self._bound + max(p, q)
            self._vals = sorted(a * p + b * q for a in range(bound // p + 1)
                                for b in range((bound - a * p) // q + 1))

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


def _hull(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    # upper monotone chain over points already sorted by x; collinear points dropped
    chain: list[tuple[int, int]] = []
    for pt in points:
        while len(chain) >= 2 and _cross(chain[-2], chain[-1], pt) >= 0:
            chain.pop()
        chain.append(pt)
    return chain


def _corner_columns(lo: int, hi: int, b: int) -> range | list[int]:
    """The x of range(lo, hi) that can be corners of an upper hull of one
    point per column whose points in each residue class of x mod b lie on
    one line: a point between two of its class lies on their segment, so
    only the first and last b columns count."""
    if hi - lo <= 2 * b:
        return range(lo, hi)
    return [*range(lo, lo + b), *range(hi - b, hi)]


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
    line, through ``(x, ceil(theta*x))``; since ceil(theta*x) =
    -floor(-theta*x), it is the ``'+'`` path of -theta mirrored in y, with
    the same parts.  Parts are the horizontal displacements between
    consecutive lattice points on the path.
    """
    if m < 1:
        raise ValueError("multiplicity must be at least 1")
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    theta = coerce(theta) if sign == "+" else -coerce(theta)
    # floor((a/b + s*d) * x): for x >= 1, s < 0 only pulls an integer a*x/b
    # one below, so column x + b sits a above column x; x = 0 gives 0
    a, b, s = theta.rat.numerator, theta.rat.denominator, theta.delta
    floors = [(x, (a * x - (s < 0)) // b) for x in _corner_columns(1, m + 1, b)]
    parts = _edge_parts(_hull([(0, 0), *floors]))
    assert sum(parts) == m
    return parts
