"""The Z/2 chain complex of admissible currents below a degree cutoff.

The differential sends h*gamma to p^p*gamma + q^q*gamma for every gamma
without the hyperbolic orbit and vanishes elsewhere; it preserves degree
and drops the index by exactly one.  Every nonzero boundary column
therefore has exactly two ones, so a column is stored as the pair of row
positions it hits.  Over GF(2) the rank of such a matrix is the rank of a
graphic matroid: read each column as an edge between its two rows; the
rank is the number of edges that join two different components, which
one union-find pass over the generators counts for every grading at once.

A source h*b^B*p^P*q^Q and both of its targets share B, so the complex is
the direct sum of its b-blocks, one per B; the knot filtration compares
(degree, B), so each filtered subcomplex splits the same way.  Homology is
reduced one b-block at a time and the ranks of the blocks add.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, groupby
from operator import itemgetter

from .currents import KnotParams, ReebCurrent, _namer, admissible_exponents, degree
from .exact import InfRat, coerce
from .indices import _window_evaluator, ech_index
from .nseq import nk, repeat_count

Exponents = tuple[int, int, int, int]  # (B, H, P, Q) of b^B h^H p^P q^Q


@dataclass(frozen=True)
class ComplexSpec:
    kp: KnotParams
    max_degree: int

    def __post_init__(self) -> None:
        if self.max_degree < 0:
            raise ValueError("degree cutoff must be nonnegative")


def _sorted_currents(spec: ComplexSpec) -> list[tuple[int, str, Exponents]]:
    """(ech_index, canonical name, exponents) for every admissible current
    of degree at most the cutoff, in increasing order; names are unique, so
    the exponents are never compared."""
    kp, top = spec.kp, spec.max_degree
    index = _window_evaluator(kp.p, kp.q, top).index
    name = _namer(kp, top)
    out = [(index(*e), name(*e), e) for e in admissible_exponents(kp, top)]
    out.sort()
    return out


def enumerate_currents(spec: ComplexSpec) -> list[ReebCurrent]:
    """All admissible currents of degree at most the cutoff, sorted by
    (ech_index, canonical name)."""
    return [ReebCurrent(*e) for _, _, e in _sorted_currents(spec)]


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


def _certify(spec: ComplexSpec, max_index: int) -> None:
    """Refuse an index window the degree cutoff does not certify,
    reporting the cutoff that would."""
    if max_index < 0:
        raise ValueError("max index must be nonnegative")
    need = required_degree(spec.kp, max_index)
    if spec.max_degree < need:
        raise WindowError(max_index, need)


@dataclass
class BoundaryMatrix:
    """Sparse GF(2) boundary matrix with generator gradings attached.

    Rows are the exponent tuples in the order of ``admissible_exponents``;
    the ranks do not depend on it, and no map from current to row is kept.
    ``generators``, the rows as currents, is built on first read."""

    spec: ComplexSpec
    exponents: list[Exponents]
    grading: list[int]
    columns: list[tuple[int, ...]]  # row positions: () or the two targets

    @cached_property
    def generators(self) -> list[ReebCurrent]:
        return [ReebCurrent(*e) for e in self.exponents]

    def d_squared_is_zero(self) -> bool:
        for col in self.columns:
            acc: set[int] = set()
            for row in col:
                acc.symmetric_difference_update(self.columns[row])
            if acc:
                return False
        return True

    def homology(self, max_index: int) -> dict[int, int]:
        """Homology rank in each index 0..max_index; refuses a window the
        cutoff does not certify."""
        _certify(self.spec, max_index)
        ranks = _reduce_ranks(self.grading, self.columns, [True] * len(self.grading))
        return {g: ranks.get(g, 0) for g in range(max_index + 1)}


def _columns(exponents: list[Exponents], p: int, q: int) -> list[tuple[int, ...]]:
    """Boundary columns as positions in ``exponents``: h*b^B*p^P*q^Q hits
    b^B*p^(P+p)*q^Q and b^B*p^P*q^(Q+q), of the same degree and B, so both
    are listed when every current of that degree and B is."""
    row = {e: i for i, e in enumerate(exponents)}
    return [(row[B, 0, P + p, Q], row[B, 0, P, Q + q]) if H else () for B, H, P, Q in exponents]


def _complex(spec: ComplexSpec) -> tuple[list[Exponents], list[int], list[tuple[int, ...]]]:
    """``(exponents, grading, columns)`` of the complex: the (B, H, P, Q)
    tuples in the order of ``admissible_exponents``, their ECH indices, and
    the boundary columns as row positions."""
    kp = spec.kp
    exponents = list(admissible_exponents(kp, spec.max_degree))
    columns = _columns(exponents, kp.p, kp.q)
    index = _window_evaluator(kp.p, kp.q, spec.max_degree).index
    return exponents, [index(*e) for e in exponents], columns


def differential(spec: ComplexSpec) -> BoundaryMatrix:
    return BoundaryMatrix(spec, *_complex(spec))


def _b_blocks(kp: KnotParams, max_degree: int) -> Iterator[list[Exponents]]:
    """The exponents of each b-block in increasing B: first the currents
    b^B*p^P*q^Q, then the currents h*b^B*p^P*q^Q.  ``admissible_exponents``
    lists them as two runs, the second after the first run of B + 1."""
    waiting: dict[int, list[Exponents]] = {}
    for (B, H), run in groupby(admissible_exponents(kp, max_degree), itemgetter(0, 1)):
        if H:
            block = waiting.pop(B)
            block += run
            yield block
        else:
            waiting[B] = list(run)
    yield from waiting.values()  # the top B, which has no h-currents


def _blocked_ranks(kp: KnotParams, max_degree: int, cutoff: InfRat | None) -> Counter[int]:
    """Homology rank per grading of the complex cut at ``max_degree``, or of
    its subcomplex of knot filtration <= ``cutoff``: the sum over the
    b-blocks of one ``_reduce_ranks`` pass each."""
    p, q = kp.p, kp.q
    index = _window_evaluator(p, q, max_degree).index
    ranks: Counter[int] = Counter()
    for block in _b_blocks(kp, max_degree):
        keep = [True] * len(block) if cutoff is None else _filtration_mask(kp, block, cutoff)
        ranks.update(_reduce_ranks([index(*e) for e in block], _columns(block, p, q), keep))
    return ranks


def _reduce_ranks(
    grading: list[int], columns: list[tuple[int, ...]], keep: list[bool]
) -> dict[int, int]:
    """Homology rank per grading of the subcomplex of generators flagged
    in ``keep``.

    A column joins its two rows in a union-find forest; the rank r_g of
    the grade-g boundary map is the number of grade-g columns that join
    two different components, and the homology rank is n_g - r_g - r_{g+1}.
    Rows of different gradings are never joined, so one pass covers all.
    """
    parent = list(range(len(grading)))
    joins: dict[int, int] = {}
    for j, col in enumerate(columns):
        if not (col and keep[j]):
            continue
        a, b = col
        if not (keep[a] and keep[b]):
            # the differential never raises the filtration, so a kept
            # source cannot hit a dropped target
            raise AssertionError("filtration is not respected by the differential")
        # find both roots, halving the paths on the way
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[a] = b
            g = grading[j]
            joins[g] = joins.get(g, 0) + 1
    joined = joins.get
    sizes = Counter(compress(grading, keep))
    return {g: n - joined(g, 0) - joined(g + 1, 0) for g, n in sizes.items()}


def homology(spec: ComplexSpec, max_index: int) -> dict[int, int]:
    """Homology rank in each index 0..max_index.

    Refuses when the degree cutoff does not certify the window, reporting
    the cutoff that would.
    """
    _certify(spec, max_index)
    ranks = _blocked_ranks(spec.kp, spec.max_degree, None)
    return {g: ranks.get(g, 0) for g in range(max_index + 1)}


def knot_filtered_homology(
    spec: ComplexSpec, filtration: InfRat | int, max_index: int
) -> dict[int, int]:
    """Homology of the subcomplex of currents with knot filtration <= K.

    A current of degree above K is never kept and the differential keeps
    the degree, so the subcomplex is read from the complex cut at
    min(max_degree, floor(K)); below degree 0 it is empty."""
    _certify(spec, max_index)
    cutoff = coerce(filtration)
    top = min(spec.max_degree, cutoff.rat.numerator // cutoff.rat.denominator)
    if top < 0:
        return dict.fromkeys(range(max_index + 1), 0)
    ranks = _blocked_ranks(spec.kp, top, cutoff)
    return {g: ranks.get(g, 0) for g in range(max_index + 1)}


def _filtration_mask(kp: KnotParams, exponents: list[Exponents], cutoff: InfRat) -> list[bool]:
    """``knot_filtration <= cutoff`` for each (B, H, P, Q), on integers:
    degree + B*d <= num/den + e*d is the lexicographic order of the pairs
    (degree * den, B) and (num, e)."""
    p, q, pq = kp.p, kp.q, kp.pq
    num, den, e = cutoff.rat.numerator, cutoff.rat.denominator, cutoff.delta
    return [((pq * (B + H) + q * P + p * Q) * den, B) <= (num, e) for B, H, P, Q in exponents]


def linking_threshold(kp: KnotParams, k: int) -> InfRat:
    """Filtration level at which the index-2k class first appears."""
    return InfRat(nk(kp.p, kp.q, k), repeat_count(kp.p, kp.q, k) - 1)


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
    repeats = repeat_count(p, q, k)
    # lattice point on px + qy = value closest to the x-axis
    y0 = next(y for y in range(p) if (value - q * y) % p == 0 and value - q * y >= 0)
    x0 = (value - q * y0) // p
    b = repeats - 1
    rep = ReebCurrent(B=b, H=0, P=y0, Q=x0 - b * q)
    assert degree(rep, spec.kp) == value
    assert ech_index(rep, spec.kp) == index
    return rep
