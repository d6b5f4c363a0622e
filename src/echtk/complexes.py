"""The Z/2 chain complex of admissible currents below a degree cutoff.

The differential sends h*gamma to p^p*gamma + q^q*gamma for every gamma
without the hyperbolic orbit and vanishes elsewhere; it preserves degree
and drops the index by exactly one.  Every nonzero boundary column
therefore has exactly two ones, so a column is stored as the pair of row
positions it hits.  Over GF(2) the rank of such a matrix is the rank of a
graphic matroid: read each column as an edge between its two rows; the
rank is the number of edges that join two different components, which
one union-find pass over the generators counts for every grading at once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .currents import KnotParams, ReebCurrent, admissible_exponents, degree, knot_filtration
from .exact import InfRat, coerce
from .indices import ech_index
from .nseq import nk, repeat_count


@dataclass(frozen=True)
class ComplexSpec:
    kp: KnotParams
    max_degree: int

    def __post_init__(self) -> None:
        if self.max_degree < 0:
            raise ValueError("degree cutoff must be nonnegative")


def _sorted_currents(spec: ComplexSpec) -> list[tuple[int, str, ReebCurrent]]:
    """(ech_index, canonical name, current) for every admissible current of
    degree at most the cutoff, in increasing order; names are unique, so
    the currents themselves are never compared."""
    kp = spec.kp
    out: list[tuple[int, str, ReebCurrent]] = []
    for exponents in admissible_exponents(kp, spec.max_degree):
        c = ReebCurrent(*exponents)
        out.append((ech_index(c, kp), c.name(), c))
    out.sort()
    return out


def enumerate_currents(spec: ComplexSpec) -> list[ReebCurrent]:
    """All admissible currents of degree at most the cutoff, sorted by
    (ech_index, canonical name)."""
    return [c for _, _, c in _sorted_currents(spec)]


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

    Rows follow the order of ``admissible_exponents``; the ranks do not
    depend on it, and no map from current to row is kept."""

    spec: ComplexSpec
    generators: list[ReebCurrent]
    grading: list[int]
    columns: list[tuple[int, ...]]  # row positions: () or the two targets

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


def differential(spec: ComplexSpec) -> BoundaryMatrix:
    kp = spec.kp
    p, q = kp.p, kp.q
    exponents = list(admissible_exponents(kp, spec.max_degree))
    row = {e: i for i, e in enumerate(exponents)}
    # degree is preserved and every current of a degree is enumerated, so both targets exist
    columns = [
        (row[B, 0, P + p, Q], row[B, 0, P, Q + q]) if H else ()
        for B, H, P, Q in exponents
    ]
    del row  # freed before the currents are built, to keep the peak down
    gens = [ReebCurrent(*e) for e in exponents]
    return BoundaryMatrix(spec, gens, [ech_index(c, kp) for c in gens], columns)


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
    joins: Counter[int] = Counter()
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
            joins[grading[j]] += 1
    sizes = Counter(g for g, flag in zip(grading, keep) if flag)
    return {g: n - joins[g] - joins[g + 1] for g, n in sizes.items()}


def homology(spec: ComplexSpec, max_index: int) -> dict[int, int]:
    """Homology rank in each index 0..max_index.

    Refuses when the degree cutoff does not certify the window, reporting
    the cutoff that would.
    """
    _certify(spec, max_index)
    return differential(spec).homology(max_index)


def knot_filtered_homology(
    spec: ComplexSpec, filtration: InfRat | int, max_index: int
) -> dict[int, int]:
    """Homology of the subcomplex of currents with knot filtration <= K."""
    _certify(spec, max_index)
    cutoff = coerce(filtration)
    matrix = differential(spec)
    keep = [knot_filtration(c, spec.kp) <= cutoff for c in matrix.generators]
    ranks = _reduce_ranks(matrix.grading, matrix.columns, keep)
    return {g: ranks.get(g, 0) for g in range(max_index + 1)}


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
