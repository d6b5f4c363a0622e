"""The Z/2 chain complex of admissible currents below a degree cutoff.

The differential sends h*gamma to p^p*gamma + q^q*gamma for every gamma
without the hyperbolic orbit and vanishes elsewhere; it preserves degree
and drops the index by exactly one.  Every nonzero boundary column
therefore has exactly two ones, so a column is stored as the pair of row
positions it hits.

The two targets of h*b^B*p^P*q^Q share B and lie on the line
qP' + pQ' = degree - pq*B, one step (p, -q) apart, and each pair of
neighbours on that line is joined by one column.  Read as edges, the
columns form paths, which have no cycle, so the nonzero columns are
independent over GF(2): the rank r_g of the grade-g boundary map is the
number of grade-g generators with a boundary, and the homology rank is
H_g = n_g - r_g - r_{g+1}.  One counting pass gives it: a generator
without boundary adds 1 to its grade, one with a boundary subtracts 1 from
the grade below.  A source and both of its targets also share the knot
filtration key (degree, B), so every filtered subcomplex is closed under
the differential, its columns form paths too, and the same count holds.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import cached_property

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
        return _ranks(zip(self.grading, self.columns), max_index)


def _complex(spec: ComplexSpec) -> tuple[list[Exponents], list[int], list[tuple[int, ...]]]:
    """``(exponents, grading, columns)`` of the complex: the (B, H, P, Q)
    tuples in the order of ``admissible_exponents``, their ECH indices, and
    the boundary columns as row positions.  h*b^B*p^P*q^Q hits
    b^B*p^(P+p)*q^Q and b^B*p^P*q^(Q+q), of the same degree, so both are
    listed."""
    p, q, top = spec.kp.p, spec.kp.q, spec.max_degree
    exponents = list(admissible_exponents(spec.kp, top))
    row = {e: i for i, e in enumerate(exponents)}
    columns = [(row[B, 0, P + p, Q], row[B, 0, P, Q + q]) if H else () for B, H, P, Q in exponents]
    index = _window_evaluator(p, q, top).index
    return exponents, [index(*e) for e in exponents], columns


def differential(spec: ComplexSpec) -> BoundaryMatrix:
    return BoundaryMatrix(spec, *_complex(spec))


def _ranks(graded: Iterable[tuple[int, object]], max_index: int) -> dict[int, int]:
    """Homology rank in each index 0..max_index from ``(grade, boundary)``
    per generator, the boundary read for whether it is nonzero.  The
    nonzero columns are independent, so a generator without boundary adds 1
    to its grade and one with a boundary subtracts 1 from the grade below:
    its own n_g and r_g cancel, and r_g lowers H_(g-1)."""
    ranks: dict[int, int] = {}
    get = ranks.get
    for g, boundary in graded:
        if boundary:
            g -= 1
            ranks[g] = get(g, 0) - 1
        else:
            ranks[g] = get(g, 0) + 1
    return {g: get(g, 0) for g in range(max_index + 1)}


def homology(spec: ComplexSpec, max_index: int) -> dict[int, int]:
    """Homology rank in each index 0..max_index.

    Refuses when the degree cutoff does not certify the window, reporting
    the cutoff that would.  A current has a nonzero boundary exactly when
    it contains h.
    """
    _certify(spec, max_index)
    kp, top = spec.kp, spec.max_degree
    index = _window_evaluator(kp.p, kp.q, top).index
    return _ranks(((index(*e), e[1]) for e in admissible_exponents(kp, top)), max_index)


def knot_filtered_homology(
    spec: ComplexSpec, filtration: InfRat | int, max_index: int
) -> dict[int, int]:
    """Homology of the subcomplex of currents with knot filtration <= K.

    A current of degree above K is never kept and the differential keeps
    the degree, so the subcomplex is read from the complex cut at
    min(max_degree, floor(K)); below degree 0 that cut has no current."""
    _certify(spec, max_index)
    cutoff = coerce(filtration)
    kp = spec.kp
    top = min(spec.max_degree, cutoff.rat.numerator // cutoff.rat.denominator)
    index = _window_evaluator(kp.p, kp.q, top).index
    kept = _kept(kp, cutoff)
    graded = ((index(*e), e[1]) for e in admissible_exponents(kp, top) if kept(*e))
    return _ranks(graded, max_index)


def _kept(kp: KnotParams, cutoff: InfRat) -> Callable[[int, int, int, int], bool]:
    """``kept(B, H, P, Q)``: whether ``knot_filtration <= cutoff``, on
    integers: degree + B*d <= num/den + e*d is the lexicographic order of
    the pairs (degree * den, B) and (num, e).  A source and both of its
    targets share the pair, so the kept currents form a subcomplex."""
    p, q, pq = kp.p, kp.q, kp.pq
    num, den, e = cutoff.rat.numerator, cutoff.rat.denominator, cutoff.delta
    return lambda B, H, P, Q: ((pq * (B + H) + q * P + p * Q) * den, B) <= (num, e)


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
