"""Property tests over random coprime (p,q).

The union-find homology ranks equal those of the bitset column reduction
in gf2_oracle.py, on windows of the currents complex and on random
two-entry complexes that close cycles.  The closed-form index evaluator
on exponent tuples equals the ledger expansion and the lattice-path
index, has the parity of H, and satisfies the h/b step relations.  Every
b-block of the complex is a union of path graphs, so the union-find joins
every nonzero column."""

from collections import Counter
from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from echtk.complexes import ComplexSpec, _complex, _reduce_ranks  # noqa: E402
from echtk.currents import KnotParams, ReebCurrent  # noqa: E402
from echtk.exact import InfRat  # noqa: E402
from echtk.indices import _index_evaluator, ech_index_from_components  # noqa: E402
from echtk.toric import current_to_path, path_index  # noqa: E402
from gf2_oracle import (  # noqa: E402
    assert_ranks_match_oracle,
    bitset_columns,
    bitset_ranks,
    subcomplex_ranks,
)

PAIRS = st.integers(2, 16).flatmap(lambda q: st.tuples(st.integers(1, q - 1), st.just(q)))


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(
    pq=PAIRS,
    max_degree=st.integers(0, 45),
    level=st.integers(0, 45),
    delta=st.integers(-2, 2),
)
def test_union_find_ranks_match_oracle_on_random_windows(pq, max_degree, level, delta):
    p, q = pq
    hypothesis.assume(gcd(p, q) == 1)
    assert_ranks_match_oracle(KnotParams(p, q), max_degree, [InfRat(level, delta)])


@st.composite
def two_entry_complexes(draw):
    """Grade-0 vertices followed by grade-1 columns joining two of them,
    with a keep-mask closed under taking boundaries."""
    n = draw(st.integers(2, 12))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]),
        max_size=20,
    ))
    kept_vertices = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    kept_edges = [
        draw(st.booleans()) and kept_vertices[a] and kept_vertices[b] for a, b in edges
    ]
    grading = [0] * n + [1] * len(edges)
    columns = [()] * n + edges
    return grading, columns, kept_vertices + kept_edges


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(complex_=two_entry_complexes())
def test_union_find_ranks_match_oracle_on_random_graphs(complex_):
    grading, columns, keep = complex_
    assert _reduce_ranks(grading, columns, [True] * len(grading)) == bitset_ranks(
        grading, bitset_columns(columns)
    )
    assert _reduce_ranks(grading, columns, keep) == subcomplex_ranks(grading, columns, keep)


COPRIME_UP_TO_30 = st.tuples(st.integers(1, 30), st.integers(1, 30)).filter(
    lambda pq: gcd(*pq) == 1
)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(
    pq=COPRIME_UP_TO_30,
    B=st.integers(0, 6),
    H=st.integers(0, 1),
    P=st.integers(0, 60),
    Q=st.integers(0, 60),
)
def test_index_evaluator_matches_independent_routes(pq, B, H, P, Q):
    p, q = pq
    kp = KnotParams(p, q)
    evaluator = _index_evaluator(p, q)
    evaluator.grow(P + p, Q + q)  # covers the p^p and q^q steps
    index = evaluator.index
    c = ReebCurrent(B, H, P, Q)
    value = index(B, H, P, Q)
    assert value == ech_index_from_components(c, kp)
    assert value == path_index(current_to_path(c, kp))
    assert value % 2 == H
    h_idx = index(B, 1, P, Q)
    assert h_idx == index(B, 0, P + p, Q) + 1
    assert h_idx == index(B, 0, P, Q + q) + 1
    assert h_idx == index(B + 1, 0, P, Q) - 1


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(pq=COPRIME_UP_TO_30, b_top=st.integers(0, 3), extra=st.integers(0, 40))
def test_blocks_are_path_graphs(pq, b_top, extra):
    """Within one (degree, B) the H = 0 rows are the lattice points of
    qP + pQ = degree - pqB, one step (p, -q) apart, and each nonzero column
    joins two neighbours on that line, each pair once.  A path has no
    cycle, so every column joins two components: the join count of
    ``_reduce_ranks`` is the number of nonzero columns."""
    p, q = pq
    exponents, grading, columns = _complex(ComplexSpec(KnotParams(p, q), b_top * p * q + extra))
    lines: dict[tuple[int, int], set[int]] = {}  # (degree, B) -> P of the rows on its line
    for B, H, P, Q in exponents:
        if not H:
            lines.setdefault((p * q * B + q * P + p * Q, B), set()).add(P)
    for (deg, B), ps in lines.items():
        rest = deg - p * q * B
        assert ps == {P for P in range(rest // q + 1) if (rest - q * P) % p == 0}
        ordered = sorted(ps)
        assert all(b - a == p for a, b in zip(ordered, ordered[1:]))
    edges = set()
    for j, col in enumerate(columns):
        if not col:
            continue
        B, H, P, Q = exponents[j]
        (B1, H1, P1, Q1), (B2, H2, P2, Q2) = (exponents[i] for i in col)
        assert H == 1 and H1 == H2 == 0 and B1 == B2 == B
        assert q * P1 + p * Q1 == q * P2 + p * Q2 == q * P + p * Q + p * q
        assert (P1 - P2, Q1 - Q2) == (p, -q)
        edges.add(col)
    n_columns = sum(1 for col in columns if col)
    assert len(edges) == n_columns
    # the columns are the odd-index generators and odd ranks read n_g - joins_g
    ranks = _reduce_ranks(grading, columns, [True] * len(grading))
    sizes = Counter(grading)
    assert sum(sizes[g] - ranks[g] for g in sizes if g % 2) == n_columns
