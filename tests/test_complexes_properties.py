"""Property tests: the union-find homology ranks equal those of the bitset
column reduction in gf2_oracle.py, on windows of the currents complex over
random coprime (p,q) and on random two-entry complexes that close cycles."""

from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from echtk.complexes import _reduce_ranks  # noqa: E402
from echtk.currents import KnotParams  # noqa: E402
from echtk.exact import InfRat  # noqa: E402
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
