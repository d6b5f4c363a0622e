"""Property tests for the lattice paths.

``partition`` and ``vertices`` each read their path off one upper hull of
integer floor points.  Over random angles and random currents they equal
the reference constructions in lattice_path_oracle.py, which take InfRat
floors and ceilings with a lower hull for ``'-'``, and join two hulls at
the segment.  A current survives the round trip through its path."""

from fractions import Fraction
from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from echtk.currents import KnotParams, ReebCurrent  # noqa: E402
from echtk.exact import InfRat  # noqa: E402
from echtk.nseq import partition  # noqa: E402
from echtk.toric import current_to_path, path_to_current, vertices  # noqa: E402
from lattice_path_oracle import partition_reference, vertices_reference  # noqa: E402

RATS = st.builds(Fraction, st.integers(-200, 200), st.integers(1, 60))
THETAS = st.one_of(
    st.builds(InfRat, RATS, st.integers(-3, 3)),
    RATS,
    st.integers(-20, 20),
)
KNOTS = (
    st.tuples(st.integers(1, 30), st.integers(1, 30))
    .filter(lambda pq: gcd(*pq) == 1)
    .map(lambda pq: KnotParams(*pq))
)
CURRENTS = st.builds(
    ReebCurrent, st.integers(0, 4), st.integers(0, 1), st.integers(0, 25), st.integers(0, 25)
)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(theta=THETAS, m=st.integers(1, 120), sign=st.sampled_from("+-"))
def test_partition_equals_the_two_hull_reference(theta, m, sign):
    assert partition(theta, m, sign) == partition_reference(theta, m, sign)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(kp=KNOTS, c=CURRENTS)
def test_vertices_equal_the_joined_hull_reference(kp, c):
    path = current_to_path(c, kp)
    assert vertices(path) == vertices_reference(path)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(kp=KNOTS, c=CURRENTS)
def test_path_current_round_trip(kp, c):
    assert path_to_current(current_to_path(c, kp)) == c
