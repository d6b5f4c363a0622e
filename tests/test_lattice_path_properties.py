"""Property tests for the lattice paths.

``partition`` and ``vertices`` each read their path off one upper hull of
integer floor points.  Over random angles and random currents they equal
the reference constructions in lattice_path_oracle.py, which take InfRat
floors and ceilings with a lower hull for ``'-'``, and join two hulls at
the segment.  A current survives the round trip through its path, and a
``LatticePath`` is accepted or refused, with the same message, exactly
as by the frozen dataclass it was."""

from fractions import Fraction
from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from echtk.currents import KnotParams, ReebCurrent  # noqa: E402
from echtk.exact import InfRat  # noqa: E402
from echtk.nseq import partition  # noqa: E402
from echtk.toric import LatticePath, current_to_path, path_to_current, vertices  # noqa: E402
from lattice_path_oracle import (  # noqa: E402
    LatticePathReference,
    partition_reference,
    vertices_reference,
)

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


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(
    kp=KNOTS,
    c=st.builds(
        ReebCurrent, st.integers(0, 4), st.integers(0, 1), st.integers(0, 600),
        st.integers(0, 600),
    ),
)
def test_vertices_of_long_sides_equal_the_joined_hull_reference(kp, c):
    # sides longer than 2q columns, where only their first and last q are read
    path = current_to_path(c, kp)
    assert vertices(path) == vertices_reference(path)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(kp=KNOTS, c=CURRENTS)
def test_path_current_round_trip(kp, c):
    assert path_to_current(current_to_path(c, kp)) == c


@hypothesis.settings(max_examples=500, deadline=None)
@hypothesis.given(
    kp=KNOTS,
    anchor=st.tuples(st.integers(-3, 40), st.integers(-3, 40)),
    m=st.integers(-3, 6),
    label=st.sampled_from(["e", "h", "", "E", "eh", None, 0]),
)
def test_path_validation_equals_the_dataclass_reference(kp, anchor, m, label):
    try:
        ref = LatticePathReference(kp, anchor, m, label)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            LatticePath(kp, anchor, m, label)
        assert str(info.value) == str(exc)
    else:
        path = LatticePath(kp, anchor, m, label)
        assert tuple(path) == (ref.kp, ref.anchor, ref.m, ref.label)
