"""Property tests for the order and floor laws of ``InfRat`` over random
fractions and infinitesimal coefficients."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from echtk.exact import InfRat, ceil_inf, cmp_inf, floor_inf  # noqa: E402

RATS = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**4))
NUMBERS = st.builds(InfRat, RATS, st.integers(-5, 5))


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(x=NUMBERS, n=st.integers(-10**6, 10**6))
def test_floor_laws(x, n):
    f = floor_inf(x)
    assert InfRat(f) <= x < InfRat(f + 1)
    assert ceil_inf(x) == -floor_inf(-x)
    assert floor_inf(x + n) == f + n


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(x=NUMBERS, y=NUMBERS)
def test_cmp_inf_is_the_tuple_order(x, y):
    a, b = (x.rat, x.delta), (y.rat, y.delta)
    assert cmp_inf(x, y) == (a > b) - (a < b)
    assert (x < y) == (a < b) and (x == y) == (a == b)


SCALARS = st.one_of(st.integers(-10**6, 10**6), RATS)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(
    x=st.one_of(SCALARS, NUMBERS, st.builds(InfRat, SCALARS)),
    y=st.one_of(SCALARS, NUMBERS, st.builds(InfRat, SCALARS)),
)
@hypothesis.example(x=InfRat(3), y=3)
@hypothesis.example(x=InfRat(Fraction(1, 2)), y=Fraction(1, 2))
@hypothesis.example(x=InfRat(3, 1), y=3)
def test_equal_values_hash_equal(x, y):
    if x == y:
        assert hash(x) == hash(y) and y in {x}
    assert (x == y) == (y == x) != (x != y)
    for v in (x, y):  # every drawn scalar also meets its equal InfRat
        if not isinstance(v, InfRat):
            assert InfRat(v) == v and hash(InfRat(v)) == hash(v) and v in {InfRat(v)}
