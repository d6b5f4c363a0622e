"""Property test for the linking number.

``linking`` is one bilinear expression in the two exponent tuples.  Over
random coprime (p, q) and random pairs of currents that share no orbit it
equals the pairwise table summed orbit by orbit in ledger_oracle.py, in
either order."""

from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from echtk.currents import KnotParams, ReebCurrent, linking  # noqa: E402
from ledger_oracle import linking_reference  # noqa: E402


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(
    pq=st.tuples(st.integers(1, 30), st.integers(1, 30)).filter(lambda pq: gcd(*pq) == 1),
    exponents=st.tuples(
        st.integers(0, 40), st.integers(0, 1), st.integers(0, 40), st.integers(0, 40)
    ),
    owners=st.lists(st.booleans(), min_size=4, max_size=4),
)
def test_linking_equals_the_pairwise_table(pq, exponents, owners):
    # each orbit goes to one current or the other, so they share none
    kp = KnotParams(*pq)
    c1 = ReebCurrent(*(e if mine else 0 for e, mine in zip(exponents, owners)))
    c2 = ReebCurrent(*(0 if mine else e for e, mine in zip(exponents, owners)))
    assert linking(c1, c2, kp) == linking_reference(c1, c2, kp)
    assert linking(c2, c1, kp) == linking(c1, c2, kp)
