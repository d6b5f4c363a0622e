"""Property tests for the ledger route to the ECH index.

The index evaluator's ``components`` reads the ledger's ten orbibundle
pairings and expands Q(Z) as one integer expression.  Over random coprime
(p, q) and random admissible currents it equals the per-pair
``q_pairing`` expansion in ledger_oracle.py with term-by-term
Conley-Zehnder sums, and the closed form; on a fresh evaluator the closed
form grows the prefix sums that ``components`` then reads."""

from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from echtk.currents import KnotParams, ReebCurrent  # noqa: E402
from echtk.indices import _IndexEvaluator, ech_index, ech_index_from_components  # noqa: E402
from ledger_oracle import components_reference  # noqa: E402

COPRIME = st.tuples(st.integers(1, 30), st.integers(1, 30)).filter(lambda pq: gcd(*pq) == 1)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(
    pq=COPRIME,
    B=st.integers(0, 25),
    H=st.integers(0, 1),
    P=st.integers(0, 80),
    Q=st.integers(0, 80),
)
def test_components_equal_the_per_pair_expansion(pq, B, H, P, Q):
    kp = KnotParams(*pq)
    c = ReebCurrent(B, H, P, Q)
    value = ech_index_from_components(c, kp)
    assert value == components_reference(c, kp)
    assert value == ech_index(c, kp)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(
    pq=COPRIME,
    B=st.integers(0, 25),
    H=st.integers(0, 1),
    P=st.integers(0, 300),
    Q=st.integers(0, 300),
)
def test_a_fresh_evaluator_sizes_its_own_prefix_sums(pq, B, H, P, Q):
    p, q = pq
    evaluator = _IndexEvaluator(p, q)  # not the cached one: its sums start at [0]
    value = evaluator.index(B, H, P, Q)
    assert value == evaluator.components(B, H, P, Q)
    assert value == components_reference(ReebCurrent(B, H, P, Q), KnotParams(p, q))
    # grown through exactly the iterates read, not doubled
    assert (len(evaluator.sum_p), len(evaluator.sum_q)) == (P + 1, Q + 1)
