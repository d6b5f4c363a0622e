import random
import re
from bisect import bisect_left
from fractions import Fraction
from itertools import groupby
from math import gcd

import pytest

from echtk.exact import InfRat, floor_inf
from echtk.nseq import (
    NSeq,
    _bracket,
    _walk,
    lattice_count,
    nk,
    nk_closed_form,
    partition,
    repeat_count,
    runs,
)
from golden_tables import PARTITION_DIGEST
from lattice_path_oracle import partition_digest, partition_reference
from nseq_oracle import lattice_count_rows, nk_doubling, nk_prefix


def brute_sequence(p, q, k_max):
    bound = 1
    vals = []
    while len(vals) <= k_max:
        bound *= 2
        vals = sorted(
            a * p + b * q
            for a in range(bound // p + 1)
            for b in range(bound // q + 1)
            if a * p + b * q <= bound
        )
    return vals[: k_max + 1]


def brute_runs(p, q, k_max):
    """(first k, value, length) runs of the sorted brute-force prefix."""
    values = brute_sequence(p, q, k_max)
    return [(bisect_left(values, value), value, len(list(run))) for value, run in groupby(values)]


def test_nk_examples():
    assert nk(3, 4, 1) == 3
    assert nk(3, 4, 0) == 0
    assert nk(5, 7, 0) == 0
    assert nk(3, 4, 10) == 12


def test_repeat_count_examples():
    assert repeat_count(3, 4, 10) == 2
    assert repeat_count(3, 4, 9) == 1
    assert repeat_count(2, 3, 0) == 1


def test_nk_against_brute_force_oracle():
    for p, q in [(1, 1), (1, 2), (2, 3), (3, 4), (3, 5), (4, 7), (5, 6)]:
        expect = brute_sequence(p, q, 300)
        assert nk_prefix(p, q, 300) == expect
        for k in (0, 1, 2, 17, 123, 300):
            assert nk(p, q, k) == expect[k]
        seq = NSeq(p, q)
        assert seq.prefix(300) == expect


def test_sequence_is_nondecreasing_and_symmetric():
    vals = nk_prefix(4, 9, 500)
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    assert vals == nk_prefix(9, 4, 500)


def test_oracle_equivalence_at_scale():
    # search path and materialized path agree out to k = 10^4
    for p, q in [(2, 3), (3, 4)]:
        assert nk_prefix(p, q, 10**4) == NSeq(p, q).prefix(10**4)


def test_lattice_count_property_against_the_row_loop():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    sizes = st.one_of(st.just(1), st.integers(1, 40), st.integers(1, 10**4))
    bounds = st.one_of(st.integers(-3, 300), st.integers(-3, 10**6))

    # the row loop walks bound // p rows, so p = 1 with a bound near 10^6 is its slowest case
    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(p=sizes, q=sizes, bound=bounds)
    def check(p, q, bound):
        assert lattice_count(p, q, bound) == lattice_count_rows(p, q, bound)

    check()


def test_lattice_count_lies_between_the_two_triangle_areas():
    # unit squares at the lattice points cover px + qy <= n and lie in px + qy <= n + p + q
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    sizes = st.one_of(st.just(1), st.integers(1, 60), st.integers(1, 10**6))

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(p=sizes, q=sizes, n=st.one_of(st.integers(0, 300), st.integers(0, 10**30)))
    def check(p, q, n):
        assert n * n <= 2 * p * q * lattice_count(p, q, n) <= (n + p + q) ** 2

    check()


def test_nk_property_against_the_doubling_search():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    sizes = st.one_of(st.just(1), st.integers(1, 60), st.integers(1, 10**6))

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(p=sizes, q=sizes, k=st.one_of(st.integers(0, 300), st.integers(0, 10**30)))
    def check(p, q, k):
        hypothesis.assume(gcd(p, q) == 1)
        value = nk(p, q, k)
        assert value == nk_doubling(p, q, k)
        lo, hi = _bracket(p, q, k)
        assert lo <= value <= hi <= lo + p + q + 1

    check()


def test_nk_far_out_is_a_floor_sum_search():
    # N_k is the least n with lattice_count(n) > k; each count is O(log) steps
    for p, q in [(1, 1), (2, 3), (3, 4), (5, 7)]:
        for k in (10**12, 5 * 10**20):
            value = nk(p, q, k)
            assert lattice_count(p, q, value - 1) <= k < lattice_count(p, q, value)
            assert repeat_count(p, q, k) <= value // (p * q) + 1


def test_runs_examples():
    # 0, 3, 4, 6, 7, 8, 9, 10, 11, 12, 12: the run of 12 is (4, 0) and (0, 3)
    assert list(runs(3, 4, 10)) == [
        (k, v, 1) for k, v in enumerate((0, 3, 4, 6, 7, 8, 9, 10, 11))
    ] + [(9, 12, 2)]
    assert list(runs(3, 4, 9))[-1] == (9, 12, 1)  # the last run is cut at k_max
    assert list(runs(1, 1, 5)) == [(0, 0, 1), (1, 1, 2), (3, 2, 3)]
    assert list(runs(7, 1, 0)) == list(runs(1, 7, 0)) == [(0, 0, 1)]


def test_runs_equal_the_sorted_brute_force():
    for p, q in [(1, 1), (1, 2), (2, 1), (5, 1), (2, 3), (3, 4), (4, 7), (9, 4)]:
        for k_max in (0, 1, 2, 7, 100, 1001):
            assert list(runs(p, q, k_max)) == brute_runs(p, q, k_max), (p, q, k_max)


def test_runs_property_over_random_pairs():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(p=st.integers(1, 30), q=st.integers(1, 30), k_max=st.integers(0, 3000))
    def check(p, q, k_max):
        hypothesis.assume(gcd(p, q) == 1)
        assert list(runs(p, q, k_max)) == brute_runs(p, q, k_max)

    check()


def test_runs_at_a_billion():
    # no brute force reaches k = 10^9; the binary-search route checks the ends
    rng = random.Random(1)
    k_max = 10**9
    for p, q in [(2, 3), (3, 4), (5, 7)]:
        spans = list(runs(p, q, k_max))
        assert sum(length for _, _, length in spans) == k_max + 1
        assert spans[-1][1] == nk(p, q, k_max)
        values = [value for _, value, _ in spans]
        assert values == sorted(set(values))
        ends, last = [], -1
        for _, _, length in spans:
            last += length
            ends.append(last)
        for i in [0, 1, len(spans) - 2, len(spans) - 1] + rng.sample(range(len(spans)), 12):
            k, value, _ = spans[i]
            assert k == lattice_count(p, q, value - 1), (p, q, value)
            assert ends[i] == min(lattice_count(p, q, value), k_max + 1) - 1, (p, q, value)


def test_the_walk_stops_at_its_top():
    for p, q in [(1, 1), (2, 3), (3, 4), (5, 3), (7, 10)]:
        for top in (0, 1, p * q - p - q, p * q, 50):
            counts = [lattice_count(p, q, n) - lattice_count(p, q, n - 1) for n in range(top + 1)]
            expected = [(lattice_count(p, q, n - 1), n, c) for n, c in enumerate(counts) if c]
            assert [(k, n, c) for k, n, _, c in _walk(p, q, top)] == expected


def test_the_walk_and_the_runs_give_each_value_its_first_index():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    pairs = st.tuples(st.integers(1, 30), st.integers(1, 30)).filter(lambda pq: gcd(*pq) == 1)

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(pq=pairs, data=st.data())
    def check(pq, data):
        p, q = pq
        top = data.draw(st.integers(-1, 3 * p * q + 10), label="top")
        for k, n, _, _ in _walk(p, q, top):
            assert k == lattice_count(p, q, n - 1) == lattice_count_rows(p, q, n - 1), (k, n)
        k_max = data.draw(st.integers(0, 3 * p * q + 10), label="k_max")
        spans = list(runs(p, q, k_max))
        assert [k for k, _, _ in spans] == [sum(s[2] for s in spans[:i]) for i in range(len(spans))]
        k, _, length = spans[-1]
        assert k + length - 1 == k_max

    check()


def test_validation():
    with pytest.raises(ValueError):
        nk(2, 4, 3)
    with pytest.raises(ValueError):
        nk(0, 1, 3)
    with pytest.raises(ValueError):
        nk(2, 3, -1)
    # runs refuses at the call, before the first value is read, as nk does
    for args in [(2, 4, 3), (0, 1, 3), (2, 3, -1)]:
        with pytest.raises(ValueError) as want:
            nk(*args)
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
            runs(*args)


def test_lattice_count_refuses_nonpositive_p_and_q():
    for p, q in [(-2, 3), (0, 3), (3, 0), (2, -1)]:
        with pytest.raises(ValueError, match=re.escape(f"p and q must be positive, got ({p}, {q})")):
            lattice_count(p, q, 10)
    # coprimality is not needed to count lattice points
    assert lattice_count(2, 4, 10) == lattice_count_rows(2, 4, 10) == 12


def test_closed_form_examples():
    assert nk_closed_form(3, 4, 1) == (10, 12, 2)
    assert nk_closed_form(3, 4, 0) == (0, 0, 1)
    k, value, repeats = nk_closed_form(2, 3, 1)
    assert value == 6 and repeats == 2
    assert nk(2, 3, k) == 6 and nk(2, 3, k + 1) != 6


def test_closed_form_lattice_identity():
    # count below the n-th multiple of pq equals the triangle formula
    for p, q in [(2, 3), (3, 4), (5, 7)]:
        for n in range(6):
            k = lattice_count(p, q, n * p * q) - 1
            assert 2 * (k + 1) == (n * p + 1) * (n * q + 1) - (n + 1) + 2 * (n + 1)


def test_repeat_lower_bound_at_special_indices():
    for p, q in [(2, 3), (3, 4), (2, 7), (5, 6)]:
        for n in range(1, 12):
            k, _, repeats = nk_closed_form(p, q, n)
            assert repeats * repeats * p * q >= 2 * k


def test_floor_sum_identity():
    # (p-1)(q+1) = 2 * sum_{j<=q} floor((p/q - d) * j) for coprime p < q
    for q in range(2, 25):
        for p in range(1, q):
            if gcd(p, q) != 1:
                continue
            theta = InfRat(Fraction(p, q), -1)
            total = sum(floor_inf(theta * j) for j in range(1, q + 1))
            assert 2 * total == (p - 1) * (q + 1)


def test_partition_golden_cases():
    assert partition(InfRat(Fraction(3, 4), -1), 4, "-") == (4,)
    for m in range(1, 20):
        assert partition(InfRat(0, 1), m, "+") == tuple([1] * m)
        assert partition(InfRat(0, 1), m, "-") == (m,)


def test_partition_parts_sum_and_shape():
    thetas = [
        InfRat(Fraction(3, 4), -1),
        InfRat(Fraction(7, 3), -1),
        InfRat(Fraction(5, 8), 1),
        InfRat(Fraction(13, 9), -1),
    ]
    for theta in thetas:
        for m in range(1, 14):
            for sign in "+-":
                parts = partition(theta, m, sign)
                assert sum(parts) == m
                assert all(part >= 1 for part in parts)


def test_partition_plus_equals_minus_of_negated_angle():
    # reflecting across the x-axis swaps the two extremal paths
    for num, den in [(3, 4), (2, 5), (7, 3)]:
        theta = InfRat(Fraction(num, den), -1)
        for m in range(1, 12):
            assert partition(theta, m, "+") == partition(-theta, m, "-")


def test_partition_matches_its_golden_digest():
    assert partition_digest(partition) == PARTITION_DIGEST
    assert partition_digest(partition_reference) == PARTITION_DIGEST


def test_partition_input_validation():
    with pytest.raises(ValueError):
        partition(InfRat(1, 0), 0, "+")
    with pytest.raises(ValueError):
        partition(InfRat(1, 0), 3, "*")
