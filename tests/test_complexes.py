from math import gcd

import pytest

from echtk.complexes import (
    ComplexSpec,
    WindowError,
    _reduce_ranks,
    differential,
    enumerate_currents,
    homology,
    homology_representative,
    knot_filtered_homology,
    linking_threshold,
    required_degree,
)
from echtk.currents import KnotParams, ReebCurrent, degree, knot_filtration
from echtk.exact import InfRat
from echtk.indices import ech_index
from echtk.nseq import nk, repeat_count
from gf2_oracle import assert_ranks_match_oracle, bitset_columns, bitset_ranks

KP = KnotParams(3, 4)


def brute_enumerate(kp, max_degree):
    out = []
    for B in range(max_degree // kp.pq + 1):
        for H in (0, 1):
            for P in range(max_degree // kp.q + 1):
                for Q in range(max_degree // kp.p + 1):
                    c = ReebCurrent(B, H, P, Q)
                    if degree(c, kp) <= max_degree:
                        out.append(c)
    return out


def test_enumerate_examples():
    small = enumerate_currents(ComplexSpec(KP, 7))
    assert [c.name() for c in small] == ["1", "q", "p", "q^2", "p q"]
    deg12 = [c.name() for c in enumerate_currents(ComplexSpec(KP, 12)) if degree(c, KP) == 12]
    assert deg12 == ["p^3", "q^4", "h", "b"]
    assert [c.name() for c in enumerate_currents(ComplexSpec(KP, 0))] == ["1"]


def test_enumerate_matches_brute_force():
    for p, q in [(2, 3), (3, 4), (1, 2)]:
        kp = KnotParams(p, q)
        got = enumerate_currents(ComplexSpec(kp, 30))
        assert sorted(got, key=lambda c: c.exponents()) == sorted(
            brute_enumerate(kp, 30), key=lambda c: c.exponents()
        )


def test_enumerate_sorted_by_index_then_name():
    gens = enumerate_currents(ComplexSpec(KP, 40))
    keys = [(ech_index(c, KP), c.name()) for c in gens]
    assert keys == sorted(keys)


def test_differential_examples():
    matrix = differential(ComplexSpec(KP, 12))
    pos = {c: i for i, c in enumerate(matrix.generators)}
    col_h = matrix.columns[pos[ReebCurrent(H=1)]]
    assert len(col_h) == 2
    assert {matrix.generators[i].name() for i in col_h} == {"p^3", "q^4"}
    assert matrix.columns[pos[ReebCurrent(B=1)]] == ()
    matrix = differential(ComplexSpec(KP, 24))
    col_hq = matrix.columns[pos_of(matrix, "h q")]
    assert len(col_hq) == 2
    assert {matrix.generators[i].name() for i in col_hq} == {"p^3 q", "q^5"}


def pos_of(matrix, name):
    position = {c: i for i, c in enumerate(matrix.generators)}
    return position[ReebCurrent.from_name(name)]


def test_d_squared_zero_at_degree_120():
    for p, q in [(2, 3), (3, 4), (5, 7)]:
        assert differential(ComplexSpec(KnotParams(p, q), 120)).d_squared_is_zero()


def test_d_squared_detects_a_nonzero_square():
    matrix = differential(ComplexSpec(KP, 24))
    j = pos_of(matrix, "h q")
    target = matrix.columns[j][0]
    matrix.columns[target] = matrix.columns[j]
    assert not matrix.d_squared_is_zero()


def test_differential_structure():
    matrix = differential(ComplexSpec(KP, 40))
    assert matrix.d_squared_is_zero()
    for j, c in enumerate(matrix.generators):
        col = matrix.columns[j]
        if c.H == 0:
            assert col == ()
        else:
            assert len(col) == 2 and col[0] != col[1]
            for i in col:
                t = matrix.generators[i]
                assert matrix.grading[i] == matrix.grading[j] - 1
                assert degree(t, KP) == degree(c, KP)
                assert knot_filtration(t, KP) == knot_filtration(c, KP)


def test_homology_examples():
    ranks = homology(ComplexSpec(KP, 14), 20)
    assert all(ranks[i] == 1 for i in range(0, 21, 2))
    assert all(ranks[i] == 0 for i in range(1, 21, 2))
    ranks = homology(ComplexSpec(KnotParams(2, 3), 10), 12)
    assert all(ranks[i] == (1 if i % 2 == 0 else 0) for i in range(13))
    assert homology(ComplexSpec(KP, 0), 0) == {0: 1}


def test_homology_window_refusal():
    with pytest.raises(WindowError) as err:
        homology(ComplexSpec(KP, 5), 20)
    assert err.value.required_degree == required_degree(KP, 20) == 12


def test_total_betti_number():
    # over indices 0..2K the total rank is K + 1
    ranks = homology(ComplexSpec(KP, nk(3, 4, 16)), 32)
    assert sum(ranks.values()) == 17


def test_equal_even_index_generators_are_homologous():
    # the difference of two index-2k cycles must reduce to zero
    matrix = differential(ComplexSpec(KP, 30))
    reduced = {}
    for col in bitset_columns(matrix.columns):
        col0 = col
        while col0:
            low = col0.bit_length() - 1
            if low not in reduced:
                break
            col0 ^= reduced[low]
        if col0:
            reduced[col0.bit_length() - 1] = col0
    by_index = {}
    for i, c in enumerate(matrix.generators):
        if c.H == 0:
            by_index.setdefault(matrix.grading[i], []).append(i)
    checked = 0
    for idx, members in by_index.items():
        for a, b in zip(members, members[1:]):
            vec = (1 << a) ^ (1 << b)
            while vec:
                low = vec.bit_length() - 1
                if low not in reduced:
                    break
                vec ^= reduced[low]
            assert vec == 0, f"generators at index {idx} are not homologous"
            checked += 1
    assert checked > 10


def test_knot_filtered_homology_examples():
    spec = ComplexSpec(KP, 12)
    assert knot_filtered_homology(spec, InfRat(12, 0), 18)[18] == 1
    assert knot_filtered_homology(spec, InfRat(12, 0), 20)[20] == 0
    assert knot_filtered_homology(spec, InfRat(12, 1), 20)[20] == 1
    assert knot_filtered_homology(ComplexSpec(KP, 0), InfRat(0, 0), 0)[0] == 1


def test_union_find_ranks_count_cycles():
    # the currents complex never closes a cycle (d is injective on h-currents),
    # so a triangle checks the rank where a column joins one component
    grading = [0, 0, 0, 1, 1, 1]
    columns = [(), (), (), (0, 1), (1, 2), (0, 2)]
    ranks = {0: 1, 1: 1}
    assert _reduce_ranks(grading, columns, [True] * 6) == ranks
    assert bitset_ranks(grading, bitset_columns(columns)) == ranks
    assert _reduce_ranks(grading, columns, [True] * 5 + [False]) == {0: 1, 1: 0}
    with pytest.raises(AssertionError):
        _reduce_ranks(grading, columns, [False] + [True] * 5)


def test_union_find_ranks_match_bitset_oracle():
    for q in range(2, 9):
        for p in range(1, q):
            if gcd(p, q) != 1:
                continue
            kp = KnotParams(p, q)
            for max_degree in (0, 7, 30, 60):
                levels = (
                    InfRat(max_degree // 3, 0),
                    InfRat(max_degree // 2, 1),
                    InfRat(max_degree, -1),
                )
                assert_ranks_match_oracle(kp, max_degree, levels)


def test_linking_threshold_scan():
    # the rank at index 2k flips from 0 to 1 exactly at N_k + d*(repeats-1)
    for k in range(0, 40):
        level = linking_threshold(KP, k)
        assert level == InfRat(nk(3, 4, k), repeat_count(3, 4, k) - 1)
        spec = ComplexSpec(KP, nk(3, 4, k))
        at = knot_filtered_homology(spec, level, 2 * k)
        assert at[2 * k] == 1
        below = knot_filtered_homology(spec, level - InfRat(0, 1), 2 * k)
        assert below[2 * k] == 0


def test_representative_examples():
    rep = homology_representative(ComplexSpec(KP, 12), 18)
    assert rep == ReebCurrent(Q=4)
    assert homology_representative(ComplexSpec(KP, 12), 20) == ReebCurrent(B=1)
    assert homology_representative(ComplexSpec(KP, 0), 0) == ReebCurrent()
    rep35 = homology_representative(ComplexSpec(KnotParams(3, 5), 15), 22)
    assert degree(rep35, KnotParams(3, 5)) == 15


def test_representative_contract():
    spec = ComplexSpec(KP, 60)
    for k in range(0, 30):
        rep = homology_representative(spec, 2 * k)
        assert rep.H == 0 and rep.P < KP.p
        assert ech_index(rep, KP) == 2 * k
        assert degree(rep, KP) == nk(3, 4, k)
    with pytest.raises(ValueError):
        homology_representative(spec, 7)
    with pytest.raises(WindowError):
        homology_representative(ComplexSpec(KP, 3), 40)
