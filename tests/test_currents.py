from fractions import Fraction
from math import gcd

import pytest

from echtk.currents import (
    KnotParams,
    ReebCurrent,
    action,
    admissible_exponents,
    degree,
    knot_filtration,
    linking,
)
from echtk.exact import InfRat


KP = KnotParams(3, 4)


def test_degree_examples():
    assert degree(ReebCurrent(B=1), KP) == 12
    assert degree(ReebCurrent(P=1, Q=1), KP) == 7
    assert degree(ReebCurrent(), KP) == 0


def test_action_examples():
    assert action(ReebCurrent(B=1), KP) == 1
    assert action(ReebCurrent(B=1), KnotParams(5, 7)) == 1
    assert action(ReebCurrent(P=1), KP) == Fraction(1, 3)
    assert action(ReebCurrent(Q=4), KP) == 1


def test_degree_is_pq_times_action():
    for b in range(3):
        for h in (0, 1):
            for P in range(4):
                for Q in range(4):
                    c = ReebCurrent(b, h, P, Q)
                    assert degree(c, KP) == KP.pq * action(c, KP)


def test_linking_examples():
    assert linking(ReebCurrent(B=1), ReebCurrent(Q=1), KP) == 3
    assert linking(ReebCurrent(B=1), ReebCurrent(H=1), KP) == 12
    assert linking(ReebCurrent(B=1), ReebCurrent(P=2, Q=1), KP) == 11


def test_linking_is_symmetric_and_bilinear():
    singles = [ReebCurrent(B=1), ReebCurrent(H=1), ReebCurrent(P=1), ReebCurrent(Q=1)]
    fields = ["B", "H", "P", "Q"]
    for i, c1 in enumerate(singles):
        for j, c2 in enumerate(singles):
            if i == j:
                continue
            base = linking(c1, c2, KP)
            assert base == linking(c2, c1, KP)
            scaled = {f: getattr(c1, f) * 3 for f in fields}
            if scaled["H"] == 0:
                tripled = ReebCurrent(**scaled)
                assert linking(tripled, c2, KP) == 3 * base


def test_self_linking_rejected():
    with pytest.raises(ValueError):
        linking(ReebCurrent(B=1), ReebCurrent(B=2), KP)
    with pytest.raises(ValueError):
        linking(ReebCurrent(P=1, Q=1), ReebCurrent(Q=3), KP)


def test_knot_filtration_examples():
    assert knot_filtration(ReebCurrent(B=1), KP) == InfRat(12, 1)
    assert knot_filtration(ReebCurrent(Q=4), KP) == InfRat(12, 0)
    assert knot_filtration(ReebCurrent(), KP) == InfRat(0, 0)


def test_filtration_rational_part_is_degree():
    for b in range(3):
        for h in (0, 1):
            for P in range(3):
                for Q in range(3):
                    c = ReebCurrent(b, h, P, Q)
                    f = knot_filtration(c, KP)
                    assert f.rat == degree(c, KP)
                    assert f.delta == b


def test_additivity_on_exponent_vectors():
    # degree, action, filtration add when the raw exponents add
    a = ReebCurrent(1, 0, 2, 1)
    b = ReebCurrent(0, 1, 1, 3)
    merged = ReebCurrent(a.B + b.B, a.H + b.H, a.P + b.P, a.Q + b.Q)
    assert degree(merged, KP) == degree(a, KP) + degree(b, KP)
    assert action(merged, KP) == action(a, KP) + action(b, KP)
    assert knot_filtration(merged, KP) == knot_filtration(a, KP) + knot_filtration(b, KP)


def test_admissibility():
    with pytest.raises(ValueError):
        ReebCurrent(H=2)
    with pytest.raises(ValueError):
        ReebCurrent(B=-1)


def test_names_and_json():
    c = ReebCurrent(2, 1, 0, 3)
    assert c.name() == "b^2 h q^3"
    assert ReebCurrent.from_name("b^2 h q^3") == c
    assert ReebCurrent.from_name("1") == ReebCurrent()
    assert ReebCurrent().name() == "1"
    assert ReebCurrent.from_json(c.to_json()) == c
    with pytest.raises(ValueError):
        ReebCurrent.from_name("x^2")
    with pytest.raises(ValueError):
        ReebCurrent.from_name("q q")


def test_knot_params_validation():
    with pytest.raises(ValueError):
        KnotParams(2, 4)
    with pytest.raises(ValueError):
        KnotParams(0, 3)


@pytest.mark.parametrize("max_degree", [0, 7, 30, 60])
def test_admissible_exponents_enumerate_each_current_once_in_order(max_degree):
    for q in range(2, 9):
        for p in range(1, q):
            if gcd(p, q) != 1:
                continue
            kp = KnotParams(p, q)
            got = list(admissible_exponents(kp, max_degree))
            box = [
                (B, H, P, Q)
                for B in range(max_degree // kp.pq + 1)
                for H in (0, 1)
                for P in range(max_degree // q + 1)
                for Q in range(max_degree // p + 1)
                if degree(ReebCurrent(B, H, P, Q), kp) <= max_degree
            ]
            assert len(got) == len(set(got))
            assert set(got) == set(box)
            # by B + H, then H, P, Q
            assert got == sorted(got, key=lambda e: (e[0] + e[1], e[1], e[2], e[3]))
