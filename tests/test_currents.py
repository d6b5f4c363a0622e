from fractions import Fraction
from math import gcd

import pytest

from echtk.complexes import _line_renderer, _lines
from echtk.currents import (
    KnotParams,
    ReebCurrent,
    action,
    degree,
    knot_filtration,
    linking,
)
from echtk.exact import InfRat
from echtk.nseq import NSeq, nk, runs
from gf2_oracle import admissible_exponents


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


class _Mult(int):
    def __repr__(self) -> str:
        return f"_Mult({int(self)})"


@pytest.mark.parametrize("field", ["B", "H", "P", "Q"])
@pytest.mark.parametrize("value", [-1, 1.5, "2", None, _Mult(-1)])
def test_invalid_multiplicity_messages(field, value):
    with pytest.raises(ValueError) as info:
        ReebCurrent(**{field: value})
    assert str(info.value) == f"multiplicity {field}={value!r} must be a nonnegative integer"


def test_validation_reports_the_first_bad_field():
    for kwargs, message in [
        ({"H": 2}, "hyperbolic orbit multiplicity must be 0 or 1"),
        ({"H": _Mult(2)}, "hyperbolic orbit multiplicity must be 0 or 1"),
        ({"B": 5, "H": 2, "P": 7, "Q": 9}, "hyperbolic orbit multiplicity must be 0 or 1"),
        ({"H": 2, "P": -1}, "multiplicity P=-1 must be a nonnegative integer"),
        ({"B": None, "H": 2, "Q": -3}, "multiplicity B=None must be a nonnegative integer"),
        ({"P": 1.0, "Q": -1}, "multiplicity P=1.0 must be a nonnegative integer"),
    ]:
        with pytest.raises(ValueError) as info:
            ReebCurrent(**kwargs)
        assert str(info.value) == message, kwargs


def test_bool_and_int_subclass_multiplicities_are_accepted_as_given():
    c = ReebCurrent(B=True, H=True, P=False, Q=_Mult(3))
    assert c.B is True and c.H is True and c.P is False and type(c.Q) is _Mult
    assert c == ReebCurrent(1, 1, 0, 3)
    assert hash(c) == hash(ReebCurrent(1, 1, 0, 3))
    assert tuple(ReebCurrent(B=True)) == (True, 0, 0, 0)


def test_names_and_json():
    c = ReebCurrent(2, 1, 0, 3)
    assert c.name() == "b^2 h q^3"
    assert ReebCurrent.from_name("b^2 h q^3") == c
    assert ReebCurrent.from_name("1") == ReebCurrent()
    assert ReebCurrent().name() == "1"
    assert ReebCurrent.from_json(c.to_json()) == c
    with pytest.raises(ValueError):
        ReebCurrent.from_name("x^2")
    for text in ("q q", "b b^0", "b^0 b^2"):
        with pytest.raises(ValueError, match="repeated"):
            ReebCurrent.from_name(text)


def test_knot_params_validation():
    with pytest.raises(ValueError):
        KnotParams(2, 4)
    with pytest.raises(ValueError):
        KnotParams(0, 3)


@pytest.mark.parametrize(
    "p,q,message",
    [
        (0, 3, "p and q must be positive, got (0, 3)"),
        (2, 4, "p and q must be coprime, got (2, 4)"),
        (-1, -1, "p and q must be positive, got (-1, -1)"),
    ],
)
def test_every_entry_point_refuses_a_bad_pair_with_one_text(p, q, message):
    for make in (KnotParams, lambda p, q: nk(p, q, 3), lambda p, q: runs(p, q, 3), NSeq):
        with pytest.raises(ValueError) as info:
            make(p, q)
        assert str(info.value) == message


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


def loop_name(B, H, P, Q):
    """The canonical name written out factor by factor."""
    parts = []
    for orbit, mult in zip("bhpq", (B, H, P, Q)):
        if mult == 1:
            parts.append(orbit)
        elif mult > 1:
            parts.append(f"{orbit}^{mult}")
    return " ".join(parts) or "1"


@pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (1, 5), (2, 3), (3, 4), (5, 7), (2, 9)])
def test_window_names_match_current_names(p, q):
    kp = KnotParams(p, q)
    rows, ordered = _line_renderer(kp, 60)
    named = []
    for line in _lines(kp, 60):
        g, D = line[:2]
        for row, e in zip(rows(*line), ordered(*line), strict=True):
            tail = f",{g + e[1]}\n"  # h-currents sit one index above the points
            assert row == f"{D},{ReebCurrent(*e).name()}{tail}" == f"{D},{loop_name(*e)}{tail}", e
            named.append(e)
    assert sorted(named) == sorted(admissible_exponents(kp, 60))
