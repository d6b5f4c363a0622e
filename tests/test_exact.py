import math
from fractions import Fraction

import pytest

from echtk.exact import InfRat, ceil_inf, cmp_inf, floor_inf, parse, render


def test_floor_examples():
    assert floor_inf(InfRat(Fraction(7, 4), -1)) == 1
    assert floor_inf(InfRat(Fraction(7), -4)) == 6
    assert floor_inf(InfRat(Fraction(3), 2)) == 3


def test_cmp_examples():
    assert cmp_inf(InfRat(12, 0), InfRat(12, 1)) == -1
    assert cmp_inf(InfRat(12, 5), InfRat(13, -9)) == -1
    assert cmp_inf(InfRat(3, 0), InfRat(3, 0)) == 0


def test_floor_bracketing():
    # floor(x) <= x < floor(x) + 1 in the lexicographic order
    samples = [
        InfRat(Fraction(n, d), s)
        for n in range(-9, 10)
        for d in (1, 2, 3, 4)
        for s in (-3, -1, 0, 1, 2)
    ]
    for x in samples:
        f = floor_inf(x)
        assert InfRat(f, 0) <= x < InfRat(f + 1, 0)
        assert floor_inf(x + 5) == f + 5
        assert floor_inf(x - 7) == f - 7
        assert ceil_inf(x) == -floor_inf(-x)


def test_order_is_total_and_compatible_with_addition():
    vals = [InfRat(Fraction(n, 2), s) for n in (-2, 0, 1, 3) for s in (-1, 0, 2)]
    for a in vals:
        for b in vals:
            assert (a < b) + (a == b) + (b < a) == 1
            for c in vals:
                if a < b:
                    assert a + c < b + c
                if a < b and b < c:
                    assert a < c


def test_floor_matches_plain_floor_without_delta():
    for n in range(-20, 21):
        for d in (1, 2, 3, 7):
            f = Fraction(n, d)
            assert floor_inf(InfRat(f, 0)) == math.floor(f)


def test_scalar_multiplication():
    x = InfRat(Fraction(3, 4), -1)
    assert x * 4 == InfRat(3, -4)
    assert 2 * x == InfRat(Fraction(3, 2), -2)
    with pytest.raises(TypeError):
        x * x  # noqa: B018


def test_coercion_in_comparisons():
    assert InfRat(3, 1) > 3
    assert InfRat(3, -1) < 3
    assert InfRat(Fraction(7, 2), 0) == Fraction(7, 2)


def test_render_parse_roundtrip():
    cases = [InfRat(0, 0), InfRat(12, 1), InfRat(Fraction(-7, 3), -2), InfRat(5, 0)]
    for x in cases:
        assert parse(render(x)) == x
    assert render(InfRat(12, 1)) == "12+1*d"
    assert render(InfRat(Fraction(7, 2), 0)) == "7/2"
    assert parse("12") == InfRat(12, 0)
    with pytest.raises(ValueError):
        parse("one plus delta")
    with pytest.raises(ValueError, match="'1/0'"):
        parse("1/0")


def test_json_form():
    assert InfRat(Fraction(-7, 3), 2).to_json() == {"num": -7, "den": 3, "delta": 2}
