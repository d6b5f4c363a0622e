import pytest

from echtk.complexes import ComplexSpec, enumerate_currents
from echtk.currents import KnotParams, ReebCurrent, degree, knot_filtration
from echtk.indices import ech_index
from echtk.toric import (
    LatticePath,
    current_to_path,
    lattice_points_under,
    path_index,
    path_to_current,
    round_corner,
    svg,
    vertices,
)

KP = KnotParams(3, 4)


def lattice_points_under_vertices(path: LatticePath) -> int:
    """Column-sum count under the explicit polyline; slow cross-check for
    :func:`lattice_points_under`."""
    verts = vertices(path)
    total = 0
    for (x1, y1), (x2, y2) in zip(verts, verts[1:]):
        for x in range(x1, x2):
            # floor of the height of the edge at integer x
            total += (y1 * (x2 - x1) + (y2 - y1) * (x - x1)) // (x2 - x1) + 1
    total += verts[-1][1] + 1
    return total


def test_path_current_correspondence_examples():
    # worked (3,4) triple: h p q sits on the anchor (1, 4) with one step
    path = current_to_path(ReebCurrent.from_name("h p q"), KP)
    assert path.anchor == (1, 4) and path.m == 1 and path.label == "h"
    assert path_to_current(path) == ReebCurrent.from_name("h p q")
    # no binding segment
    assert path_to_current(LatticePath(KP, (2, 3), 0, "e")) == ReebCurrent(P=3, Q=2)
    assert path_to_current(LatticePath(KP, (0, 0), 0, "e")) == ReebCurrent()


def test_path_validation():
    with pytest.raises(ValueError):
        LatticePath(KP, (0, 0), 0, "h")  # label h needs a segment
    with pytest.raises(ValueError):
        LatticePath(KP, (1, 2), 1, "e")  # anchor too low for one step
    with pytest.raises(ValueError):
        LatticePath(KP, (-1, 0), 0, "e")


def test_path_index_examples():
    assert path_index(current_to_path(ReebCurrent(), KP)) == 0
    assert path_index(current_to_path(ReebCurrent(Q=1), KP)) == 2
    assert path_index(current_to_path(ReebCurrent(H=1), KP)) == 19


def test_round_corner_examples():
    # the two corner roundings of h p q
    rq, rp = round_corner(current_to_path(ReebCurrent.from_name("h p q"), KP))
    assert path_to_current(rq) == ReebCurrent.from_name("p q^5")
    assert path_to_current(rp) == ReebCurrent.from_name("p^4 q")
    # the two roundings of h itself give the two differential targets
    rq, rp = round_corner(current_to_path(ReebCurrent.from_name("h"), KP))
    assert path_to_current(rq) == ReebCurrent.from_name("q^4")
    assert path_to_current(rp) == ReebCurrent.from_name("p^3")
    # tail substitution gamma = q^2
    rq, rp = round_corner(current_to_path(ReebCurrent.from_name("h q^2"), KP))
    assert path_to_current(rq) == ReebCurrent.from_name("q^6")
    assert path_to_current(rp) == ReebCurrent.from_name("p^3 q^2")


def test_round_corner_requires_label_h():
    with pytest.raises(ValueError):
        round_corner(current_to_path(ReebCurrent(Q=4), KP))


def test_round_corner_matches_algebraic_differential():
    for p, q in [(2, 3), (3, 4), (2, 5)]:
        kp = KnotParams(p, q)
        for c in enumerate_currents(ComplexSpec(kp, 40)):
            if c.H != 1:
                continue
            rq, rp = round_corner(current_to_path(c, kp))
            got = {path_to_current(rq), path_to_current(rp)}
            want = {
                ReebCurrent(c.B, 0, c.P + p, c.Q),
                ReebCurrent(c.B, 0, c.P, c.Q + q),
            }
            assert got == want


def test_bijection_within_cutoff():
    for p, q in [(2, 3), (3, 4), (4, 5)]:
        kp = KnotParams(p, q)
        currents = enumerate_currents(ComplexSpec(kp, 60))
        paths = {current_to_path(c, kp) for c in currents}
        assert len(paths) == len(currents)
        assert {path_to_current(path) for path in paths} == set(currents)


def test_path_index_equals_ech_index():
    for p, q in [(2, 3), (3, 4), (3, 5), (5, 8)]:
        kp = KnotParams(p, q)
        for c in enumerate_currents(ComplexSpec(kp, 60)):
            path = current_to_path(c, kp)
            assert path_index(path) == ech_index(c, kp), c.name()


def test_filtration_and_action_read_off_the_segment():
    for c in enumerate_currents(ComplexSpec(KP, 40)):
        path = current_to_path(c, KP)
        assert path.filtration_value == degree(c, KP)
        assert path.filtration_value == knot_filtration(c, KP).rat


def test_closed_form_count_matches_column_sums():
    for p, q in [(2, 3), (3, 4), (4, 7)]:
        kp = KnotParams(p, q)
        for c in enumerate_currents(ComplexSpec(kp, 45)):
            path = current_to_path(c, kp)
            assert lattice_points_under(path) == lattice_points_under_vertices(path)


def test_vertices_shape():
    verts = vertices(current_to_path(ReebCurrent.from_name("h p q"), KP))
    assert verts == [(0, 4), (1, 4), (5, 1), (6, 0)]
    assert vertices(current_to_path(ReebCurrent(), KP)) == [(0, 0)]
    # x strictly increasing along every path
    for c in enumerate_currents(ComplexSpec(KP, 40)):
        vs = vertices(current_to_path(c, KP))
        assert all(a[0] < b[0] for a, b in zip(vs, vs[1:]))


def test_svg_smoke():
    doc = svg(current_to_path(ReebCurrent.from_name("h p q"), KP))
    assert doc.startswith("<svg") and doc.endswith("</svg>")
    assert "polyline" in doc
