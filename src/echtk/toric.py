"""Lattice-path model of the chain complex.

A generator is a concave lattice path from the y-axis to the x-axis with
a middle segment of slope -p/q on the line px + qy = W.  The path is
stored compressed as (anchor, m, label): the anchor is the upper endpoint
of the middle segment, m its length in steps of (q, -p), and the label
marks whether the segment carries the hyperbolic orbit.  The rest of the
path is determined by the segment: the whole path is one upper hull of
the segment's ends and the highest integer points strictly under the line
in the columns left and right of it, so it is recomputed on demand rather
than stored.

A :class:`LatticePath` is a named tuple (kp, anchor, m, label) whose
constructor validates it.  :func:`current_to_path`, :func:`path_to_current`
and :func:`path_index` unpack their argument once and build one tuple or
take one floor sum: the three together, which :mod:`echtk.crosscheck` runs
on every current, take about 3-5 us (timeit on T(3,4), 2-vCPU VM, CPython 3.11).
"""

from __future__ import annotations

from typing import NamedTuple

from .currents import KnotParams, ReebCurrent
from .exact import _check_budget, _tuple_new, _ValidatedTuple
from .nseq import _corner_columns, _hull, lattice_count


class _PathFields(NamedTuple):
    kp: KnotParams
    anchor: tuple[int, int]  # (Q, P): upper endpoint of the slope -p/q segment
    m: int                   # segment length in lattice steps of (q, -p)
    label: str


class LatticePath(_ValidatedTuple, _PathFields):
    """A path as the named tuple (kp, anchor, m, label)."""

    __slots__ = ()

    def __new__(
        cls, kp: KnotParams, anchor: tuple[int, int], m: int = 0, label: str = "e"
    ) -> "LatticePath":
        Q, P = anchor
        # one test for the common case of a valid path; the checks below
        # raise for the first condition that fails
        if not (
            Q >= 0 and P >= 0 and m >= 0 and P >= m * kp.p
            and (label == "e" or label == "h" and m != 0)
        ):
            if Q < 0 or P < 0:
                raise ValueError(f"anchor {anchor} must be in the first quadrant")
            if m < 0:
                raise ValueError("segment length must be nonnegative")
            if P < m * kp.p:
                raise ValueError(f"anchor {anchor} cannot carry {m} steps of (q,-p)")
            if label not in ("e", "h"):
                raise ValueError(f"label must be 'e' or 'h', got {label!r}")
            if label == "h" and m == 0:
                raise ValueError("the 'h' label needs a nondegenerate segment")
        return _tuple_new(cls, (kp, anchor, m, label))

    @property
    def filtration_value(self) -> int:
        """Value of px + qy along the middle segment; equals the degree."""
        Q, P = self.anchor
        return self.kp.p * Q + self.kp.q * P

    @property
    def lower_endpoint(self) -> tuple[int, int]:
        Q, P = self.anchor
        return (Q + self.m * self.kp.q, P - self.m * self.kp.p)


def path_to_current(path: LatticePath) -> ReebCurrent:
    kp, (Q, P), m, label = path
    if label == "e":
        return ReebCurrent(m, 0, P - m * kp.p, Q)
    return ReebCurrent(m - 1, 1, P - m * kp.p, Q)


def current_to_path(c: ReebCurrent, kp: KnotParams) -> LatticePath:
    B, H, P, Q = c
    m = B + H
    return LatticePath(kp, (Q, P + m * kp.p), m, "h" if H else "e")


def lattice_points_under(path: LatticePath) -> int:
    """Lattice points bounded between the path and the axes, inclusive.

    The path is the upper hull of the quadrant points with px + qy < W
    together with the m + 1 segment points on px + qy = W, so the count
    splits into a strict triangle count plus the segment.
    """
    w = path.filtration_value
    return lattice_count(path.kp.p, path.kp.q, w - 1) + path.m + 1


def path_index(path: LatticePath) -> int:
    """2(points under the path - 1) - h, with the count of
    :func:`lattice_points_under` written out on the path's fields."""
    kp, (Q, P), m, label = path
    p, q = kp.p, kp.q
    return 2 * (lattice_count(p, q, p * Q + q * P - 1) + m) - (label == "h")


def round_corner(path: LatticePath) -> tuple[LatticePath, LatticePath]:
    """The two corner-rounded paths hit by the differential.

    The first removes the anchor, so the segment's upper end moves one
    lattice step down the slope line; the second removes the lower
    endpoint, keeping the anchor.  Both lose the 'h' label.
    """
    if path.label != "h":
        raise ValueError("only 'h'-labeled paths have nonzero differential")
    Q, P = path.anchor
    kp = path.kp
    rounded_q = LatticePath(kp, (Q + kp.q, P - kp.p), path.m - 1, "e")
    rounded_p = LatticePath(kp, (Q, P), path.m - 1, "e")
    return rounded_q, rounded_p


def vertices(path: LatticePath) -> list[tuple[int, int]]:
    """Corner points of the full path, from the y-axis to the x-axis.

    One upper hull over the segment's two ends (one point when m = 0) and,
    in each column left or right of the segment, the highest point
    strictly under px + qy = W.  Column x + q sits p below column x, so
    at most q columns at each end of either side can be corners.
    """
    p, q, w = path.kp.p, path.kp.q, path.filtration_value
    ends = [path.anchor, path.lower_endpoint] if path.m else [path.anchor]
    left = [(x, (w - p * x - 1) // q) for x in _corner_columns(0, ends[0][0], q)]
    right = [
        (x, (w - p * x - 1) // q) for x in _corner_columns(ends[-1][0] + 1, (w - 1) // p + 1, q)
    ]
    return _hull(left + ends + right)


# Dots one figure draws: a document of 1.3 * 10^6 dots took 179 bytes a
# dot at its peak (58 characters a dot written), so this budget is about
# 720 MB (2-vCPU VM, CPython 3.11).
_MAX_SVG_DOTS = 4_000_000
_DOT_BYTES = 180
_SVG_SIZE = 480


def svg(path: LatticePath) -> str:
    """A small static figure, ``_SVG_SIZE`` pixels square: lattice dots, the
    path, and the dashed line of slope -p/q through the middle segment.

    Its user units are integers.  The picture spans span + 3 lattice steps
    of _SVG_SIZE*pq units each, so a pixel is pq*(span + 3) units and the line's
    ends (0, W/q) and (W/p, 0) fall on whole units.  A dot grid of more than
    ``_MAX_SVG_DOTS`` dots is refused, counted from the vertices before any
    dot is drawn."""
    kp = path.kp
    verts = vertices(path)
    w = path.filtration_value
    x_max = max(max(v[0] for v in verts), 1) + 1
    y_max = max(max(v[1] for v in verts), 1) + 1
    _check_budget("the figure's dot grid", (x_max + 1) * (y_max + 1), "dots", _MAX_SVG_DOTS,
                  _DOT_BYTES, "drawn")
    span = max(x_max, y_max)
    step, px = _SVG_SIZE * kp.pq, kp.pq * (span + 3)  # units per lattice step, per pixel
    view = step * (span + 3)

    def sx(x: int) -> int:
        return step * (1 + x)

    def sy(y: int) -> int:
        return step * (span + 2 - y)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" '
        f'height="{_SVG_SIZE}" viewBox="0 0 {view} {view}">'
    ]
    for x in range(x_max + 1):
        for y in range(y_max + 1):
            fill = "#444" if kp.p * x + kp.q * y <= w else "#ccc"
            lines.append(f'<circle cx="{sx(x)}" cy="{sy(y)}" r="{2 * px}" fill="{fill}"/>')
    if w > 0:
        # W/q steps up the y-axis and W/p steps along the x-axis
        lines.append(
            f'<line x1="{sx(0)}" y1="{sy(0) - _SVG_SIZE * kp.p * w}" '
            f'x2="{sx(0) + _SVG_SIZE * kp.q * w}" y2="{sy(0)}" stroke="#7bc" stroke-width="{px}" '
            f'stroke-dasharray="{6 * px},{4 * px}"/>'
        )
    pts = " ".join(f"{sx(x)},{sy(y)}" for x, y in verts)
    lines.append(
        f'<polyline points="{pts}" fill="none" stroke="#c33" stroke-width="{5 * px // 2}"/>'
    )
    lines.append("</svg>")
    return "\n".join(lines)
