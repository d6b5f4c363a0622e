"""Lattice-path model of the chain complex.

A generator is a concave lattice path from the y-axis to the x-axis made
of an upper hull, a middle segment of slope -p/q, and a lower hull.  The
path is stored compressed as (anchor, m, label): the anchor is the upper
endpoint of the middle segment, m its length in steps of (q, -p), and the
label marks whether the segment carries the hyperbolic orbit.  The two
hull pieces are determined by the anchor, so they are recomputed on
demand rather than stored.
"""

from __future__ import annotations

from dataclasses import dataclass

from .currents import KnotParams, ReebCurrent
from .nseq import _hull, lattice_count


@dataclass(frozen=True)
class LatticePath:
    kp: KnotParams
    anchor: tuple[int, int]  # (Q, P): upper endpoint of the slope -p/q segment
    m: int = 0               # segment length in lattice steps of (q, -p)
    label: str = "e"

    def __post_init__(self) -> None:
        Q, P = self.anchor
        if Q < 0 or P < 0:
            raise ValueError(f"anchor {self.anchor} must be in the first quadrant")
        if self.m < 0:
            raise ValueError("segment length must be nonnegative")
        if P < self.m * self.kp.p:
            raise ValueError(
                f"anchor {self.anchor} cannot carry {self.m} steps of (q,-p)"
            )
        if self.label not in ("e", "h"):
            raise ValueError(f"label must be 'e' or 'h', got {self.label!r}")
        if self.label == "h" and self.m == 0:
            raise ValueError("the 'h' label needs a nondegenerate segment")

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
    Q, P = path.anchor
    p = path.kp.p
    if path.label == "e":
        return ReebCurrent(B=path.m, H=0, P=P - path.m * p, Q=Q)
    return ReebCurrent(B=path.m - 1, H=1, P=P - path.m * p, Q=Q)


def current_to_path(c: ReebCurrent, kp: KnotParams) -> LatticePath:
    m = c.B + c.H
    anchor = (c.Q, c.P + m * kp.p)
    return LatticePath(kp, anchor, m, "h" if c.H else "e")


def lattice_points_under(path: LatticePath) -> int:
    """Lattice points bounded between the path and the axes, inclusive.

    The path is the upper hull of the quadrant points with px + qy < W
    together with the m + 1 segment points on px + qy = W, so the count
    splits into a strict triangle count plus the segment.
    """
    w = path.filtration_value
    return lattice_count(path.kp.p, path.kp.q, w - 1) + path.m + 1


def path_index(path: LatticePath) -> int:
    h = 1 if path.label == "h" else 0
    return 2 * (lattice_points_under(path) - 1) - h


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
    """Corner points of the full path, from the y-axis to the x-axis."""
    kp = path.kp
    p, q = kp.p, kp.q
    w = path.filtration_value
    Q, P = path.anchor
    lowQ, lowP = path.lower_endpoint

    # upper hull piece: columns 0..Q, strictly under px+qy = W except the anchor
    left_pts = []
    for x in range(Q + 1):
        top = P if x == Q else (w - p * x - 1) // q
        left_pts.append((x, top))
    chain = _hull(left_pts, upper=True)

    # middle segment endpoint
    if path.m > 0:
        chain.append((lowQ, lowP))

    # mirrored hull piece: columns lowQ..x_end, strictly under the line
    x_end = max((w - 1) // p, lowQ) if w > 0 else 0
    right_pts = []
    for x in range(lowQ, x_end + 1):
        top = lowP if x == lowQ else (w - p * x - 1) // q
        right_pts.append((x, top))
    right_chain = _hull(right_pts, upper=True)

    out = chain + right_chain[1:]
    deduped = [out[0]]
    for pt in out[1:]:
        if pt != deduped[-1]:
            deduped.append(pt)
    return deduped


def svg(path: LatticePath, size: int = 480) -> str:
    """A small static figure: lattice dots, the path, and the dashed line
    of slope -p/q through the middle segment."""
    kp = path.kp
    verts = vertices(path)
    w = path.filtration_value
    x_max = max(max(v[0] for v in verts), 1) + 1
    y_max = max(max(v[1] for v in verts), 1) + 1
    span = max(x_max, y_max)
    unit = size / (span + 1)
    pad = unit

    def sx(x: float) -> float:
        return pad + x * unit

    def sy(y: float) -> float:
        return size + pad - y * unit

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size + 2 * pad:.0f}" '
        f'height="{size + 2 * pad:.0f}" viewBox="0 0 {size + 2 * pad:.0f} {size + 2 * pad:.0f}">'
    ]
    for x in range(x_max + 1):
        for y in range(y_max + 1):
            fill = "#444" if kp.p * x + kp.q * y <= w else "#ccc"
            lines.append(
                f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="2" fill="{fill}"/>'
            )
    if w > 0:
        x0, y0 = 0.0, w / kp.q
        x1, y1 = w / kp.p, 0.0
        lines.append(
            f'<line x1="{sx(x0):.1f}" y1="{sy(y0):.1f}" x2="{sx(x1):.1f}" '
            f'y2="{sy(y1):.1f}" stroke="#7bc" stroke-dasharray="6,4"/>'
        )
    pts = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in verts)
    lines.append(
        f'<polyline points="{pts}" fill="none" stroke="#c33" stroke-width="2.5"/>'
    )
    lines.append("</svg>")
    return "\n".join(lines)
