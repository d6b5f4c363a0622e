"""Reference lattice-path constructions and the digests of their outputs.

The library reads every lattice path off one upper hull of integer floor
points.  The functions here build the same paths the longer way, so the
tests can compare the two:

- :func:`partition_reference` takes each column's point as an ``InfRat``
  floor (``'+'``) or ceiling (``'-'``) of theta*x, and runs an upper hull
  for ``'+'`` and a lower hull for ``'-'``;
- :func:`vertices_reference` builds the hull left of the segment and the
  hull right of it separately, joins them at the segment's lower end and
  drops repeated points.

:class:`LatticePathReference` is ``LatticePath`` as the frozen dataclass it
was, whose ``__post_init__`` is the validation the named tuple must match.

:func:`vertices_digest` and :func:`partition_digest` hash a fixed set of
outputs; ``golden_tables.py`` pins the values they gave for these
references.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from echtk.currents import KnotParams, ReebCurrent
from echtk.exact import InfRat, ceil_inf, floor_inf
from echtk.toric import LatticePath, current_to_path
from gf2_oracle import admissible_exponents


@dataclass(frozen=True)
class LatticePathReference:
    kp: KnotParams
    anchor: tuple[int, int]
    m: int = 0
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


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull_reference(points, upper: bool):
    """Monotone chain over points sorted by x, upper or lower, collinear
    points dropped."""
    chain = []
    for pt in points:
        while len(chain) >= 2:
            c = _cross(chain[-2], chain[-1], pt)
            if (c >= 0) if upper else (c <= 0):
                chain.pop()
            else:
                break
        chain.append(pt)
    return chain


def partition_reference(theta, m: int, sign: str) -> tuple[int, ...]:
    if not isinstance(theta, InfRat):
        theta = InfRat(theta, 0)
    if sign == "+":
        chain = hull_reference([(x, floor_inf(theta * x)) for x in range(m + 1)], upper=True)
    else:
        chain = hull_reference([(x, ceil_inf(theta * x)) for x in range(m + 1)], upper=False)
    parts: list[int] = []
    for (x1, y1), (x2, y2) in zip(chain, chain[1:]):
        g = gcd(x2 - x1, abs(y2 - y1))
        parts.extend([(x2 - x1) // g] * g)
    return tuple(parts)


def vertices_reference(path: LatticePath) -> list[tuple[int, int]]:
    p, q = path.kp.p, path.kp.q
    w = path.filtration_value
    Q, P = path.anchor
    lowQ, lowP = path.lower_endpoint
    left = [(x, P if x == Q else (w - p * x - 1) // q) for x in range(Q + 1)]
    chain = hull_reference(left, upper=True)
    if path.m > 0:
        chain.append((lowQ, lowP))
    x_end = max((w - 1) // p, lowQ) if w > 0 else 0
    right = [(x, lowP if x == lowQ else (w - p * x - 1) // q) for x in range(lowQ, x_end + 1)]
    out = chain + hull_reference(right, upper=True)[1:]
    deduped = [out[0]]
    for pt in out[1:]:
        if pt != deduped[-1]:
            deduped.append(pt)
    return deduped


DIGEST_PAIRS = ((2, 3), (3, 4), (3, 5), (5, 8))
DIGEST_MAX_DEGREE = 60


def vertices_digest(vertices) -> str:
    """sha256 of ``vertices`` on every admissible current of degree at most
    60 for each pair in ``DIGEST_PAIRS``."""
    h = hashlib.sha256()
    for p, q in DIGEST_PAIRS:
        kp = KnotParams(p, q)
        for exps in admissible_exponents(kp, DIGEST_MAX_DEGREE):
            c = ReebCurrent(*exps)
            h.update(f"{p},{q},{c.name()}:{vertices(current_to_path(c, kp))}\n".encode())
    return h.hexdigest()


def partition_digest(partition) -> str:
    """sha256 of ``partition`` over theta = a/b + s*d with |a| <= 9,
    b <= 5, s in {-1, 0, 1}, m <= 20 and both signs; theta is passed as a
    plain int or Fraction when s = 0."""
    h = hashlib.sha256()
    for a in range(-9, 10):
        for b in range(1, 6):
            rat = Fraction(a, b)
            for s in (-1, 0, 1):
                theta = InfRat(rat, s) if s else a if b == 1 else rat
                for m in range(1, 21):
                    for sign in "+-":
                        parts = partition(theta, m, sign)
                        h.update(f"{a}/{b}{s:+d}*d,{m},{sign}:{parts}\n".encode())
    return h.hexdigest()
