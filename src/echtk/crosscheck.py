"""Exhaustive index cross-checks over a degree window.

One pass per (p, q) walks the lines of :func:`echtk.complexes._lines` to the
cutoff and puts every current through the public API.  Its closed-form index
from :mod:`echtk.indices` must equal the ledger's bilinear expansion
(:func:`~echtk.indices.ech_index_from_components` raises ``RuntimeError``
when they differ), the grade of its line, and the index of its lattice path,
and the path must map back to the current.  Line B of degree D is line
k + B, so its points sit at g = 2(k + B) and its h-currents at g + 1.
Parity and the h/b step relations follow from that grade, so neither is
evaluated: for a point a of degree D with D + pq <= max_degree, h*a, p^p*a
and q^q*a lie on the line (D + pq, B) and b*a on the line (D + pq, B + 1)
two above, all four in the window.  No current is kept.
"""

from __future__ import annotations

from .complexes import _lines
from .currents import KnotParams, ReebCurrent
from .indices import ech_index_from_components
from .toric import current_to_path, path_index, path_to_current


def verify_index_identities(p: int, q: int, max_degree: int) -> int:
    """Raise on any violation; return the number of currents checked."""
    kp, pair = KnotParams(p, q), f"(p,q)=({p},{q})"
    n = 0
    for g, D, B, P0, Q0, m in _lines(kp, max_degree):
        # the m points at g, then the m - 1 h-currents between them at g + 1
        for H in range(min(m, 2)):
            for i in range(m - H):
                c = ReebCurrent(B, H, P0 + i * p, Q0 - (i + H) * q)
                index = ech_index_from_components(c, kp)
                path = current_to_path(c, kp)
                if g + H != index:
                    raise AssertionError(f"grade mismatch at {c.name()}, {pair}")
                if path_index(path) != index:
                    raise AssertionError(f"path index mismatch at {c.name()}, {pair}")
                if path_to_current(path) != c:
                    raise AssertionError(f"path round-trip failure at {c.name()}, {pair}")
                n += 1
    return n
