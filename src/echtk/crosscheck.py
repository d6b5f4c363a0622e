"""Exhaustive index cross-checks over a degree window.

One pass per (p, q) walks the lines of :func:`echtk.complexes._lines` to the
cutoff and compares, on every current, the closed-form index of
:mod:`echtk.indices` with the ledger's bilinear expansion and with the
lattice-path count that grades its line: line B of degree D is line k + B,
so its points sit at g = 2(k + B) and its h-currents at g + 1.  Parity and
the h/b step relations follow from that grade, so neither is evaluated: for
a point a of degree D with D + pq <= max_degree, h*a, p^p*a and q^q*a lie on
the line (D + pq, B) and b*a on the line (D + pq, B + 1) two above, all four
in the window.  Raw integer arithmetic on the exponent tuples keeps the
sweep fast enough for six-figure generator counts; no current is kept.

The object API (path round trips, the ledger's internal consistency guard)
runs in the same pass on the first ``_SAMPLE_HEAD`` currents of the walk and
on every ``_SAMPLE_STRIDE``-th after them.
"""

from __future__ import annotations

from .complexes import _lines
from .currents import KnotParams, ReebCurrent
from .indices import _index_evaluator, ech_index_from_components
from .toric import current_to_path, path_index, path_to_current

# all of a small window, a thinned tail of a large one: a sample costs about four raw checks
_SAMPLE_HEAD, _SAMPLE_STRIDE = 2000, 64


def verify_index_identities(p: int, q: int, max_degree: int) -> int:
    """Raise on any violation; return the number of currents checked."""
    kp = KnotParams(p, q)
    evaluator = _index_evaluator(p, q)
    idx, components = evaluator.index, evaluator.components

    def where(B: int, H: int, P: int, Q: int) -> str:
        # built only when a check fails
        return f"(B,H,P,Q)=({B},{H},{P},{Q}), (p,q)=({p},{q})"

    n = 0
    for g, D, B, P0, Q0, m in _lines(kp, max_degree):
        # the m points at g, then the m - 1 h-currents between them at g + 1
        for H in range(min(m, 2)):
            for i in range(m - H):
                e = B, H, P0 + i * p, Q0 - (i + H) * q
                index = idx(*e)
                # ledger route: zero Chern term plus the bilinear pairing
                if components(*e) != index:
                    raise AssertionError(f"component mismatch at {where(*e)}")
                # lattice-path index: 2(points under the path - 1) - H = g + H
                if g + H != index:
                    raise AssertionError(f"path index mismatch at {where(*e)}")
                if n < _SAMPLE_HEAD or (n - _SAMPLE_HEAD) % _SAMPLE_STRIDE == 0:
                    c = ReebCurrent(*e)
                    if ech_index_from_components(c, kp) != index:
                        raise AssertionError(f"component mismatch at {c.name()}")
                    path = current_to_path(c, kp)
                    if path_to_current(path) != c:
                        raise AssertionError(f"path round-trip failure at {c.name()}")
                    if path_index(path) != index:
                        raise AssertionError(f"path index mismatch at {c.name()}")
                n += 1
    return n
