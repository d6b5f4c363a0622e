"""Exhaustive index cross-checks over a degree window.

One fused pass per (p, q) walks the lines of :func:`echtk.complexes._lines`
to the cutoff and compares, on every current, the closed-form index of
:mod:`echtk.indices` with the ledger's bilinear expansion and with the
lattice-path count that grades its line: line B of degree D is line k + B,
so its points sit at g = 2(k + B) and its h-currents at g + 1.  Parity and
the h/b step relations follow from that grade, so neither is evaluated: for
a point a of degree D with D + pq <= max_degree, h*a, p^p*a and q^q*a lie on
the line (D + pq, B) and b*a on the line (D + pq, B + 1) two above, all four
in the window.  Raw integer arithmetic on the exponent tuples keeps the
sweep fast enough for six-figure generator counts.

The object API (path round trips, component recomputation with its internal
consistency guard) runs on a deterministic sample of the window.  A sampled
current builds a ``ReebCurrent``, a ``LatticePath`` and the current rebuilt
from it, each a validated named tuple, and takes the index three ways: about
6.5 us (T(3,4) at degree 150, 1,760 sampled currents; medians over eight
alternating processes of the best of 40 passes, 2-vCPU VM, CPython 3.11).
"""

from __future__ import annotations

from .complexes import _lines
from .currents import KnotParams, ReebCurrent
from .indices import _index_evaluator, ech_index, ech_index_from_components
from .toric import current_to_path, path_index, path_to_current


def verify_index_identities(p: int, q: int, max_degree: int) -> int:
    """Raise on any violation; return the number of currents checked."""
    kp = KnotParams(p, q)
    evaluator = _index_evaluator(p, q)
    idx, components = evaluator.index, evaluator.components

    def where(B: int, H: int, P: int, Q: int) -> str:
        # built only when a check fails
        return f"(B,H,P,Q)=({B},{H},{P},{Q}), (p,q)=({p},{q})"

    window = []
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
                window.append(e)

    for c in _sample_currents(window):
        direct = ech_index(c, kp)
        if ech_index_from_components(c, kp) != direct:
            raise AssertionError(f"component mismatch at {c.name()}")
        path = current_to_path(c, kp)
        if path_to_current(path) != c:
            raise AssertionError(f"path round-trip failure at {c.name()}")
        if path_index(path) != direct:
            raise AssertionError(f"path index mismatch at {c.name()}")
    return len(window)


def _sample_currents(window: list[tuple[int, int, int, int]], cap: int = 2000):
    """Deterministic thinning of the window's exponent tuples: everything
    when small, the low corner plus a fixed stride through the rest
    otherwise, each tuple once."""
    if len(window) > cap:
        # thin the exponent tuples, so only sampled currents are built
        window = window[:64] + window[64:: len(window) // cap + 1]
    return [ReebCurrent(*exponents) for exponents in window]
