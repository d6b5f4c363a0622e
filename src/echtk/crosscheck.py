"""Exhaustive index cross-checks over a degree window.

One fused pass per (p, q) compares, on every admissible current up to the
cutoff, the closed-form index of :mod:`echtk.indices` with two independent
routes, the ledger's bilinear expansion and the lattice-path count, and
checks index parity and the h/b step relations.  The lattice counts are
the first indices from one pass of :func:`echtk.nseq._walk`, not the evaluator's.
The object API (path round trips, component recomputation with its
internal consistency guard) is exercised on a deterministic sample of the
same window.  The window
is enumerated once: the sample thins the exponent tuples of the fused
pass.  Raw integer arithmetic on the exponent tuples keeps the sweep fast
enough for six-figure generator counts.

A sampled current costs one ``ReebCurrent``, one ``LatticePath`` and the
current rebuilt from it, each a validated named tuple, plus the index
three ways: about 6.5 us per current (T(3,4) at degree 150, 1,760
sampled currents; medians over eight alternating processes of the best of
40 passes, 2-vCPU VM, CPython 3.11).
"""

from __future__ import annotations

from .currents import KnotParams, ReebCurrent, admissible_exponents
from .indices import _index_evaluator, ech_index, ech_index_from_components
from .nseq import _walk
from .toric import current_to_path, path_index, path_to_current


def verify_index_identities(p: int, q: int, max_degree: int) -> int:
    """Raise on any violation; return the number of currents checked."""
    kp = KnotParams(p, q)
    pq = p * q
    evaluator = _index_evaluator(p, q)
    idx, components = evaluator.index, evaluator.components
    # strict lattice counts T[w] = #{(x,y) >= 0 : px + qy < w}, the walk's
    # first index of each w (every degree is representable); the sampled
    # path_index takes the floor sum, so the two lattice routes meet at the index
    strict = {n: k for k, n, _, _ in _walk(p, q, max_degree)}

    def where(B: int, H: int, P: int, Q: int) -> str:
        # built only when a check fails
        return f"(B,H,P,Q)=({B},{H},{P},{Q}), (p,q)=({p},{q})"

    window = list(admissible_exponents(kp, max_degree))
    for B, H, P, Q in window:
        w = pq * (B + H) + q * P + p * Q
        index = idx(B, H, P, Q)
        # parity: even iff no hyperbolic orbit
        if (index % 2) != H:
            raise AssertionError(f"parity failure at {where(B, H, P, Q)}: {index}")
        # ledger route: zero Chern term plus the bilinear pairing
        if components(B, H, P, Q) != index:
            raise AssertionError(f"component mismatch at {where(B, H, P, Q)}")
        # lattice-path index: 2(points under the path - 1) - H
        if 2 * (strict[w] + B + H) - H != index:
            raise AssertionError(f"path index mismatch at {where(B, H, P, Q)}")
        # step relations on currents without the hyperbolic orbit
        if H == 0 and w + pq <= max_degree:
            h_idx = idx(B, 1, P, Q)
            if h_idx != idx(B, 0, P + p, Q) + 1:
                raise AssertionError(f"I(h a) = I(p^p a) + 1 fails at {where(B, H, P, Q)}")
            if h_idx != idx(B, 0, P, Q + q) + 1:
                raise AssertionError(f"I(h a) = I(q^q a) + 1 fails at {where(B, H, P, Q)}")
            if idx(B + 1, 0, P, Q) != h_idx + 1:
                raise AssertionError(f"I(b a) = I(h a) + 1 fails at {where(B, H, P, Q)}")

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
    when small, a fixed stride plus the low corner otherwise."""
    if len(window) > cap:
        # thin the exponent tuples, so only sampled currents are built
        window = window[:: len(window) // cap + 1] + window[:64]
    return [ReebCurrent(*exponents) for exponents in window]
