"""Exhaustive index cross-checks over a degree window.

One fused pass per (p, q) verifies, on every admissible current up to the
cutoff: the closed-form index against the ledger expansion, the lattice
path index, index parity, and the h/b step relations.  The object API
(path round trips, component recomputation with its internal consistency
guard) is exercised on a deterministic sample of the same window.  Raw
integer arithmetic on the exponent tuples keeps the sweep fast enough for
six-figure generator counts.
"""

from __future__ import annotations

from .currents import KnotParams, ReebCurrent, admissible_exponents
from .indices import _cz_cache, ech_index, ech_index_from_components
from .nseq import lattice_count
from .toric import current_to_path, path_index, path_to_current


def verify_index_identities(p: int, q: int, max_degree: int) -> int:
    """Raise on any violation; return the number of currents checked."""
    kp = KnotParams(p, q)
    pq = p * q
    s = p + q
    cache = _cz_cache(p, q)
    cache.cz_sum_p(max_degree // q + p)
    cache.cz_sum_q(max_degree // p + q)
    sum_p = cache._sum_p
    sum_q = cache._sum_q
    # strict lattice counts T[w] = #{(x,y) >= 0 : px + qy < w}
    strict = [lattice_count(p, q, w - 1) for w in range(max_degree + 1)]
    sl = pq - p - q  # the shared Q-pairing constant

    def idx(B: int, H: int, P: int, Q: int) -> int:
        return (
            -((P - Q) ** 2)
            + 2 * q * P * (H + B)
            + 2 * p * Q * (H + B)
            + sl * (H * H + B * B)
            + 2 * H * B * pq
            + s * B * B
            + (s + 1) * B
            + 2 * s * H
            + sum_p[P]
            + sum_q[Q]
        )

    def where(B: int, H: int, P: int, Q: int) -> str:
        # built only when a check fails
        return f"(B,H,P,Q)=({B},{H},{P},{Q}), (p,q)=({p},{q})"

    checked = 0
    for B, H, P, Q in admissible_exponents(kp, max_degree):
        w = pq * (B + H) + q * P + p * Q
        index = idx(B, H, P, Q)
        # parity: even iff no hyperbolic orbit
        if (index % 2) != H:
            raise AssertionError(f"parity failure at {where(B, H, P, Q)}: {index}")
        # ledger route: zero Chern term plus the bilinear pairing
        qterm = (
            sl * (B * B + H * H)
            - P * P
            - Q * Q
            + 2 * P * Q
            + 2 * B * H * pq
            + 2 * P * (B + H) * q
            + 2 * Q * (B + H) * p
        )
        cz = s * B * B + (s + 1) * B + 2 * s * H + sum_p[P] + sum_q[Q]
        if qterm + cz != index:
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
        checked += 1

    for c in _sample_currents(kp, max_degree):
        direct = ech_index(c, kp)
        if ech_index_from_components(c, kp) != direct:
            raise AssertionError(f"component mismatch at {c.name()}")
        path = current_to_path(c, kp)
        if path_to_current(path) != c:
            raise AssertionError(f"path round-trip failure at {c.name()}")
        if path_index(path) != direct:
            raise AssertionError(f"path index mismatch at {c.name()}")
    return checked


def _sample_currents(kp: KnotParams, max_degree: int, cap: int = 2000):
    """Deterministic thinned enumeration: everything when small, a fixed
    stride plus the low corner otherwise."""
    out = list(admissible_exponents(kp, max_degree))
    if len(out) > cap:
        # thin the exponent tuples, so only sampled currents are built
        out = out[:: len(out) // cap + 1] + out[:64]
    return [ReebCurrent(*exponents) for exponents in out]
