"""Conley-Zehnder indices, the trivialization ledger, and the ECH index.

All grading arithmetic runs in the orbibundle trivialization, where the
relative Chern numbers of the relevant classes vanish and the index is
the relative intersection pairing plus summed Conley-Zehnder terms.  The
other trivializations live only in :func:`cz_in_triv` and the ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

from .currents import KnotParams, ReebCurrent
from .exact import InfRat, floor_inf

TRIVIALIZATIONS = (
    "constant",
    "orbibundle",
    "page",
    "surface_p",
    "surface_q",
    "surface_h",
)


class _CZCache:
    """Prefix sums of cz_orb over iterates of the exceptional fibers."""

    def __init__(self, p: int, q: int):
        self.p = p
        self.q = q
        self._sum_p = [0]
        self._sum_q = [0]

    def _extend(self, sums: list[int], period: int, upto: int) -> None:
        angle = InfRat(Fraction(self.p + self.q, period), -1)
        while len(sums) <= upto:
            i = len(sums)
            sums.append(sums[-1] + 2 * floor_inf(angle * i) + 1)

    def cz_sum_p(self, upto: int) -> int:
        if upto >= len(self._sum_p):
            self._extend(self._sum_p, self.p, upto)
        return self._sum_p[upto]

    def cz_sum_q(self, upto: int) -> int:
        if upto >= len(self._sum_q):
            self._extend(self._sum_q, self.q, upto)
        return self._sum_q[upto]


@cache
def _cz_cache(p: int, q: int) -> _CZCache:
    # keyed by plain ints: hashing KnotParams costs a Python-level call
    return _CZCache(p, q)


def cz_orb(orbit: str, iterate: int, kp: KnotParams) -> int:
    """Conley-Zehnder index in the orbibundle trivialization.

    b and h have monodromy angles (p+q)+d and 2(p+q); the exceptional
    fibers are elliptic with angles (p+q)/p - d and (p+q)/q - d, so their
    indices come from the floor formula for elliptic orbits.
    """
    if iterate < 1:
        raise ValueError("iterate must be at least 1")
    s = kp.p + kp.q
    if orbit == "b":
        return 2 * s * iterate + 1
    if orbit == "h":
        return 2 * s * iterate
    if orbit == "p":
        return 2 * floor_inf(InfRat(Fraction(s, kp.p), -1) * iterate) + 1
    if orbit == "q":
        return 2 * floor_inf(InfRat(Fraction(s, kp.q), -1) * iterate) + 1
    raise ValueError(f"unknown orbit {orbit!r}")


@dataclass(frozen=True)
class InvariantLedger:
    """Relative Chern numbers, intersection pairings and trivialization
    offsets for one (p, q), stored exactly as computed once and for all."""

    p: int
    q: int
    chern: dict = field(default_factory=dict)
    qpair: dict = field(default_factory=dict)
    offsets: dict = field(default_factory=dict)

    @classmethod
    def for_params(cls, kp: KnotParams) -> "InvariantLedger":
        p, q, pq = kp.p, kp.q, kp.pq
        chern = {
            ("Sigma", "orbibundle"): 0,
            ("Sigma", "constant"): p + q,
            ("Sigma", "page"): p + q - pq,
            ("Z_q", "surface_q"): p + q,
            ("Z_p", "surface_p"): p + q,
            ("Z_h", "surface_h"): p + q,
            ("Z_b", "orbibundle"): 0,
            ("Z_p", "orbibundle"): 0,
            ("Z_q", "orbibundle"): 0,
            ("Z_h", "orbibundle"): 0,
        }
        qpair = {
            ("Z_b", "Z_b", "page"): 0,
            ("Z_b", "Z_b", "orbibundle"): pq - p - q,
            ("Z_b", "Z_b", "constant"): pq,
            ("Z_p", "Z_p", "orbibundle"): -1,
            ("Z_q", "Z_q", "orbibundle"): -1,
            ("Z_h", "Z_h", "orbibundle"): pq - p - q,
            ("Z_p", "Z_q", "orbibundle"): 1,
            ("Z_p", "Z_b", "orbibundle"): q,
            ("Z_p", "Z_h", "orbibundle"): q,
            ("Z_q", "Z_b", "orbibundle"): p,
            ("Z_q", "Z_h", "orbibundle"): p,
            ("Z_h", "Z_b", "orbibundle"): pq,
        }
        # tau(triv) - tau(orbibundle) on each orbit, keyed by the
        # trivializations defined there; surface trivializations on the
        # exceptional fibers exist only over full p- resp. q-fold covers
        s = p + q
        offsets = {
            "b": {
                "orbibundle": 0,
                "constant": s,
                "page": s - pq,
                "surface_p": s,
                "surface_q": s,
                "surface_h": s,
            },
            "h": {"orbibundle": 0, "constant": s, "surface_h": s},
            "p": {"orbibundle": 0, "surface_p": s},
            "q": {"orbibundle": 0, "surface_q": s},
        }
        return cls(p=p, q=q, chern=chern, qpair=qpair, offsets=offsets)

    def chern_number(self, cls_name: str, triv: str) -> int:
        return self.chern[(cls_name, triv)]

    def q_pairing(self, a: str, b: str, triv: str = "orbibundle") -> int:
        if (a, b, triv) in self.qpair:
            return self.qpair[(a, b, triv)]
        return self.qpair[(b, a, triv)]

    def offset(self, orbit: str, triv_from: str, triv_to: str) -> int:
        """tau_from(orbit) - tau_to(orbit); KeyError when either
        trivialization is not defined on the orbit."""
        if triv_from == triv_to:
            return 0
        table = self.offsets.get(orbit, {})
        if triv_from not in table or triv_to not in table:
            raise KeyError(f"no offset between {triv_from} and {triv_to} on {orbit}")
        return table[triv_from] - table[triv_to]

    @property
    def self_linking(self) -> int:
        """Maximal self-linking number of the positive (p,q) torus knot."""
        return self.p * self.q - self.p - self.q


def ledger(kp: KnotParams) -> InvariantLedger:
    return _ledger(kp.p, kp.q)


@cache
def _ledger(p: int, q: int) -> InvariantLedger:
    return InvariantLedger.for_params(KnotParams(p, q))


def cz_in_triv(orbit: str, iterate: int, triv: str, kp: KnotParams) -> int:
    """cz_orb shifted by twice the cover count times the ledger offset."""
    if triv not in TRIVIALIZATIONS:
        raise ValueError(f"unknown trivialization {triv!r}")
    led = ledger(kp)
    if triv not in led.offsets.get(orbit, ()):
        raise ValueError(f"trivialization {triv!r} is not defined on orbit {orbit!r}")
    if iterate < 1:
        raise ValueError("iterate must be at least 1")
    covers = iterate
    if triv == "surface_p" and orbit == "p":
        if iterate % kp.p:
            raise ValueError("surface_p is defined only on p-fold covers of p")
        covers = iterate // kp.p
    if triv == "surface_q" and orbit == "q":
        if iterate % kp.q:
            raise ValueError("surface_q is defined only on q-fold covers of q")
        covers = iterate // kp.q
    return cz_orb(orbit, iterate, kp) + 2 * covers * led.offset(orbit, "orbibundle", triv)


def _cz_total(c: ReebCurrent, kp: KnotParams) -> int:
    """Total Conley-Zehnder term: full iterate sums for b, p, q plus the
    single hyperbolic contribution."""
    s = kp.p + kp.q
    cache = _cz_cache(kp.p, kp.q)
    return (
        s * c.B * c.B
        + (s + 1) * c.B
        + 2 * s * c.H
        + cache.cz_sum_p(c.P)
        + cache.cz_sum_q(c.Q)
    )


def ech_index(c: ReebCurrent, kp: KnotParams) -> int:
    """Closed-form ECH index of an admissible current."""
    p, q, pq = kp.p, kp.q, kp.pq
    B, H, P, Q = c.exponents()
    return (
        -((P - Q) ** 2)
        + 2 * q * P * (H + B)
        + 2 * p * Q * (H + B)
        + (pq - p - q) * (H * H + B * B)
        + 2 * H * B * pq
        + _cz_total(c, kp)
    )


def ech_index_from_components(c: ReebCurrent, kp: KnotParams) -> int:
    """ECH index re-assembled from the ledger: relative Chern number (zero
    in the orbibundle trivialization), the intersection pairing expanded
    bilinearly, and the Conley-Zehnder sums.  Must agree with
    :func:`ech_index`; disagreement signals a bug."""
    led = ledger(kp)
    B, H, P, Q = c.exponents()
    classes = (("Z_b", B), ("Z_h", H), ("Z_p", P), ("Z_q", Q))
    qterm = 0
    for i, (name_i, mult_i) in enumerate(classes):
        if not mult_i:
            continue
        qterm += mult_i * mult_i * led.q_pairing(name_i, name_i)
        for name_j, mult_j in classes[i + 1 :]:
            if mult_j:
                qterm += 2 * mult_i * mult_j * led.q_pairing(name_i, name_j)
    chern = 0  # every class in scope has vanishing orbibundle Chern number
    total = chern + qterm + _cz_total(c, kp)
    direct = ech_index(c, kp)
    if total != direct:
        raise RuntimeError(
            f"index inconsistency for {c.name()} at (p,q)=({kp.p},{kp.q}): "
            f"components give {total}, closed form gives {direct}"
        )
    return total


def _cz_top_sum(c: ReebCurrent, kp: KnotParams) -> int:
    """Sum of cz_orb over the top iterate of each orbit present."""
    total = 0
    for orbit, mult in zip(("b", "h", "p", "q"), c.exponents()):
        if mult:
            total += cz_orb(orbit, mult, kp)
    return total


def j0_index(alpha: ReebCurrent, beta: ReebCurrent, kp: KnotParams) -> int:
    """Index variant with the Chern sign switched and truncated CZ sums.

    Computed through the identity J0 = I(alpha) - I(beta) - (top CZ terms
    of alpha) + (top CZ terms of beta), valid because the orbibundle Chern
    numbers of all classes in scope vanish.
    """
    return (
        ech_index(alpha, kp)
        - ech_index(beta, kp)
        - _cz_top_sum(alpha, kp)
        + _cz_top_sum(beta, kp)
    )


def cz_table(kp: KnotParams, max_action: Fraction | int = 2) -> list[tuple[str, Fraction, int]]:
    """All single-orbit iterates with action up to the bound, sorted by
    (action, cz_orb, label).

    Rows are (label, action, cz); iterates of h beyond the first are not
    admissible currents but their Conley-Zehnder indices are still
    well-defined, so they belong in the table.
    """
    max_action = Fraction(max_action)
    if max_action <= 0:
        raise ValueError("max action must be positive")
    units = (("b", Fraction(1)), ("h", Fraction(1)), ("p", Fraction(1, kp.p)), ("q", Fraction(1, kp.q)))
    rows: list[tuple[str, Fraction, int]] = []
    for orbit, unit in units:
        i = 1
        while unit * i <= max_action:
            label = orbit if i == 1 else f"{orbit}^{i}"
            rows.append((label, unit * i, cz_orb(orbit, i, kp)))
            i += 1
    rows.sort(key=lambda r: (r[1], r[2], r[0]))
    return rows
