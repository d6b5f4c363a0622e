"""Conley-Zehnder indices, the trivialization ledger, and the ECH index.

All grading arithmetic runs in the orbibundle trivialization, where the
relative Chern numbers of the relevant classes vanish and the index is
the relative intersection pairing plus summed Conley-Zehnder terms.  The
other trivializations live only in :func:`cz_in_triv` and the ledger.

The closed-form index is written once, in the per-(p,q) evaluator on
exponent tuples (B, H, P, Q), next to the one copy of the ledger's bilinear
expansion of the same value; :mod:`echtk.crosscheck` compares the two and
the lattice-path count.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import NamedTuple

from .currents import KnotParams, ReebCurrent
from .exact import _check_budget, _tuple_new, _ValidatedTuple

TRIVIALIZATIONS = (
    "constant",
    "orbibundle",
    "page",
    "surface_p",
    "surface_q",
    "surface_h",
)


def _cz_elliptic(s: int, period: int, i: int) -> int:
    """cz_orb of the i-th iterate of an exceptional fiber of the given
    period: 2*floor(((p+q)/period - d)*i) + 1 with d infinitesimal, whose
    floor drops by one exactly when period divides (p+q)*i."""
    return 2 * ((s * i - 1) // period) + 1


class _IndexEvaluator:
    """The closed-form ECH index on the exponents (B, H, P, Q) of an
    admissible current for one (p, q), the expansion of the same value over
    the ledger's pairings (read once), and the prefix sums of cz_orb over the
    iterates of p and q that both read.  Only ``index`` grows the sums,
    through exactly the iterate a call reads past their end, so no caller
    sizes them; ``components`` runs only after ``index`` on the same current."""

    def __init__(self, p: int, q: int):
        pq, s = p * q, p + q
        sum_p = self.sum_p = [0]
        sum_q = self.sum_q = [0]
        pairings = ()  # the ledger's, read on the first call: most evaluators never need them

        def index(B: int, H: int, P: int, Q: int) -> int:
            try:
                cz = sum_p[P] + sum_q[Q]
            except IndexError:
                for sums, period, upto in ((sum_p, p, P), (sum_q, q, Q)):
                    for i in range(len(sums), upto + 1):
                        sums.append(sums[-1] + _cz_elliptic(s, period, i))
                return index(B, H, P, Q)
            # relative intersection pairing (zero Chern term in the
            # orbibundle trivialization) plus the summed CZ terms of
            # b^B h^H p^P q^Q, collected with H*H = H
            bh = B + H
            return (
                -((P - Q) ** 2)
                + 2 * (q * P + p * Q) * bh
                + pq * bh * bh
                + s * H
                + (s + 1) * B
                + cz
            )

        def components(B: int, H: int, P: int, Q: int) -> int:
            nonlocal pairings
            # zero Chern term, the ledger's pairings expanded bilinearly,
            # and the CZ sums: cz_orb is 2si + 1 on b^i and 2s on h
            pairings = pairings or _orbibundle_pairings(p, q)
            bb, hh, pp, qq, bh, bp, bq, hp, hq, pq = pairings
            qterm = (
                B * B * bb
                + H * H * hh
                + P * P * pp
                + Q * Q * qq
                + 2 * (B * (H * bh + P * bp + Q * bq) + H * (P * hp + Q * hq) + P * Q * pq)
            )
            return qterm + s * B * (B + 1) + B + 2 * s * H + sum_p[P] + sum_q[Q]

        self.index = index
        self.components = components


# one per (p, q), keyed by the plain ints its callers hold
_index_evaluator = cache(_IndexEvaluator)


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
    if orbit in ("p", "q"):
        return _cz_elliptic(s, kp.p if orbit == "p" else kp.q, iterate)
    raise ValueError(f"unknown orbit {orbit!r}")


class _LedgerFields(NamedTuple):
    p: int
    q: int
    chern: dict
    qpair: dict
    offsets: dict


class InvariantLedger(_ValidatedTuple, _LedgerFields):
    """Relative Chern numbers, intersection pairings and trivialization
    offsets for one (p, q), stored exactly as computed once and for all.
    A table left out starts as a fresh empty dict."""

    __slots__ = ()

    def __new__(cls, p: int, q: int, chern: dict | None = None,
                qpair: dict | None = None, offsets: dict | None = None) -> "InvariantLedger":
        tables = [{} if t is None else t for t in (chern, qpair, offsets)]
        return _tuple_new(cls, (p, q, *tables))

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


@cache  # one per (p, q): a KnotParams hashes as the tuple (p, q)
def ledger(kp: KnotParams) -> InvariantLedger:
    return InvariantLedger.for_params(kp)


def _orbibundle_pairings(p: int, q: int) -> tuple[int, ...]:
    """The ten orbibundle pairings Q(Z_i, Z_j) of the ledger for (p, q), in
    the order bb, hh, pp, qq, bh, bp, bq, hp, hq, pq."""
    led = ledger(KnotParams(p, q))
    names = ("Z_b", "Z_h", "Z_p", "Z_q")
    squares = [led.q_pairing(a, a) for a in names]
    crosses = [led.q_pairing(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    return (*squares, *crosses)


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


def ech_index(c: ReebCurrent, kp: KnotParams) -> int:
    """Closed-form ECH index of an admissible current."""
    return _index_evaluator(kp.p, kp.q).index(*c)


def ech_index_from_components(c: ReebCurrent, kp: KnotParams) -> int:
    """ECH index re-assembled from the ledger: relative Chern number (zero
    in the orbibundle trivialization), the intersection pairing expanded
    bilinearly, and the Conley-Zehnder sums.  Must agree with
    :func:`ech_index`; disagreement signals a bug."""
    evaluator = _index_evaluator(kp.p, kp.q)
    direct = evaluator.index(*c)  # first: it grows the prefix sums that components reads
    total = evaluator.components(*c)
    if total != direct:
        raise RuntimeError(
            f"index inconsistency for {c.name()} at (p,q)=({kp.p},{kp.q}): "
            f"components give {total}, closed form gives {direct}"
        )
    return total


def _cz_top_sum(c: ReebCurrent, kp: KnotParams) -> int:
    """Sum of cz_orb over the top iterate of each orbit present."""
    total = 0
    for orbit, mult in zip(("b", "h", "p", "q"), c):
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


# Rows of a cz-table that one run holds: 10^6 rows took 429 MB max RSS in
# CSV and 436 MB as a table, about 430 bytes a row, so this budget is about
# 860 MB (2-vCPU VM, CPython 3.11).
_MAX_CZ_ROWS = 2_000_000
_CZ_ROW_BYTES = 430


def cz_table(kp: KnotParams, max_action: Fraction | int = 2) -> list[tuple[str, Fraction, int]]:
    """All single-orbit iterates with action up to the bound, sorted by
    (action, cz_orb, label).

    Rows are (label, action, cz); iterates of h beyond the first are not
    admissible currents but their Conley-Zehnder indices are still
    well-defined, so they belong in the table.  A bound with more rows than
    the budget is refused before any row is built.
    """
    max_action = Fraction(max_action)
    if max_action <= 0:
        raise ValueError("max action must be positive")
    p, q = kp.p, kp.q
    pq = p * q
    # the i-th iterate of an orbit of period n has action i/n, sorted as
    # the integer i*pq/n; iterates run while i/n <= max_action
    orbits = (("b", 1), ("h", 1), ("p", p), ("q", q))
    tops = [max_action.numerator * n // max_action.denominator for _, n in orbits]
    _check_budget("the table up to this action", sum(tops), "rows", _MAX_CZ_ROWS,
                  _CZ_ROW_BYTES, "held")
    keyed: list[tuple[int, int, str]] = []
    for (orbit, n), top in zip(orbits, tops):
        step = pq // n
        for i in range(1, top + 1):
            label = orbit if i == 1 else f"{orbit}^{i}"
            keyed.append((i * step, cz_orb(orbit, i, kp), label))
    keyed.sort()
    return [(label, Fraction(k, pq), cz) for k, cz, label in keyed]
