"""The ``query_mix`` workload: small library calls from one closed-loop client.

Queries are drawn from the benchmark's seed over random coprime pairs
2 <= p < q <= 31, so the per-(p, q) caches of the library are mostly cold
and per-call cost dominates.  Each pass issues the same number of queries
of every kind (222 of each, 1,998 in all), in a seeded random order, so
that passes drawn from different seeds cost about the same.

Every query is answered through attribute lookups on the ``echtk``
package at call time, so the traced run sees the wrapped functions.  The
answers are kept and checked after the timed loop against independent
routes: ``NSeq`` (brute-force enumeration), ``ech_index_from_components``,
``path_to_current`` round trips, ``nk_closed_form`` and closed formulas
written out here.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import ceil, floor, gcd

import echtk
from echtk import crosscheck

# Queries of each kind in one pass.  The mix is synthetic, not observed
# traffic: every kind gets the same count, 2,000 queries split evenly over
# the nine kinds, so no kind is weighted by a guess.  "tiny" is the
# benchmark's self-test.
KINDS = ("nk", "index", "homology", "knot_filtered", "toric", "cz_table", "partition",
         "verify", "obstruct")
PER_PASS = {"full": dict.fromkeys(KINDS, 2000 // len(KINDS)), "tiny": dict.fromkeys(KINDS, 2)}

PAIRS = [(p, q) for q in range(3, 32) for p in range(2, q) if gcd(p, q) == 1]


def admissible_count(p: int, q: int, max_degree: int) -> int:
    """Admissible currents of degree <= max_degree, counted in closed form:
    every lattice point (P, Q) left after b^n carries b^n and b^(n-1) h."""
    pq = p * q
    count = 0
    for bh in range(max_degree // pq + 1):
        rem = max_degree - pq * bh
        points = sum((rem - q * P) // p + 1 for P in range(rem // q + 1))
        count += points * (2 if bh else 1)
    return count


# verify_index_identities costs about one unit per current checked, and the
# current count at a fixed degree falls like 1/(pq)^2.  To keep the cost of
# a pass independent of which pairs the seed draws, verify queries use the
# pairs that reach VERIFY_CURRENTS by degree 200 and the smallest degree
# that does.
VERIFY_CURRENTS = (400, 600)
VERIFY_PAIRS = [pq for pq in PAIRS if admissible_count(*pq, 200) >= VERIFY_CURRENTS[1]]


def _verify_degree(p: int, q: int, target: int) -> int:
    lo, hi = 0, 200
    while lo < hi:
        mid = (lo + hi) // 2
        if admissible_count(p, q, mid) >= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _current(rng: random.Random, kp, h: int):
    return echtk.ReebCurrent(
        B=rng.randint(0, 3), H=h, P=rng.randint(0, 2 * kp.p), Q=rng.randint(0, 2 * kp.q)
    )


def make_queries(seed: int, pass_index: int, size: str) -> list[tuple]:
    """The queries of one pass: a list of (kind, args) with built inputs."""
    rng = random.Random(f"query_mix:{seed}:{pass_index}")
    kinds = [k for k, n in PER_PASS[size].items() for _ in range(n)]
    rng.shuffle(kinds)
    out = []
    for kind in kinds:
        kp = echtk.KnotParams(*rng.choice(VERIFY_PAIRS if kind == "verify" else PAIRS))
        if kind == "nk":
            args = (kp, rng.randint(0, 5000))
        elif kind == "index":
            args = (kp, [_current(rng, kp, rng.randint(0, 1)) for _ in range(8)])
        elif kind == "homology":
            args = (kp, rng.randint(2, 60))
        elif kind == "knot_filtered":
            max_index = rng.randint(2, 60)
            args = (kp, max_index, rng.randint(0, max_index // 2))
        elif kind == "toric":
            args = (kp, _current(rng, kp, 1))
        elif kind == "cz_table":
            args = (kp, Fraction(rng.randint(1, 6), 2))
        elif kind == "partition":
            theta = Fraction(rng.randint(1, 40), rng.randint(1, 40))
            args = (echtk.InfRat(theta, rng.choice((-1, 0, 1))), rng.randint(300, 500),
                    rng.choice("+-"))
        elif kind == "verify":
            args = (kp, _verify_degree(kp.p, kp.q, rng.randint(*VERIFY_CURRENTS)))
        else:  # obstruct
            frm, to = rng.choice(PAIRS), rng.choice(PAIRS)
            if frm[0] * frm[1] < to[0] * to[1]:
                frm, to = to, frm
            args = (frm, to, rng.randint(500, 2000))
        out.append((kind, args))
    return out


# -- execution (timed) ------------------------------------------------------


def _nk(kp, k):
    return echtk.nk(kp.p, kp.q, k), echtk.repeat_count(kp.p, kp.q, k)


def _index(kp, currents):
    return [
        (echtk.ech_index(c, kp), echtk.knot_filtration(c, kp), echtk.action(c, kp))
        for c in currents
    ]


def _homology(kp, max_index):
    spec = echtk.ComplexSpec(kp, echtk.required_degree(kp, max_index))
    return echtk.homology(spec, max_index)


def _knot_filtered(kp, max_index, k0):
    level = echtk.linking_threshold(kp, k0)
    spec = echtk.ComplexSpec(kp, echtk.required_degree(kp, max_index))
    return level, echtk.knot_filtered_homology(spec, level, max_index)


def _toric(kp, c):
    path = echtk.current_to_path(c, kp)
    corners = [echtk.path_to_current(r) for r in echtk.round_corner(path)]
    return echtk.path_to_current(path), echtk.vertices(path), corners, echtk.path_index(path)


def _cz_table(kp, max_action):
    return echtk.cz_table(kp, max_action)


def _partition(theta, m, sign):
    return echtk.partition(theta, m, sign)


def _verify(kp, max_degree):
    return crosscheck.verify_index_identities(kp.p, kp.q, max_degree)


def _obstruct(frm, to, k_max):
    return echtk.cobordism_obstruction(frm, to, k_max)


RUN = {
    "nk": _nk,
    "index": _index,
    "homology": _homology,
    "knot_filtered": _knot_filtered,
    "toric": _toric,
    "cz_table": _cz_table,
    "partition": _partition,
    "verify": _verify,
    "obstruct": _obstruct,
}


# -- oracles (untimed) ------------------------------------------------------


class Oracle:
    """Checks answers against routes independent of the one timed."""

    def __init__(self):
        self._seqs: dict[tuple[int, int], echtk.NSeq] = {}

    def _seq(self, p: int, q: int) -> "echtk.NSeq":
        if (p, q) not in self._seqs:
            self._seqs[(p, q)] = echtk.NSeq(p, q)
        return self._seqs[(p, q)]

    def check(self, kind: str, args: tuple, answer) -> bool:
        return getattr(self, "_check_" + kind)(*args, answer)

    def _check_nk(self, kp, k, answer) -> bool:
        value, repeats = answer
        prefix = self._seq(kp.p, kp.q).prefix(k)
        if value != prefix[k] or repeats != prefix.count(value):
            return False
        # the closed form pins down the index range of the multiples of pq
        n = value // kp.pq
        kn, vn, rn = echtk.nk_closed_form(kp.p, kp.q, n)
        if value == vn:
            return kn - rn < k <= kn and repeats == rn - (kn - k)
        return k > kn

    def _check_index(self, kp, currents, answer) -> bool:
        for c, (index, filtration, act) in zip(currents, answer):
            deg = kp.pq * (c.B + c.H) + kp.q * c.P + kp.p * c.Q
            if index != echtk.ech_index_from_components(c, kp):
                return False
            if filtration != echtk.InfRat(deg, c.B) or act != Fraction(deg, kp.pq):
                return False
        return len(answer) == len(currents)

    def _check_homology(self, kp, max_index, answer) -> bool:
        return answer == {i: 1 - i % 2 for i in range(max_index + 1)}

    def _check_knot_filtered(self, kp, max_index, k0, answer) -> bool:
        level, ranks = answer
        expected = {
            i: int(i % 2 == 0 and echtk.linking_threshold(kp, i // 2) <= level)
            for i in range(max_index + 1)
        }
        return ranks == expected and expected[2 * k0] == 1

    def _check_toric(self, kp, c, answer) -> bool:
        back, verts, corners, index = answer
        rounded = {
            echtk.ReebCurrent(B=c.B, H=0, P=c.P + kp.p, Q=c.Q),
            echtk.ReebCurrent(B=c.B, H=0, P=c.P, Q=c.Q + kp.q),
        }
        return (
            back == c
            and set(corners) == rounded
            and index == echtk.ech_index_from_components(c, kp)
            and verts[0][0] == 0
            and verts[-1][1] == 0
        )

    def _check_cz_table(self, kp, max_action, answer) -> bool:
        s = kp.p + kp.q
        units = {"b": 1, "h": 1, "p": kp.p, "q": kp.q}  # iterates per unit action
        if len(answer) != sum(int(max_action * n) for n in units.values()):
            return False
        if answer != sorted(answer, key=lambda r: (r[1], r[2], r[0])):
            return False
        for label, act, cz in answer:
            orbit, _, power = label.partition("^")
            i = int(power or 1)
            if act != Fraction(i, units[orbit]):
                return False
            if orbit == "b":
                want = 2 * s * i + 1
            elif orbit == "h":
                want = 2 * s * i
            else:  # floor(i*s/n - d) = ceil(i*s/n) - 1 on the exceptional fibers
                want = 2 * ceil(Fraction(i * s, units[orbit])) - 1
            if cz != want:
                return False
        return True

    def _check_partition(self, theta, m, sign, answer) -> bool:
        """The definition, checked in O(m): the parts cut 0..m into a path
        through the points (x, floor(theta*x)) for '+' (ceil for '-'), made
        of primitive lattice steps, concave for '+' (convex for '-'), and
        on or above every such point for '+' (on or below for '-')."""
        rat, delta = theta.rat, theta.delta
        up = 1 if sign == "+" else -1

        def point(x: int) -> int:
            # floor(theta*x) for '+', ceil(theta*x) for '-'; delta*x is
            # infinitesimal, so it only shifts an integer rat*x
            v = rat * x
            if v.denominator != 1:
                return floor(v) if up == 1 else ceil(v)
            return v.numerator - (up == 1 and delta * x < 0) + (up == -1 and delta * x > 0)

        xs = [0]
        for part in answer:
            if not isinstance(part, int) or part < 1:
                return False
            xs.append(xs[-1] + part)
        if xs[-1] != m:
            return False
        ys = [point(x) for x in xs]
        slopes = []
        for x0, y0, x1, y1 in zip(xs, ys, xs[1:], ys[1:]):
            if gcd(x1 - x0, abs(y1 - y0)) != 1:
                return False
            slopes.append(Fraction(y1 - y0, x1 - x0))
        if any(up * (b - a) > 0 for a, b in zip(slopes, slopes[1:])):
            return False
        edge = 0
        for x in range(m + 1):
            while xs[edge + 1] < x:
                edge += 1
            path_y = ys[edge] + slopes[edge] * (x - xs[edge])
            if up * (path_y - point(x)) < 0:
                return False
        return True

    def _check_verify(self, kp, max_degree, answer) -> bool:
        return answer == admissible_count(kp.p, kp.q, max_degree)

    def _check_obstruct(self, frm, to, k_max, answer) -> bool:
        if frm[0] * frm[1] < to[0] * to[1]:
            return not answer.applicable
        src = self._seq(*frm).prefix(k_max)
        dst = self._seq(*to).prefix(k_max)
        first = next((k for k, (a, b) in enumerate(zip(src, dst)) if a < b), None)
        return (
            answer.applicable
            and answer.consistent == (first is None)
            and answer.obstructed_at == first
        )
