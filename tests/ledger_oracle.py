"""Reference index routes that the library computes the shorter way.

- :func:`q_form` expands the intersection pairing Q(Z) of a current
  bilinearly, one ``InvariantLedger.q_pairing`` lookup per pair of orbits
  present;
- :func:`components_reference` adds the Conley-Zehnder sums to it, one
  ``cz_orb`` term per iterate, which is the value
  ``ech_index_from_components`` must return;
- :func:`cz_table_reference` lists the single-orbit iterates by
  multiplying ``Fraction`` actions and sorts them on ``Fraction`` keys;
- :func:`linking_reference` sums the linking number over every pair of
  orbits present, one ``frozenset`` table lookup per pair.
"""

from __future__ import annotations

from fractions import Fraction

from echtk.currents import ORBITS, KnotParams, ReebCurrent
from echtk.indices import cz_orb, ledger


def q_form(c: ReebCurrent, kp: KnotParams) -> int:
    """Q(Z) of the current in the orbibundle trivialization."""
    led = ledger(kp)
    classes = (("Z_b", c.B), ("Z_h", c.H), ("Z_p", c.P), ("Z_q", c.Q))
    total = 0
    for i, (name_i, mult_i) in enumerate(classes):
        if not mult_i:
            continue
        total += mult_i * mult_i * led.q_pairing(name_i, name_i)
        for name_j, mult_j in classes[i + 1 :]:
            if mult_j:
                total += 2 * mult_i * mult_j * led.q_pairing(name_i, name_j)
    return total


def components_reference(c: ReebCurrent, kp: KnotParams) -> int:
    """Q(Z) plus every cz_orb term of the current (the Chern term is zero)."""
    cz = sum(
        cz_orb(orbit, i, kp)
        for orbit, mult in zip("bhpq", tuple(c))
        for i in range(1, mult + 1)
    )
    return q_form(c, kp) + cz


def cz_table_reference(kp: KnotParams, max_action) -> list[tuple[str, Fraction, int]]:
    max_action = Fraction(max_action)
    units = (("b", Fraction(1)), ("h", Fraction(1)), ("p", Fraction(1, kp.p)), ("q", Fraction(1, kp.q)))
    rows = []
    for orbit, unit in units:
        i = 1
        while unit * i <= max_action:
            rows.append((orbit if i == 1 else f"{orbit}^{i}", unit * i, cz_orb(orbit, i, kp)))
            i += 1
    rows.sort(key=lambda r: (r[1], r[2], r[0]))
    return rows


def _pairwise_linking(kp: KnotParams) -> dict[frozenset, int]:
    p, q = kp.p, kp.q
    return {
        frozenset(("p", "q")): 1,
        frozenset(("b", "p")): q,
        frozenset(("h", "p")): q,
        frozenset(("b", "q")): p,
        frozenset(("h", "q")): p,
        frozenset(("b", "h")): p * q,
    }


def linking_reference(c1: ReebCurrent, c2: ReebCurrent, kp: KnotParams) -> int:
    """Linking number of two currents that share no orbit."""
    table = _pairwise_linking(kp)
    total = 0
    for o1 in ORBITS:
        m1 = c1.multiplicity(o1)
        if not m1:
            continue
        for o2 in ORBITS:
            m2 = c2.multiplicity(o2)
            if not m2:
                continue
            total += m1 * m2 * table[frozenset((o1, o2))]
    return total
