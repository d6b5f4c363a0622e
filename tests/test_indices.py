import pytest

from echtk.currents import KnotParams, ReebCurrent
from echtk.indices import (
    TRIVIALIZATIONS,
    cz_in_triv,
    cz_orb,
    cz_table,
    ech_index,
    ech_index_from_components,
    j0_index,
    ledger,
)

from golden_tables import CZ_TABLE_T34, TABLE_T34, TABLE_T34_OMITTED, TABLE_T35

KP = KnotParams(3, 4)


def test_cz_orb_examples():
    assert cz_orb("q", 1, KP) == 3
    assert cz_orb("h", 2, KP) == 28
    assert cz_orb("p", 6, KP) == 27


def test_cz_orb_closed_forms_at_full_covers():
    for p, q in [(2, 3), (3, 4), (3, 5), (5, 7)]:
        kp = KnotParams(p, q)
        for k in range(1, 6):
            assert cz_orb("b", k, kp) == 2 * (p + q) * k + 1
            assert cz_orb("h", k, kp) == 2 * (p + q) * k
            assert cz_orb("p", p * k, kp) == 2 * (p + q) * k - 1
            assert cz_orb("q", q * k, kp) == 2 * (p + q) * k - 1


def test_cz_parity():
    # elliptic orbits get odd indices, the positive hyperbolic one even
    for orbit, parity in [("b", 1), ("p", 1), ("q", 1), ("h", 0)]:
        for i in range(1, 12):
            assert cz_orb(orbit, i, KP) % 2 == parity


def test_cz_table_golden():
    rows = cz_table(KP)
    assert [(label, cz) for label, _, cz in rows] == CZ_TABLE_T34


def test_cz_in_triv_examples():
    assert cz_in_triv("b", 1, "page", KP) == 25
    for k in range(1, 5):
        assert cz_in_triv("b", k, "constant", KnotParams(2, 5)) == 1
        assert cz_in_triv("h", k, "constant", KnotParams(2, 5)) == 0
        assert cz_in_triv("b", k, "page", KP) == 2 * KP.pq * k + 1
        assert cz_in_triv("q", 4 * k, "surface_q", KP) == -1
        assert cz_in_triv("p", 3 * k, "surface_p", KP) == -1
        assert cz_in_triv("h", 1, "surface_h", KP) == 0
        # the surface trivializations restrict to the constant one on b
        assert cz_in_triv("b", k, "surface_p", KP) == 1
        assert cz_in_triv("b", k, "surface_q", KP) == 1
        assert cz_in_triv("b", k, "surface_h", KP) == 1


def test_cz_in_triv_rejects_mismatches():
    with pytest.raises(ValueError):
        cz_in_triv("p", 1, "constant", KP)
    with pytest.raises(ValueError):
        cz_in_triv("q", 3, "surface_q", KP)  # not a q-fold cover
    with pytest.raises(ValueError):
        cz_in_triv("h", 1, "page", KP)


def test_ledger_values():
    led = ledger(KP)
    p, q, pq = 3, 4, 12
    assert led.chern_number("Sigma", "orbibundle") == 0
    assert led.chern_number("Sigma", "constant") == p + q
    assert led.chern_number("Sigma", "page") == p + q - pq
    assert led.chern_number("Z_q", "surface_q") == p + q
    assert led.chern_number("Z_p", "surface_p") == p + q
    assert led.chern_number("Z_h", "surface_h") == p + q
    for cls in ("Z_p", "Z_q", "Z_h", "Z_b"):
        assert led.chern_number(cls, "orbibundle") == 0
    assert led.q_pairing("Z_b", "Z_b", "page") == 0
    assert led.q_pairing("Z_b", "Z_b") == pq - p - q
    assert led.q_pairing("Z_b", "Z_b", "constant") == pq
    assert led.q_pairing("Z_p", "Z_p") == -1
    assert led.q_pairing("Z_q", "Z_q") == -1
    assert led.q_pairing("Z_h", "Z_h") == pq - p - q
    assert led.q_pairing("Z_p", "Z_q") == 1
    assert led.q_pairing("Z_b", "Z_p") == q
    assert led.q_pairing("Z_h", "Z_p") == q
    assert led.q_pairing("Z_b", "Z_q") == p
    assert led.q_pairing("Z_h", "Z_q") == p
    assert led.q_pairing("Z_h", "Z_b") == pq
    assert led.offset("b", "constant", "page") == pq
    assert led.offset("b", "constant", "orbibundle") == p + q
    assert led.offset("b", "orbibundle", "page") == pq - p - q
    assert led.offset("b", "page", "constant") == -pq
    assert led.offset("q", "surface_q", "orbibundle") == p + q
    assert led.offset("p", "surface_p", "orbibundle") == p + q
    assert led.offset("h", "surface_h", "orbibundle") == p + q
    assert led.self_linking == pq - p - q


X = None  # KeyError: a trivialization that is not defined on the orbit


def _offset_matrices(s, pq):
    """offset(orbit, from, to) with rows `from` and columns `to`, both in
    the order constant, orbibundle, page, surface_p, surface_q, surface_h."""
    return {
        "b": [
            [0, s, pq, 0, 0, 0],
            [-s, 0, pq - s, -s, -s, -s],
            [-pq, s - pq, 0, -pq, -pq, -pq],
            [0, s, pq, 0, 0, 0],
            [0, s, pq, 0, 0, 0],
            [0, s, pq, 0, 0, 0],
        ],
        "h": [
            [0, s, X, X, X, 0],
            [-s, 0, X, X, X, -s],
            [X, X, 0, X, X, X],
            [X, X, X, 0, X, X],
            [X, X, X, X, 0, X],
            [0, s, X, X, X, 0],
        ],
        "p": [
            [0, X, X, X, X, X],
            [X, 0, X, -s, X, X],
            [X, X, 0, X, X, X],
            [X, s, X, 0, X, X],
            [X, X, X, X, 0, X],
            [X, X, X, X, X, 0],
        ],
        "q": [
            [0, X, X, X, X, X],
            [X, 0, X, X, -s, X],
            [X, X, 0, X, X, X],
            [X, X, X, 0, X, X],
            [X, s, X, X, 0, X],
            [X, X, X, X, X, 0],
        ],
    }


@pytest.mark.parametrize("p, q", [(1, 2), (2, 3), (3, 4), (2, 7), (5, 8)])
def test_ledger_offsets_on_every_triple(p, q):
    led = ledger(KnotParams(p, q))
    for orbit, matrix in _offset_matrices(p + q, p * q).items():
        for triv_from, row in zip(TRIVIALIZATIONS, matrix):
            for triv_to, expected in zip(TRIVIALIZATIONS, row):
                if expected is X:
                    with pytest.raises(KeyError):
                        led.offset(orbit, triv_from, triv_to)
                else:
                    assert led.offset(orbit, triv_from, triv_to) == expected
    with pytest.raises(KeyError):
        led.offset("x", "constant", "orbibundle")


def test_ech_index_examples():
    assert ech_index(ReebCurrent(H=1), KP) == 19
    assert ech_index(ReebCurrent(B=1, P=1, Q=1), KP) == 42
    assert ech_index(ReebCurrent(P=4), KnotParams(3, 5)) == 36
    assert ech_index(ReebCurrent(), KP) == 0


def test_golden_tables_via_index_formula():
    for table, kp in [(TABLE_T34 + [TABLE_T34_OMITTED], KP), (TABLE_T35, KnotParams(3, 5))]:
        for deg, name, index in table:
            c = ReebCurrent.from_name(name)
            assert ech_index(c, kp) == index, name
            assert kp.pq * (c.B + c.H) + kp.q * c.P + kp.p * c.Q == deg, name


def test_components_examples():
    assert ech_index_from_components(ReebCurrent(B=2), KP) == 64
    assert ech_index_from_components(ReebCurrent(), KP) == 0
    assert ech_index_from_components(ReebCurrent(H=1, Q=1), KP) == 27


def test_components_match_closed_form():
    for p, q in [(2, 3), (3, 4), (3, 5), (4, 5), (5, 12), (11, 12)]:
        kp = KnotParams(p, q)
        for B in range(3):
            for H in (0, 1):
                for P in range(5):
                    for Q in range(5):
                        c = ReebCurrent(B, H, P, Q)
                        assert ech_index_from_components(c, kp) == ech_index(c, kp)


def test_pure_binding_page_trivialization_check():
    # c + Q + CZ sums in the page trivialization reproduce the index of b^B
    for p, q in [(2, 3), (3, 4), (5, 7)]:
        kp = KnotParams(p, q)
        led = ledger(kp)
        for B in range(1, 7):
            chern = B * led.chern_number("Sigma", "page")
            qterm = B * B * led.q_pairing("Z_b", "Z_b", "page")
            czsum = sum(cz_in_triv("b", k, "page", kp) for k in range(1, B + 1))
            assert czsum == p * q * B * (B + 1) + B
            assert chern + qterm + czsum == ech_index(ReebCurrent(B=B), kp)


def test_index_parity():
    for c in [ReebCurrent(B, H, P, Q) for B in range(3) for H in (0, 1) for P in range(4) for Q in range(4)]:
        assert ech_index(c, KP) % 2 == c.H


def test_step_relations():
    for p, q in [(2, 3), (3, 4), (3, 5)]:
        kp = KnotParams(p, q)
        for B in range(3):
            for P in range(4):
                for Q in range(4):
                    alpha = ReebCurrent(B, 0, P, Q)
                    h_idx = ech_index(ReebCurrent(B, 1, P, Q), kp)
                    assert h_idx == ech_index(ReebCurrent(B, 0, P + p, Q), kp) + 1
                    assert h_idx == ech_index(ReebCurrent(B, 0, P, Q + q), kp) + 1
                    assert ech_index(ReebCurrent(B + 1, 0, P, Q), kp) == h_idx + 1


def test_j0_examples():
    assert j0_index(ReebCurrent(B=1), ReebCurrent(H=1), KP) == 0
    assert j0_index(ReebCurrent(B=2), ReebCurrent(B=1, H=1), KP) == 1
    a = ReebCurrent(1, 1, 2, 3)
    assert j0_index(a, a, KP) == 0


def _j0_expansion(alpha, beta, kp):
    # independent route: -c + Q(Z_alpha) - Q(Z_beta) + truncated CZ sums
    led = ledger(kp)

    def qform(c):
        classes = (("Z_b", c.B), ("Z_h", c.H), ("Z_p", c.P), ("Z_q", c.Q))
        total = 0
        for i, (ni, mi) in enumerate(classes):
            if not mi:
                continue
            total += mi * mi * led.q_pairing(ni, ni)
            for nj, mj in classes[i + 1 :]:
                if mj:
                    total += 2 * mi * mj * led.q_pairing(ni, nj)
        return total

    def cz_trunc(c):
        total = 0
        for orbit, mult in zip("bhpq", (c.B, c.H, c.P, c.Q)):
            total += sum(cz_orb(orbit, k, kp) for k in range(1, mult))
        return total

    return qform(alpha) - qform(beta) + cz_trunc(alpha) - cz_trunc(beta)


def test_j0_identity_against_expansion():
    # the truncated-sum expansion must agree with the I-difference route
    kp = KP
    currents = [
        ReebCurrent(B, H, P, Q)
        for B in range(3)
        for H in (0, 1)
        for P in range(4)
        for Q in range(4)
    ]
    for alpha in currents[::3]:
        for beta in currents[::4]:
            assert j0_index(alpha, beta, kp) == _j0_expansion(alpha, beta, kp)


def test_j0_vanishing_and_near_vanishing_pairs():
    # cylinders between index-adjacent pairs: J0 = 0 when the shared tail
    # omits the orbit being raised, J0 = 1 when it already contains it
    for p, q in [(2, 3), (3, 4)]:
        kp = KnotParams(p, q)
        for P in range(3):
            for Q in range(3):
                tail_pq = (0, P, Q)
                assert j0_index(ReebCurrent(1, 0, P, Q), ReebCurrent(0, 1, P, Q), kp) == 0
                for B in range(1, 3):
                    assert j0_index(ReebCurrent(B + 1, 0, P, Q), ReebCurrent(B, 1, P, Q), kp) == 1
        for B in range(3):
            for Q in range(3):
                hg = ReebCurrent(B, 1, 0, Q)
                assert j0_index(hg, ReebCurrent(B, 0, p, Q), kp) == 0
            for P in range(3):
                hg = ReebCurrent(B, 1, P, 0)
                assert j0_index(hg, ReebCurrent(B, 0, P, q), kp) == 0
