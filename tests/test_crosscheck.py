from types import SimpleNamespace

import pytest

from echtk import crosscheck, indices
from echtk.currents import KnotParams, ReebCurrent, admissible_exponents, degree


def test_failure_names_the_current_and_the_pair(monkeypatch):
    # one extra representation of n = 0 shifts every strict count past w = 0,
    # so the first current of positive degree, q, is the first to fail
    original = crosscheck._walk
    monkeypatch.setattr(
        crosscheck, "_walk",
        lambda p, q, top: ((k + (n > 0), n, a0, count) for k, n, a0, count in original(p, q, top)),
    )
    with pytest.raises(AssertionError) as info:
        crosscheck.verify_index_identities(2, 3, 12)
    assert str(info.value) == "path index mismatch at (B,H,P,Q)=(0,0,0,1), (p,q)=(2,3)"


# Each fault shifts the closed form at one current of T(2,3); the fused pass
# reaches the check that names it at the empty current, before any other.
FUSED_FAULTS = [
    ((0, 0, 0, 0), 1, "parity failure at (B,H,P,Q)=(0,0,0,0), (p,q)=(2,3): 1"),
    ((0, 0, 0, 0), 2, "component mismatch at (B,H,P,Q)=(0,0,0,0), (p,q)=(2,3)"),
    ((0, 1, 0, 0), 2, "I(h a) = I(p^p a) + 1 fails at (B,H,P,Q)=(0,0,0,0), (p,q)=(2,3)"),
    ((0, 0, 0, 3), 2, "I(h a) = I(q^q a) + 1 fails at (B,H,P,Q)=(0,0,0,0), (p,q)=(2,3)"),
    ((1, 0, 0, 0), 2, "I(b a) = I(h a) + 1 fails at (B,H,P,Q)=(0,0,0,0), (p,q)=(2,3)"),
]


@pytest.mark.parametrize("at,shift,message", FUSED_FAULTS)
def test_each_fused_check_names_its_failure(monkeypatch, at, shift, message):
    original = crosscheck._index_evaluator

    def faulty(p, q):
        ev = original(p, q)
        index = ev.index
        return SimpleNamespace(
            index=lambda *e: index(*e) + shift * (e == at), grow=ev.grow, sum_p=ev.sum_p,
            sum_q=ev.sum_q, components=ev.components,
        )

    monkeypatch.setattr(crosscheck, "_index_evaluator", faulty)
    with pytest.raises(AssertionError) as info:
        crosscheck.verify_index_identities(2, 3, 12)
    assert str(info.value) == message


def test_the_fused_pass_reads_the_ledger(monkeypatch):
    # one wrong ledger pairing, Q(Z_p, Z_q), shows at the first current with
    # both P and Q, in the fused pass rather than the sample pass
    led = indices.InvariantLedger.for_params(KnotParams(2, 3))
    led.qpair[("Z_p", "Z_q", "orbibundle")] = 2
    monkeypatch.setattr(indices, "ledger", lambda kp: led)
    indices._index_evaluator.cache_clear()
    try:
        with pytest.raises(AssertionError) as info:
            crosscheck.verify_index_identities(2, 3, 12)
    finally:
        indices._index_evaluator.cache_clear()
    assert str(info.value) == "component mismatch at (B,H,P,Q)=(0,0,1,1), (p,q)=(2,3)"


TARGET = ReebCurrent(1, 1, 2, 1)  # degree 21 in T(2,3), inside the window


def _components_off_at_target(original):
    return lambda c, kp: original(c, kp) + (c == TARGET)


def _round_trip_off_at_target(original):
    def path_to_current(path):
        c = original(path)
        return ReebCurrent(c.B + 1, c.H, c.P, c.Q) if c == TARGET else c

    return path_to_current


def _path_index_off_at_target(original):
    return lambda path: original(path) + (crosscheck.path_to_current(path) == TARGET)


SAMPLE_FAULTS = [
    ("ech_index_from_components", _components_off_at_target, "component mismatch at b h p^2 q"),
    ("path_to_current", _round_trip_off_at_target, "path round-trip failure at b h p^2 q"),
    ("path_index", _path_index_off_at_target, "path index mismatch at b h p^2 q"),
]


@pytest.mark.parametrize("name,fault,message", SAMPLE_FAULTS)
def test_each_sample_check_names_its_failure(monkeypatch, name, fault, message):
    monkeypatch.setattr(crosscheck, name, fault(getattr(crosscheck, name)))
    with pytest.raises(AssertionError) as info:
        crosscheck.verify_index_identities(2, 3, 30)
    assert str(info.value) == message


@pytest.mark.parametrize("p,q,max_degree", [(1, 1, 0), (2, 3, 12), (2, 3, 30), (3, 4, 60), (2, 5, 150)])
def test_returns_the_admissible_count(p, q, max_degree):
    kp = KnotParams(p, q)
    box = [
        (B, H, P, Q)
        for B in range(max_degree // kp.pq + 1)
        for H in (0, 1)
        for P in range(max_degree // q + 1)
        for Q in range(max_degree // p + 1)
        if degree(ReebCurrent(B, H, P, Q), kp) <= max_degree
    ]
    assert crosscheck.verify_index_identities(p, q, max_degree) == len(box)


def test_sample_keeps_small_windows_and_thins_large_ones():
    window = list(admissible_exponents(KnotParams(2, 3), 200))
    assert len(window) > 2000
    sample = crosscheck._sample_currents(window)
    stride = len(window) // 2000 + 1
    assert sample == [ReebCurrent(*e) for e in window[::stride] + window[:64]]
    assert len(sample) <= 2000 + 64
    small = window[:2000]
    assert crosscheck._sample_currents(small) == [ReebCurrent(*e) for e in small]
