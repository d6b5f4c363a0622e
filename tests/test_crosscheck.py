import tracemalloc
from math import gcd
from types import SimpleNamespace

import pytest

from echtk import complexes, crosscheck, indices
from echtk.currents import KnotParams, ReebCurrent, degree
from gf2_oracle import admissible_exponents


def test_failure_names_the_current_and_the_pair(monkeypatch):
    # one extra representation of n = 0 shifts the grade of every line past
    # D = 0, so the first current of positive degree, q, is the first to fail
    original = complexes._walk
    monkeypatch.setattr(
        complexes, "_walk",
        lambda p, q, top: ((k + (n > 0), n, a0, count) for k, n, a0, count in original(p, q, top)),
    )
    with pytest.raises(AssertionError) as info:
        crosscheck.verify_index_identities(2, 3, 12)
    assert str(info.value) == "grade mismatch at q, (p,q)=(2,3)"


def _evaluator_off_at(at, shift, routes):
    """An index evaluator factory whose named routes are off by ``shift`` at
    the exponents ``at`` and right everywhere else."""
    original = indices._index_evaluator

    def faulty(p, q):
        ev = original(p, q)

        def route(name):
            right = getattr(ev, name)
            return (lambda *e: right(*e) + shift * (e == at)) if name in routes else right

        return SimpleNamespace(index=route("index"), components=route("components"))

    return faulty


def _fault_ids(faults):
    """Ids like h+2: the current a fault is at and its shift."""
    return [f"{ReebCurrent(*at).name()}+{shift}" for at, shift, _ in faults]


# Each fault shifts the closed form alone at one current of T(2,3);
# ech_index_from_components compares it with the ledger route and names that
# current.
CLOSED_FORM_FAULTS = [
    ((0, 0, 0, 0), 1,
     "index inconsistency for 1 at (p,q)=(2,3): components give 0, closed form gives 1"),
    ((0, 0, 0, 0), 2,
     "index inconsistency for 1 at (p,q)=(2,3): components give 0, closed form gives 2"),
    ((0, 1, 0, 0), 2,
     "index inconsistency for h at (p,q)=(2,3): components give 11, closed form gives 13"),
    ((0, 0, 0, 3), 2,
     "index inconsistency for q^3 at (p,q)=(2,3): components give 10, closed form gives 12"),
    ((1, 0, 0, 0), 2,
     "index inconsistency for b at (p,q)=(2,3): components give 12, closed form gives 14"),
]


@pytest.mark.parametrize("at,shift,message", CLOSED_FORM_FAULTS, ids=_fault_ids(CLOSED_FORM_FAULTS))
def test_a_shift_of_the_closed_form_alone_is_named_by_the_ledger_route(
    monkeypatch, at, shift, message
):
    monkeypatch.setattr(indices, "_index_evaluator", _evaluator_off_at(at, shift, ["index"]))
    with pytest.raises(RuntimeError) as info:
        crosscheck.verify_index_identities(2, 3, 12)
    assert str(info.value) == message


# A shift of both routes at one current, as a fault in the Conley-Zehnder sums
# they share would make, breaks the grade there.  The odd shift of the empty
# current is the old parity fault; the others break the step relations from
# the empty current, I(h) = I(p^2) + 1 = I(q^3) + 1 = I(b) - 1.
SHARED_FAULTS = [
    ((0, 0, 0, 0), 1, "grade mismatch at 1, (p,q)=(2,3)"),
    ((0, 1, 0, 0), 2, "grade mismatch at h, (p,q)=(2,3)"),
    ((0, 0, 0, 3), 2, "grade mismatch at q^3, (p,q)=(2,3)"),
    ((1, 0, 0, 0), 2, "grade mismatch at b, (p,q)=(2,3)"),
]


@pytest.mark.parametrize("at,shift,message", SHARED_FAULTS, ids=_fault_ids(SHARED_FAULTS))
def test_a_shift_of_both_routes_is_named_by_the_grade(monkeypatch, at, shift, message):
    faulty = _evaluator_off_at(at, shift, ["index", "components"])
    monkeypatch.setattr(indices, "_index_evaluator", faulty)
    with pytest.raises(AssertionError) as info:
        crosscheck.verify_index_identities(2, 3, 12)
    assert str(info.value) == message


def test_the_fused_pass_reads_the_ledger(monkeypatch):
    # one wrong ledger pairing, Q(Z_p, Z_q), shows at the first current with
    # both P and Q, in the one pass that runs every check
    led = indices.InvariantLedger.for_params(KnotParams(2, 3))
    led.qpair[("Z_p", "Z_q", "orbibundle")] = 2
    monkeypatch.setattr(indices, "ledger", lambda kp: led)
    indices._index_evaluator.cache_clear()
    try:
        with pytest.raises(RuntimeError) as info:
            crosscheck.verify_index_identities(2, 3, 12)
    finally:
        indices._index_evaluator.cache_clear()
    assert str(info.value) == (
        "index inconsistency for p q at (p,q)=(2,3): components give 10, closed form gives 8"
    )


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


# a wrong index from the object API breaks the grade first
OBJECT_FAULTS = [
    ("ech_index_from_components", _components_off_at_target,
     "grade mismatch at b h p^2 q, (p,q)=(2,3)"),
    ("path_to_current", _round_trip_off_at_target,
     "path round-trip failure at b h p^2 q, (p,q)=(2,3)"),
    ("path_index", _path_index_off_at_target, "path index mismatch at b h p^2 q, (p,q)=(2,3)"),
]


@pytest.mark.parametrize("name,fault,message", OBJECT_FAULTS, ids=[n for n, _, _ in OBJECT_FAULTS])
def test_each_object_check_names_its_failure(monkeypatch, name, fault, message):
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


def test_the_count_is_the_independent_enumeration():
    # the crosscheck counts the currents of the line walk; the oracle's loop
    # over the exponent box lists them with none of the walk's facts
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # coprime p, q <= 15, p = 1 and q = 1 among them, and a cutoff from 0 to 3pq + 20
    windows = (
        st.tuples(st.integers(1, 15), st.integers(1, 15))
        .filter(lambda pq: gcd(*pq) == 1)
        .flatmap(lambda pq: st.tuples(st.just(pq), st.integers(0, 3 * pq[0] * pq[1] + 20)))
    )

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(case=windows)
    @hypothesis.example(case=((1, 1), 23))
    @hypothesis.example(case=((1, 7), 41))
    @hypothesis.example(case=((15, 1), 65))
    def check(case):
        (p, q), max_degree = case
        expected = len(list(admissible_exponents(KnotParams(p, q), max_degree)))
        assert crosscheck.verify_index_identities(p, q, max_degree) == expected

    check()


def _walk_order(p, q, max_degree):
    """Every current of the window in the crosscheck's order: each line's
    points, then its h-currents, in the order of i."""
    return [
        (B, H, P0 + i * p, Q0 - (i + H) * q)
        for _, _, B, P0, Q0, m in complexes._lines(KnotParams(p, q), max_degree)
        for H in range(min(m, 2))
        for i in range(m - H)
    ]


def test_every_current_of_a_large_window_goes_through_every_check(monkeypatch):
    window = _walk_order(2, 3, 200)
    assert len(window) == 77486
    assert sorted(window) == sorted(admissible_exponents(KnotParams(2, 3), 200))
    indexed, compared, pathed, round_tripped = [], [], [], []

    class Index(int):
        """An index that records the current it belongs to at each comparison."""

        def __eq__(self, other):
            compared.append(self.current)
            return int(self) == other

        def __ne__(self, other):
            return not self == other

    def components(c, kp, original=crosscheck.ech_index_from_components):
        indexed.append(tuple(c))
        index = Index(original(c, kp))
        index.current = tuple(c)
        return index

    def to_path(c, kp, original=crosscheck.current_to_path):
        pathed.append(tuple(c))
        return original(c, kp)

    def to_current(path, original=crosscheck.path_to_current):
        c = original(path)
        round_tripped.append(tuple(c))
        return c

    monkeypatch.setattr(crosscheck, "ech_index_from_components", components)
    monkeypatch.setattr(crosscheck, "current_to_path", to_path)
    monkeypatch.setattr(crosscheck, "path_to_current", to_current)
    assert crosscheck.verify_index_identities(2, 3, 200) == len(window)
    assert indexed == pathed == round_tripped == window
    # each index is compared with its line's grade and with its path's index
    assert compared == [c for c in window for _ in range(2)]


def test_the_crosscheck_holds_no_window():
    # a list of this window's 45,526 currents takes 3.7 MB; T(1,1) at degree
    # 120 (597,861 currents, 48 MB as a list) takes 43 s under tracemalloc
    tracemalloc.start()
    try:
        checked = crosscheck.verify_index_identities(1, 1, 50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert checked == 45526
    assert peak < 1 << 20
