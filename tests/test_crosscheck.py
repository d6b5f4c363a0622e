import pytest

from echtk import crosscheck


def test_failure_names_the_current_and_the_pair(monkeypatch):
    original = crosscheck.lattice_count
    monkeypatch.setattr(crosscheck, "lattice_count", lambda p, q, bound: original(p, q, bound) + 1)
    with pytest.raises(AssertionError) as info:
        crosscheck.verify_index_identities(2, 3, 12)
    assert str(info.value) == "path index mismatch at (B,H,P,Q)=(0,0,0,0), (p,q)=(2,3)"
