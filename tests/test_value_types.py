"""ReebCurrent and LatticePath are validated named tuples.

Both behave as the frozen dataclasses they replace where that is
observable: equality only within the class, the same repr, read-only
fields, pickle and copy round trips, and no way around the validation
through ``_make`` or ``_replace``."""

import copy
import pickle

import pytest

from echtk.currents import KnotParams, ReebCurrent
from echtk.toric import LatticePath

KP = KnotParams(3, 4)
CURRENT = ReebCurrent(1, 0, 2, 0)
PATH = LatticePath(KP, (1, 4), 1, "h")


@pytest.mark.parametrize("value, same", [
    (CURRENT, ReebCurrent(B=1, P=2)),
    (PATH, LatticePath(KnotParams(3, 4), (1, 4), m=1, label="h")),
])
def test_equal_only_within_the_class(value, same):
    assert value == same and not value != same
    assert hash(value) == hash(same)
    bare = tuple(value)
    assert value != bare and bare != value
    assert not value == bare and not bare == value
    other = PATH if value is CURRENT else CURRENT
    assert value != other and not value == other
    assert value != object() and value == value
    assert len({value, same, bare}) == 2


def test_repr_is_the_dataclass_repr():
    assert repr(CURRENT) == "ReebCurrent(B=1, H=0, P=2, Q=0)"
    assert repr(PATH) == "LatticePath(kp=KnotParams(p=3, q=4), anchor=(1, 4), m=1, label='h')"


@pytest.mark.parametrize("value, field", [(CURRENT, "B"), (PATH, "m"), (PATH, "anchor")])
def test_fields_are_read_only(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, 0)
    with pytest.raises(AttributeError):
        value.extra = 0


@pytest.mark.parametrize("value", [CURRENT, PATH])
def test_pickle_and_copy_round_trip_through_the_constructor(value, monkeypatch):
    cls = type(value)
    built = []
    new = cls.__new__

    def counted(cls, *args, **kwargs):
        built.append(None)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(cls, "__new__", counted)
    backs = [pickle.loads(pickle.dumps(value, protocol))
             for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    backs += [copy.copy(value), copy.deepcopy(value)]
    for back in backs:
        assert back == value and type(back) is cls
    assert len(built) == len(backs)


def test_unpacks_and_indexes_like_a_tuple():
    B, H, P, Q = CURRENT
    assert (B, H, P, Q) == (1, 0, 2, 0) == CURRENT.exponents()
    assert CURRENT[2] == CURRENT.P == 2
    kp, anchor, m, label = PATH
    assert (kp, anchor, m, label) == (KP, (1, 4), 1, "h")


@pytest.mark.parametrize("build", [
    lambda: ReebCurrent(0, 2, 0, 0),
    lambda: ReebCurrent._make((0, 2, 0, 0)),
    lambda: CURRENT._replace(H=2),
])
def test_make_and_replace_validate_the_current(build):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == "hyperbolic orbit multiplicity must be 0 or 1"


@pytest.mark.parametrize("build", [
    lambda: LatticePath(KP, (0, 0), 0, "h"),
    lambda: LatticePath._make((KP, (0, 0), 0, "h")),
    lambda: PATH._replace(anchor=(0, 0), m=0),
])
def test_make_and_replace_validate_the_path(build):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == "the 'h' label needs a nondegenerate segment"


def test_make_and_replace_build_the_class():
    assert ReebCurrent._make([1, 0, 2, 0]) == CURRENT
    assert type(CURRENT._replace(Q=3)) is ReebCurrent
    assert PATH._replace(label="e") == LatticePath(KP, (1, 4), 1, "e")
