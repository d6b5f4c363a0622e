"""The library's value types are validated named tuples.

``ReebCurrent``, ``LatticePath``, ``KnotParams``, ``ComplexSpec``,
``InvariantLedger``, ``CobordismResult``, ``BoundResult`` and ``InfRat``
behave as the frozen dataclasses they replace where that is observable:
equality only within the class (numeric equality for ``InfRat``), the same
repr, read-only fields, pickle and copy through the constructor, and no way
around the validation through ``_make`` or ``_replace``.  New: they unpack
and index like tuples.  No module of the package imports ``dataclasses``."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from echtk.complexes import ComplexSpec
from echtk.currents import KnotParams, ReebCurrent
from echtk.exact import InfRat
from echtk.indices import InvariantLedger
from echtk.spectra import BoundResult, CobordismResult, action_linking_bound, cobordism_obstruction
from echtk.toric import LatticePath

KP = KnotParams(3, 4)
CURRENT = ReebCurrent(1, 0, 2, 0)
PATH = LatticePath(KP, (1, 4), 1, "h")
SPEC = ComplexSpec(KP, 20)
LEDGER = InvariantLedger.for_params(KP)
COBORDISM = cobordism_obstruction((2, 3), (3, 4), 5)
BOUND = action_linking_bound(KP, Fraction(1), Fraction(1, 1000))
NUMBER = InfRat(Fraction(1), 1)
VALUES = [CURRENT, PATH, KP, SPEC, LEDGER, COBORDISM, BOUND, NUMBER]


@pytest.mark.parametrize("value, same", [
    (CURRENT, ReebCurrent(B=1, P=2)),
    (PATH, LatticePath(KnotParams(3, 4), (1, 4), m=1, label="h")),
    (KP, KnotParams(q=4, p=3)),
    (SPEC, ComplexSpec(KP, max_degree=20)),
    (COBORDISM, CobordismResult(False, False, None, 5)),
    (BOUND, BoundResult(True, Fraction(1, 12000), "0.009128709292")),
    (NUMBER, InfRat(1, delta=1)),
])
def test_equal_only_within_the_class(value, same):
    assert value == same and not value != same
    assert hash(value) == hash(same)
    bare = tuple(value)
    assert value != bare and bare != value
    assert not value == bare and not bare == value
    for other in VALUES:
        if other is not value:
            assert value != other and not value == other
    assert value != object() and value == value
    assert len({value, same, bare}) == 2


def test_the_ledger_is_equal_only_within_the_class_and_unhashable():
    same = InvariantLedger(3, 4, dict(LEDGER.chern), dict(LEDGER.qpair), dict(LEDGER.offsets))
    assert LEDGER == same and not LEDGER != same
    assert LEDGER != tuple(LEDGER) and not LEDGER == tuple(LEDGER)
    assert LEDGER != InvariantLedger(3, 4)
    with pytest.raises(TypeError):
        hash(LEDGER)  # its tables are dicts, as in the dataclass


def test_the_ledger_defaults_to_fresh_empty_tables():
    a, b = InvariantLedger(3, 4), InvariantLedger(3, 4)
    assert a.chern == a.qpair == a.offsets == {}
    assert a.chern is not b.chern and a.chern is not a.qpair
    assert a == b


def test_a_number_equals_and_hashes_as_its_rational_part():
    assert InfRat(3) == 3 == InfRat(Fraction(3)) and InfRat(Fraction(1, 2)) == Fraction(1, 2)
    assert 3 in {InfRat(3)} and InfRat(3) in {3} and Fraction(1, 2) in {InfRat(Fraction(1, 2))}
    assert InfRat(3, 1) != 3 and 3 not in {InfRat(3, 1)}
    assert InfRat(3) != (Fraction(3), 0) and (Fraction(3), 0) != InfRat(3)


def test_a_number_computes_and_orders_as_a_number():
    assert NUMBER + NUMBER == InfRat(2, 2) and NUMBER - 1 == InfRat(0, 1)
    assert 1 - NUMBER == InfRat(0, -1) and 2 + NUMBER == InfRat(3, 1)
    assert 2 * NUMBER == NUMBER * 2 == InfRat(2, 2)
    for bad in (lambda: NUMBER * NUMBER, lambda: (1, 2) + NUMBER, lambda: NUMBER + (1,),
                lambda: NUMBER < (1, 2)):
        with pytest.raises(TypeError):
            bad()
    assert sorted([NUMBER, 1, InfRat(1, -1), Fraction(1, 2)]) == [Fraction(1, 2), InfRat(1, -1), 1, NUMBER]
    assert bool(InfRat(0))  # every value is truthy, as the dataclass was


def test_repr_is_the_dataclass_repr():
    assert repr(CURRENT) == "ReebCurrent(B=1, H=0, P=2, Q=0)"
    assert repr(PATH) == "LatticePath(kp=KnotParams(p=3, q=4), anchor=(1, 4), m=1, label='h')"
    assert repr(KP) == "KnotParams(p=3, q=4)"
    assert repr(SPEC) == "ComplexSpec(kp=KnotParams(p=3, q=4), max_degree=20)"
    assert repr(InvariantLedger(3, 4)) == "InvariantLedger(p=3, q=4, chern={}, qpair={}, offsets={})"
    assert repr(InvariantLedger(3, 4, {("Sigma", "orbibundle"): 0})) == (
        "InvariantLedger(p=3, q=4, chern={('Sigma', 'orbibundle'): 0}, qpair={}, offsets={})"
    )
    assert repr(COBORDISM) == (
        "CobordismResult(applicable=False, consistent=False, obstructed_at=None, k_max=5)"
    )
    assert repr(BOUND) == (
        "BoundResult(hypothesis_met=True, bound_squared=Fraction(1, 12000), bound='0.009128709292')"
    )
    assert repr(NUMBER) == "InfRat(rat=Fraction(1, 1), delta=1)"
    assert repr(InfRat(Fraction(-7, 3))) == "InfRat(rat=Fraction(-7, 3), delta=0)"


@pytest.mark.parametrize("value, field", [
    (CURRENT, "B"), (PATH, "m"), (PATH, "anchor"), (KP, "p"), (SPEC, "max_degree"),
    (LEDGER, "chern"), (COBORDISM, "k_max"), (BOUND, "bound"), (NUMBER, "rat"), (NUMBER, "delta"),
])
def test_fields_are_read_only(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, 0)
    with pytest.raises(AttributeError):
        value.extra = 0


@pytest.mark.parametrize("value", VALUES)
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
    assert (B, H, P, Q) == (1, 0, 2, 0) == tuple(CURRENT)
    assert CURRENT[2] == CURRENT.P == 2
    kp, anchor, m, label = PATH
    assert (kp, anchor, m, label) == (KP, (1, 4), 1, "h")
    p, q = KP
    assert (p, q, KP[1]) == (3, 4, 4)
    assert SPEC[1] == 20 and SPEC[0] is KP
    rat, delta = NUMBER
    assert (rat, delta) == (Fraction(1), 1) and type(rat) is Fraction
    applicable, consistent, obstructed_at, k_max = COBORDISM
    assert (applicable, consistent, obstructed_at, k_max) == (False, False, None, 5)
    assert BOUND[1] == BOUND.bound_squared == Fraction(1, 12000)


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


@pytest.mark.parametrize("build, error, message", [
    (lambda: KnotParams(2, 4), ValueError, "p and q must be coprime, got (2, 4)"),
    (lambda: KnotParams._make((2, 4)), ValueError, "p and q must be coprime, got (2, 4)"),
    (lambda: KP._replace(p=0), ValueError, "p and q must be positive, got (0, 4)"),
    (lambda: ComplexSpec(KP, -1), ValueError, "degree cutoff must be nonnegative"),
    (lambda: ComplexSpec._make((KP, -1)), ValueError, "degree cutoff must be nonnegative"),
    (lambda: SPEC._replace(max_degree=-1), ValueError, "degree cutoff must be nonnegative"),
    (lambda: InfRat(1.0), TypeError, "expected int or Fraction, got float"),
    (lambda: InfRat._make((1, True)), TypeError, "delta coefficient must be an integer"),
    (lambda: NUMBER._replace(delta=Fraction(1, 2)), TypeError, "delta coefficient must be an integer"),
    (lambda: NUMBER._replace(rat="1"), TypeError, "expected int or Fraction, got str"),
])
def test_make_and_replace_validate_the_other_types(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


def test_make_and_replace_build_the_class():
    assert ReebCurrent._make([1, 0, 2, 0]) == CURRENT
    assert type(CURRENT._replace(Q=3)) is ReebCurrent
    assert PATH._replace(label="e") == LatticePath(KP, (1, 4), 1, "e")
    assert KnotParams._make([3, 4]) == KP and SPEC._replace(max_degree=5) == ComplexSpec(KP, 5)
    half = NUMBER._replace(rat=2)
    assert half == InfRat(2, 1) and type(half.rat) is Fraction
    assert InvariantLedger._make([3, 4, {}, {}, {}]) == InvariantLedger(3, 4)
    assert type(COBORDISM._replace(k_max=6)) is CobordismResult
    assert BoundResult._make([False, None, None]) == BoundResult(False, None, None)


def test_importing_the_package_leaves_out_dataclasses():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, echtk.cli, echtk.crosscheck; print('dataclasses' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out == "False\n"
