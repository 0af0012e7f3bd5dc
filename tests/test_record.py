"""The contract of kq2's immutable records (``kq2.record.Record``): the
construction, equality, hash and repr that ``@dataclass(frozen=True)`` gave
them, checked against a frozen dataclass with the same fields.  ``FgAb2``
keeps one object per value instead, so equal values are one object and its
hash is identity's; its interning contract is checked at the end."""

import copy
import dataclasses
import itertools
import pickle
import re

import pytest

from kq2 import abgroup, fields as f, numtheory as nt, tables as tb, verify as vf
from kq2.errors import InvalidSpec
from kq2.record import Record

# two unequal values of every record class (one for Rationals), each built
# fresh on every call
SAMPLES = {
    abgroup.FgAb2: lambda: [abgroup.FgAb2(1, (2,)), abgroup.FgAb2(0, (4, 2))],
    f.Rationals: lambda: [f.Rationals()],
    f.RealQuadratic: lambda: [f.RealQuadratic(5), f.RealQuadratic(6)],
    f.MaxRealCyclo2: lambda: [f.MaxRealCyclo2(5), f.MaxRealCyclo2(4)],
    f.MaxRealCycloOdd: lambda: [f.MaxRealCycloOdd(11), f.MaxRealCycloOdd(9)],
    f.Generic: lambda: [f.Generic(r=2, a=3), f.Generic(2, 3, regular_claim=True)],
    f.FieldInvariants: lambda: [f.two_regular_oracle(f.RealQuadratic(d)) for d in (5, 34)],
    tb.TheoryTag: lambda: [tb.TheoryTag("KO", tb.THEORIES["KO"].build),
                           tb.TheoryTag("KQFq+", tb.THEORIES["KQFq+"].build, 1, needs_q=True)],
    vf.CheckReport: lambda: [vf.CheckReport("a", True, "x"), vf.CheckReport("b", True, "x")],
    nt.QuadUnit: lambda: [nt.QuadUnit(3, 1, 1, 7, 2), nt.QuadUnit(1, 1, 1, 2, -1)],
    nt.DyadicData: lambda: [nt._quadratic_data(d).dyadic for d in (5, 34)],
    nt.ClassData: lambda: [nt._quadratic_data(d).classes for d in (5, 34)],
    nt.QuadraticData: lambda: [nt._quadratic_data(d) for d in (5, 34)],
}


# the record classes whose equal values are distinct objects
BY_VALUE = [cls for cls in SAMPLES if cls is not abgroup.FgAb2]


def _dataclass_twin(record):
    """The same values in a frozen dataclass with the same name and fields."""
    cls = type(record)
    twin = dataclasses.make_dataclass(cls.__name__, cls._fields, frozen=True)
    return twin(*(getattr(record, name) for name in cls._fields))


def test_every_record_class_has_samples():
    assert set(Record.__subclasses__()) == set(SAMPLES)


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_equality_and_hash_agree(cls):
    interned = cls is abgroup.FgAb2
    first, again = SAMPLES[cls](), SAMPLES[cls]()
    for x, y in zip(first, again):
        assert (x is y) == interned and x == y and not x != y and hash(x) == hash(y)
    for x, y in itertools.combinations(first, 2):
        assert x != y and not x == y


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_repr_and_hash_are_those_of_a_frozen_dataclass(cls):
    for x in SAMPLES[cls]():
        twin = _dataclass_twin(x)
        assert repr(x) == repr(twin)
        # an interned FgAb2 hashes as the one object it is
        assert hash(x) == (object.__hash__(x) if cls is abgroup.FgAb2 else hash(twin))
        assert x != twin and twin != x


def test_repr_examples():
    assert repr(abgroup.FgAb2(1, (2,))) == "FgAb2(rank=1, torsion=(2,))"
    assert repr(f.Generic(2, 3)) == "Generic(r=2, a=3, regular_claim=None)"
    assert repr(f.Rationals()) == "Rationals()"


def test_records_of_different_classes_never_compare_equal():
    assert f.RealQuadratic(5) != f.MaxRealCyclo2(5)
    assert f.Rationals() == f.Rationals()
    values = [(cls, x) for cls in SAMPLES for x in SAMPLES[cls]()]
    for (cls_x, x), (cls_y, y) in itertools.combinations(values, 2):
        if cls_x is not cls_y:
            assert x != y and y != x


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_no_record_equals_a_tuple(cls):
    assert abgroup.FgAb2(1, (2,)) != (1, (2,))
    for x in SAMPLES[cls]():
        values = tuple(getattr(x, name) for name in cls._fields)
        assert x != values and values != x


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    for x in SAMPLES[cls]():
        for name in cls._fields + ("other",):
            with pytest.raises(AttributeError):
                setattr(x, name, 1)
            with pytest.raises(AttributeError):
                delattr(x, name)


def test_construction_by_position_keyword_and_default():
    assert f.Generic(2, 3) == f.Generic(r=2, a=3, regular_claim=None) == f.Generic(a=3, r=2)
    assert abgroup.FgAb2() == abgroup.FgAb2(torsion=()) == abgroup.ZERO
    assert f.FieldInvariants(None, None, None, None, True).reasons == ()
    for args, kwargs in [((2,), {}), ((2, 3, None, 1), {}), ((2, 3), {"r": 2}), ((2, 3), {"x": 1})]:
        with pytest.raises(TypeError):
            f.Generic(*args, **kwargs)


def test_keyword_construction_is_validated():
    with pytest.raises(InvalidSpec):
        f.RealQuadratic(d=12)
    with pytest.raises(ValueError):
        abgroup.FgAb2(rank=0, torsion=(3,))
    assert abgroup.FgAb2(torsion=(4, 2)).torsion == (2, 4)


# FgAb2: one object per value.  These tests never clear the intern table,
# since ZERO and the memos of abgroup hold interned objects.

def test_fgab2_equal_values_are_one_object():
    G = abgroup.FgAb2
    first, again = SAMPLES[G](), SAMPLES[G]()
    for x, y in zip(first, again):
        assert x is y and x == y and not x != y and hash(x) == hash(y) == object.__hash__(x)
    assert first[0] != first[1] and not first[0] == first[1]
    # unsorted or list torsion, keywords and defaults find the same object
    assert G(0, (4, 2)) is G(0, [4, 2]) is G(0, [2, 4]) is G(torsion=(2, 4), rank=0)
    assert G(0, (4, 2)) is abgroup.direct_sum(abgroup.C(4), abgroup.C(2))
    assert G() is G(0, ()) is G(0, []) is abgroup.ZERO
    assert repr(G(1, [4, 2])) == "FgAb2(rank=1, torsion=(2, 4))"
    assert repr(G(1, [4, 2])) == repr(_dataclass_twin(G(1, (2, 4))))


def test_fgab2_equals_no_tuple_and_no_other_record():
    g = abgroup.FgAb2(1, (2,))
    twin = _dataclass_twin(g)
    assert g != (1, (2,)) and (1, (2,)) != g
    assert g != twin and twin != g
    for cls in BY_VALUE:
        for x in SAMPLES[cls]():
            assert g != x and x != g


@pytest.mark.parametrize("g", [abgroup.ZERO, abgroup.FgAb2(1, (2,)), abgroup.FgAb2(3, (8, 2, 2))],
                         ids=str)
def test_fgab2_copies_and_pickles_to_the_interned_object(g):
    copies = [copy.copy(g), copy.deepcopy(g), copy.deepcopy([g, g])[1]]
    copies += [pickle.loads(pickle.dumps(g, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for c in copies:
        assert c is g
    assert str(abgroup.ZERO) == "0" and abgroup.ZERO.torsion == () and abgroup.FgAb2() is abgroup.ZERO


@pytest.mark.parametrize("rank, torsion, message", [
    (-1, (), "rank must be nonnegative, got -1"),
    (0, (3,), "torsion order 3 is not a 2-power >= 2"),
    (1, [4, 1], "torsion order 1 is not a 2-power >= 2"),
    (2, (2, 0), "torsion order 0 is not a 2-power >= 2"),
    (0, (2, 6), "torsion order 6 is not a 2-power >= 2"),
])
def test_fgab2_refuses_an_invalid_value_and_interns_nothing(rank, torsion, message):
    before = dict(abgroup._INTERNED)
    for _ in range(2):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            abgroup.FgAb2(rank, torsion)
    assert abgroup._INTERNED == before


@pytest.mark.parametrize("rank, torsion", [
    (True, (1 << 61,)), (1.5, ()), (0, (float(1 << 62),)), (3, (2, 1 << 63, False)), ("1", ()),
])
def test_fgab2_refuses_fields_that_are_not_ints(rank, torsion):
    # an interned value is shared, so a bool or float field of its first
    # caller would reach every later one (JSON would print "rank": true)
    before = dict(abgroup._INTERNED)
    with pytest.raises(TypeError, match="^rank and torsion orders must be ints"):
        abgroup.FgAb2(rank, torsion)
    assert abgroup._INTERNED == before
    # a key equal to an interned value's finds that value, with its int fields
    one = abgroup.FgAb2(1, (2,))
    assert abgroup.FgAb2(True, [2.0]) is one and type(one.rank) is int
