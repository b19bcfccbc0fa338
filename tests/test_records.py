"""The value records, as their callers use them: built by position or
keyword, validated on construction, read-only, and equal (and hashed) by
value."""

import pytest

from liaison.checks import CheckId, Verdict
from liaison.errors import RingMismatchError
from liaison.fields import QQ
from liaison.groebner import Ideal
from liaison.instancefile import CheckDirective, InstanceFile
from liaison.linkage import (
    CyclicModule,
    LinkageInstance,
    RegularSequenceWitness,
)
from liaison.monomials import AssociatedPrimes
from liaison.record import Record
from liaison.resolutions import FreeResolution
from liaison.rings import PolyRing

R = PolyRing(QQ, ["x", "y"])
X, Y = R.gens()
J = Ideal(R, (X * Y,))
M = CyclicModule(R, J)
W = RegularSequenceWitness((X**2, Y))

# class -> (field values in order, whether the record is hashable)
RECORDS = {
    Verdict: ((CheckId.L07, "holds", {"k": 1}, None, 0.5), False),
    CheckDirective: ((CheckId.T5_CD, {"a": "a", "M": "M"}, None), False),
    InstanceFile: ((R, "R", {"a": J}, {"M": "0"}, {"s": (X,)}, []), False),
    CyclicModule: ((R, J), True),
    RegularSequenceWitness: (((X**2, Y),), True),
    LinkageInstance: ((R, M, J, J, W, J, (J, W)), True),
    AssociatedPrimes: ((frozenset({frozenset({0})}), frozenset({frozenset({0})})), True),
    FreeResolution: ((R, (1, 1), (((X,),),)), True),
}
FIELDS = {
    Verdict: ("check", "status", "details", "witness", "millis"),
    CheckDirective: ("check", "args", "instance"),
    InstanceFile: ("ring", "ring_name", "ideals", "module_defs", "regseqs", "directives"),
    CyclicModule: ("ring", "defining_ideal"),
    RegularSequenceWitness: ("elements",),
    LinkageInstance: ("ring", "module", "a", "I", "witness", "b", "alternate"),
    AssociatedPrimes: ("all_primes", "minimal"),
    FreeResolution: ("ring", "ranks", "diffs"),
}
CLASSES = sorted(RECORDS, key=lambda cls: cls.__name__)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_positional_and_keyword_construction_agree(cls):
    values, hashable = RECORDS[cls]
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(FIELDS[cls], values)))
    for name, value in zip(FIELDS[cls], values):
        assert getattr(by_position, name) is value
    assert by_position == by_keyword
    assert not by_position != by_keyword
    if hashable:
        assert hash(by_position) == hash(by_keyword)
        assert len({by_position, by_keyword}) == 1
    else:
        with pytest.raises(TypeError):
            hash(by_position)
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls(*values, **{FIELDS[cls][0]: values[0]})


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_records_refuse_assignment(cls):
    record = cls(*RECORDS[cls][0])
    with pytest.raises(AttributeError):
        setattr(record, FIELDS[cls][0], None)
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(AttributeError):
        delattr(record, FIELDS[cls][0])


class _Pair(Record):
    """Two fields, like AssociatedPrimes, but a different class."""

    def __init__(self, all_primes, minimal):
        self._set(locals())


def test_equality_is_by_class_and_value():
    assert RegularSequenceWitness((X, Y)) == RegularSequenceWitness((X, Y))
    assert RegularSequenceWitness((X, Y)) != RegularSequenceWitness((Y, X))
    assert LinkageInstance(R, M, J, J, W) != LinkageInstance(R, M, J, J, W, J)
    assert AssociatedPrimes(frozenset(), frozenset()) != _Pair(frozenset(), frozenset())
    assert RegularSequenceWitness((X,)) != (X,)
    assert CyclicModule(R, J) != CyclicModule(R, Ideal(R, (X * Y,)))  # ideals compare by identity


def test_defaults_and_derived_fields():
    inst = LinkageInstance(ring=R, module=M, a=J, I=J, witness=W)
    assert inst.b is None and inst.alternate is None
    assert W.length == 2
    assert FreeResolution(R, (1, 1), (((X,),),)).length == 1
    assert AssociatedPrimes(frozenset({1}), frozenset({1})).is_unmixed()
    assert Verdict(CheckId.L07, "holds", {}, None, 0.0).status == "holds"


def test_construction_validates():
    other = PolyRing(QQ, ["u"])
    with pytest.raises(RingMismatchError):
        CyclicModule(other, J)
    with pytest.raises(ValueError):
        CyclicModule(R, Ideal(R, (R.one,)))


def test_cyclic_module_repr():
    assert repr(M) == "R/(x*y)"
    assert repr(CyclicModule(R, Ideal(R, ()))) == "R/(0)"
    assert repr(CyclicModule(R, Ideal(R, (X, Y**2)))) == "R/(x, y^2)"
