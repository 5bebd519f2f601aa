"""The immutable records keep the semantics of frozen dataclasses:
constructor defaults, equality within one class only, the hash of the field
tuple, refusal of assignment, and the ``Name(field=value, ...)`` repr."""

import pytest

from cycloclass.abelian import FinAbGroup
from cycloclass.classnumber import ClassRecord, class_record
from cycloclass.ktheory import (
    DGroupFact,
    K0Description,
    Knowledge,
    k0_description,
    stored_d_group,
    wh_structure,
)
from cycloclass.manifoldset import SetVerdict, classify, verify


# one instance of each record class
RECORDS = [
    Knowledge.bound(5, "odd part"),
    stored_d_group(21),
    k0_description(29),
    wh_structure(4, 29),
    SetVerdict("finite", lower=3, witness=5, note="x"),
    classify(4, 29),
    verify(4, 21),
    class_record(29, compute=False),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_equal_within_one_class_only(record):
    fields = tuple(getattr(record, name) for name in record.__slots__)
    twin = type(record)(*fields)
    assert twin == record and not twin != record
    assert record != fields and fields != record
    others = [r for r in RECORDS if type(r) is not type(record)]
    assert all(record != other for other in others)


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_hash_is_that_of_the_field_tuple(record):
    fields = tuple(getattr(record, name) for name in record.__slots__)
    if any(isinstance(value, dict) for value in fields):
        # a dict field makes the record unhashable, as it did the dataclass
        with pytest.raises(TypeError):
            hash(record)
        return
    assert hash(record) == hash(fields) == hash(type(record)(*fields))


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_assignment_raises(record):
    name = record.__slots__[0]
    value = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, name) == value


def test_repr_is_the_dataclass_repr():
    # pinned from the frozen dataclasses these records replace
    assert repr(SetVerdict("finite", lower=3, witness=5, note="x")) == (
        "SetVerdict(verdict='finite', lower=3, upper=None, witness=5, "
        "note='x')")
    assert repr(Knowledge.unknown()) == (
        "Knowledge(status='unknown', group=None, module=None, divisor=None, "
        "constraint=None, source='')")
    assert repr(class_record(29, compute=False)) == (
        "ClassRecord(m=29, hminus=8, hminus_odd_part=1, "
        "known_class_group=FinAbGroup([2, 2, 2]), known_plus_trivial=True, "
        "sources={'known_class_group': 'published tables', "
        "'known_plus_trivial': 'published tables', "
        "'hminus': 'published class group with trivial plus part'})")


def test_constructor_defaults():
    assert SetVerdict("trivial") == SetVerdict(
        verdict="trivial", lower=None, upper=None, witness=None, note="")
    assert Knowledge("unknown") == Knowledge.unknown()
    assert DGroupFact("order") == DGroupFact(
        "order", module=None, two_exponent=None, parity_odd=None, source="")
    group = FinAbGroup([2])
    assert ClassRecord(7, 1, 1).known_class_group is None
    assert ClassRecord(7, 1, 1, group).known_class_group == group


def test_dict_fields_are_fresh():
    first = K0Description(5, True, True, None)
    second = K0Description(5, True, True, None)
    assert first.class_parts == {}
    assert first.class_parts is not second.class_parts
    assert ClassRecord(7, 1, 1).sources is not ClassRecord(7, 1, 1).sources

