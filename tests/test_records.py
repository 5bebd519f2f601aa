"""The immutable records keep the semantics of frozen dataclasses:
constructor defaults, equality within one class only, the hash of the field
tuple, refusal of assignment and deletion, and the ``Name(field=value,
...)`` repr, or the class's own printed form where it has one."""

import pytest

from cycloclass.abelian import (
    AbHom,
    FinAbGroup,
    IntMatrix,
    Presentation,
    present,
)
from cycloclass.classnumber import (
    ClassRecord,
    DirichletCharacter,
    class_record,
)
from cycloclass.involutive import InvModule
from cycloclass.ktheory import (
    DGroupFact,
    K0Description,
    Knowledge,
    k0_description,
    stored_d_group,
    wh_structure,
)
from cycloclass.manifoldset import SetVerdict, classify, verify
from cycloclass.residue import (
    ResidueRingUnits,
    UnitQuotient,
    c_bound,
    residue_units,
    unit_quotient,
    vtilde,
)


# one instance of each record class
RECORDS = [
    IntMatrix([[1, 2], [3, 4]]),
    FinAbGroup([2, 4]),
    AbHom(FinAbGroup([4]), FinAbGroup([2]), IntMatrix([[1]])),
    present(2, IntMatrix([[2, 0], [0, 3]])),
    InvModule.with_negation(FinAbGroup([4, 12])),
    residue_units(7, 3),
    unit_quotient(7, 3),
    Knowledge.bound(5, "odd part"),
    stored_d_group(21),
    k0_description(29),
    wh_structure(4, 29),
    SetVerdict("finite", lower=3, witness=5, note="x"),
    classify(4, 29),
    verify(4, 21),
    class_record(29, compute=False),
]

#: the constructor arguments of the records whose remaining fields are
#: derived; every other record is built again from its fields
CONSTRUCTOR_ARGS = {
    ResidueRingUnits: lambda r: (r.p, r.n),
    UnitQuotient: lambda r: (r.p, r.n),
}


def _fields(record):
    return tuple(getattr(record, name) for name in record.__slots__)


def _twin(record):
    args = CONSTRUCTOR_ARGS.get(type(record), _fields)(record)
    return type(record)(*args)


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_equal_within_one_class_only(record):
    fields = _fields(record)
    twin = _twin(record)
    assert twin is not record
    assert twin == record and not twin != record
    assert record != fields and fields != record
    others = [r for r in RECORDS if type(r) is not type(record)]
    assert all(record != other for other in others)


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_hash_is_that_of_the_field_tuple(record):
    fields = _fields(record)
    if any(isinstance(value, dict) for value in fields):
        # a dict field makes the record unhashable, as it did the dataclass
        with pytest.raises(TypeError):
            hash(record)
        return
    assert hash(record) == hash(fields) == hash(_twin(record))


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


def test_own_reprs_are_unchanged():
    # pinned from the hand-written classes these records replace; the
    # text and JSON answers embed them
    assert repr(FinAbGroup([2, 2])) == "FinAbGroup([2, 2])"
    assert repr(FinAbGroup()) == "FinAbGroup([])"
    assert (str(FinAbGroup([2, 2])), str(FinAbGroup())) == ("Z/2 x Z/2", "0")
    assert repr(IntMatrix([[1, 2], [3, 4]])) == "IntMatrix([[1, 2], [3, 4]])"
    assert repr(IntMatrix.zero(2, 0)) == "IntMatrix([[], []])"
    assert repr(AbHom(FinAbGroup([4]), FinAbGroup([2]), IntMatrix([[1]]))) \
        == "AbHom(FinAbGroup([4]) -> FinAbGroup([2]), IntMatrix([[1]]))"
    assert repr(InvModule.with_negation(FinAbGroup([4, 12]))) == (
        "InvModule(FinAbGroup([4, 12]), IntMatrix([[3, 0], [0, 11]]))")
    assert repr(residue_units(7, 3)) == \
        "ResidueRingUnits(p=7, n=3, f=1, factors=2)"
    assert repr(unit_quotient(7, 3)) == "UnitQuotient(p=7, n=3, group=Z/6)"
    assert repr(DirichletCharacter(15, (1, 2))) == \
        "DirichletCharacter(mod 15, exps=(1, 2))"


def test_character_compares_modulus_and_exponents():
    chi = DirichletCharacter(15, (1, 2))
    assert chi == DirichletCharacter(15, (3, 6))  # exponents reduced
    assert chi != DirichletCharacter(15, (1, 1))
    assert hash(chi) == hash((15, (1, 2)))
    with pytest.raises(AttributeError):
        chi.order = 1
    with pytest.raises(AttributeError):
        del chi.exps
    assert (chi.order, chi.exps) == (2, (1, 2))


def test_subclass_with_empty_slots_keeps_the_fields():
    class Counted(SetVerdict):
        __slots__ = ()

    verdict = Counted("finite", lower=3)
    assert verdict == Counted("finite", lower=3)
    assert verdict != SetVerdict("finite", lower=3)
    assert hash(verdict) == hash(("finite", 3, None, None, ""))
    assert repr(verdict) == ("test_subclass_with_empty_slots_keeps_the_fields."
                             "<locals>.Counted(verdict='finite', lower=3, "
                             "upper=None, witness=None, note='')")
    with pytest.raises(AttributeError):
        verdict.note = "x"


def test_positional_fields_must_all_be_given():
    with pytest.raises(ValueError):
        Presentation(FinAbGroup([2]), IntMatrix([[1]]))


def test_cached_values_cannot_be_changed():
    # a cached group or unit quotient is shared by every later query, so a
    # change to one would corrupt vtilde and c_bound for the whole process
    group, bound = vtilde(21), c_bound(21)
    with pytest.raises(AttributeError):
        del group.invariant_factors
    with pytest.raises(AttributeError):
        unit_quotient(7, 3).group = FinAbGroup([5])
    assert str(vtilde(21)) == "Z/4"
    assert c_bound(21) == bound
