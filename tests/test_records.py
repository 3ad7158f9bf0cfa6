"""The contract of `errors.Record`, the base of the engine's value classes:
construction, equality and hashing, immutability, `repr`, and the
validation hooks."""

import inspect
from fractions import Fraction

import pytest

from hurwitzcalc import bundles, directrix, divisor_classes, family_calc, graphs, yeff
from hurwitzcalc.bundles import CoverInvariants, SplittingType
from hurwitzcalc.directrix import DirectrixFamily
from hurwitzcalc.errors import InvalidFamily, OutOfRange, Record
from hurwitzcalc.divisor_classes import ChernData, FamilyInvariants
from hurwitzcalc.family_calc import PENCIL_TABLE, PencilRecord
from hurwitzcalc.graphs import DualGraph, Edge, Vertex
from hurwitzcalc.symkernel import RationalFunction
from hurwitzcalc.yeff import Certificate, GraphResult, InequalityRule

RECORDS = {
    bundles: ("SplittingType", "CoverInvariants"),
    directrix: ("DirectrixFamily",),
    divisor_classes: ("DivisorClass", "ChernData", "FamilyInvariants"),
    family_calc: ("PencilRecord", "PencilRow"),
    graphs: ("Vertex", "Edge", "DualGraph"),
    yeff: ("InequalityRule", "GraphResult", "Certificate"),
}


def _pencil_record(**fields):
    return PencilRecord("x", {"gr": 2}, Fraction(0), Fraction(3),
                        {"delta_self": Fraction(-1)}, **fields)


def test_the_fourteen_value_classes_are_records():
    classes = [getattr(module, name) for module, names in RECORDS.items() for name in names]
    assert len(classes) == 14
    assert all(issubclass(cls, Record) for cls in classes)


@pytest.mark.parametrize("first,second", [
    (DirectrixFamily(6, 3, 1, 2), DirectrixFamily(l=2, a=1, r=3, n=6)),
    (SplittingType((3, 1, 2)), SplittingType((1, 2, 3))),
    (InequalityRule("s", (), Fraction(1, 2), "p"),
     InequalityRule("s", (), Fraction(1, 2), "p", equality=False, reconstructed=False)),
    (DualGraph((Vertex("a", "L", 1, 3), Vertex("b", "R", 0, 3)), (Edge("a", "b", 3),)),
     DualGraph((Vertex("a", "L", 1, 3), Vertex("b", "R", 0, 3)), (Edge("a", "b", 3),))),
], ids=["positional-keyword", "normalised", "defaults", "nested"])
def test_equal_records_are_equal_and_hash_equal(first, second):
    assert first == second and not first != second
    assert hash(first) == hash(second)


def test_records_differ_by_field_and_by_class():
    assert DirectrixFamily(6, 3, 1, 2) != DirectrixFamily(6, 3, 1, 3)
    assert DirectrixFamily(6, 3, 1, 2) != (6, 3, 1, 2)
    assert Vertex("a", "L", 1, 3) != Edge("a", "L", 1)


def _one_of_each_record():
    result = GraphResult("label", Fraction(1), [])
    return [SplittingType((1, 2)), CoverInvariants(3, 4), DirectrixFamily(6, 3, 1, 2),
            divisor_classes.DivisorClass(1, 2, 3), ChernData(4, 3, 1, 1, 1),
            FamilyInvariants(1, 2, 3, 4, 5, 6), _pencil_record(),
            PENCIL_TABLE["trigonal_plain"], Vertex("a", "L", 1, 3), Edge("a", "b", 3),
            DualGraph((Vertex("a", "L", 1, 3),), ()), InequalityRule("s", (), Fraction(1), "p"),
            result, Certificate(3, 4, Fraction(30), Fraction(4), {"label": result},
                                "certified", [])]


def test_frozen_records_refuse_assignment_and_deletion():
    records = _one_of_each_record()
    assert len({type(record) for record in records}) == 14
    for record in records:
        name = next(iter(record._fields))
        before = getattr(record, name)
        with pytest.raises(AttributeError, match=f"'{name}'"):
            setattr(record, name, 7)
        with pytest.raises(AttributeError, match=f"'{name}'"):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert getattr(record, name) is before and not hasattr(record, "extra")


def test_records_holding_a_list_or_dict_do_not_hash():
    result = GraphResult("label", Fraction(1), [])
    cert = Certificate(3, 4, Fraction(30), Fraction(4), {"label": result}, "certified", [])
    for value in (result, cert, _pencil_record()):
        with pytest.raises(TypeError):
            hash(value)


def test_repr_is_the_dataclass_form():
    assert repr(DirectrixFamily(6, 3, 1, 2)) == "DirectrixFamily(n=6, r=3, a=1, l=2)"
    assert repr(SplittingType((2, 1))) == "SplittingType(degrees=(1, 2))"
    assert repr(InequalityRule("s", (("t", Fraction(1)),), Fraction(1, 2), "p")) == (
        "InequalityRule(source='s', targets=(('t', Fraction(1, 1)),), "
        "slack=Fraction(1, 2), provenance='p', reconstructed=False, equality=False)")
    assert repr(DualGraph((Vertex("a", "L", 0, 1),), (Edge("a", "b", 1),))) == (
        "DualGraph(vertices=(Vertex(ident='a', side='L', genus=0, degree=1),), "
        "edges=(Edge(left='a', right='b', local_degree=1),))")
    assert repr(_pencil_record()) == (
        "PencilRecord(kind='x', params={'gr': 2}, lam=Fraction(0, 1), "
        "delta=Fraction(3, 1), boundary_hits={'delta_self': Fraction(-1, 1)}, "
        "x_hit='>=0', maroni_hit='>=0', ce_hit='>=0', sweeps=True, extras={}, notes=())")
    assert repr(GraphResult("label", Fraction(1), [])) == \
        "GraphResult(label='label', lower_bound=Fraction(1, 1), chain=[])"


def test_construction_by_position_keyword_and_default():
    rule = InequalityRule("s", (), Fraction(1), "p", equality=True)
    assert (rule.source, rule.slack, rule.reconstructed, rule.equality) == \
        ("s", Fraction(1), False, True)
    assert InequalityRule(provenance="p", slack=1, targets=(), source="s") == \
        InequalityRule("s", (), 1, "p", False, False)


# every field of each record, defaults included
_VALUES = {CoverInvariants: (3, 4), DirectrixFamily: (6, 3, 1, 2), Vertex: ("a", "L", 1, 3),
           InequalityRule: ("s", (), Fraction(1), "p", False, False)}
_MISUSES = ("missing", "too-many", "unknown", "unknown-for-missing", "twice", "none")


def _misuse(cls, case):
    """The arguments of one misuse of `cls`, and the field its error names."""
    values = _VALUES[cls]
    required = values[:len(values) - len(cls._defaults)]
    first, last = cls._fields[0], cls._fields[len(required) - 1]
    return {"missing": (required[:-1], {}, last),
            "too-many": (values + (5,), {}, None),
            "unknown": (values, {"m": 0}, "m"),
            "unknown-for-missing": (required[:-1], {"m": 4}, "m"),
            "twice": (values, {first: values[0]}, first),
            "none": ((), {}, None)}[case]


@pytest.mark.parametrize("cls,case", [
    pytest.param(cls, case, id=case if cls is CoverInvariants else f"{cls.__name__}-{case}")
    for cls in _VALUES for case in _MISUSES])
def test_wrong_fields_are_a_type_error(cls, case):
    args, kwargs, field = _misuse(cls, case)
    assert cls(*_VALUES[cls])
    with pytest.raises(TypeError, match=rf"^{cls.__name__}\.__init__\(\)") as error:
        cls(*args, **kwargs)
    assert field is None or f"'{field}'" in str(error.value)


@pytest.mark.parametrize("call", [
    lambda: DirectrixFamily(6, 3, 1),
    lambda: DirectrixFamily(6, 3, 1, 2, 5),
    lambda: DirectrixFamily(6, 3, 1, 2, m=0),
    lambda: DirectrixFamily(6, 3, 1, 2, n=6),
    lambda: Vertex("a", "L", 1),
    lambda: InequalityRule("s", (), 1, "p", bogus=True),
], ids=["missing", "too-many", "unknown", "twice", "vertex", "rule"])
def test_spelled_out_inits_refuse_wrong_fields(call):
    with pytest.raises(TypeError):
        call()


def test_every_record_init_is_generated_from_its_fields():
    for cls in (getattr(module, name) for module, names in RECORDS.items() for name in names):
        init = vars(cls)["__init__"]
        assert init.__code__.co_filename == "<string>", cls
        assert init.__qualname__ == f"{cls.__name__}.__init__"
        params = list(inspect.signature(init).parameters.values())[1:]
        assert [param.name for param in params] == list(cls._fields), cls
        assert all(param.kind is param.POSITIONAL_OR_KEYWORD for param in params)
        assert {param.name: param.default for param in params
                if param.default is not param.empty} == cls._defaults, cls


def test_records_share_no_mutable_default():
    first, second = _pencil_record(), _pencil_record()
    assert first.extras == {} and first.extras is not second.extras
    first.extras["sectionSelfInt"] = Fraction(-120)
    assert second.extras == {} and _pencil_record().extras == {}


def test_each_validation_hook_fires():
    with pytest.raises(ValueError, match="rank >= 1"):
        SplittingType(())
    with pytest.raises(InvalidFamily):
        DirectrixFamily(2, 1, 0, 0)
    with pytest.raises(ValueError, match="nonnegatively"):
        _pencil_record(maroni_hit=Fraction(-1))
    with pytest.raises(OutOfRange, match="no bundle of quadrics"):
        ChernData(3, 5, 1, 1, 1)
    # the normalising hooks rewrite their fields
    assert isinstance(divisor_classes.DivisorClass(1, 2, 3).d_coef, RationalFunction)
    assert SplittingType([2, 0, 1]).degrees == (0, 1, 2)
