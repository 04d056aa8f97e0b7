"""The package's small immutable records: fields cannot be reassigned,
constructors take every field and keep their checks, and cached values
stay put."""

import copy
import importlib
import pickle
import pkgutil
from fractions import Fraction

import pytest

import splitg2
from splitg2 import catalog, textio
from splitg2.cli import RunConfig
from splitg2.errors import ValidationError
from splitg2.exterior import Form
from splitg2.g2 import TorsionSet
from splitg2.liealg import LieAlgebra
from splitg2.report import Record


def torsions():
    return TorsionSet(Fraction(2), Form(7, 1, {(1,): Fraction(3)}),
                      Form(7, 2, {(1, 2): Fraction(5)}),
                      Form(7, 3, {(1, 2, 3): Fraction(7)}))


def config_fields(**changes) -> dict:
    """Every field of a RunConfig, as a bare command line sets them,
    `changes` replacing some."""
    return {"scenario": "Ms", "input_path": None, "sets": {},
            "vol_scale": Fraction(1), "fmt": "text", "seed": 0, "out": None,
            "kind": "both", "names": (), "corrupt": None, **changes}


def records():
    ms = catalog.scenario("Ms")
    return {
        "RunConfig": RunConfig(**config_fields()),
        "Record": Record("a", "b", "pass", "1", "1"),
        "TorsionSet": torsions(),
        "JacobiReport": LieAlgebra(3, {(1, 2): {3: 1}}).jacobi_check(),
        "DistributionFact": catalog.DISTRIBUTION_FACTS["D_l1"],
        "Expected": ms.expected,
        "Scenario": ms,
    }


@pytest.mark.parametrize("name", sorted(records()))
def test_fields_cannot_be_assigned(name):
    # nor deleted, nor can an attribute be added
    record = records()[name]
    for field in (*record._fields, "extra"):
        before = getattr(record, field, None)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field, None) is before, field


def package_records():
    """Every namedtuple record class that a splitg2 module defines; a
    subclass and the namedtuple it extends count once, as the subclass."""
    for info in pkgutil.iter_modules(splitg2.__path__):
        if info.name != "__main__":
            importlib.import_module(f"splitg2.{info.name}")
    found, todo = set(), [tuple]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("splitg2.") and hasattr(cls, "_fields"):
                found.add(cls)
    return [cls for cls in found if not any(cls in sub.__mro__[1:] for sub in found)]


def test_every_record_is_tested():
    # records() feeds the assignment and copy tests; a record left out of
    # it would skip them
    assert sorted(cls.__name__ for cls in package_records()) == sorted(records())


def test_records_declare_fields_not_constructors():
    # the namedtuple binds the fields; only Record adds a check of its own,
    # and only Scenario, whose __dict__ holds cached values, guards it
    for cls in package_records():
        generated = next(c for c in cls.__mro__ if "_make" in vars(c))
        assert (cls.__new__ is not generated.__new__) == (cls is Record), cls.__name__
        assert cls.__init__ is object.__init__, cls.__name__
        for method in ("__setattr__", "__delattr__"):
            assert ((getattr(cls, method) is not getattr(tuple, method))
                    == (cls is textio.Scenario)), (cls.__name__, method)


def test_fields_bind_by_position_and_keyword():
    t = torsions()
    assert TorsionSet(tau3=t.tau3, tau2=t.tau2, tau0=t.tau0, tau1=t.tau1) == t
    assert TorsionSet(t.tau0, t.tau1, tau3=t.tau3, tau2=t.tau2) == t
    sc = textio.Scenario("x", (), LieAlgebra(2, {}), None, 1, (2,),
                         exclusions=(("q", Fraction(0)),), metric=None,
                         expected=None, phi_family=None)
    assert (sc.alphabet, sc.name, sc.metric, sc.exclusions) == (
        (), "x", None, (("q", Fraction(0)),))


@pytest.mark.parametrize("make,message", [
    (lambda: TorsionSet(1, 2, 3, 4, 5),
     "TorsionSet.__new__() takes 5 positional arguments but 6 were given"),
    (lambda: RunConfig(*range(11)),
     "RunConfig.__new__() takes 11 positional arguments but 12 were given"),
    (lambda: RunConfig(**config_fields(sed=3)),
     "RunConfig.__new__() got an unexpected keyword argument 'sed'"),
    (lambda: TorsionSet(1, 2, 3, 4, tau5=1),
     "TorsionSet.__new__() got an unexpected keyword argument 'tau5'"),
    (lambda: RunConfig("Ml", **config_fields()),
     "RunConfig.__new__() got multiple values for argument 'scenario'"),
    (lambda: TorsionSet(1, 2, 3, 4, tau1=2),
     "TorsionSet.__new__() got multiple values for argument 'tau1'"),
    (lambda: TorsionSet(1, 2),
     "TorsionSet.__new__() missing 2 required positional arguments: 'tau2' and "
     "'tau3'"),
    (lambda: textio.Scenario("x", (), LieAlgebra(2, {}), None, verticals=(2,)),
     "Scenario.__new__() missing 5 required positional arguments: 'horizontal', "),
    (lambda: Record("a", "b", "pass", "1"),
     "Record.__new__() missing 1 required positional argument: 'expected'"),
], ids=["extra-positional", "extra-positional-all-defaulted", "unknown-keyword",
        "unknown-keyword-after-all-fields", "repeated-keyword",
        "repeated-keyword-after-all-fields", "missing", "missing-before-defaults",
        "missing-in-record"])
def test_constructor_rejects_bad_arguments(make, message):
    with pytest.raises(TypeError) as err:
        make()
    assert str(err.value).startswith(message)


def test_record_rejects_an_unknown_status():
    with pytest.raises(ValueError, match="bad status 'maybe'"):
        Record("a", "b", "maybe", "", "")
    with pytest.raises(ValueError, match="bad status 'maybe'"):
        Record("a", "b", computed="", expected="", status="maybe")
    assert Record("a", "b", expected="", computed="1", status="info").status == "info"


def test_scenario_defect_is_computed_once():
    sc = textio.parse_scenario(catalog.scenario("Ms").text())
    first = sc.defect
    assert first is not None and first.is_zero()
    assert sc.defect is first


@pytest.mark.parametrize("parsed", [False, True], ids=["builtin", "parsed"])
def test_scenario_cached_values_refuse_assignment(parsed):
    # cached_property writes the instance __dict__ directly; assignment
    # and deletion through the scenario must not replace what every later
    # request renders, nor add an attribute
    sc = catalog.scenario("Ms")
    if parsed:
        sc = textio.parse_scenario(sc.text())
    cached = {name: getattr(sc, name)
              for name in ("defect", "unit_torsions", "checked_torsions")}
    assert all(value is not None for value in cached.values())
    for name in (*cached, "extra"):
        with pytest.raises(AttributeError):
            setattr(sc, name, None)
        with pytest.raises(AttributeError):
            delattr(sc, name)
    for name, value in cached.items():
        assert getattr(sc, name) is value, name
    assert not hasattr(sc, "extra")


def test_torsion_rescale():
    t = torsions()
    s = t.rescale(Fraction(3, 2))
    assert type(s) is TorsionSet
    assert s.tau0 == 3
    assert s.tau1 is t.tau1
    assert s.tau2 == Form(7, 2, {(1, 2): Fraction(10, 3)})
    assert s.tau3 == Form(7, 3, {(1, 2, 3): Fraction(21, 2)})
    for bad in (0, -1):
        with pytest.raises(ValidationError):
            t.rescale(bad)


def test_records_compare_and_print_by_value():
    a, b = Record("a", "b", "pass", "1", "1"), Record("a", "b", "pass", "1", "1")
    assert a == b and hash(a) == hash(b)
    assert a != Record("a", "b", "fail", "1", "1")
    assert repr(a) == ("Record(anchor='a', name='b', status='pass', computed='1', "
                       "expected='1')")


@pytest.mark.parametrize("name", sorted(records()))
def test_records_copy_by_value(name):
    record = records()[name]
    clone = copy.copy(record)
    assert type(clone) is type(record)
    assert repr(clone) == repr(record)


def test_records_deepcopy_and_pickle():
    for record in (Record("a", "b", "info", "x", ""), torsions(),
                   RunConfig(**config_fields(seed=4))):
        assert copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record
