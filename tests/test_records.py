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
from splitg2.report import Frozen, Record


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
        "RunConfig": (RunConfig(**config_fields()), "seed"),
        "Record": (Record("a", "b", "pass", "1", "1"), "status"),
        "TorsionSet": (torsions(), "tau0"),
        "JacobiReport": (LieAlgebra(3, {(1, 2): {3: 1}}).jacobi_check(), "ok"),
        "DistributionFact": (catalog.DISTRIBUTION_FACTS["D_l1"], "integrable"),
        "Expected": (ms.expected, "tau0"),
        "Scenario": (ms, "metric"),
    }


@pytest.mark.parametrize("name", sorted(records()))
def test_fields_cannot_be_assigned(name):
    record, field = records()[name]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert getattr(record, field) is before


def package_records():
    """Every Frozen subclass that a splitg2 module defines."""
    for info in pkgutil.iter_modules(splitg2.__path__):
        if info.name != "__main__":
            importlib.import_module(f"splitg2.{info.name}")
    found, todo = [], [Frozen]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("splitg2."):
                found.append(cls)
    return found


def test_every_record_is_tested():
    # records() feeds the assignment and copy tests; a record left out of
    # it would skip them
    assert sorted(cls.__name__ for cls in package_records()) == sorted(records())


def test_records_declare_fields_not_constructors():
    # Frozen binds the fields; only Record adds a check of its own
    for cls in package_records():
        assert ("__init__" in vars(cls)) == (cls is Record), cls.__name__


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
     "TorsionSet() takes 4 fields, got 5 positional arguments"),
    (lambda: RunConfig(*range(11)), "RunConfig() takes 10 fields, got 11"),
    (lambda: RunConfig(**config_fields(sed=3)), "RunConfig() has no field 'sed'"),
    (lambda: TorsionSet(1, 2, 3, 4, tau5=1), "TorsionSet() has no field 'tau5'"),
    (lambda: RunConfig("Ml", **config_fields()),
     "RunConfig() got field 'scenario' twice"),
    (lambda: TorsionSet(1, 2, 3, 4, tau1=2), "TorsionSet() got field 'tau1' twice"),
    (lambda: TorsionSet(1, 2), "TorsionSet() is missing field 'tau2'"),
    (lambda: textio.Scenario("x", (), LieAlgebra(2, {}), None, verticals=(2,)),
     "Scenario() is missing field 'horizontal'"),
    (lambda: Record("a", "b", "pass", "1"), "Record() is missing field 'expected'"),
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
    record, _ = records()[name]
    clone = copy.copy(record)
    assert type(clone) is type(record)
    assert repr(clone) == repr(record)


def test_records_deepcopy_and_pickle():
    for record in (Record("a", "b", "info", "x", ""), torsions(),
                   RunConfig(**config_fields(seed=4))):
        assert copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record
