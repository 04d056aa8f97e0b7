"""The package's small immutable records: fields cannot be reassigned,
constructors keep their defaults and checks, and cached values stay put."""

import copy
import pickle
from fractions import Fraction

import pytest

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


def records():
    ms = catalog.scenario("Ms")
    return {
        "RunConfig": (RunConfig(), "seed"),
        "Record": (Record("a", "b", "pass", "1", "1"), "status"),
        "TorsionSet": (torsions(), "tau0"),
        "JacobiReport": (LieAlgebra(3, {(1, 2): {3: 1}}).jacobi_check(), "ok"),
        "DistributionFact": (catalog.DISTRIBUTION_FACTS["D_l1"], "integrable"),
        "Expected": (ms.expected, "tau0"),
        "Scenario": (ms, "metric"),
        "ScenarioDocument": (ms.document(), "phi"),
    }


@pytest.mark.parametrize("name", sorted(records()))
def test_fields_cannot_be_assigned(name):
    record, field = records()[name]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert getattr(record, field) is before


def test_record_rejects_an_unknown_status():
    with pytest.raises(ValueError, match="bad status 'maybe'"):
        Record("a", "b", "maybe", "", "")


def test_scenario_defect_is_computed_once():
    sc = catalog.from_document(textio.parse_scenario(catalog.scenario("Ms").text()))
    first = sc.defect
    assert first is not None and first.is_zero()
    assert sc.defect is first


def test_run_config_defaults():
    cfg = RunConfig()
    assert (cfg.scenario, cfg.input_path, cfg.sets, cfg.vol_scale, cfg.fmt,
            cfg.seed, cfg.out, cfg.kind, cfg.names, cfg.corrupt) == (
        None, None, None, Fraction(1), "text", 0, None, "both", (), None)
    assert RunConfig(seed=3, fmt="json").seed == 3


def test_document_defaults():
    doc = textio.ScenarioDocument(LieAlgebra(2, {}), 1, (2,))
    assert (doc.alphabet, doc.name, doc.metric, doc.phi, doc.exclusions) == (
        (), "", None, None, ())


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
    for record in (Record("a", "b", "info", "x", ""), torsions(), RunConfig(seed=4)):
        assert copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record
