"""Command-line drivers: exit codes, output stability, negative controls."""

import errno
import io
import json
import os
import random
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from splitg2 import catalog, scalars, textio
from splitg2.cli import MAX_VALUE_DIGITS, main
from splitg2.liealg import LieAlgebra, sp2_build

from conftest import run_python, run_splitg2, slice_document

REF = Path(__file__).resolve().parents[1] / "perfbench" / "ref"

BAD_JACOBI = """\
format: splitg2-scenario 1
dim: 4
bracket: 1 2 3 1
bracket: 1 3 1 1
horizontal: 3
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- verify-paper ------------------------------------------------------------------


def test_verify_short_scenario_passes(capsys):
    code, out, _ = run(capsys, "verify-paper", "--scenario", "Ms")
    assert code == 0
    assert out.startswith("splitg2 verify-paper")
    assert "result: pass" in out
    assert "[fail]" not in out


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "verify-paper", "--scenario", "Ms",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"] == "pass"
    assert doc["schema_version"] == 1
    assert doc["counts"]["fail"] == 0
    anchors = {r["anchor"] for r in doc["records"]}
    assert "base.jacobi" in anchors
    assert any(a.startswith("Ms.torsion") for a in anchors)


def test_verify_output_byte_stable(capsys):
    args = ("verify-paper", "--scenario", "Ms", "--seed", "3")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_verify_seed_changes_sample_points(capsys):
    _, a, _ = run(capsys, "verify-paper", "--scenario", "Ms", "--seed", "0")
    _, b, _ = run(capsys, "verify-paper", "--scenario", "Ms", "--seed", "1")
    assert a != b
    assert "result: pass" in a and "result: pass" in b


def test_verify_growth_claims_are_info(capsys):
    code, out, _ = run(capsys, "verify-paper", "--scenario", "Ml")
    assert code == 0
    infos = [ln for ln in out.splitlines() if ln.startswith("[info]")]
    assert any("D_l1" in ln for ln in infos)
    assert any("D_l2" in ln for ln in infos)


def test_verify_vol_scale_rescales_torsion(capsys):
    code, out, _ = run(capsys, "verify-paper", "--scenario", "Ms",
                       "--vol-scale", "3")
    assert code == 0
    assert "result: pass" in out
    # tau0 at scale 3 = 3 * (-18/7)
    assert "-54/7" in out


def test_verify_corrupt_negative_control(capsys):
    code, out, _ = run(capsys, "verify-paper", "--corrupt", "1,5,1")
    assert code == 1
    assert "result: fail" in out
    assert "[fail] base.jacobi" in out
    assert "negative control" in out


def test_verify_corrupt_bad_syntax(capsys):
    code, _, err = run(capsys, "verify-paper", "--corrupt", "5,1,1")
    assert code == 2
    assert "usage error" in err
    code, _, err = run(capsys, "verify-paper", "--corrupt", "zz")
    assert code == 2
    # indices take the ASCII digits 0-9 only
    assert run(capsys, "verify-paper", "--corrupt", "٣,٥,١") == (
        2, "", "usage error: --corrupt indices must be integers: got '٣,٥,١'\n")
    # int() would read 1_0 as 10 and run the shift (1,5,10)
    assert run(capsys, "verify-paper", "--corrupt", "1,5,1_0") == (
        2, "", "usage error: --corrupt indices must be integers: got '1,5,1_0'\n")
    # an empty value is a usage error, not a run without the shift
    assert run(capsys, "verify-paper", "--corrupt", "") == (
        2, "", "usage error: --corrupt needs J,K,I with 1 <= J < K <= 10\n")


@pytest.mark.parametrize("seed", ["1_0", "٣", " 7", "+3", "", "abc", "7" * 5000],
                         ids=["underscore", "arabic-indic", "space", "plus",
                              "empty", "letters", "past-int-digit-limit"])
def test_verify_seed_takes_ascii_integers_only(capsys, seed):
    # int() takes the first four; an integer is an optional '-' and the
    # ASCII digits 0-9, and anything else is one usage-error line
    assert run(capsys, "verify-paper", "--scenario", "Ms", "--seed", seed) == (
        2, "", f"usage error: --seed must be an integer: got {seed!r}\n")


def test_verify_seed_may_be_negative_or_zero_padded(capsys):
    code, out, _ = run(capsys, "verify-paper", "--scenario", "Ms", "--seed", "-3")
    assert code == 0 and "\nseed: -3\n" in out
    assert run(capsys, "verify-paper", "--scenario", "Ms", "--seed", "007") == run(
        capsys, "verify-paper", "--scenario", "Ms", "--seed", "7")


def test_verify_rejects_set(capsys):
    code, _, err = run(capsys, "verify-paper", "--scenario", "Ms",
                       "--set", "q=2")
    assert code == 2
    assert "usage error" in err
    # verify-paper has no --set option: the argument parser names the flag
    assert err == "usage error: splitg2: unrecognized arguments: --set q=2\n"


def test_verify_negative_vol_scale(capsys):
    code, _, err = run(capsys, "verify-paper", "--vol-scale", "-1")
    assert code == 2


# -- torsion ------------------------------------------------------------------------


def test_torsion_symbolic_run(capsys):
    code, out, _ = run(capsys, "torsion", "--scenario", "Ms")
    assert code == 0
    assert "tau0" in out


def test_torsion_specialized_matches_goldens(capsys):
    code, out, _ = run(capsys, "torsion", "--scenario", "Ms", "--set", "q=2",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    payload = doc["torsion"]
    assert payload["vol_scale"] == "1"
    want0 = scalars.parse_scalar(catalog.scenario("Ms").expected.tau0, ())
    assert scalars.equals(scalars.parse_scalar(payload["tau0"], ()), want0)
    assert payload["tau1"] == []
    assert payload["tau2"] == []
    keys = {tuple(k) for k, _ in payload["tau3"]}
    assert keys == set(catalog.scenario("Ms").expected.tau3)


def test_point_torsion_repeats_the_reference_bytes(capsys):
    argv = ("torsion", "--scenario", "Ml", "--set", "a=1", "--set", "p=2",
            "--set", "q=3")
    code, first, _ = run(capsys, *argv)
    assert code == 0
    code, second, _ = run(capsys, *argv)
    assert code == 0
    # the report the benchmark's warm-up request is checked against
    assert second == first == (REF / "torsion-Ml-point.txt").read_text()


def test_symbolic_requests_check_the_lowest_terms_copy(capsys, monkeypatch):
    """`torsion` and `verify-paper` check the scenario's lowest-terms copy
    of the family's torsions, while the report renders the elimination's
    own representatives."""
    from splitg2 import g2

    checked = []
    real = g2.check_torsions
    monkeypatch.setattr(g2, "check_torsions",
                        lambda *args: checked.append(args[3]) or real(*args))
    for argv in (("torsion", "--scenario", "Ml", "--vol-scale", "2"),
                 ("verify-paper", "--scenario", "Ml", "--vol-scale", "2")):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
    ml = catalog.scenario("Ml")
    low = str(ml.checked_torsions.rescale(2).tau0)
    unreduced = str(ml.unit_torsions.rescale(2).tau0)
    assert low != unreduced and unreduced in out
    assert [str(t.tau0) for t in checked
            if isinstance(t.tau0, scalars.RationalFunction)] == [low, low]


def test_point_torsion_never_reduces_to_lowest_terms(capsys, monkeypatch):
    """A --set request solves at its point and never enters the gcd: with
    `scalars.lowest_terms` made to raise, on a freshly built catalogue
    whose Ml scenario holds no cached copy, it still prints the bytes of
    the benchmark's point reference."""
    def refuse(x):
        raise AssertionError("a point request reduced a scalar")

    monkeypatch.setattr(scalars, "lowest_terms", refuse)
    catalog.scenario_Ml.cache_clear()
    code, out, err = run(capsys, "torsion", "--scenario", "Ml", "--set", "a=1",
                         "--set", "p=2", "--set", "q=3")
    assert (code, err) == (0, "")
    assert out == (REF / "torsion-Ml-point.txt").read_text()
    assert "checked_torsions" not in vars(catalog.scenario("Ml"))


@pytest.mark.parametrize("argv, ref", [
    (("verify-paper", "--seed", "0"), "verify-paper-seed0.txt"),
    (("torsion", "--scenario", "Ml", "--vol-scale", "2"), "torsion-Ml-vol2.txt"),
], ids=["verify-paper", "torsion-vol2"])
def test_report_repeats_the_benchmark_reference(capsys, argv, ref):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == (REF / ref).read_text()


@pytest.mark.parametrize("argv, golden, want_code", [
    (("verify-paper", "--format", "json", "--seed", "5"),
     "verify-paper-seed5.json", 0),
    (("verify-paper", "--vol-scale", "3", "--seed", "2"),
     "verify-paper-vol3-seed2.txt", 0),
    (("verify-paper", "--scenario", "Ms", "--seed", "9"),
     "verify-paper-Ms-seed9.txt", 0),
    (("verify-paper", "--corrupt", "1,5,1"),
     "verify-paper-corrupt-1-5-1.txt", 1),
], ids=["json-seed5", "vol3-seed2", "Ms-seed9", "corrupt-1-5-1"])
def test_verify_paper_reports_are_pinned(capsys, argv, golden, want_code):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (want_code, "")
    assert out == (Path(__file__).parent / "golden" / golden).read_text()


def test_verify_paper_computes_each_defect_once(capsys, monkeypatch):
    """One compatibility defect per catalogue structure family, built with
    the scenario, plus one per sampled point."""
    import splitg2.cli as cli
    from splitg2 import g2, textio

    calls = []

    def spy(metric, phi):
        calls.append(phi)
        return real(metric, phi)

    real = g2.compatibility_defect
    monkeypatch.setattr(g2, "compatibility_defect", spy)
    monkeypatch.setattr(textio, "compatibility_defect", spy)
    # scenarios are built once per process: build them again under the spy
    catalog.scenario_Ml.cache_clear()
    catalog.scenario_Ms.cache_clear()
    code, _, _ = run(capsys, "verify-paper", "--seed", "4")
    assert code == 0
    families = [catalog.scenario(name).phi_family for name in ("Ml", "Ms")]
    symbolic = [phi for phi in calls
                if not all(isinstance(c, Fraction) for c in phi.terms.values())]
    assert len(symbolic) == len(families)
    assert all(a is b for a, b in zip(symbolic, families))
    assert len(calls) == len(families) + 2 * cli.SPECIALIZATION_COUNT


def test_verify_paper_solves_each_family_once(capsys, monkeypatch):
    """One symbolic torsion elimination per scenario: the coclosed-slice
    record restricts the family's torsions instead of solving the slice."""
    from splitg2 import g2

    built, solved = [], []

    def build(algebra, metric, phi, *rest):
        system = real_build(algebra, metric, phi, *rest)
        built.append((system, phi))
        return system

    def solve(system):
        solved.append(next(phi for s, phi in built if s is system))
        return real_solve(system)

    real_build, real_solve = g2.torsion_linear_system, g2.TorsionSystem.solution
    monkeypatch.setattr(g2, "torsion_linear_system", build)
    monkeypatch.setattr(textio, "torsion_linear_system", build)
    monkeypatch.setattr(g2.TorsionSystem, "solution", solve)
    # scenarios keep their unit-scale elimination: build them again
    catalog.scenario_Ml.cache_clear()
    catalog.scenario_Ms.cache_clear()
    code, out, _ = run(capsys, "verify-paper", "--seed", "4")
    assert code == 0
    assert "[pass] Ml.coclosed-slice" in out
    families = [catalog.scenario(name).phi_family for name in ("Ml", "Ms")]
    symbolic = [phi for phi in solved
                if not all(isinstance(c, Fraction) for c in phi.terms.values())]
    assert len(symbolic) == 2
    assert all(a is b for a, b in zip(symbolic, families))


def test_torsion_requests_count_their_eliminations(capsys, monkeypatch):
    """Work counted, not timed: a builtin scenario is eliminated once, at
    unit scale, for all its --vol-scale requests; every request checks its
    own torsions by one residual; an --input document is eliminated once
    per request, and a point at the point."""
    from splitg2 import _linalg, g2

    counts = {"solve": 0, "residual": 0}

    def counted(key, real):
        def spy(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)
        return spy

    monkeypatch.setattr(_linalg, "solve_unique",
                        counted("solve", _linalg.solve_unique))
    monkeypatch.setattr(g2, "bryant_residual",
                        counted("residual", g2.bryant_residual))

    def work(*argv, stdin=None):
        if stdin is not None:
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        before = dict(counts)
        code, _, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        return counts["solve"] - before["solve"], counts["residual"] - before["residual"]

    document = catalog.scenario("Ml").text()
    catalog.scenario_Ml.cache_clear()
    assert [work("torsion", "--scenario", "Ml", "--vol-scale", c)
            for c in ("2", "7/3", "13")] == [(1, 1), (0, 1), (0, 1)]
    assert [work("torsion", "--input", "-", stdin=document)
            for _ in range(2)] == [(1, 1), (1, 1)]
    point = ("--set", "a=1", "--set", "p=2", "--set", "q=3")
    assert [work("torsion", "--scenario", "Ml", *point, "--vol-scale", c)
            for c in ("1", "5/2")] == [(1, 1), (1, 1)]


def test_torsion_requests_leave_the_unit_torsions_unchanged(capsys):
    """Every report shares the scenario's cached unit-scale torsions (tau1
    by identity): a text and a JSON request leave them as they were."""
    ml = catalog.scenario("Ml")

    def text():
        return [str(getattr(ml.unit_torsions, field))
                for field in ("tau0", "tau1", "tau2", "tau3")]

    before = text()
    for argv in (("torsion", "--scenario", "Ml"),
                 ("torsion", "--scenario", "Ml", "--vol-scale", "7/3",
                  "--format", "json")):
        code, _, _ = run(capsys, *argv)
        assert code == 0
    assert catalog.scenario("Ml") is ml
    assert text() == before


ML_POINT = {"a": Fraction(1), "p": Fraction(2), "q": Fraction(3)}


def test_point_record_reports_a_failed_solve(monkeypatch):
    """tau0 taken out of the structure equations: the solve names it free,
    and the Bryant rows lose one rank on the membership kernel."""
    import splitg2.cli as cli
    from splitg2 import g2

    def without_tau0(*args):
        system = real(*args)
        for row in system.rows[: system.bryant_count]:
            row.pop(0, None)
        return system

    ml = catalog.scenario("Ml")
    expected = cli._expected_torsions(ml)
    real = g2.torsion_linear_system
    monkeypatch.setattr(g2, "torsion_linear_system", without_tau0)
    assert cli._point_pipeline(ml, expected, ML_POINT, Fraction(1), "x") == (
        "x", "pipeline at a=1, p=2, q=3", False,
        "torsion solve failed: free unknowns at columns [0]; constrained rank 48",
        "torsion match, constrained rank 49, 14-component dim 14")


@pytest.mark.parametrize("name", ["Ml", "Ms"])
def test_point_record_eliminates_the_system_once(monkeypatch, name):
    """The constrained rank and the 14-component come from the torsion
    solve and the two membership blocks (7 and 8 rows): no second
    elimination of the Bryant rows, no 2-form kernel from wedges."""
    import splitg2.cli as cli
    from splitg2 import _linalg, g2

    sc = catalog.scenario(name)
    expected = cli._expected_torsions(sc)
    point = cli._sample_point(random.Random(f"guard:{name}"), sc)
    eliminated, wedged = [], []

    def row_reduce(rows, width, domain):
        eliminated.append(len(rows))
        return real_reduce(rows, width, domain)

    real_reduce = _linalg.row_reduce
    monkeypatch.setattr(_linalg, "row_reduce", row_reduce)
    monkeypatch.setattr(g2, "lambda2_14_basis",
                        lambda *args: wedged.append(args))
    record = cli._point_pipeline(sc, expected, point, Fraction(1), "x")
    assert record[2], record
    assert eliminated.count(71) == 1
    assert max((n for n in eliminated if n != 71), default=0) <= 8, eliminated
    assert wedged == []


@pytest.mark.parametrize("index, dimension", [(0, 18), (1, 18), (2, 18), (3, 16)])
def test_point_record_of_a_non_generic_form_is_wrong_dimension(index, dimension):
    """An invariant 3-form other than the family's is not generic: more
    than 14 dimensions of 2-forms wedge to zero with its star."""
    import splitg2.cli as cli
    from splitg2 import invariants
    from splitg2.errors import WrongDimension

    ml = catalog.scenario("Ml")
    space = invariants.invariant_form3(ml.algebra, ml.verticals, ml.horizontal)
    fields = {name: getattr(ml, name) for name in ml._fields}
    fields["phi_family"] = space.basis[index].restrict(ml.horizontal)
    sc = catalog.Scenario(**fields)
    with pytest.raises(WrongDimension) as caught:
        cli._point_pipeline(sc, cli._expected_torsions(ml), ML_POINT,
                            Fraction(1), "x")
    assert str(caught.value) == (
        f"2-form kernel has dimension {dimension}, expected 14")


def patch_ml_slice(monkeypatch, substitutions):
    """Serve a catalogue whose Ml scenario carries another coclosed slice."""

    def copy(record, **changes):
        return type(record)(**{name: changes.get(name, getattr(record, name))
                               for name in record._fields})

    real = catalog.scenario
    ml = real("Ml")
    patched = copy(ml, expected=copy(ml.expected, coclosed_slice=substitutions))
    monkeypatch.setattr(catalog, "scenario",
                        lambda name: patched if name == "Ml" else real(name))
    return patched


def slice_record(out):
    lines = out.splitlines()
    at = next(i for i, line in enumerate(lines) if "Ml.coclosed-slice" in line)
    return lines[at : at + 3]


def test_coclosed_slice_off_the_locus_fails(capsys, monkeypatch):
    from splitg2 import g2

    ml = patch_ml_slice(monkeypatch, {"p": "3*a"})
    code, out, err = run(capsys, "verify-paper", "--scenario", "Ml")
    assert (code, err) == (1, "")
    torsions = g2.torsion_solve(ml.algebra, ml.metric, ml.phi_family)
    tau1 = catalog.restrict_form(torsions.tau1, ml.alphabet, {"p": "3*a"})
    assert not tau1.is_zero()
    assert slice_record(out) == [
        "[fail] Ml.coclosed-slice :: vector torsion vanishes on the slice p = 3*a",
        f"       computed: tau1 = {tau1}, tau2 = 0",
        "       expected: tau1 = 0, tau2 = 0",
    ]
    assert "result: fail" in out


@pytest.mark.parametrize("vol", ["1", "3"])
def test_coclosed_slice_on_a_pole_fails(capsys, monkeypatch, vol):
    """A denominator of the family's tau1 vanishes at q = 1: the check
    cannot conclude, so it fails with one computed line instead of
    passing or escaping."""
    patch_ml_slice(monkeypatch, {"q": "1"})
    code, out, err = run(capsys, "verify-paper", "--scenario", "Ml",
                         "--vol-scale", vol)
    assert code == 1
    assert len(err.splitlines()) <= 1 and "Traceback" not in err
    record = slice_record(out)
    assert record[0].startswith("[fail] Ml.coclosed-slice ::")
    assert record[1].startswith("       computed: tau1: denominator ")
    assert record[1].endswith(" vanishes on the slice, check inconclusive")
    assert record[2] == "       expected: tau1 = 0, tau2 = 0"


@pytest.mark.parametrize("argv, stdin, golden", [
    (("torsion", "--scenario", "Ms"), None, "torsion-Ms.txt"),
    (("torsion", "--scenario", "Ml", "--format", "json"), None, "torsion-Ml.json"),
    (("torsion", "--input", "-"), 3, "torsion-Ml-slice-p3a.txt"),
    # the coclosed slice, where tau1 and tau2 vanish
    (("torsion", "--input", "-"), 2, "torsion-Ml-slice-p2a.txt"),
], ids=["Ms", "Ml-json", "Ml-slice", "Ml-slice-p2a"])
def test_symbolic_torsion_reports_are_pinned(capsys, monkeypatch, argv, stdin, golden):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(slice_document(stdin)))
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == (Path(__file__).parent / "golden" / golden).read_text()


def test_text_torsion_renders_no_payload(capsys, monkeypatch):
    import splitg2.cli as cli

    calls = []
    payload = cli._torsion_payload
    monkeypatch.setattr(cli, "_torsion_payload",
                        lambda *args: calls.append(1) or payload(*args))
    code, _, _ = run(capsys, "torsion", "--scenario", "Ms")
    assert code == 0 and calls == []
    code, out, _ = run(capsys, "torsion", "--scenario", "Ms", "--format", "json")
    assert code == 0 and calls == [1]
    assert json.loads(out)["torsion"]["vol_scale"] == "1"


def test_torsion_partial_set_rejected(capsys):
    code, _, err = run(capsys, "torsion", "--scenario", "Ml", "--set", "a=1")
    assert code == 2
    assert "usage error" in err


def test_torsion_excluded_point_rejected(capsys):
    code, _, err = run(capsys, "torsion", "--scenario", "Ms", "--set", "q=0")
    assert code == 1
    assert "error" in err


def test_torsion_duplicate_set_rejected(capsys):
    code, _, err = run(capsys, "torsion", "--scenario", "Ms",
                       "--set", "q=2", "--set", "q=3")
    assert code == 2


def test_torsion_unknown_parameter(capsys):
    code, _, err = run(capsys, "torsion", "--scenario", "Ms", "--set", "z=2")
    assert code == 2



@pytest.mark.parametrize("argv", [
    ("--scenario", "Ml", "--vol-scale", "1e100000"),
    ("--scenario", "Ms", "--set", "q=1e5000"),
    ("--scenario", "Ms", "--set", "q=1.5"),
    ("--scenario", "Ml", "--vol-scale", "2.5"),
    ("--scenario", "Ms", "--set", "q=" + "7" * (MAX_VALUE_DIGITS + 1)),
    ("--scenario", "Ms", "--set", "q=1/" + "3" * (MAX_VALUE_DIGITS + 1)),
    ("--scenario", "Ms", "--vol-scale", f"(10^50)^{MAX_VALUE_DIGITS // 50}"),
    ("--scenario", "Ml", "--set", "a=" + "9" * 4000, "--set", "p=1", "--set", "q=2"),
    ("--scenario", "Ms", "--set", "q=((2^64)^64)^64"),
    ("--scenario", "Ms", "--set", "q=٣"),
    ("--scenario", "Ml", "--vol-scale", "2²"),
])
def test_torsion_flag_values_outside_the_grammar_or_bound_are_usage(capsys, argv):
    code, out, err = run(capsys, "torsion", *argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("usage error: --")


def test_torsion_flag_values_at_the_digit_bound_render(capsys):
    # generic values (no cancellation) with numerator and denominator at
    # the bound: the largest rendered integers come near nine times the
    # bound, and stay below the interpreter's 4300-digit rendering limit
    rng = random.Random(4300)

    def value():
        n, d = (rng.randrange(10 ** (MAX_VALUE_DIGITS - 1), 10 ** MAX_VALUE_DIGITS)
                for _ in range(2))
        return f"{rng.choice(('', '-'))}{n}/{d}"

    for name in ("Ml", "Ms", "Ml"):
        sc = catalog.scenario(name)
        argv = ["torsion", "--scenario", name,
                "--vol-scale", value().lstrip("-")]
        for p in sc.alphabet:
            argv += ["--set", f"{p}={value()}"]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert "result: pass" in out
        longest = max(map(len, re.findall(r"\d+", out)))
        assert longest < 4300
        if name == "Ml":
            assert longest > 8 * MAX_VALUE_DIGITS


def test_torsion_flag_values_are_rational_expressions(capsys):
    code, out, err = run(capsys, "torsion", "--scenario", "Ms", "--set", "q= 3/4 ",
                         "--vol-scale", "(1 + 1)^2/8")
    assert (code, err) == (0, "")
    assert "specialized at q=3/4" in out
    assert "volume scale 1/2" in out


def test_one_parser_per_process():
    script = """
import argparse, io, sys
built = []
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
import splitg2.cli as cli
assert "splitg2" not in built, built
calls = []
build = cli.build_parser
def spy():
    calls.append(1)
    return build()
cli.build_parser = spy
sys.stdout = io.StringIO()
codes = [cli.main(["describe", "--scenario", "sp2"]) for _ in range(2)]
sys.stdout = sys.__stdout__
print(codes, len(calls))
"""
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[0] == "[0, 0] 1"


# Run one command line in a fresh interpreter, then name the modules of
# START_COST_MODULES it has loaded.  Importing `dataclasses` pulls in
# `inspect`, `ast`, `dis` and `tokenize`; `json` is needed only to write
# JSON output.  sys.modules only grows, so the names present at the end
# include any the package import loaded.
START_COST_MODULES = ("dataclasses", "inspect", "json")
LOADED_PROBE = """
import sys
from splitg2 import cli
code = cli.main(sys.argv[1:])
print(code, *sorted(set(%r) & set(sys.modules)), file=sys.stderr)
""" % (START_COST_MODULES,)


def loaded_after(*argv):
    proc = run_python("-c", LOADED_PROBE, *argv)
    return proc.stderr.split()


def test_a_text_run_loads_no_dataclasses_inspect_or_json():
    assert loaded_after("verify-paper", "--scenario", "Ms") == ["0"]


def test_a_json_run_loads_json():
    assert loaded_after("torsion", "--scenario", "Ms", "--format", "json") == ["0", "json"]

# -- invariants ------------------------------------------------------------------------


def test_invariants_reports_dimensions(capsys):
    code, out, _ = run(capsys, "invariants", "--scenario", "Ms")
    assert code == 0
    assert "result: pass" in out
    assert "dimension" in out


@pytest.mark.parametrize("name", ["Ml", "Ms"])
def test_invariants_basis_listing_is_pinned(capsys, name):
    golden = Path(__file__).parent / "golden" / f"invariants-{name}.txt"
    code, out, _ = run(capsys, "invariants", "--scenario", name)
    assert code == 0
    assert out == golden.read_text()


def test_invariants_kind_filter(capsys):
    code, out, _ = run(capsys, "invariants", "--scenario", "Ms",
                       "--kind", "metric")
    assert code == 0
    assert "3-form" not in out.split("result:")[0].split("dimension")[0]


# -- growth -----------------------------------------------------------------------------


def test_growth_default_names(capsys):
    code, out, _ = run(capsys, "growth")
    assert code == 0
    for name in ("D_l1", "D_l2", "D_s1", "D_s2"):
        assert name in out


def test_growth_named_subset(capsys):
    code, out, _ = run(capsys, "growth", "D_s1")
    assert code == 0
    assert "D_s1" in out and "D_l1" not in out


def test_growth_unknown_name(capsys):
    code, _, err = run(capsys, "growth", "D_x9")
    assert code == 2


def test_growth_repeated_name_is_usage(capsys):
    code, out, err = run(capsys, "growth", "D_l1", "D_s1", "D_l1")
    assert code == 2
    assert out == ""
    assert err == "usage error: distribution name(s) given twice: D_l1\n"


# -- describe ----------------------------------------------------------------------------


def test_describe_algebra_parses(capsys):
    """The `bracket:` lines of the sp2 document are the structure constants."""
    code, out, _ = run(capsys, "describe", "--scenario", "sp2")
    assert code == 0
    brackets = {}
    for line in out.splitlines():
        if line.startswith("bracket:"):
            j, k, i, c = line.split()[1:]
            brackets.setdefault((int(j), int(k)), {})[int(i)] = Fraction(c)
    assert brackets == sp2_build().brackets


def test_describe_scenario_round_trip(tmp_path, capsys):
    from splitg2.textio import parse_scenario

    code, out, _ = run(capsys, "describe", "--scenario", "Ms")
    assert code == 0
    doc = parse_scenario(out)
    assert doc.horizontal == 7

    # feed the emitted document back through the torsion command
    path = tmp_path / "ms.txt"
    path.write_text(out)
    code, out2, _ = run(capsys, "torsion", "--input", str(path),
                        "--set", "q=2")
    assert code == 0
    assert "input.jacobi" in out2


def test_describe_stdin_round_trip(capsys):
    code, doc, _ = run(capsys, "describe", "--scenario", "Ms")
    assert code == 0
    proc = run_splitg2("describe", "--input", "-", stdin=doc)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == doc


def test_describe_rejects_format_flag(capsys):
    code, _, _ = run(capsys, "describe", "--scenario", "Ms",
                     "--format", "json")
    assert code == 2


# -- document input and output paths ---------------------------------------------------------


def test_input_jacobi_violation_fails(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text(BAD_JACOBI)
    code, out, _ = run(capsys, "invariants", "--input", str(path))
    assert code == 1
    assert "[fail] input.jacobi" in out
    assert "violation at (1, 2, 3)" in out


def test_a_shifted_table_gets_its_own_algebra_and_verdict(tmp_path, capsys):
    from splitg2.textio import parse_scenario

    doc = catalog.scenario("Ml").text()
    lines = doc.splitlines(keepends=True)
    at = next(i for i, text in enumerate(lines) if text.startswith("bracket:"))
    lines[at] = lines[at].rstrip("\n") + "+1\n"
    shifted = "".join(lines)
    paths = {}
    for name, text in (("ml", doc), ("shifted", shifted)):
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(text)
    held = parse_scenario(doc).algebra
    before = run(capsys, "torsion", "--input", str(paths["ml"]), "--vol-scale", "2")
    assert before[0] == 0 and "[pass] input.jacobi" in before[1]
    assert parse_scenario(shifted).algebra is not held
    code, out, _ = run(capsys, "torsion", "--input", str(paths["shifted"]))
    assert code == 1
    assert "[fail] input.jacobi" in out
    after = run(capsys, "torsion", "--input", str(paths["ml"]), "--vol-scale", "2")
    assert after == before


def test_input_wide_algebra_runs_quickly(tmp_path, capsys, monkeypatch):
    # C(400, 3) index triples, but only those with a nonzero bracket can
    # fail the Jacobi identity
    doc = catalog.scenario("Ms").text().replace("dim: 10\n", "dim: 400\n", 1)
    assert "dim: 400\n" in doc
    path = tmp_path / "wide.txt"
    path.write_text(doc)
    parsed, pairs = [], []

    def parse(text):
        parsed.append(real_parse(text))
        return parsed[-1]

    def bracket_basis(algebra, j, k):
        pairs.append((j, k))
        return real_bracket(algebra, j, k)

    real_parse, real_bracket = textio.parse_scenario, LieAlgebra.bracket_basis
    monkeypatch.setattr(textio, "parse_scenario", parse)
    monkeypatch.setattr(LieAlgebra, "bracket_basis", bracket_basis)
    start = time.process_time()
    code, out, _ = run(capsys, "torsion", "--input", str(path))
    assert code == 0
    assert "result: pass" in out
    assert time.process_time() - start < 5
    # the work follows the nonzeros, not the dimension: d e^K columns
    # only for the keys of the forms differentiated (28 pairs of the
    # coframe differentials, 5 of phi, 5 of star phi), and no bracket
    # looked up by index pair
    [sc] = parsed
    assert len(sc.algebra.brackets) == 28
    assert len(sc.algebra._dcolumns) == 38
    assert pairs == []


def test_input_malformed_is_usage(tmp_path, capsys):
    path = tmp_path / "broken.txt"
    path.write_text("format: nope\n")
    code, _, err = run(capsys, "invariants", "--input", str(path))
    assert code == 2
    assert "parse error" in err


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.txt"
    code, out, _ = run(capsys, "verify-paper", "--scenario", "Ms",
                       "--out", str(target))
    assert code == 0
    assert out == ""
    assert "result: pass" in target.read_text()


@pytest.mark.parametrize("argv", [("growth",), ("describe", "--scenario", "Ms")],
                         ids=["growth", "describe"])
def test_out_to_unwritable_path_is_usage(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "report.txt"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == 2
    assert out == ""
    assert err == f"usage error: cannot write {target}: No such file or directory\n"


# -- process-level behaviour -------------------------------------------------------------------


def test_entry_point_subprocess():
    proc = run_splitg2("describe", "--scenario", "sp2")
    assert proc.returncode == 0
    assert proc.stdout.startswith("format: splitg2-algebra 1")


def test_usage_exit_codes(capsys):
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "verify-paper", "--scenario", "XX")[0] == 2


def test_stdin_input(tmp_path, capsys, monkeypatch):
    text = catalog.scenario("Ms").text()
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, _ = run(capsys, "invariants", "--input", "-")
    assert code == 0
    assert "result: pass" in out


def test_input_wide_abelian_invariants_run_quickly(capsys, monkeypatch):
    # no verticals line: all 505 legs past the horizontal block are vertical,
    # and each Lie derivative must cost the nonzeros it touches, not dim
    lines = catalog.scenario("Ms").text().replace("dim: 10\n", "dim: 512\n", 1)
    doc = "".join(line for line in lines.splitlines(keepends=True)
                  if not line.startswith(("bracket:", "verticals:")))
    assert "dim: 512\n" in doc
    parsed, reads = [], []

    def parse(text):
        parsed.append(real_parse(text))
        return parsed[-1]

    def ad(algebra, a):
        reads.append(a)
        return real_ad(algebra, a)

    real_parse, real_ad = textio.parse_scenario, LieAlgebra._ad
    monkeypatch.setattr(textio, "parse_scenario", parse)
    monkeypatch.setattr(LieAlgebra, "_ad", ad)
    monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
    start = time.process_time()
    code, out, _ = run(capsys, "invariants", "--input", "-")
    assert code == 0
    assert "result: pass" in out
    assert time.process_time() - start < 5
    # the work follows the verticals and the horizontal keys, not the
    # dimension: d e^K columns only for the 35 horizontal 3-form keys,
    # and one ad(e_a) column map read per vertical a for each of the 28
    # unit metrics of the system and each of the 28 basis metrics rechecked
    [sc] = parsed
    assert len(sc.algebra._dcolumns) == 35
    assert len(reads) == 2 * 28 * 505
    assert sorted(set(reads)) == list(range(8, 513))


@pytest.mark.parametrize("route", ["file", "stdin-strict", "stdin-surrogateescape"])
@pytest.mark.parametrize("command", ["torsion", "invariants", "describe"])
def test_input_that_is_not_utf8_is_a_parse_error(tmp_path, capsys, monkeypatch,
                                                 command, route):
    # a valid document but for one byte in a comment, which is not UTF-8;
    # stdin decodes strictly, or surrogate-escapes as in the POSIX locale
    text = catalog.scenario("Ms").text()
    data = text.replace("\n", "\n# caf\xe9\n", 1).encode("latin-1")
    if route == "file":
        path = tmp_path / "latin1.txt"
        path.write_bytes(data)
        source = str(path)
    else:
        errors = route.partition("-")[2]
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
            io.BytesIO(data), encoding="utf-8", errors=errors))
        source = "-"
    assert run(capsys, command, "--input", source) == (
        2, "", "parse error: line 2: document is not UTF-8 text\n")


ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


@pytest.mark.parametrize("route", ["stdout", "out"])
@pytest.mark.parametrize("edit, filename, command", [
    (lambda text: text.replace("name: Ms\n", "name: Ms λ-copy\n", 1), "doc.txt",
     "describe"),
    (lambda text: re.sub(r"\bq\b", "λ", text), "doc.txt", "describe"),
    (lambda text: text, "doc-λ.txt", "invariants"),
], ids=["name", "alphabet", "path"])
def test_reports_are_utf8_under_an_ascii_locale(tmp_path, capsys, edit, filename,
                                                command, route):
    """Non-ASCII text in a valid document, or in the path a report names,
    is written as UTF-8 where the locale encoding is ASCII, on stdout and
    with --out: the bytes of a run under a UTF-8 locale, so a written
    document reads back."""
    doc = edit(catalog.scenario("Ms").text())
    source, target = tmp_path / filename, tmp_path / "out.txt"
    source.write_bytes(doc.encode("utf-8"))
    argv = [command, "--input", str(source)]
    want = run(capsys, *argv)
    assert want[0] == 0 and "λ" in want[1]
    if route == "out":
        argv += ["--out", str(target)]
    proc = run_python("-m", "splitg2", *argv, env=ASCII_LOCALE)
    assert (proc.returncode, proc.stderr) == (0, "")
    written = proc.stdout if route == "stdout" else target.read_text("utf-8")
    assert written == want[1]


class AsciiText(io.TextIOBase):
    """A text-only stream that takes ASCII and nothing else."""

    def write(self, text):
        text.encode("ascii")
        return len(text)


class FullDevice(io.RawIOBase):
    """A binary stream on a device with no space left."""

    def writable(self):
        return True

    def write(self, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("stream, message", [
    (None, "standard output cannot take the report; use --out"),
    (AsciiText(), "standard output cannot take the report; use --out"),
    (io.TextIOWrapper(FullDevice(), encoding="utf-8"),
     "cannot write to standard output: No space left on device"),
], ids=["closed", "ascii", "full"])
def test_a_stdout_short_of_the_report_is_one_error_line(capsys, monkeypatch,
                                                        stream, message):
    doc = catalog.scenario("Ms").text().replace("name: Ms\n", "name: Ms λ-copy\n", 1)
    monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
    monkeypatch.setattr(sys, "stdout", stream)
    code = main(["describe", "--input", "-"])
    assert (code, capsys.readouterr().err) == (1, f"error: {message}\n")


def test_input_bad_parameter_name_is_usage():
    doc = catalog.scenario("Ms").text().replace("alphabet: q\n",
                                                "alphabet: q 1x\n", 1)
    assert "alphabet: q 1x\n" in doc
    proc = run_splitg2("torsion", "--input", "-", stdin=doc)
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1
    assert "bad parameter name '1x'" in proc.stderr
    assert "line 3" in proc.stderr


@pytest.mark.parametrize("old,new,message", [
    ("horizontal: 7\n", "horizontal: 0_7\n", "bad integer '0_7'"),
    ("alphabet: q\n", "alphabet: q ℘\n", "bad parameter name '℘'"),
    ("dim: 10\n", "dim: 10 junk\n", "dim takes one integer, got '10 junk'"),
    ("horizontal: 7\n", "horizontal: 7 eight\n",
     "horizontal takes one integer, got '7 eight'"),
    ("verticals: 8 9 10\n", "verticals: 8 8 9 10\n",
     "repeated vertical index in '8 8 9 10'"),
], ids=["integer", "alphabet", "dim-fields", "horizontal-fields",
        "repeated-vertical"])
def test_input_document_rejected_by_the_input_rules_is_usage(capsys, monkeypatch,
                                                              old, new, message):
    doc = catalog.scenario("Ms").text()
    assert old in doc
    monkeypatch.setattr(sys, "stdin", io.StringIO(doc.replace(old, new, 1)))
    code, out, err = run(capsys, "describe", "--input", "-")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and message in err


def test_input_huge_exponent_is_usage():
    doc = catalog.scenario("Ms").text().replace("phi: 1 3 6 q\n",
                                                "phi: 1 3 6 (q+1)^3000\n", 1)
    assert "(q+1)^3000" in doc
    proc = run_splitg2("torsion", "--input", "-", stdin=doc, timeout=60)
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1
    assert "exponent 3000 exceeds the limit 64" in proc.stderr


def test_input_huge_polynomial_power_is_usage():
    doc = catalog.scenario("Ml").text().replace("phi: 1 2 7 -a\n",
                                                "phi: 1 2 7 -((1+a+p+q)^16)^4\n", 1)
    assert "^16)^4" in doc
    proc = run_splitg2("torsion", "--input", "-", stdin=doc, timeout=60)
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1
    assert "power exceeds the limit of 16384 terms" in proc.stderr


def test_input_long_product_is_usage():
    factor = "(1+a+b+c+d+e+f+q)"
    doc = catalog.scenario("Ms").text().replace(
        "alphabet: q\n", "alphabet: q a b c d e f\n", 1).replace(
        "phi: 1 3 6 q\n", "phi: 1 3 6 " + "*".join([factor] * 12) + "\n", 1)
    assert "alphabet: q a b c d e f\n" in doc and factor + "*" + factor in doc
    proc = run_splitg2("torsion", "--input", "-", stdin=doc, timeout=60)
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1
    assert "product exceeds the limit of 16384 terms" in proc.stderr


def test_input_huge_integer_literal_is_usage():
    doc = catalog.scenario("Ms").text().replace("phi: 1 3 6 q\n",
                                                "phi: 1 3 6 q*" + "7" * 5000 + "\n", 1)
    assert "7" * 5000 in doc
    proc = run_splitg2("torsion", "--input", "-", stdin=doc, timeout=60)
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1
    assert "integer literal of 5000 digits is too long" in proc.stderr


@pytest.mark.parametrize("coefficient", ["(" * 200 + "q" + ")" * 200, "-" * 1000 + "q"],
                         ids=["parentheses", "minus-signs"])
def test_input_deep_nesting_is_usage(coefficient):
    doc = catalog.scenario("Ms").text().replace("phi: 1 3 6 q\n",
                                                f"phi: 1 3 6 {coefficient}\n", 1)
    assert coefficient in doc
    proc = run_splitg2("torsion", "--input", "-", stdin=doc, timeout=60)
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1
    assert "nesting exceeds the limit 32" in proc.stderr


# -- the exit-code contract --------------------------------------------------------------------


LEG6_METRIC = """\
format: splitg2-scenario 1
dim: 8
horizontal: 6
metric: 1 1 1
metric: 2 2 1
metric: 3 3 1
metric: 4 4 -1
metric: 5 5 -1
metric: 6 6 -1
"""


@pytest.mark.parametrize("command", ["torsion", "invariants", "describe"])
def test_input_metric_off_dimension_seven_is_one_line(tmp_path, command):
    path = tmp_path / "leg6.txt"
    path.write_text(LEG6_METRIC)
    proc = run_splitg2(command, "--input", str(path), timeout=60)
    assert proc.returncode == 1
    assert proc.stderr == "error: metric must live on dimension 7\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("phi, code, err", [
    ("phi: 1 3 6 q\n", 1, "error: metric determinant is zero\n"),
    ("phi: 1 3 6 zz\n", 2, "parse error: line 44: unknown parameter 'zz' in 'zz'\n"),
], ids=["degenerate-metric", "parse-error-first"])
def test_input_metric_errors_come_after_parse_errors(capsys, monkeypatch,
                                                     phi, code, err):
    """A degenerate metric is an error (exit code 1), but a parse error in
    the same document is the one reported (exit code 2)."""
    doc = catalog.scenario("Ms").text().replace("metric: 4 4 2\n", "metric: 4 4 0\n", 1)
    assert "metric: 4 4 0\n" in doc
    monkeypatch.setattr(sys, "stdin", io.StringIO(doc.replace("phi: 1 3 6 q\n", phi, 1)))
    assert run(capsys, "torsion", "--input", "-") == (code, "", err)


def _package_errors():
    from splitg2 import errors

    return [obj for obj in vars(errors).values()
            if isinstance(obj, type) and obj.__module__ == errors.__name__]


@pytest.mark.parametrize("cls", _package_errors(), ids=lambda cls: cls.__name__)
def test_every_package_error_maps_to_an_exit_code(capsys, monkeypatch, cls):
    from splitg2 import cli
    from splitg2.errors import ParseError, SplitG2Error

    assert issubclass(cls, SplitG2Error)

    def handler(cfg):
        raise cls("injected failure")

    monkeypatch.setattr(cli, "cmd_torsion", handler)
    code, out, err = run(capsys, "torsion", "--scenario", "Ms")
    assert code == (2 if cls is ParseError else 1)
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "injected failure" in err


@pytest.mark.parametrize("argv", [
    ("bogus",),
    ("torsion",),
    ("torsion", "--scenario", "Zz"),
    ("torsion", "--kind", "x"),
    ("verify-paper", "--input", "x"),
    ("verify-paper", "--set", "a=1"),
], ids=["unknown-command", "no-scenario", "unknown-scenario", "unknown-flag",
        "verify-paper-input", "verify-paper-set"])
def test_argument_parser_rejections_are_one_line(capsys, argv):
    """What the argument parser itself rejects is reported like every other
    bad flag: exit code 2, nothing on stdout, one `usage error:` line."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.endswith("\n")
    assert err.startswith("usage error: ")


def test_help_still_goes_to_stdout(capsys):
    code, out, err = run(capsys, "torsion", "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: splitg2 torsion")
