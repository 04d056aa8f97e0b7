"""Tests of the benchmark itself: python3 -m pytest perfbench

The negative controls show that the failure count catches real failures:
a corrupted structure constant and an incompatible input document must
each be counted as a failed request.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import layers
import run
import workloads as wl

run.import_package()


@pytest.fixture(scope="module")
def describe_ml():
    return run._describe_ml()


def test_corrupted_replay_counts_as_failure():
    req = wl.Request("replay", ("verify-paper", "--corrupt", "1,5,1"))
    outcome = wl.run_cold(req)
    assert outcome.rc == 1
    assert wl.check(req, outcome, seed=0) is not None


def test_incompatible_document_counts_as_failure(describe_ml):
    doc = describe_ml.replace("metric: 4 4 1\n", "metric: 4 4 2\n")
    assert doc != describe_ml
    req = wl.Request("slice", ("torsion", "--input", "-"), stdin=doc,
                     slope=Fraction(1))
    outcome = wl.run_in_process(req)
    assert outcome.rc == 1
    assert "[fail] input.compatibility" in outcome.out
    assert wl.check(req, outcome, seed=0) is not None


def test_seeded_requests_pass_their_checks(describe_ml):
    for workload in ("point-solves", "symbolic-solves"):
        stream = wl.requests(workload, 5, describe_ml)
        for req in [next(stream), next(stream)]:
            assert wl.check(req, wl.run_in_process(req), seed=5) is None
    req = next(wl.requests("paper-replay", 5))
    assert wl.check(req, wl.run_cold(req), seed=5) is None


def test_requests_repeat_for_a_seed(describe_ml):
    first = wl.requests("symbolic-solves", 3, describe_ml)
    second = wl.requests("symbolic-solves", 3, describe_ml)
    assert [next(first) for _ in range(6)] == [next(second) for _ in range(6)]


def test_wrong_scalar_torsion_is_caught():
    req = next(wl.requests("point-solves", 1))
    outcome = wl.run_in_process(req)
    assert wl.check(req, outcome, seed=1) is None
    good = wl.computed(outcome.out, "torsion.tau0")
    bad = str(Fraction(good) + 1)
    outcome.out = outcome.out.replace(f"computed: {good}\n",
                                      f"computed: {bad}\n", 1)
    assert wl.check(req, outcome, seed=1) is not None


def test_evaluate_rendered_scalars():
    point = {"a": Fraction(2), "q": Fraction(1, 3)}
    assert wl.evaluate("(3*a^2 - q)/(a*q)", point) == Fraction(35, 2)
    assert wl.evaluate("-6/7*q^2 + 1", point) == Fraction(57, 63)
    with pytest.raises(ValueError):
        wl.evaluate("a.denominator", point)


def test_tracing_keeps_report_bytes_and_restores_the_package():
    from splitg2 import cli, g2, kernels

    req = next(wl.requests("point-solves", 2))
    plain = wl.run_in_process(req).out
    originals = (cli.main, g2.hodge_star, kernels.poly_mul)
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert cli.main is not originals[0]
        traced = wl.run_in_process(req).out
    finally:
        tracer.uninstall()
    assert traced == plain
    assert (cli.main, g2.hodge_star, kernels.poly_mul) == originals
    m = layers.metrics(layers.merge([tracer.snapshot()]))
    assert m["cli.self_s"] > 0
    assert m["g2.hodge_star.calls"] == 39
    assert m["scalars.poly_mul.term_products"] > 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    tracer = layers.Tracer()
    tracer.install()
    tracer.uninstall()
    per_layer = set(layers.metrics(layers.merge([tracer.snapshot()])))
    per_layer |= {"trace.overhead_frac", "trace.requests",
                  "scalars.compiled_lane"}
    assert per_layer == {m["name"] for m in spec["per_layer"]}
    timed = run.timed_run("point-solves", 0, 0.3)
    assert set(timed["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert not timed["failures"]


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(wl.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "point-solves",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_calibrator_scales_and_drops_its_own_time():
    from calibrate import REFERENCE_S, Calibrator

    cal = Calibrator()
    # samples at t = 0, 1, 2, 3; the kernel ran at half speed at 1 and 2
    cal.begins = [0.0, 1.0, 2.0, 3.0]
    cal.timed = [0.01, 1.01, 2.01, 3.01]
    cal.ends = [0.02, 1.02, 2.02, 3.02]
    cal.seconds = [REFERENCE_S, 2 * REFERENCE_S, 2 * REFERENCE_S, REFERENCE_S]
    cal.spent = [0.02] * 4
    # a request from 0.5 to 2.5 saw the samples at 0, 1, 2 and 3 around it
    assert cal.scale(0.5, 2.5) == pytest.approx(4 / 6)
    assert cal.busy(0.5, 2.5) == pytest.approx(0.04)
    assert cal.correct(0.5, 2.0) == pytest.approx((2.0 - 0.04) * 4 / 6)
    # an in-process request between two samples sees only those two
    assert cal.scale(0.05, 0.9) == pytest.approx(2 / 3)
