"""The benchmark tracer (perfbench/layers.py) rebinds package attributes
by name; every one it names must still exist, or a traced benchmark run
dies with KeyError."""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def test_tracer_targets_exist():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = [(name, attr) for name, owner, attr, _ in layers.Tracer().targets()
               if attr not in owner.__dict__]
    assert missing == []


def test_tracer_leaves_warm_reports_unchanged(capsys):
    """The traced benchmark run reads the package's types through the
    tracer's counters (form terms, metric matrices); a warm point request
    and a warm `--vol-scale` request must give the same bytes traced as
    untraced, with no wrapped call raising."""
    from splitg2 import cli

    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    requests = (["torsion", "--scenario", "Ml", "--set", "a=1", "--set", "p=2",
                 "--set", "q=3"],
                ["torsion", "--scenario", "Ml", "--vol-scale", "2"])

    def run(argv):
        code = cli.main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    plain = [run(argv) for argv in requests]
    tracer = layers.Tracer()
    tracer.install()
    try:
        traced = [run(argv) for argv in requests]
    finally:
        tracer.uninstall()
    assert [code for code, _, _ in plain] == [0, 0]
    assert traced == plain
    assert all(n == 0 for n in tracer.errors.values()), tracer.errors
