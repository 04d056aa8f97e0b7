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
