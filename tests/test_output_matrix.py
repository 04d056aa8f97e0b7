"""The byte-identity matrix in tools/output_matrix.py."""

import importlib.util
import re
from pathlib import Path

from splitg2 import cli

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_matrix.py"
LINE = re.compile(r"-?\d+ [0-9a-f]{64} [0-9a-f]{64} \S.*")


def load_tool():
    spec = importlib.util.spec_from_file_location("output_matrix", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_command_gives_the_same_well_formed_line_twice():
    tool = load_tool()
    cheap = [c for c in tool.commands()
             if c[0] in (["describe", "--scenario", "sp2"],
                         ["torsion", "--scenario", "Mx"])]
    assert len(cheap) == 2
    for command in cheap:
        first, second = tool.line(command), tool.line(command)
        assert first == second
        assert LINE.fullmatch(first)
        assert first.endswith(" " + " ".join(command[0]))
    assert [tool.line(c).split()[0] for c in cheap] == ["0", "2"]


def test_the_list_names_every_subcommand():
    commands = load_tool().commands()
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    assert {argv[0] for argv, _, _ in commands} >= set(sub.choices)
    assert len(commands) >= 80 + 5 + 5 + 3 + 4
