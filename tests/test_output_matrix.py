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


def fabricated(n, digest="a"):
    return [f"0 {digest * 64} {'b' * 64} torsion --scenario Ml --set a={k}"
            for k in range(n)]


def test_identical_matrices_differ_nowhere():
    tool = load_tool()
    assert tool.differing(fabricated(5), fabricated(5)) == []
    assert tool.differing([], []) == []


def test_each_differing_line_is_a_pair_the_other_tree_first():
    tool = load_tool()
    ours, theirs = fabricated(4), fabricated(4)
    ours[2] = ours[2].replace("0 ", "1 ", 1)
    ours[3] = fabricated(4, digest="c")[3]
    assert tool.differing(ours, theirs) == [
        f"- {theirs[2]}", f"+ {ours[2]}", f"- {theirs[3]}", f"+ {ours[3]}"]


def test_a_line_one_matrix_lacks_reads_as_missing():
    tool = load_tool()
    assert tool.differing(fabricated(3), fabricated(2)) == [
        "- (missing)", f"+ {fabricated(3)[2]}"]
    assert tool.differing(fabricated(2), fabricated(3)) == [
        f"- {fabricated(3)[2]}", "+ (missing)"]


def test_against_prints_only_the_difference_and_sets_the_exit_code(
        monkeypatch, capsys, tmp_path):
    tool = load_tool()
    (tmp_path / "ours" / "src" / "splitg2").mkdir(parents=True)
    ours, theirs = tmp_path / "ours", tmp_path / "theirs"
    matrices = {ours: fabricated(3), theirs: fabricated(3)}
    monkeypatch.setattr(tool, "matrix_of", lambda root: matrices[root])
    assert tool.main(["output_matrix.py", "--against", str(theirs), str(ours)]) == 0
    assert capsys.readouterr() == ("", "0 of 3 lines differ\n")
    matrices[ours] = fabricated(3, digest="c")[:1] + fabricated(3)[1:]
    assert tool.main(["output_matrix.py", "--against", str(theirs), str(ours)]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == [f"- {fabricated(3)[0]}",
                                f"+ {fabricated(3, digest='c')[0]}"]
    assert err == "1 of 3 lines differ\n"
