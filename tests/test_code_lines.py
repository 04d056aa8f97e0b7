"""The code-line counter in tools/code_lines.py."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

SNIPPET = '''\
"""Module docstring,
over two lines."""

import os  # a trailing comment


def f(x):
    """Function docstring."""
    # a comment line
    return (x +
            os.sep)
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docstrings_comments_and_blanks_do_not_count():
    tool = load_tool()
    # import, def and the two lines of the return expression
    assert tool.code_lines(SNIPPET) == 4
    # a string that is part of a statement is code; one or a run of
    # strings that form a whole logical line is a docstring
    assert tool.code_lines('x = """a\nb"""\n') == 2
    assert tool.code_lines('"""a"""\n"b" "c"\nprint("d")\n') == 1


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("y = 1\n")
    assert load_tool().main(["code_lines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["4", "a.py", "1", "b.py", "5", "total"]
