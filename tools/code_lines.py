"""Count the code lines of a Python package.

    python3 tools/code_lines.py [DIR]

prints the code lines of each module under DIR (default `src/splitg2`)
and their total.  A line counts when a token other than a comment, a
newline or indent token, or a docstring lies on it; a docstring is a
string token, or a run of them, that forms a whole logical line.  So
blank lines, comments and docstrings do not count, and an expression
spread over several lines counts every line it covers.  Standard
library only.
"""

import io
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines in `source`."""
    lines, logical = set(), []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIPPED:
            logical.append(tok)
        elif tok.type == tokenize.NEWLINE or tok.type == tokenize.ENDMARKER:
            if any(t.type != tokenize.STRING for t in logical):
                for t in logical:
                    lines.update(range(t.start[0], t.end[0] + 1))
            logical = []
    return len(lines)


def main(argv) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/splitg2")
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
