"""Print a digest line for each command of a fixed list, to check that
two trees give byte-identical output.

    python3 tools/output_matrix.py [ROOT]
    python3 tools/output_matrix.py --against OTHER_ROOT [ROOT]

runs every command of `commands()` through `splitg2.cli.main` of the
package under ROOT/src (default: this checkout), in order and in one
process, so that later requests read the eliminations earlier ones
cached.  For each it prints one line: the exit code, the sha256 of
stdout, the sha256 of stderr and the argv, followed by `< label` when
the command reads a document on stdin.  Equal lines mean equal bytes.

With --against, it runs the matrix of each tree in its own interpreter
and prints only the lines that differ, each as a pair: `-` and the line
of OTHER_ROOT, then `+` and the line of ROOT.  It exits 1 when any line
differs, 0 when none does and 2 when a matrix cannot be run; a summary
goes to stderr.

The list covers every subcommand: torsion solves of both builtin
scenarios at a range of volume scales and at points, in text and JSON;
verify-paper at several seeds and scales and with corrupted structure
constants; invariants, growth and describe; torsion on scenario
documents (the describe documents, also at points, an incompatible
metric, seeded slices p = k*a of Ml and the slice p = -2*a, on which
tau1 and tau2 vanish, Ml documents with one bracket shifted by a rational or
symbolic amount, and after those the unshifted Ml document and a slice
again); and five rejected command lines.  The documents are built here
from the tree's own `describe` output.  Standard library only.
"""

import argparse
import contextlib
import hashlib
import io
import random
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

SCALES = (None, "1", "2", "7/3", "1/5", "9/2", "3/8", "11/7", "13", "5/3", "1/4")


def run(argv, stdin=None):
    """(exit code, stdout, stderr) of one command line through `cli.main`
    in this process, with `stdin` as standard input."""
    from splitg2 import cli

    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def line(command) -> str:
    """The digest line of one (argv, label, stdin) command."""
    argv, label, stdin = command
    code, out, err = run(argv, stdin)
    digest = [hashlib.sha256(s.encode("utf-8", "surrogateescape")).hexdigest()
              for s in (out, err)]
    text = f"{code} {digest[0]} {digest[1]} {shlex.join(argv)}"
    return text + (f" < {label}" if label else "")


def slice_document(ml: str, slope: Fraction) -> str:
    """The Ml document `ml` restricted to the slice p = slope*a."""
    lines = []
    for text in ml.splitlines():
        if text.startswith("name:"):
            text = f"name: Ml slice p = {slope}*a"
        elif text.startswith("alphabet:"):
            text = "alphabet: a q"
        elif text.startswith("exclude: p "):
            continue
        elif text.startswith("phi:"):
            text = re.sub(r"\bp\b", f"({slope}*a)", text)
        lines.append(text)
    return "\n".join(lines) + "\n"


def shift_bracket(doc: str, n: int, shift: str) -> str:
    """`doc` with the coefficient of its n-th bracket line (from 1)
    shifted by `shift`."""
    lines = doc.splitlines()
    at = [i for i, text in enumerate(lines) if text.startswith("bracket:")][n - 1]
    head, coeff = lines[at].rsplit(" ", 1)
    lines[at] = f"{head} ({coeff})+({shift})"
    return "\n".join(lines) + "\n"


def _scaled(argv, scale, fmt):
    argv = list(argv)
    if scale is not None:
        argv += ["--vol-scale", scale]
    return argv + (["--format", "json"] if fmt == "json" else [])


def commands() -> list:
    """The fixed command list, as (argv, label, stdin) triples."""
    out = []

    def add(*argv, label=None, stdin=None):
        out.append((list(argv), label, stdin))

    formats = ("text", "json")
    for name in ("Ml", "Ms"):
        for scale in SCALES:
            for fmt in formats:
                add(*_scaled(["torsion", "--scenario", name], scale, fmt))
    for fmt in formats:
        add(*_scaled(["torsion", "--scenario", "Ml", "--set", "a=1", "--set", "p=2",
                      "--set", "q=3"], "5/2", fmt))
        add(*_scaled(["torsion", "--scenario", "Ms", "--set", "q=2"], "5/2", fmt))
    for seed in ("0", "1", "5"):
        add("verify-paper", "--seed", seed)
    for fmt in formats:
        add(*_scaled(["verify-paper", "--seed", "2"], "3", fmt))
    add("verify-paper", "--scenario", "Ms", "--vol-scale", "1/4")
    add("verify-paper", "--scenario", "Ml", "--vol-scale", "7/3", "--seed", "11",
        "--format", "json")
    docs = {name: run(["describe", "--scenario", name])[1] for name in ("Ml", "Ms")}
    for name, doc in docs.items():
        for scale in ("1", "2", "5/3"):
            for fmt in formats:
                add(*_scaled(["torsion", "--input", "-"], scale, fmt),
                    label=f"describe {name}", stdin=doc)
    points = {"Ml": ("--set", "a=1", "--set", "p=2", "--set", "q=3"),
              "Ms": ("--set", "q=2")}
    for name, doc in docs.items():
        for scale in ("1", "5/2"):
            for fmt in formats:
                add(*_scaled(["torsion", "--input", "-", *points[name]], scale, fmt),
                    label=f"describe {name}", stdin=doc)
    incompatible = docs["Ml"].replace("metric: 4 4 1\n", "metric: 4 4 2\n", 1)
    for scale in ("1", "2"):
        add("torsion", "--input", "-", "--vol-scale", scale,
            label="Ml with metric: 4 4 2", stdin=incompatible)
    rng = random.Random(23)
    for _ in range(4):
        slope = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        scale = str(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        for fmt in formats:
            add(*_scaled(["torsion", "--input", "-"], scale, fmt),
                label=f"Ml slice p = {slope}*a", stdin=slice_document(docs["Ml"], slope))
    for fmt in formats:
        add(*_scaled(["torsion", "--input", "-"], None, fmt),
            label="Ml slice p = -2*a", stdin=slice_document(docs["Ml"], Fraction(-2)))
    for scale in ("2", "13", "1"):
        add("torsion", "--scenario", "Ml", "--vol-scale", scale)
    add("verify-paper", "--seed", "9")
    for corrupt in ("1,5,1", "1,3,8", "2,9,5", "4,10,9"):
        add("verify-paper", "--corrupt", corrupt)
    for name in ("Ml", "Ms"):
        for fmt in formats:
            add(*_scaled(["invariants", "--scenario", name], None, fmt))
    add("invariants", "--scenario", "Ml", "--kind", "3-form")
    add("growth")
    add("growth", "--format", "json")
    add("growth", "D_l1", "D_s2")
    for name in ("Ml", "Ms", "sp2"):
        add("describe", "--scenario", name)
    add("describe", "--input", "-", label="describe Ml", stdin=docs["Ml"])
    for n in (1, 8):
        for shift in ("1", "-3/2", "a", "(a+1)/(q-2)"):
            doc = shift_bracket(docs["Ml"], n, shift)
            for command in ("torsion", "invariants", "describe"):
                add(command, "--input", "-", stdin=doc,
                    label=f"Ml with bracket line {n} shifted by {shift}")
    # the unshifted table again, after the failing ones: a Jacobi verdict
    # or a cached column carried over from another table changes a digest
    for fmt in formats:
        add(*_scaled(["torsion", "--input", "-"], "2", fmt),
            label="describe Ml", stdin=docs["Ml"])
    add("invariants", "--input", "-", label="describe Ml", stdin=docs["Ml"])
    add("torsion", "--input", "-", "--vol-scale", "3/2",
        label="Ml slice p = -2/3*a", stdin=slice_document(docs["Ml"], Fraction(-2, 3)))
    add("torsion", "--scenario", "Mx")
    add("verify-paper", "--seed", "1_0")
    add("verify-paper", "--set", "a=1")
    add("invariants", "--scenario", "Ml", "--format", "yaml")
    add("describe", "--input", "-", label="bad header",
        stdin="format: splitg2-scenario 9\n")
    return out


def differing(ours: list, theirs: list) -> list:
    """The `-`/`+` pairs of the positions at which two matrices differ,
    `theirs` first; a position one matrix lacks reads as `(missing)`."""
    out = []
    for at in range(max(len(ours), len(theirs))):
        mine = ours[at] if at < len(ours) else "(missing)"
        other = theirs[at] if at < len(theirs) else "(missing)"
        if mine != other:
            out += [f"- {other}", f"+ {mine}"]
    return out


def matrix_of(root: Path) -> list:
    """The matrix lines of the tree at `root`, from a fresh interpreter
    running this file on it."""
    done = subprocess.run([sys.executable, __file__, str(root)],
                          capture_output=True, text=True)
    if done.returncode:
        print(f"output_matrix.py: the matrix of {root} failed "
              f"(exit {done.returncode}):\n{done.stderr}", end="", file=sys.stderr)
        raise SystemExit(2)
    return done.stdout.splitlines()


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="output_matrix.py")
    parser.add_argument("root", nargs="?", type=Path,
                        default=Path(__file__).resolve().parents[1])
    parser.add_argument("--against", type=Path, metavar="OTHER_ROOT")
    args = parser.parse_args(argv[1:])
    if not (args.root / "src" / "splitg2").is_dir():
        parser.error(f"no package sources under {args.root / 'src'}")
    if args.against is None:
        sys.path.insert(0, str(args.root / "src"))
        for command in commands():
            print(line(command))
        return 0
    ours, theirs = matrix_of(args.root), matrix_of(args.against)
    diff = differing(ours, theirs)
    for text in diff:
        print(text)
    print(f"{len(diff) // 2} of {max(len(ours), len(theirs))} lines differ",
          file=sys.stderr)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
