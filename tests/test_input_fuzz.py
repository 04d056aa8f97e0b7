"""Seeded mutation fuzz of scenario documents through the `--input` commands.

Every mutated document must run or be rejected: exit code 0, 1 or 2, at
most one line on stderr, no escaping exception, and a bounded total CPU
time.  The mutations start from the `describe --scenario Ms` document:
dropped, duplicated and swapped lines, one token replaced, one
coefficient nested past the parser's limit or up to it, and `dim` or the
bracket count pushed past its document limit.
"""

import io
import random
import sys
import time

from splitg2 import catalog, scalars, textio
from splitg2.cli import main

SEED = 7
MUTATIONS = 100
COMMANDS = ("torsion", "invariants", "describe")
CPU_BOUND_S = 10.0
TOKENS = ("0", "1", "-1", "2", "3/2", "7", "11", "q", "1/q", "q^65", "z",
          "1/0", "(q", "#", ":", "bracket:", "phi:", "metric:")


def _nested(rng) -> str:
    depth = rng.choice((scalars.MAX_NESTING, scalars.MAX_NESTING + 1, 200, 1000))
    if rng.random() < 0.5:
        return "(" * depth + "q" + ")" * depth
    return "-" * depth + "q"


def _inflated(rng, lines: list) -> list:
    """`dim` past its limit, or at it with one bracket line too many."""
    if rng.random() < 0.5:
        dim = rng.choice((textio.MAX_DIM + 1, 1000, 10 ** 6))
        return [f"dim: {dim}" if line.startswith("dim:") else line
                for line in lines]
    lines = [f"dim: {textio.MAX_DIM}" if line.startswith("dim:") else line
             for line in lines]
    count = textio.MAX_BRACKETS + 1 - sum(line.startswith("bracket:")
                                          for line in lines)
    # pairs past the document's own indices, so that no triple repeats
    pairs = ((j, k) for j in range(1, textio.MAX_DIM + 1)
             for k in range(max(j + 1, 11), textio.MAX_DIM + 1))
    extra = [f"bracket: {j} {k} 1 1" for (j, k), _ in zip(pairs, range(count))]
    at = rng.randrange(len(lines) + 1)
    return lines[:at] + extra + lines[at:]


def _mutate(rng, lines: list) -> list:
    lines = list(lines)
    i = rng.randrange(len(lines))
    kind = rng.randrange(6)
    if kind == 0:
        del lines[i]
    elif kind == 1:
        lines.insert(i, lines[i])
    elif kind == 2:
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == 3:
        tokens = lines[i].split(" ")
        tokens[rng.randrange(len(tokens))] = rng.choice(TOKENS)
        lines[i] = " ".join(tokens)
    elif kind == 4:
        coefficients = [k for k, line in enumerate(lines)
                        if line.startswith(("phi:", "bracket:"))]
        k = rng.choice(coefficients)
        lines[k] = lines[k].rsplit(" ", 1)[0] + " " + _nested(rng)
    else:
        lines = _inflated(rng, lines)
    return lines


def test_mutated_documents_run_or_are_rejected(capsys, monkeypatch):
    rng = random.Random(SEED)
    lines = catalog.scenario("Ms").text().splitlines()
    codes = {0: 0, 1: 0, 2: 0}
    start = time.process_time()
    for n in range(MUTATIONS):
        doc = "\n".join(_mutate(rng, lines)) + "\n"
        for command in COMMANDS:
            monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
            code = main([command, "--input", "-"])
            err = capsys.readouterr().err
            where = f"mutation {n}, {command}:\n{doc}"
            assert code in codes, where
            assert len(err.splitlines()) <= 1, where + err
            codes[code] += 1
    assert time.process_time() - start < CPU_BOUND_S
    # the mutations reach every outcome, not only the parser
    assert all(codes.values()), codes
