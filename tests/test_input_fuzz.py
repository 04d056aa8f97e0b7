"""Seeded mutation fuzz of scenario documents through the `--input` commands.

Every mutated document must run or be rejected: exit code 0, 1 or 2, at
most one line on stderr, no escaping exception, and a bounded total CPU
time.  The mutations start from the `describe --scenario Ms` document:
dropped, duplicated and swapped lines, one token replaced, and one
coefficient nested past the parser's limit or up to it.
"""

import io
import random
import sys
import time

from splitg2 import catalog, scalars
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


def _mutate(rng, lines: list) -> list:
    lines = list(lines)
    i = rng.randrange(len(lines))
    kind = rng.randrange(5)
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
    else:
        coefficients = [k for k, line in enumerate(lines)
                        if line.startswith(("phi:", "bracket:"))]
        k = rng.choice(coefficients)
        lines[k] = lines[k].rsplit(" ", 1)[0] + " " + _nested(rng)
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
