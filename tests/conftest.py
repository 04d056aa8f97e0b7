"""Shared test helpers: random exact scalars, a dense reference eliminator
used as an independent oracle for the sparse linear algebra, and a runner
for the command in a child process."""

import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from splitg2 import catalog, scalars

ALPHABET = ("a", "p", "q")
SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(*argv, stdin=None, timeout=120, env=None):
    """`python ARGV` in a child process that imports the package from this
    checkout's `src`, installed or not, with the variables of `env` set
    on top of this process's environment.  Text goes in and out as UTF-8,
    the encoding of the package's reports."""
    env = {**os.environ, **(env or {})}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC),
                                                      env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *argv], input=stdin, env=env,
                          capture_output=True, encoding="utf-8",
                          timeout=timeout)


def run_splitg2(*argv, stdin=None, timeout=120):
    """`python -m splitg2 ARGV` in a child process, as `run_python`."""
    return run_python("-m", "splitg2", *argv, stdin=stdin, timeout=timeout)


def slice_document(slope: int) -> str:
    """The Ml scenario document restricted to the slice p = slope*a."""
    lines = []
    for line in catalog.scenario("Ml").text().splitlines():
        if line.startswith("name:"):
            line = f"name: Ml slice p = {slope}*a"
        elif line.startswith("alphabet:"):
            line = "alphabet: a q"
        elif line.startswith("exclude: p "):
            continue
        elif line.startswith("phi:"):
            line = re.sub(r"\bp\b", f"({slope}*a)", line)
        lines.append(line)
    return "\n".join(lines) + "\n"


def sliced_phi(sc, substitutions):
    """The structure family of `sc` on a parameter slice, over the leftover
    alphabet: the substitutions, expressions in the remaining parameters,
    are applied textually to the solution relations.  An independent
    route to the sliced family, next to `catalog.restrict_form`."""
    alphabet = tuple(p for p in sc.alphabet if p not in substitutions)
    relations = {
        name: catalog.substitute_parameters(expr, substitutions)
        for name, expr in sc.expected.solution_relations.items()
    }
    return catalog.family_combination(sc.expected.form_family, relations,
                                      alphabet)


def random_fraction(rng, height=9, nonzero=False):
    while True:
        value = Fraction(rng.randint(-height, height), rng.randint(1, height))
        if value or not nonzero:
            return value


def random_polynomial(rng, alphabet=ALPHABET, max_terms=4, max_exp=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exp = tuple(rng.randint(0, max_exp) for _ in alphabet)
        terms[exp] = terms.get(exp, 0) + random_fraction(rng)
    return scalars.Polynomial.from_terms(alphabet, terms)


def random_scalar(rng, alphabet=ALPHABET, nonzero=False):
    """Random rational function (possibly a plain polynomial value)."""
    while True:
        num = random_polynomial(rng, alphabet)
        den = random_polynomial(rng, alphabet, max_terms=2, max_exp=2)
        if den.is_zero():
            den = scalars.Polynomial.constant(alphabet, 1)
        value = scalars.RationalFunction.make(num, den)
        if value or not nonzero:
            return value


def dense_rref(matrix):
    """Reference row reduction over Fractions: returns (rank, rref rows).

    Written independently of splitg2._linalg on purpose: dense lists,
    plain division, leftmost pivot selection.
    """
    rows = [list(map(Fraction, row)) for row in matrix]
    if not rows:
        return 0, []
    cols = len(rows[0])
    rank = 0
    for col in range(cols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col]
        rows[rank] = [v / inv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank, rows


def dense_kernel(matrix, width):
    """Reference kernel basis from the dense rref, one vector per free
    column, unit entry at the free column."""
    rank, rows = dense_rref(matrix)
    pivots = {}
    for r in range(rank):
        for c in range(width):
            if rows[r][c] != 0:
                pivots[c] = r
                break
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * width
        vec[fc] = Fraction(1)
        for pc, pr in pivots.items():
            vec[pc] = -rows[pr][fc]
        basis.append(vec)
    return basis


@pytest.fixture
def rng():
    return random.Random(20260815)
