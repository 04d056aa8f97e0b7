"""Seeded requests for each workload, how to run them, and how to check them.

A request is one `splitg2` command line (plus an optional stdin document).
Warm workloads run it in process through `cli.main`; `paper-replay` runs
it as a fresh `python -m splitg2` subprocess.  A request fails when its
exit code is not 0, when its report holds a `fail` record, when it
differs from a committed reference report, or when the scalar torsion it
prints disagrees with the paper's closed form at a seeded point.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import random
import re
import selectors
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time
from typing import Iterator, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REF = HERE / "ref"

WORKLOADS = ("paper-replay", "point-solves", "symbolic-solves")
HEIGHT = 9  # the height of `cli`'s own sampled points


@dataclass(frozen=True)
class Request:
    kind: str  # "replay", "point", "vol", "slice", "ref" or "describe"
    argv: tuple
    stdin: Optional[str] = None
    point: Optional[tuple] = None    # ((name, Fraction), ...) for "point"
    scale: Optional[Fraction] = None  # volume scale for "vol"
    slope: Optional[Fraction] = None  # k in p -> k*a for "slice"
    ref: Optional[str] = None        # reference file name for "ref"


@dataclass
class Outcome:
    rc: Optional[int]            # None: the command raised instead of exiting
    start: float                 # perf_counter() when the request was sent
    wall_s: float
    cpu_s: float
    out: str
    maxrss_kb: int = 0
    trace: Optional[dict] = None


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


# -- request generation --------------------------------------------------------


def _rational(rng: random.Random, positive: bool = False,
              height: int = HEIGHT) -> Fraction:
    lo = 1 if positive else -height
    return Fraction(rng.randint(lo, height), rng.randint(1, height))


def _fresh(rng: random.Random, seen: set, positive: bool,
           excluded: Fraction) -> Fraction:
    """A rational not drawn before in this stream, so that no symbolic
    request repeats; the height grows once the small ones run out."""
    height = HEIGHT
    while True:
        for _ in range(1000):
            value = _rational(rng, positive, height)
            if value != excluded and value not in seen:
                seen.add(value)
                return value
        height += 1


def _set_args(point) -> tuple:
    out = []
    for name, value in point:
        out += ["--set", f"{name}={value}"]
    return tuple(out)


# Ml excludes a = 0, p = 0 and q = 1.
_ML_EXCLUDED = {"a": Fraction(0), "p": Fraction(0), "q": Fraction(1)}


def _ml_point(rng: random.Random) -> tuple:
    point = []
    for name in ("a", "p", "q"):
        value = _rational(rng)
        while value == _ML_EXCLUDED[name]:
            value = _rational(rng)
        point.append((name, value))
    return tuple(point)


def slice_document(describe_ml: str, slope: Fraction) -> str:
    """The Ml scenario document restricted to the slice p = slope * a."""
    lines = []
    for line in describe_ml.splitlines():
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


def requests(workload: str, seed: int, describe_ml: str = "") -> Iterator[Request]:
    """Endless seeded request stream of one workload."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "paper-replay":
        while True:
            s = rng.randrange(10 ** 6)
            yield Request("replay", ("verify-paper", "--seed", str(s)))
    elif workload == "point-solves":
        while True:
            point = _ml_point(rng)
            yield Request("point", ("torsion", "--scenario", "Ml")
                          + _set_args(point), point=point)
    elif workload == "symbolic-solves":
        # strict alternation keeps every run's mix of the two kinds equal
        scales, slopes = set(), set()
        while True:
            c = _fresh(rng, scales, positive=True, excluded=Fraction(1))
            yield Request("vol", ("torsion", "--scenario", "Ml",
                                  "--vol-scale", str(c)), scale=c)
            k = _fresh(rng, slopes, positive=False, excluded=Fraction(0))
            yield Request("slice", ("torsion", "--input", "-"),
                          stdin=slice_document(describe_ml, k), slope=k)
    else:
        raise ValueError(f"unknown workload {workload!r}")


# Warm-up requests of the warm workloads; each is checked byte for byte
# against perfbench/ref/<ref>, which `python -m splitg2 <argv>` rewrites.
WARMUP = {
    "point-solves": (
        Request("ref", ("torsion", "--scenario", "Ml", "--set", "a=1",
                        "--set", "p=2", "--set", "q=3"),
                ref="torsion-Ml-point.txt"),
    ),
    "symbolic-solves": (
        Request("ref", ("torsion", "--scenario", "Ml", "--vol-scale", "2"),
                ref="torsion-Ml-vol2.txt"),
    ),
}
REPLAY_REF = "verify-paper-seed0.txt"  # python -m splitg2 verify-paper --seed 0


# -- running -------------------------------------------------------------------


def run_in_process(req: Request) -> Outcome:
    """One request through `cli.main` in this interpreter."""
    from splitg2 import cli

    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(req.stdin or "")
    rc = None
    c0, t0 = process_time(), perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(req.argv))
    except Exception:  # a traceback is a failed request, not a crash here
        rc = None
    finally:
        wall, cpu = perf_counter() - t0, process_time() - c0
        sys.stdin = saved
    return Outcome(rc, t0, wall, cpu, out.getvalue())


def spawn(cmd: list, cal=None, capture_err: bool = False):
    """Run a child process to its end; (Outcome, stderr text).

    While it runs, `cal` (a calibrate.Calibrator) keeps sampling.  The
    Outcome carries the child's own CPU time and peak RSS (wait4)."""
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE if capture_err
                            else subprocess.DEVNULL,
                            cwd=ROOT, env=child_env())
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for stream in (proc.stdout, proc.stderr):
            if stream is not None:
                sel.register(stream, selectors.EVENT_READ)
        while sel.get_map():
            if cal is not None and cal.due_in() == 0.0:
                cal.sample()
            for key, _ in sel.select(None if cal is None else cal.due_in()):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = b"".join(chunks[proc.stdout]).decode()
    err = b"".join(chunks.get(proc.stderr, [])).decode()
    return Outcome(proc.returncode, t0, wall, usage.ru_utime + usage.ru_stime,
                   out, maxrss_kb=usage.ru_maxrss), err


def run_cold(req: Request, traced: bool = False, cal=None) -> Outcome:
    """One request as a fresh interpreter.

    Traced requests start through tracecli.py, which prints the report on
    stdout and a trace snapshot as the last stderr line."""
    if traced:
        cmd = [sys.executable, str(HERE / "tracecli.py"), *req.argv]
    else:
        cmd = [sys.executable, "-m", "splitg2", *req.argv]
    outcome, err = spawn(cmd, cal, capture_err=traced)
    lines = err.strip().splitlines()
    if traced and lines:
        try:
            outcome.trace = json.loads(lines[-1])
        except ValueError:
            pass
    return outcome


# -- checking ------------------------------------------------------------------


def evaluate(text: str, point: dict) -> Fraction:
    """Exact value of a rendered scalar such as `(3*a^2 - p)/(a*p)`.

    Independent of the package: a small evaluator over Python's parser."""
    tree = ast.parse(text.replace("^", "**"), mode="eval")

    def ev(node):
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return Fraction(node.value)
        if isinstance(node, ast.Name):
            return point[node.id]
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -ev(node.operand)
        if isinstance(node, ast.BinOp):
            left, right = ev(node.left), ev(node.right)
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            if isinstance(node.op, ast.Div):
                return left / right
            if isinstance(node.op, ast.Pow) and right.denominator == 1:
                return left ** int(right)
        raise ValueError(f"not a rendered scalar: {ast.dump(node)}")

    return ev(tree.body)


def paper_tau0(a: Fraction, p: Fraction, q: Fraction) -> Fraction:
    """The paper's scalar torsion of Ml at volume scale 1."""
    return Fraction(6, 7) * ((2 * a - p) ** 2 * q - (2 * a + p) ** 2) / (a * p)


def computed(report: str, anchor: str) -> Optional[str]:
    """The `computed:` text of the record `anchor` in a text report."""
    lines = report.splitlines()
    for i, line in enumerate(lines):
        if line.endswith(f"] {anchor} :: scalar torsion") and i + 1 < len(lines):
            _, sep, value = lines[i + 1].partition("computed: ")
            return value if sep else None
    return None


def normalize_replay(report: str) -> str:
    """verify-paper text with its seed-dependent parts masked."""
    report = re.sub(r"(?m)^seed: \d+$", "seed: *", report)
    return re.sub(r"pipeline at [^\n]*", "pipeline at *", report)


def _check_tau0(req: Request, report: str, rng: random.Random) -> Optional[str]:
    text = computed(report, "torsion.tau0")
    if text is None:
        return "no scalar torsion record"
    if req.kind == "point":
        point = dict(req.point)
        if Fraction(text) != paper_tau0(point["a"], point["p"], point["q"]):
            return f"tau0 {text} differs from the closed form"
        return None
    # symbolic result: compare with the closed form at a seeded point
    # where no denominator vanishes
    for _ in range(20):
        a, q = _rational(rng, positive=True), _rational(rng, positive=True) + 1
        if req.kind == "vol":
            p = _rational(rng, positive=True)
            want = req.scale * paper_tau0(a, p, q)
            env = {"a": a, "p": p, "q": q}
        else:
            want = paper_tau0(a, req.slope * a, q)
            env = {"a": a, "q": q}
        try:
            got = evaluate(text, env)
        except ZeroDivisionError:
            continue
        return None if got == want else f"tau0 differs from the closed form at {env}"
    return "no admissible check point"


def check(req: Request, outcome: Outcome, seed: int) -> Optional[str]:
    """None when the request's output is correct, else the reason."""
    if outcome.rc != 0:
        return f"exit code {outcome.rc}"
    if re.search(r"(?m)^\[fail\]", outcome.out):
        return "report holds a fail record"
    if req.kind == "replay":
        ref = (REF / REPLAY_REF).read_text()
        if normalize_replay(outcome.out) != normalize_replay(ref):
            return f"differs from ref/{REPLAY_REF}"
        return None
    if req.kind == "ref":
        if outcome.out != (REF / req.ref).read_text():
            return f"differs from ref/{req.ref}"
        return None
    rng = random.Random(f"check:{seed}:{' '.join(req.argv)}:{req.slope}")
    return _check_tau0(req, outcome.out, rng)
