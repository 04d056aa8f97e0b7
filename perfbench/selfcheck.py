#!/usr/bin/env python3
"""Checks that the benchmark's tracing measures what it claims to.

    python3 perfbench/selfcheck.py [--seed N]

1. Attribution: the three largest span self times of a traced
   `verify-paper --seed N` are the three largest of a cProfile run of
   the same request.  cProfile's own time is folded into spans the way a
   span counts it: the own time of a function the tracer does not wrap
   goes to its callers, in proportion to the time each caller spent in
   it, until it reaches a wrapped function.  Built-in calls are not
   profiled; like the tracer, cProfile then counts them in the caller's
   own time, and its per-call cost stays off the many short built-ins.
2. Layer separation: on point-solves, exterior.wedge + g2.hodge_star self
   time exceeds scalars.poly_mul self time; on symbolic-solves the
   reverse holds.
3. Exact counts: two traced passes over the same requests give the same
   work counters.

Prints one JSON object and exits with 1 when a check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import io
import json
import os
import pstats
import sys

import layers
import run
import workloads as wl

_COUNTS = ("scalars.poly_mul.calls", "scalars.poly_mul.term_products",
           "exterior.wedge.calls", "exterior.wedge.term_pairs",
           "g2.hodge_star.calls", "g2.hodge_star.repeat_frac",
           "linalg.peak_entry_terms", "linalg.poly_combine.calls",
           "linalg.fraction_combine.calls")


def _code_key(fn):
    fn = getattr(fn, "__func__", fn)
    fn = getattr(fn, "__wrapped__", fn)  # lru_cache
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def folded_self_times(stats: pstats.Stats) -> dict:
    """Own time per span name, folded gprof-style from a cProfile run."""
    spans = {}
    for name, owner, attr, _ in layers.Tracer().targets():
        spans[_code_key(owner.__dict__[attr])] = name
    table = stats.stats

    memo: dict = {}

    def context(func, visiting):
        """Share of `func`'s time owed to each span, as {span: weight}."""
        if func in spans:
            return {spans[func]: 1.0}
        if func in memo:
            return memo[func]
        callers = table.get(func, (0, 0, 0, 0, {}))[4]
        total = sum(edge[3] for edge in callers.values())
        out: dict = {}
        if total > 0:
            visiting = visiting | {func}
            for caller, edge in callers.items():
                if caller in visiting:
                    continue
                for span, w in context(caller, visiting).items():
                    out[span] = out.get(span, 0.0) + w * edge[3] / total
        memo[func] = out
        return out

    folded: dict = {}
    for func, (_, _, tt, _, callers) in table.items():
        if func in spans:
            folded[spans[func]] = folded.get(spans[func], 0.0) + tt
            continue
        for caller, edge in callers.items():
            for span, w in context(caller, {func}).items():
                folded[span] = folded.get(span, 0.0) + w * edge[2]
    return folded


def ranked(times: dict, n: int) -> list:
    return [name for name, _ in sorted(times.items(), key=lambda kv: -kv[1])[:n]]


def check_attribution(seed: int) -> dict:
    req = wl.Request("replay", ("verify-paper", "--seed", str(seed)))
    traced = wl.run_cold(req, traced=True)
    if traced.rc != 0 or traced.trace is None:
        raise run.BenchError("traced verify-paper failed")
    trace_self = {n: s[1] for n, s in traced.trace["spans"].items()}

    from splitg2 import cli

    profile = cProfile.Profile(builtins=False)
    with contextlib.redirect_stdout(io.StringIO()):
        profile.enable()
        rc = cli.main(list(req.argv))
        profile.disable()
    if rc != 0:
        raise run.BenchError("profiled verify-paper failed")
    prof_self = folded_self_times(pstats.Stats(profile))
    # the fourth place is shown to judge how close the third one is
    trace_top, prof_top = ranked(trace_self, 4), ranked(prof_self, 4)
    return {"ok": set(trace_top[:3]) == set(prof_top[:3]),
            "trace_self_s": {n: round(trace_self[n], 4) for n in trace_top},
            "cprofile_self_s": {n: round(prof_self[n], 4) for n in prof_top}}


def _traced_metrics(workload: str, seed: int, count: int) -> dict:
    res = run._pass_in_child(workload, seed, count, traced=True)
    if res["failed"]:
        raise run.BenchError(f"{workload}: {res['failed']} requests failed")
    return layers.metrics(layers.merge([res["trace"]]))


def check_separation(seed: int) -> dict:
    out = {}
    for workload, count, exterior_wins in (("point-solves", 30, True),
                                           ("symbolic-solves", 3, False)):
        m = _traced_metrics(workload, seed, count)
        ext = m["exterior.wedge.self_s"] + m["g2.hodge_star.self_s"]
        poly = m["scalars.poly_mul.self_s"]
        out[workload] = {"ok": (ext > poly) == exterior_wins,
                         "wedge_plus_hodge_self_s": round(ext, 4),
                         "poly_mul_self_s": round(poly, 4)}
    return out


def check_counts(seed: int) -> dict:
    first = _traced_metrics("symbolic-solves", seed, 2)
    second = _traced_metrics("symbolic-solves", seed, 2)
    counts = {name: first[name] for name in _COUNTS}
    return {"ok": counts == {name: second[name] for name in _COUNTS},
            "counts": counts}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    try:
        run.import_package()
        result = {"attribution": check_attribution(args.seed),
                  "separation": check_separation(args.seed),
                  "counts": check_counts(args.seed),
                  "env": run.env_stamp(len(os.sched_getaffinity(0)))}
    except run.BenchError as exc:
        print(f"selfcheck error: {exc}", file=sys.stderr)
        return 2
    ok = (result["attribution"]["ok"] and result["counts"]["ok"]
          and all(v["ok"] for v in result["separation"].values()))
    result["ok"] = ok
    print(json.dumps(result, indent=2))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
