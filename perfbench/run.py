#!/usr/bin/env python3
"""The splitg2 benchmark: one closed-loop client, one request at a time.

    python3 perfbench/run.py --workload point-solves --seed 1 --seconds 30 --trace 0

With --trace 0 it measures the end-to-end metrics of one workload for
--seconds seconds; with --trace 1 it runs a fixed, seeded list of the
same requests once untraced and once traced, each in a fresh process,
and reports the per-layer metrics and the tracing overhead.  Timings
are corrected for contention on the core (calibrate.py).  The last line
of stdout is the result as JSON; the lines before it print every metric
with its unit, its uncorrected value, and the environment stamp.  See
README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import workloads as wl
from calibrate import Calibrator, pin_to_one_cpu

SETUP_SAMPLES = 7
# Requests per second of --seconds in a traced run, chosen so that the
# untraced and the traced pass together take about --seconds at HEAD.
TRACE_RATE = {"paper-replay": 0.1, "point-solves": 5.0, "symbolic-solves": 0.5}

SETUP_SNIPPET = """
import time
t0 = time.perf_counter()
import splitg2
from splitg2 import catalog, liealg
catalog.scenario("Ml")
catalog.scenario("Ms")
liealg.sp2_build()
print(time.perf_counter() - t0)
"""


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, broken set-up)."""


def import_package():
    """Import splitg2 from this checkout's src/, never from elsewhere."""
    init = wl.SRC / "splitg2" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no package sources at {init.parent}")
    sys.path.insert(0, str(wl.SRC))
    import splitg2

    if os.path.realpath(splitg2.__file__) != os.path.realpath(init):
        raise BenchError(f"splitg2 imported from {splitg2.__file__}")
    return splitg2


def env_stamp(nproc: int) -> dict:
    from splitg2 import kernels

    return {"lane": kernels.backend_name(),
            "python": platform.python_version(),
            "git_rev": _git_rev(),
            "nproc": nproc}


def _git_rev() -> str:
    git = wl.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(cal: Calibrator) -> tuple:
    """Median import-and-build time over fresh interpreters: (corrected, raw)."""
    raw, corrected = [], []
    for _ in range(SETUP_SAMPLES):
        cal.sample()
        outcome, err = wl.spawn([sys.executable, "-c", SETUP_SNIPPET], cal,
                                capture_err=True)
        if outcome.rc != 0:
            raise BenchError("set-up failed: " + err.strip()[-500:])
        raw.append(float(outcome.out.strip().splitlines()[-1]))
        end = outcome.start + outcome.wall_s
        corrected.append((raw[-1] - cal.busy(outcome.start, end))
                         * cal.scale(outcome.start, end))
    return statistics.median(corrected), statistics.median(raw)


def tail(samples: list) -> tuple:
    """(value, percentile): the highest percentile with at least ten
    samples beyond it.  Below 21 samples that percentile would not reach
    the median, so the slowest sample stands in for the tail."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _describe_ml() -> str:
    out = wl.run_in_process(wl.Request("describe", ("describe", "--scenario", "Ml")))
    if out.rc != 0:
        raise BenchError("describe --scenario Ml failed")
    return out.out


def _warm_up(workload: str, seed: int) -> list:
    """Build the catalogue and run the checked warm-up requests."""
    from splitg2 import catalog, liealg

    catalog.scenario("Ml")
    catalog.scenario("Ms")
    liealg.sp2_build()
    failures = []
    for req in wl.WARMUP.get(workload, ()):
        reason = wl.check(req, wl.run_in_process(req), seed)
        if reason:
            failures.append((req, reason))
    return failures


# -- untraced run ----------------------------------------------------------------


def timed_run(workload: str, seed: int, seconds: float) -> dict:
    cal = Calibrator()
    setup_s, setup_raw = measure_setup(cal)
    cold = workload == "paper-replay"
    failures = [] if cold else _warm_up(workload, seed)
    warm_count = 0 if cold else len(wl.WARMUP.get(workload, ()))
    stream = wl.requests(workload, seed, "" if cold else _describe_ml())

    done = []
    cal.sample()
    start = perf_counter()
    while perf_counter() - start < seconds:
        cal.maybe_sample()
        req = next(stream)
        done.append((req, wl.run_cold(req, cal=cal) if cold
                     else wl.run_in_process(req)))
    elapsed = perf_counter() - start
    cal.sample()

    for req, outcome in done:
        reason = wl.check(req, outcome, seed)
        if reason:
            failures.append((req, reason))
    n = len(done)
    outcomes = [o for _, o in done]
    scales = [cal.scale(o.start, o.start + o.wall_s) for o in outcomes]
    walls = [cal.correct(o.start, o.wall_s) for o in outcomes]
    cpu = sum(o.cpu_s * k for o, k in zip(outcomes, scales))
    if cold:
        peak_kb = max(o.maxrss_kb for o in outcomes)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tail_s, tail_pct = tail(walls)
    attempted = n + warm_count
    raw_walls = [o.wall_s for o in outcomes]
    return {
        "attempted": attempted,
        "failures": failures,
        "metrics": {
            "setup_s": (setup_s, "s"),
            "latency_p50_s": (statistics.median(walls), "s"),
            "latency_tail_s": (tail_s, "s"),
            "throughput_per_s": (n / sum(walls), "1/s"),
            "cpu_per_request_s": (cpu / n, "s"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
        },
        "info": {
            "setup_s": f"median of {SETUP_SAMPLES} fresh interpreters; "
                       f"uncorrected {setup_raw:.4g} s",
            "latency_p50_s": f"uncorrected {statistics.median(raw_walls):.4g} s",
            "latency_tail_s": f"p{tail_pct:.1f} of {n} timed requests"
                              + (" (slowest; 20 or fewer samples)"
                                 if tail_pct == 100.0 else "")
                              + f"; uncorrected {tail(raw_walls)[0]:.4g} s",
            "throughput_per_s": f"uncorrected {n / elapsed:.4g} 1/s "
                                f"over {elapsed:.1f} s",
            "cpu_per_request_s": "uncorrected "
                                 f"{sum(o.cpu_s for o in outcomes) / n:.4g} s",
            "error_rate": f"{len(failures) / attempted:.4g} "
                          f"({len(failures)}/{attempted} requests)",
            "contention": f"median correction x{statistics.median(scales):.3f} "
                          f"from {len(cal.seconds)} kernel samples",
        },
    }


# -- traced run --------------------------------------------------------------------


def fixed_pass(workload: str, seed: int, count: int, traced: bool) -> dict:
    """Warm up, then run the first `count` requests; used in a fresh process."""
    import layers

    failures = _warm_up(workload, seed)
    stream = wl.requests(workload, seed, _describe_ml())
    reqs = [next(stream) for _ in range(count)]
    cal = Calibrator()
    tracer = layers.Tracer()
    if traced:
        tracer.install()
    done = []
    for req in reqs:
        cal.maybe_sample()
        done.append((req, wl.run_in_process(req)))
    tracer.uninstall()
    cal.sample()
    for req, outcome in done:
        reason = wl.check(req, outcome, seed)
        if reason:
            failures.append((req, reason))
    return {"wall_s": _corrected_total(cal, [o for _, o in done]),
            "attempted": count + len(wl.WARMUP.get(workload, ())),
            "failed": len(failures),
            "trace": tracer.snapshot() if traced else None}


def _corrected_total(cal: Calibrator, outcomes: list) -> float:
    return sum(cal.correct(o.start, o.wall_s) for o in outcomes)


def _pass_in_child(workload: str, seed: int, count: int, traced: bool) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--pass", "traced" if traced else "plain",
           "--count", str(count)]
    proc = subprocess.run(cmd, stdin=subprocess.DEVNULL, capture_output=True,
                          text=True, cwd=wl.ROOT)
    if proc.returncode != 0:
        raise BenchError("pass failed: " + proc.stderr.strip()[-500:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    import layers

    count = max(1, round(seconds * TRACE_RATE[workload]))
    if workload == "paper-replay":
        stream = wl.requests(workload, seed)
        reqs = [next(stream) for _ in range(count)]
        cal = Calibrator()
        plain, traced = [], []
        for outcomes, is_traced in ((plain, False), (traced, True)):
            for req in reqs:
                cal.sample()
                outcomes.append(wl.run_cold(req, traced=is_traced, cal=cal))
        cal.sample()
        failed = sum(wl.check(req, o, seed) is not None
                     for req, o in zip(reqs, plain))
        failed += sum(wl.check(req, o, seed) is not None or o.trace is None
                      for req, o in zip(reqs, traced))
        snapshots = [o.trace for o in traced if o.trace is not None]
        plain_s = _corrected_total(cal, plain)
        traced_s = _corrected_total(cal, traced)
        attempted = 2 * count
    else:
        plain = _pass_in_child(workload, seed, count, traced=False)
        traced = _pass_in_child(workload, seed, count, traced=True)
        failed = plain["failed"] + traced["failed"]
        snapshots = [traced["trace"]]
        plain_s, traced_s = plain["wall_s"], traced["wall_s"]
        attempted = plain["attempted"] + traced["attempted"]
    metrics = layers.metrics(layers.merge(snapshots))
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1
    metrics["trace.requests"] = count
    from splitg2 import kernels

    metrics["scalars.compiled_lane"] = int(kernels.backend_name() != "py")
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


# -- entry point ---------------------------------------------------------------------


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one pass of a traced run, in a fresh process
    parser.add_argument("--pass", dest="pass_", choices=("plain", "traced"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--count", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.pass_ and (args.workload == "paper-replay" or args.count < 1):
        parser.error("--pass needs a warm workload and --count >= 1")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    nproc = pin_to_one_cpu()
    try:
        import_package()
        if args.pass_:
            print(json.dumps(fixed_pass(args.workload, args.seed, args.count,
                                        args.pass_ == "traced")))
            return 0
        stamp = env_stamp(nproc)
        if args.trace:
            res = traced_run(args.workload, args.seed, args.seconds)
            units = {name: "s" if name.endswith("_s") else
                     "fraction" if name.endswith("_frac") else "count"
                     for name in res["metrics"]}
            metrics = {name: (value, units[name])
                       for name, value in res["metrics"].items()}
            failed, info = res["failed"], {}
        else:
            res = timed_run(args.workload, args.seed, args.seconds)
            metrics, info = res["metrics"], res["info"]
            failed = len(res["failures"])
            for req, reason in res["failures"]:
                print(f"FAILED {' '.join(req.argv)}: {reason}", file=sys.stderr)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    print(f"workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}: {res['attempted']} requests, {failed} failed")
    for name, (value, unit) in metrics.items():
        note = f"  ({info[name]})" if name in info else ""
        print(f"  {name:<36} {value:.6g} {unit}{note}")
    for name in info.keys() - metrics.keys():
        print(f"  {name:<36} {info[name]}")
    print("env " + json.dumps(stamp, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
