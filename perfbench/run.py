"""dgtrace benchmark: seeded workloads over the package's layers, checked
exactly, timed end to end (untraced) or per layer (traced).

    python3 perfbench/run.py --workload main_theorem --seed 42 --seconds 20 --trace 0

Run from the root of a checkout.  Every process this starts is a fresh,
single-threaded Python interpreter running perfbench/worker.py; they run one
after another, never in parallel.  The ops run in passes, each a fresh
process that runs the workload's whole op list, repeated while another pass
fits in `--seconds` of measuring.  Set-up is timed in each pass and in
probe processes that stop at the first op, one before each pass and more
after the last.

Every time is taken at a reference CPU speed (speed.py): on a shared host
the speed a process gets changes by up to ~1.8x for spells of milliseconds
to minutes, so raw times of the same code differ that much between runs.
Each worker samples the speed every 20 ms with a fixed piece of Fraction
arithmetic and scales every time span by the speed measured in and around
it.
`wall_s` is the sum over the op list of each op's median time over the
passes; `op_ms_p50`/`op_ms_p90` are percentiles of those per-op times
(one sample per op; the record gives the count), and `ops_per_s` is ops per
second of `wall_s`.  `setup_s` is the median set-up sample and
`peak_rss_mb` the median of the passes' peak RSS.  With `--trace 1` the
run makes one untraced and one traced pass, and no probes, and reports
per-layer metrics instead: counts, and self times as measured;
`trace.overhead_ratio` compares the two passes' wall times.

The last line of stdout is the result JSON; the line before it is the run
record (Python version, nproc, seed, commit, op counts, failures with the
command that replays each).  Both are also written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")
# set-up samples per run: a probe before each pass, each pass's own set-up,
# then probes until there are this many
SETUP_PROBES = 9
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def spawn(args, deadline: float):
    """Run the worker with `args`; (spawn time, last stdout line as JSON)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting " + " ".join(args))
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT,
                              stdout=subprocess.PIPE, timeout=remaining,
                              text=True)
    except subprocess.TimeoutExpired:
        raise BenchError("worker timed out: " + " ".join(args)) from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}")
    return t0, json.loads(lines[-1])


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q of the
    sample at or below it."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def git_commit():
    """The checkout's commit from .git, or None outside a git checkout."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def measure(workload: str, seed: int, seconds: float, trace: bool,
            limit, deadline: float):
    base = [workload, str(seed)]
    if limit is not None:
        base += ["--limit", str(limit)]
    setups, passes, traced = [], [], None

    def setup_s(t0, res):
        return (res.pop("ready") - t0 - res["ready_own_s"]) * res["ready_factor"]

    def probe():
        setups.append(setup_s(*spawn(["setup", workload, str(seed)], deadline)))

    def one_pass(extra):
        t0, res = spawn(["pass", *base, *extra], deadline)
        res["setup_s"] = setup_s(t0, res)
        setups.append(res["setup_s"])
        return res

    start = time.monotonic()
    while True:
        if not trace:
            probe()
        t0 = time.monotonic()
        passes.append(one_pass([]))
        now = time.monotonic()
        # another pass only if one as long as the last fits in the measuring
        # time left and before the deadline
        if trace or 2 * now - t0 > min(start + seconds, deadline):
            break
    while not trace and len(setups) < SETUP_PROBES:
        probe()
    if trace:
        spans = os.path.join(OUT, f"spans-{workload}-{seed}.json")
        traced = one_pass(["--trace", "--spans", spans])
    return setups, passes, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limit", type=int,
                        help="run only the first N ops of each pass (tests)")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    if not os.path.isfile(os.path.join(ROOT, "src", "dgtrace", "__init__.py")):
        print("run.py: no dgtrace sources under src/dgtrace", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    try:
        setups, passes, traced = measure(args.workload, args.seed,
                                         args.seconds, bool(args.trace),
                                         args.limit, deadline)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    runs = passes + ([traced] if traced else [])
    failures = [f for r in runs for f in r["failures"]]
    failed_ops = len(failures)
    digests = {r["digest"] for r in runs}
    attempted = sum(r["ops"] for r in runs)
    walls = [r["wall_s"] for r in passes]
    # each op's median over the passes
    latencies = [statistics.median(ts) for ts in zip(*(r["op_s"] for r in passes))]
    wall = sum(latencies)
    if args.trace:
        values = dict(traced["layers"])
        values["trace.overhead_ratio"] = traced["wall_s"] / passes[0]["wall_s"]
        wanted = bench["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "ops_per_s": len(latencies) / wall,
            "op_ms_p50": 1000 * statistics.median(latencies),
            "op_ms_p90": 1000 * percentile(latencies, 0.9),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
        }
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    if len(digests) > 1:
        failures.append({"workload": args.workload, "seed": args.seed,
                         "op": None, "reason": "passes disagree on the digest"})
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": git_commit(), "ops_per_pass": passes[0]["ops"],
        "passes": len(passes), "traced_passes": int(traced is not None),
        "latency_ops": len(latencies), "setup_samples": setups,
        "pass_wall_s": walls, "pass_setup_s": [r["setup_s"] for r in runs],
        "pass_unit_s_median": [r["unit_s_median"] for r in runs],
        "workers": "one single-threaded process per pass, run serially",
        "digest": sorted(digests), "reference": passes[0]["reference"],
        "fail_ratio": failed_ops / attempted, "failures": failures,
    }
    result = {"correct": not failures, "attempted": attempted,
              "failed": failed_ops, "metrics": metrics}
    out = os.path.join(OUT, f"{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(out, "w") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
