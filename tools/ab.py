"""A/B of the benchmark between a parent commit and a change, written as one
BENCH JSON file.

    python3 tools/ab.py PARENT --out BENCH_N.json [--change REV] [--pairs 10]
                        [--workload W ...] [--claim WORKLOAD:METRIC]

Run from anywhere inside a git checkout.  PARENT (and REV, when given) is
materialised with `git archive` under a temporary directory; without
--change the change is the checkout's working tree as it is, tracked and
untracked files that git does not ignore, copied the same way.  Each side
is then measured by its own perfbench/run.py, one process at a time:

- `--pairs` alternated pairs at `--seed 42 --seconds 20 --trace 0`, every
  workload in each pair, the parent first in even pairs (counting from 0)
  and the change first in odd ones;
- one held-out run per side and workload at seed 1004;
- one `--trace 1` run per side and workload at seed 42, for the layer
  counts.

Per end-to-end metric of BENCHMARK.json the file gives both sides'
quartiles [Q1, median, Q3] (statistics.quantiles, inclusive), every run's
value, `median_change_ratio` (change median over parent median, minus 1),
`wins` (pairs in which the change is better), `parent_iqr`, `median_gap`
and `bound`, with `within_bound` false when the change's median is worse
than the parent's by more than the bound.  `--claim` adds whether the named
metric is better in at least 9 of 10 pairs and by more in the median than
the parent's interquartile range; a claim whose workload has no metrics
(a run failed or was not correct) does not hold, and says why.  A claim
that names no workload run or no end-to-end metric is refused before the
first run.  `runs` lists every run made.  `machine` gives the Python
version, the CPU count and `dont_write_bytecode`, whether the runs compile
`src/` in every process (PYTHONDONTWRITEBYTECODE set) or read a bytecode
cache, which takes a third or more off `setup_s`.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

SEED, HELD_OUT_SEED, SECONDS = 42, 1004, 20


def git(*args, cwd, binary=False):
    out = subprocess.run(["git", *args], cwd=cwd, check=True,
                         stdout=subprocess.PIPE).stdout
    return out if binary else out.decode().strip()


def materialise(root: str, rev, dest: str) -> str:
    """The tree of `rev` (or, for None, the working tree of `root`) copied
    into `dest`; returns a description of what was copied."""
    os.makedirs(dest)
    if rev is not None:
        archive = git("archive", "--format=tar", rev, cwd=root, binary=True)
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(dest, filter="data")
        return git("rev-parse", rev, cwd=root)
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard",
                 cwd=root, binary=True).decode().split("\0")
    for rel in filter(None, listed):
        src = os.path.join(root, rel)
        if os.path.isfile(src):  # a tracked file deleted in the tree is skipped
            os.makedirs(os.path.dirname(os.path.join(dest, rel)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, rel))
    return "working tree of " + git("rev-parse", "HEAD", cwd=root)


def bench(tree: str, workload: str, seed: int, trace: int) -> dict:
    """One perfbench/run.py run in `tree`: its record and result, or the
    exit code and the end of stderr when it fails."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    run = {"workload": workload, "seed": seed, "trace": trace,
           "exit": proc.returncode, "elapsed_s": round(time.monotonic() - t0, 1)}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and len(lines) >= 2:
        run["record"] = json.loads(lines[-2])["record"]
        run["result"] = json.loads(lines[-1])
    else:
        run["stderr"] = proc.stderr[-2000:]
    return run


def values(run: dict) -> dict:
    return {k: m["value"] for k, m in run["result"]["metrics"].items()} if "result" in run else {}


def ok(run: dict) -> bool:
    return "result" in run and run["result"]["correct"]


def quartiles(xs):
    return [round(q, 4) for q in statistics.quantiles(xs, n=4, method="inclusive")]


def compare(parent_runs, change_runs, metric: dict) -> dict:
    """The A/B summary of one end-to-end metric over the pairs."""
    name, lower = metric["name"], metric["better"] == "lower"
    p = [values(r)[name] for r in parent_runs]
    c = [values(r)[name] for r in change_runs]
    pq, cq = quartiles(p), quartiles(c)
    pm, cm = statistics.median(p), statistics.median(c)
    ratio = cm / pm - 1
    return {
        "better": metric["better"], "bound": metric["bound"],
        "parent": pq, "change": cq,
        "median_change_ratio": round(ratio, 4),
        "wins": sum((y < x) if lower else (y > x) for x, y in zip(p, c)),
        "parent_iqr": round(pq[2] - pq[0], 4),
        "median_gap": round(abs(pm - cm), 4),
        "within_bound": (ratio if lower else -ratio) <= metric["bound"],
        "parent_runs": [round(x, 4) for x in p],
        "change_runs": [round(x, 4) for x in c],
    }


def held_out(run: dict) -> dict:
    out = {"correct": ok(run), "exit": run["exit"]}
    if "result" in run:
        record = run["record"]
        out.update(failed=run["result"]["failed"], reference=record["reference"],
                   digest=",".join(d[:16] for d in record["digest"]))
        out.update({k: round(v, 4) for k, v in values(run).items()})
    return out


def trace_counts(run: dict) -> tuple:
    """The per-layer counts and the self times of a traced run."""
    vals = values(run)
    return ({k: v for k, v in vals.items() if not k.endswith(".self_s")},
            {k: round(v, 4) for k, v in vals.items() if k.endswith(".self_s")})


def summarise(runs: dict, pairs: int, end_to_end) -> dict:
    """One workload's entry of the BENCH file."""
    timed = runs["parent"]["timed"] + runs["change"]["timed"]
    good = all(ok(r) for r in timed)
    out = {
        "pairs": pairs,
        "all_correct": good,
        "reference": sorted({r["record"]["reference"] for r in timed if "record" in r}),
        "fail_ratio": sorted({r["record"]["fail_ratio"] for r in timed if "record" in r}),
        "digests_equal": len({d for r in timed for d in r.get("record", {}).get("digest", ["?"])}) == 1,
    }
    if good:
        out["metrics"] = {m["name"]: compare(runs["parent"]["timed"],
                                             runs["change"]["timed"], m)
                          for m in end_to_end}
    out["held_out"] = {"seed": HELD_OUT_SEED}
    for side in ("parent", "change"):
        out["held_out"][side] = held_out(runs[side]["held_out"])
    out["held_out"]["digests_equal"] = (out["held_out"]["parent"].get("digest")
                                        == out["held_out"]["change"].get("digest"))
    out["trace_counts"] = {}
    for side in ("parent", "change"):
        counts, self_s = trace_counts(runs[side]["traced"])
        out["trace_counts"][side] = counts
        out["trace_counts"][side + "_self_s"] = self_s
    return out


def judge_claim(workloads: dict, workload: str, metric: str, pairs: int) -> dict:
    """Whether the change's gain on one metric holds: better in at least 9
    of 10 pairs, and by more in the median than the parent's IQR.  With no
    metrics (a run failed or was not correct) it does not hold."""
    out = {"workload": workload, "metric": metric}
    metrics = workloads[workload].get("metrics")
    if metrics is None:
        return {**out, "holds": False,
                "reason": "no metrics: a run of the workload failed or was not correct"}
    m = metrics[metric]
    return {**out, "median_change_ratio": m["median_change_ratio"], "wins": m["wins"],
            "holds": m["wins"] >= 0.9 * pairs and m["median_gap"] > m["parent_iqr"]
            and (m["median_change_ratio"] < 0) == (m["better"] == "lower")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the parent revision")
    parser.add_argument("--change", help="the change's revision (default: the working tree)")
    parser.add_argument("--out", required=True, help="the BENCH JSON file to write")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        help="a workload to run (default: every one in BENCHMARK.json)")
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims a gain on")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    claim = args.claim.split(":") if args.claim else None
    root = git("rev-parse", "--show-toplevel", cwd=os.getcwd())

    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = {"parent": os.path.join(tmp, "parent"), "change": os.path.join(tmp, "change")}
        revs = {"parent": materialise(root, args.parent, trees["parent"]),
                "change": materialise(root, args.change, trees["change"])}
        with open(os.path.join(trees["change"], "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        workloads = args.workload or [w["name"] for w in spec["workloads"]]
        if claim is not None and (len(claim) != 2 or claim[0] not in workloads or claim[1]
                                  not in {m["name"] for m in spec["end_to_end"]}):
            # before the first run, so a misspelt claim costs no A/B
            parser.error("--claim takes WORKLOAD:METRIC, the workload one of those run "
                         "and the metric an end-to-end metric of BENCHMARK.json")
        log = []
        runs = {w: {s: {"timed": []} for s in trees} for w in workloads}

        def one(side, workload, seed, trace, pair=None):
            print(f"ab: {side} {workload} seed {seed} trace {trace}"
                  + ("" if pair is None else f" pair {pair}"), file=sys.stderr, flush=True)
            run = bench(trees[side], workload, seed, trace)
            log.append({"side": side, "pair": pair,
                        **{k: v for k, v in run.items() if k not in ("record", "result")},
                        "correct": ok(run)})
            return run

        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for w in workloads:
                for side in order:
                    runs[w][side]["timed"].append(one(side, w, SEED, 0, pair))
        for w in workloads:
            for side in trees:
                runs[w][side]["held_out"] = one(side, w, HELD_OUT_SEED, 0)
                runs[w][side]["traced"] = one(side, w, SEED, 1)

    report = {
        "about": (f"Parent against change from perfbench/run.py --seed {SEED} --seconds "
                  f"{SECONDS} --trace 0 in {args.pairs} alternated pairs (the parent first "
                  "in even pairs, counting from 0), one process at a time, written by "
                  "tools/ab.py; see its docstring for every field."),
        # every benchmark process inherits PYTHONDONTWRITEBYTECODE (a -B given
        # to this process is not passed on); with it set, each one compiles src/
        "machine": {"python": platform.python_version(), "nproc": os.cpu_count(),
                    "dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))},
        "parent": revs["parent"],
        "change": revs["change"],
        "workloads": {w: summarise(runs[w], args.pairs, spec["end_to_end"])
                      for w in workloads},
        "runs": log,
    }
    if claim is not None:
        report["claim"] = judge_claim(report["workloads"], *claim, args.pairs)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    bad = [w for w, s in report["workloads"].items()
           if not s["all_correct"] or not all(m["within_bound"] for m in s.get("metrics", {}).values())]
    print(f"ab: wrote {args.out}" + (f"; outside a bound or failing: {bad}" if bad else ""),
          file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
