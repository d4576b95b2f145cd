"""One fresh process of the benchmark: set up a workload and run its ops.

    python3 perfbench/worker.py setup      WORKLOAD SEED
    python3 perfbench/worker.py pass       WORKLOAD SEED [--trace] [--limit N] [--spans FILE]
    python3 perfbench/worker.py replay     WORKLOAD SEED OP
    python3 perfbench/worker.py references WORKLOAD SEED

`setup` stops at the first op and prints the CLOCK_MONOTONIC time it got
there, so the caller can time set-up from the moment it spawned the process,
with the factor that takes that time to the reference speed (speed.py).
`pass` runs every op (or the first N), checks each exactly and against the
recorded reference digests, and prints one JSON object with every time at
the reference speed.  `replay` reruns a single op from (workload, seed, op index) and exits
1 if it fails.
`references` prints the digests to record in references.json.

dgtrace is imported from the `src` directory of the checkout this file lives
in, never from an installed copy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)
from speed import SpeedProbe  # noqa: E402

REFERENCES = os.path.join(HERE, "references.json")
LAYERS = os.path.join(HERE, "layers.json")


def _import_workloads():
    sys.path.insert(0, SRC)
    import workloads  # noqa: E402  (needs SRC on the path)
    import dgtrace
    if not os.path.abspath(dgtrace.__file__).startswith(SRC + os.sep):
        raise ImportError(f"dgtrace imported from {dgtrace.__file__}, not {SRC}")
    return workloads


def op_digest(canonical: str) -> str:
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def run_digest(op_digests) -> str:
    return hashlib.sha256("\n".join(op_digests).encode()).hexdigest()


def load_reference(workload: str, seed: int):
    """The recorded per-op digests for (workload, seed), or None."""
    with open(REFERENCES) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def replay_command(workload: str, seed: int, op: int) -> str:
    return f"python3 perfbench/worker.py replay {workload} {seed} {op}"


def run_ops(work, indices, reference=None, tracer=None, probe=None):
    """Run the ops; returns (op times s, op digests, failures, wall s).

    With a running `speed.SpeedProbe` every time is taken at the reference
    speed, else as measured.  An op fails when it raises, fails its exact
    check, or its digest differs from the reference digest recorded for its
    index."""
    want = reference["op_digests"] if reference else []
    call = (lambda i: tracer.run_op(i, work.run)) if tracer else work.run
    spans, digests, failures = [], [], []
    start = time.perf_counter()
    for i in indices:
        t0 = time.perf_counter()
        try:
            ok, canonical = call(i)
            reason = None if ok else "exact check failed"
        except Exception as exc:  # one failing op must not stop the run
            traceback.print_exc(file=sys.stderr)
            ok, canonical = False, f"raised {type(exc).__name__}: {exc}"
            reason = canonical
        spans.append((t0, time.perf_counter()))
        digest = op_digest(canonical)
        digests.append(digest)
        if reason is None and i < len(want) and digest != want[i]:
            reason = "differs from the reference digest"
        if reason is not None:
            failures.append({"workload": work.name, "seed": work.seed, "op": i,
                             "spec": list(work.specs[i]), "reason": reason,
                             "replay": replay_command(work.name, work.seed, i)})
    end = time.perf_counter()
    if probe is not None:
        probe.sample()  # so the last op has a sample after it
    span = probe.span if probe is not None else (lambda t0, t1: t1 - t0)
    return [span(*s) for s in spans], digests, failures, span(start, end)


def do_pass(args, probe) -> dict:
    workloads = _import_workloads()
    work = workloads.Workload(args.workload, args.seed)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    own, factor = probe.scale(probe.at[0], time.perf_counter())
    reference = load_reference(args.workload, args.seed)
    n = len(work) if args.limit is None else min(args.limit, len(work))
    tracer = None
    if args.trace:
        from tracer import Tracer
        with open(LAYERS) as fh:
            tracer = Tracer(json.load(fh)["layers"])
        tracer.install(extra_modules=[workloads])
    times, digests, failures, wall = run_ops(work, range(n), reference,
                                             tracer, probe)
    probe.stop()
    out = {"workload": args.workload, "seed": args.seed, "ready": ready,
           "ready_own_s": own, "ready_factor": factor,
           "ops": n, "wall_s": wall, "op_s": times,
           "unit_s_median": statistics.median(probe.unit_s),
           "digest": run_digest(digests), "failures": failures,
           "reference": ("none" if reference is None
                         else "full" if n == reference["ops"] else "prefix"),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.metrics()
        if args.spans:
            tracer.write_spans(args.spans, {"workload": args.workload,
                                            "seed": args.seed, "ops": n})
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("setup", "pass", "replay", "references"))
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("op", type=int, nargs="?")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--limit", type=int)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    if args.mode in ("setup", "pass"):
        probe = SpeedProbe()
        probe.start()
    if args.mode == "setup":
        workloads = _import_workloads()
        workloads.Workload(args.workload, args.seed)
        ready = time.clock_gettime(time.CLOCK_MONOTONIC)
        own, factor = probe.scale(probe.at[0], time.perf_counter())
        probe.stop()
        print(json.dumps({"ready": ready, "ready_own_s": own,
                          "ready_factor": factor}))
        return 0
    if args.mode == "pass":
        print(json.dumps(do_pass(args, probe)))
        return 0
    if args.mode == "references":
        workloads = _import_workloads()
        work = workloads.Workload(args.workload, args.seed)
        _, digests, failures, _ = run_ops(work, range(len(work)))
        if failures:
            print(json.dumps(failures, indent=1), file=sys.stderr)
            return 1
        print(json.dumps({"ops": len(work), "digest": run_digest(digests),
                          "op_digests": digests}))
        return 0
    # replay
    if args.op is None:
        parser.error("replay needs an op index")
    workloads = _import_workloads()
    work = workloads.Workload(args.workload, args.seed)
    if not 0 <= args.op < len(work):
        parser.error(f"op index out of range 0..{len(work) - 1}")
    ok, canonical = work.run(args.op)
    reference = load_reference(args.workload, args.seed)
    digest = op_digest(canonical)
    matches = None if reference is None else digest == reference["op_digests"][args.op]
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "op": args.op, "spec": list(work.specs[args.op]),
                      "ok": ok, "digest": digest, "reference_match": matches,
                      "result": canonical}, indent=1))
    return 0 if ok and matches is not False else 1


if __name__ == "__main__":
    sys.exit(main())
