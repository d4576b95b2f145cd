"""Command-line surface.

    dgtrace [--workspace FILE] [--seed U64] [--random COUNT]
            [--output json|text] COMMAND [ARGS...]

Commands: validate, cohomology, hh0, class, pair, verify-rr, verify-serre,
verify-suite.  Exit status 0 when all checks pass, 1 on a check failure,
2 on an input error.  An error raised inside a computation is an input error
when the command reads a `--workspace` file, and a check failure when it runs
over the built-in catalog: the verify commands always do.  A report that
cannot be written because stdout's reader has gone exits 1 with one
`output error:` line on stderr.  Reports are deterministic: the same seed
and inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .algebras import opposite
from .catalog import catalog_entry, catalog_names
from .errors import DgError, WorkspaceError
from .hochschild import hh0_space, hh_class
from .modules import restrict_to_ground
from .pairing import pair_scalar
from .suites import duality_suite, full_suite, rr_tally
from .workspace import (Workspace, default_workspace, format_rational,
                        parse_rational, parse_workspace)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


def _emit(report: dict, output: str) -> bool:
    """Write and flush the report; False when stdout's reader has gone."""
    try:
        if output == "json":
            sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
        else:
            _emit_text(report, prefix="")
        sys.stdout.flush()
    except BrokenPipeError:
        # on devnull the flush at exit cannot fail again on the buffer's rest
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.stderr.write("output error: stdout was closed\n")
        return False
    return True


def _emit_text(node, prefix: str) -> None:
    if isinstance(node, dict):
        for key in sorted(node):
            val = node[key]
            if isinstance(val, (dict, list)):
                sys.stdout.write(f"{prefix}{key}:\n")
                _emit_text(val, prefix + "  ")
            else:
                sys.stdout.write(f"{prefix}{key}: {val}\n")
    elif isinstance(node, list):
        for item in node:
            if isinstance(item, (dict, list)):
                _emit_text(item, prefix + "  ")
            else:
                sys.stdout.write(f"{prefix}- {item}\n")


def cmd_validate(ws: Workspace, args, seed: int, count: int) -> dict:
    names = args.names or sorted(set(list(ws.algebras) + list(ws.resolutions)))
    results = {}
    ok = True
    for name in names:
        entry = {}
        if name in ws.algebras:
            a = ws.algebras[name]
            try:
                a.validate()
                entry["algebra"] = "valid"
                entry["dim"] = a.dim
                entry["degree_zero"] = a.is_degree_zero()
                entry["cohomology"] = {str(p): d for p, d
                                       in a.cohomology_dims().dims.items()}
            except DgError as exc:
                entry["algebra"] = f"INVALID: {exc}"
                ok = False
        if name in ws.resolutions:
            try:
                ws.resolutions[name].validate()
                entry["resolution"] = "augmentation cone acyclic"
            except DgError as exc:
                entry["resolution"] = f"INVALID: {exc}"
                ok = False
        if not entry:
            raise WorkspaceError(f"nothing named {name!r} to validate")
        results[name] = entry
    return {"command": "validate", "results": results, "ok": ok}


def cmd_cohomology(ws: Workspace, args, seed, count) -> dict:
    m = ws.module(args.module)
    sc = restrict_to_ground(m)
    carrier = {str(p): d for p, d in sc.carrier.space.dims.items()}
    h = {str(p): d for p, d in sc.cohomology_dims().dims.items()}
    return {"command": "cohomology", "module": args.module,
            "carrier_dims": carrier, "cohomology_dims": h, "ok": True}


def cmd_hh0(ws: Workspace, args, seed, count) -> dict:
    a = ws.algebra(args.algebra)
    space = hh0_space(a)
    reps = []
    for cls in space.basis_classes():
        reps.append({"coords": [format_rational(c) for c in cls.coords],
                     "representative": [format_rational(c)
                                        for c in cls.representative.coords]})
    return {"command": "hh0", "algebra": args.algebra, "dim": space.dim,
            "commutator_dim": space.commutator_dim, "basis": reps, "ok": True}


def cmd_class(ws: Workspace, args, seed, count) -> dict:
    m = ws.module(args.module)
    f = ws.map(args.map)
    cls = hh_class(m, f)
    return {"command": "class", "module": args.module, "map": args.map,
            "coords": [format_rational(c) for c in cls.coords],
            "representative": [format_rational(c)
                               for c in cls.representative.coords],
            "ok": True}


def cmd_pair(ws: Workspace, args, seed, count) -> dict:
    a = ws.algebra(args.algebra)
    aop = opposite(a)
    spo = hh0_space(aop)
    sp = hh0_space(a)
    lam_text, mu_text = args.left, args.right

    def parse_side(space, alg, text, where):
        if text.startswith("[") and text.endswith("]"):
            label = text[1:-1]
            if label not in alg.labels:
                raise WorkspaceError(f"no basis element labelled {label!r}", where)
            return space.class_of(alg.by_label(label))
        coords = [parse_rational(t, where) for t in text.split(",")]
        if len(coords) != alg.dim:
            raise WorkspaceError(f"expected {alg.dim} coordinates", where)
        return space.class_of(alg.element(coords))

    lam = parse_side(spo, aop, lam_text, "pair.left")
    mu = parse_side(sp, a, mu_text, "pair.right")
    val = pair_scalar(lam, mu)
    return {"command": "pair", "algebra": args.algebra,
            "left": lam_text, "right": mu_text,
            "value": format_rational(val), "ok": True}


def cmd_verify_rr(ws: Workspace, args, seed: int, count: int) -> dict:
    if args.algebra and args.algebra not in catalog_names():
        raise WorkspaceError(f"no catalog algebra named {args.algebra!r}",
                             "--algebra")
    names = [args.algebra] if args.algebra else catalog_names()
    per = {}
    ok = True
    for name in names:
        per[name] = rr_tally(catalog_entry(name), count, seed)
        ok = ok and not per[name]["failures"]
    return {"command": "verify-rr", "seed": seed, "count": count,
            "per_algebra": per, "ok": ok}


def cmd_verify_serre(ws: Workspace, args, seed: int, count: int) -> dict:
    return {**duality_suite(max(10, count // 4), seed),
            "command": "verify-serre", "seed": seed}


def cmd_verify_suite(ws: Workspace, args, seed: int, count: int) -> dict:
    summary = full_suite(count, seed)
    summary["command"] = "verify-suite"
    return summary


COMMANDS = {
    "validate": cmd_validate,
    "cohomology": cmd_cohomology,
    "hh0": cmd_hh0,
    "class": cmd_class,
    "pair": cmd_pair,
    "verify-rr": cmd_verify_rr,
    "verify-serre": cmd_verify_serre,
    "verify-suite": cmd_verify_suite,
}

# the verify batteries run over the built-in catalog whatever workspace is given
CATALOG_ONLY = frozenset({"verify-rr", "verify-serre", "verify-suite"})


def _int_in(low: int, high: int, span: str):
    """argparse type: an integer n with low <= n < high."""
    def parse(text):
        try:
            if low <= int(text) < high:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"not an integer {span}: {text!r}")
    return parse


def build_parser() -> argparse.ArgumentParser:
    # SUPPRESS keeps a flag parsed before the subcommand from being
    # clobbered by the subparser's default for the same destination
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--workspace", metavar="FILE",
                        help="JSON workspace file (default: built-in catalog)")
    common.add_argument("--seed", type=_int_in(0, 2 ** 64, "in [0, 2^64)"),
                        metavar="U64",
                        help="seed for randomized suites, < 2^64 (default 42)")
    common.add_argument("--random", type=_int_in(1, 10 ** 6 + 1, "in [1, 10^6]"),
                        metavar="COUNT",
                        help="instances per randomized batch, <= 10^6 (default 50)")
    common.add_argument("--output", choices=("json", "text"))

    parser = argparse.ArgumentParser(
        prog="dgtrace", parents=[common],
        description="Exact verification of trace pairings on perfect modules "
                    "over finite-dimensional algebras.")
    # the common flags are accepted both before and after the subcommand
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="validate algebras and resolutions")
    p.add_argument("names", nargs="*", help="names (default: everything)")

    p = sub.add_parser("cohomology", parents=[common],
                       help="cohomology of a module's restriction")
    p.add_argument("module")

    p = sub.add_parser("hh0", parents=[common],
                       help="commutator quotient of an algebra")
    p.add_argument("algebra")

    p = sub.add_parser("class", parents=[common],
                       help="Hochschild class of (module, map)")
    p.add_argument("module")
    p.add_argument("map")

    p = sub.add_parser("pair", parents=[common],
                       help="scalar pairing of two classes")
    p.add_argument("algebra")
    p.add_argument("left", help="class over A^op: [label] or coordinates")
    p.add_argument("right", help="class over A: [label] or coordinates")

    p = sub.add_parser("verify-rr", parents=[common],
                       help="randomized main-theorem batch")
    p.add_argument("--algebra", help="restrict to one catalog algebra")

    sub.add_parser("verify-serre", parents=[common],
                   help="duality and Serre-identity suite")
    sub.add_parser("verify-suite", parents=[common],
                   help="all verification batteries")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    workspace = getattr(args, "workspace", None)
    seed = getattr(args, "seed", 42)
    count = getattr(args, "random", 50)
    output = getattr(args, "output", "json") or "json"
    try:
        if workspace:
            with open(workspace, "r", encoding="utf-8") as fh:
                ws = parse_workspace(fh.read())
        else:
            ws = default_workspace()
        handler = COMMANDS[args.command]
        report = handler(ws, args, seed, count)
    except (WorkspaceError, OSError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except DgError as exc:
        # component errors are embedded in the report with nonzero exit; over
        # the built-in catalog no input is at fault, so the error is a failed
        # check of the verifier itself
        report = {"command": args.command, "error": str(exc), "ok": False}
        reads_input = workspace and args.command not in CATALOG_ONLY
        code = EXIT_INPUT if reads_input else EXIT_FAIL
    else:
        code = EXIT_PASS if report.get("ok", False) else EXIT_FAIL
    # a report that cannot be written is a failure whatever it says
    return code if _emit(report, output) else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
