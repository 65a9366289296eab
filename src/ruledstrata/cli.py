"""Command-line front end.

Subcommands: strata, links, plumb, verify-maps, decompositions.  Reports
print as fixed-width tables by default or as JSON with --json; exit status
is 0 when every check passed, 1 on a failed check or a closed stdout pipe,
2 on invalid input.  Each subcommand loads only the layers it calls: only
verify-maps loads numpy, after its arguments are checked, and its --json
form no exact layer; `main` on `sys.argv` freezes every object before exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys

#: The most samples verify-maps takes (10^6: 9.5-13 s and 30 MB, 2-vCPU VM).
MAX_SAMPLES = 10**6

#: The most decimal digits of an integer the CLI reads: a chain entry and the
#: lens parameter p of `plumb`, each number in `strata`'s lambda, its exponent
#: and its numerator and denominator, `links`' m and k, and `verify-maps`'
#: seed.  CPython writes no int of more than 4,300 digits as text; the largest
#: written from inputs within this limit, such as an area of 1 + lambda - k,
#: stays below that.  It is defined here, not in `reports`, so that
#: verify-maps checks its seed without loading the report builders.
MAX_DIGITS = 4000


def check_verify_maps_args(samples: int, seed: int, tol: float):
    """Raise ValueError on verify-maps arguments out of range.  It needs no
    numpy, so `run` refuses them before `projective_maps` loads."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if samples > MAX_SAMPLES:
        raise ValueError(f"samples {samples} is above the limit {MAX_SAMPLES}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if seed >= 10**MAX_DIGITS:
        raise ValueError(f"seed has more than {MAX_DIGITS} digits, the limit")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ruledstrata",
        description=("stratification calculator for compatible almost complex "
                     "structures on the rational ruled surfaces"))
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("strata", help="admissible strata for a given form")
    p.add_argument("--lambda", dest="lam", required=True,
                   help="form parameter, a rational like 5/2")
    _surface(p)

    p = sub.add_parser("links", help="normal link of one stratum in another")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _surface(p)

    p = sub.add_parser("plumb", help="normal form of a linear plumbing chain")
    p.add_argument("--chain", required=True,
                   help="comma-separated Euler numbers, e.g. \"-3,-1\"")

    p = sub.add_parser("verify-maps", help="residual checks for the "
                                           "explicit projective models")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--tol", type=float, default=1e-9)

    p = sub.add_parser("decompositions", help="stratum descriptors for a "
                                              "total fiber degree")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--depth", type=int, default=3,
                   help="max degeneration nodes per branch (negative for "
                        "no bound)")
    p.add_argument("--pointed", action="store_true",
                   help="carry one marked point over a fixed base point")

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true", dest="as_json")
    return parser


def _surface(p: argparse.ArgumentParser):
    # `reports.surface_by_name` refuses an unknown name (exit 2)
    p.add_argument("--surface", default="trivial",
                   help="trivial (the default) or nontrivial")


def run(args) -> dict:
    if args.subcommand == "verify-maps":
        check_verify_maps_args(args.samples, args.seed, args.tol)
        # the checks make no threaded BLAS call, but OpenBLAS starts a worker
        # per core when numpy loads and it spins: one thread cuts a 5000-sample
        # run from 0.52 to 0.40 s of CPU at the same wall time (2-vCPU VM).
        # OpenBLAS reads the variable only as it loads, so it is unset again
        # and an in-process caller's later children inherit no setting.
        user_set = "OPENBLAS_NUM_THREADS" in os.environ
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
        from .projective_maps import verify_maps_report
        if not user_set:
            del os.environ["OPENBLAS_NUM_THREADS"]
        return verify_maps_report(args.samples, args.seed, args.tol)
    from . import reports
    if args.subcommand == "strata":
        return reports.strata_report(reports.parse_lambda(args.lam),
                                     reports.surface_by_name(args.surface))
    if args.subcommand == "links":
        return reports.links_report(args.m, args.k,
                                    reports.surface_by_name(args.surface))
    if args.subcommand == "plumb":
        return reports.plumb_report(reports.parse_chain(args.chain))
    if args.subcommand == "decompositions":
        depth = None if args.depth < 0 else args.depth
        return reports.decompositions_report(args.n, depth, args.pointed)
    raise ValueError(f"unknown subcommand {args.subcommand}")


def main(argv=None) -> int:
    if argv is None:
        # the process exits next: frozen objects skip the shutdown collection,
        # which took 50.9 -> 10.7 ms for verify-maps, 18.8 -> 4.9 for links
        # --json, 21.1 -> 5.2 for decompositions --n 4 --pointed (medians of
        # 12 spawns, 2-vCPU VM); gc.disable() does not stop that collection
        try:
            return main(sys.argv[1:])
        finally:
            gc.freeze()
    parser = build_parser()
    argv = list(argv)
    # argparse reads a value such as -1/2, -inf or -3,-1 as an option, so
    # join each value that starts with a minus sign to its option
    i = 0
    while i < len(argv) - 1:
        if argv[i] in ("--chain", "--lambda", "--tol") and argv[i + 1].startswith("-"):
            argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
        i += 1
    args = parser.parse_args(argv)
    # argparse drops a value of exactly "--" (as in --n=--) and stores []
    if [] in vars(args).values():
        parser.error("an option was given '--' as its value")
    if not args.as_json:
        # import before the checks: after verify-maps it adds 0.4 MB of RSS
        from .reports import render_table
    try:
        report = run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.as_json:
        try:
            text = json.dumps(report, indent=2, allow_nan=False)
        except ValueError:
            # only a failed check yields a non-finite value, such as a
            # NaN residual, and strict JSON has no way to write it
            print("error: the report holds a non-finite value; the check "
                  "failed", file=sys.stderr)
            return 1
    else:
        text = render_table(report)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left; fd 1 goes to devnull so the flush at exit is quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
