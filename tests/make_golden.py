"""Regenerate `tests/golden.json`, the recorded output of the command line.

    PYTHONPATH=src python tests/make_golden.py

Each case is one argv run through in-process `cli.main`, stored with its
exit code and the sha256 of its stdout and of its stderr; `test_golden.py`
reruns every argv and compares.  The argvs are stored in the file, so the
test needs neither `perfbench` nor this script's choices.  Groups:

- workloads: the distinct argvs of `perfbench.workloads.build_ops` for the
  four workloads at seeds 1-3 that stand for at most `MAX_ITEMS` items;
  the larger ones, and the `LEFT_OUT` argvs, are listed under `left_out`
  with their items, exit code and hashes, which CI compares through the
  console script.
- grid: `strata` for 12 lambdas and `links` for m <= 7, -1 <= k <= m, on
  both surfaces, each as a table and with `--json`.
- decompositions: `--n 0` to `--n 7` at the default depth; `--n 0` to
  `--n 6` at depths -1, 0 and 1, and with `--pointed` at -1, 0, 1 and 3;
  `--n 8` at depths 0, 1 and 3, plain and with `--pointed`; each as a
  table and with `--json`.
- refusals: the exit-2 argvs of the CI loop.

A verify-maps argv that runs its checks is left out everywhere: its
residuals take numpy's `hypot`, complex `exp` and complex `sqrt` from the
platform's libm, which is not pinned (numpy's SIMD loops do not change them).
Its refusals come before numpy loads and stay in.  The file depends on the
code and these rules only: regenerating it on one tree gives the same file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from ruledstrata import cli

GOLDEN = Path(__file__).with_name("golden.json")

#: The most items (rows, chain entries or samples; `Op.items`) an op of the
#: workloads may stand for to be recorded.  The recorded ops stand for at most
#: 2,089 and take under 0.3 s each; the 50,000-row `strata` tables and the
#: 30,070- and 50,522-row `decompositions` take a second or more.
MAX_ITEMS = 10_000

#: Argvs that no workload runs, recorded only under `left_out`, with their
#: items: the largest `decompositions` inside the limits (304,074 rows), and
#: two large tables, since every left-out argv of the workloads is --json:
#: pointed n = 7 unbounded, with dict cells and an `inferred` column, and
#: `strata` at the row limit, whose `note` column is blank after row one.
LEFT_OUT = ((("decompositions", "--n", "8", "--pointed", "--depth", "-1",
              "--json"), 304_074),
            (("decompositions", "--n", "7", "--pointed", "--depth", "-1"),
             50_522),
            (("strata", "--lambda", "99999"), 100_000))

LAMBDAS = ("-1/2", "0", "1/7", "1/2", "1", "2", "5/2", "3", "10/3", "7/2",
           "7", "20")


def run_cli(argv: list[str]) -> dict:
    """Exit code and sha256 of stdout and stderr of `cli.main(argv)`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # a usage error
            code = exc.code
    return {"exit": code,
            "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest()}


def runs_checks(argv: tuple[str, ...]) -> bool:
    """Whether a verify-maps argv gets past its argument checks."""
    if argv[0] != "verify-maps":
        return False
    args = cli.parse_args(argv)
    try:
        cli.check_verify_maps_args(args.samples, args.seed, args.tol)
    except ValueError:
        return False
    return True


def workload_items() -> dict[tuple[str, ...], int]:
    """Each distinct argv of the workloads, first seen first, with the most
    items it stands for."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from perfbench.workloads import WORKLOADS, build_ops, load_references
    refs = load_references()
    items = {}
    for workload in WORKLOADS:
        for seed in (1, 2, 3):
            for op in build_ops(workload, seed, refs):
                items[op.argv] = max(items.get(op.argv, 0), op.items)
    return items


def grid_argvs() -> list[list[str]]:
    argvs = []
    for surface in ("trivial", "nontrivial"):
        for lam in LAMBDAS:
            argvs.append(["strata", "--lambda", lam, "--surface", surface])
        for m in range(8):
            for k in range(-1, m + 1):
                argvs.append(["links", "--m", str(m), "--k", str(k),
                              "--surface", surface])
    return [a + tail for a in argvs for tail in ([], ["--json"])]


def decompositions_argvs() -> list[list[str]]:
    argvs = [["decompositions", "--n", str(n)] for n in range(8)]
    for pointed, depths in (([], (-1, 0, 1)), (["--pointed"], (-1, 0, 1, 3))):
        argvs += [["decompositions", "--n", str(n), *pointed,
                   "--depth", str(depth)]
                  for n in range(7) for depth in depths]
    argvs += [["decompositions", "--n", "8", *pointed, "--depth", str(depth)]
              for pointed in ([], ["--pointed"]) for depth in (0, 1, 3)]
    return [a + tail for a in argvs for tail in ([], ["--json"])]


def refusal_argvs() -> list[list[str]]:
    nines = "9" * 4300
    big = "5" + "0" * 4298
    return [
        ["strata", "--lambda", "1/0"], ["strata", "--lambda", "1e400"],
        ["strata", "--lambda", "2", "--surface", "bogus"],
        ["strata", "--lambda", "1/" + nines],
        ["strata", "--lambda", "1/" + nines + "9"],
        ["strata", "--lambda", "1e-5000"],
        ["strata", "--lambda", "0", "--surface", "nontrivial"],
        ["links", "--m", big + "1", "--k", big + "0"],
        ["links", "--m", big + "1", "--k", big + "0",
         "--surface", "nontrivial"],
        ["links", "--m", "1", "--k", "0", "--surface", "nontrivial"],
        ["plumb", "--chain=" + "-2," * 1000 + "-2"],
        ["plumb", "--chain=" + "-100000," * 999 + "-100000"],
        ["decompositions", "--n", "-1"], ["decompositions", "--n", "9"],
        ["verify-maps", "--samples", "1000001"],
        ["verify-maps", "--samples", "20", "--tol", "nan"],
        ["verify-maps", "--seed", "-1"],
        ["verify-maps", "--seed", "1" + "0" * 4000],
    ]


def main() -> None:
    groups = {
        "workloads": [],
        "grid": grid_argvs(),
        "decompositions": decompositions_argvs(),
        "refusals": refusal_argvs(),
    }
    left_out = []
    for argv, items in [*workload_items().items(), *LEFT_OUT]:
        if runs_checks(argv):
            continue
        if items <= MAX_ITEMS:
            groups["workloads"].append(list(argv))
        else:
            left_out.append({"argv": list(argv), "items": items,
                             **run_cli(list(argv))})
    cases = {name: [{"argv": argv, **run_cli(argv)} for argv in argvs]
             for name, argvs in groups.items()}
    wrong = [case["argv"][:3] for case in cases["refusals"]
             if case["exit"] != 2]
    if wrong:
        raise SystemExit(f"refusals that did not exit 2: {wrong}")
    GOLDEN.write_text(json.dumps({"cases": cases, "left_out": left_out},
                                 indent=1) + "\n")
    print(f"{GOLDEN}: " + ", ".join(f"{len(v)} {k}" for k, v in cases.items())
          + f"; {len(left_out)} left out")


if __name__ == "__main__":
    main()
