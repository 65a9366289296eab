"""End-to-end benchmark of the ruledstrata command line.

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; the program is used from `src/`,
nothing is installed.  One client runs a closed loop: each operation is a
fresh `ruledstrata ...` process, started only after the previous one has
exited, so interpreter start and imports are part of every operation.  A
run repeats whole rounds of its workload's operations (see
`workloads.py`), at least two, and starts another round only while it fits
in `--seconds`.  Every output is checked (see `checks.py`).

`BENCHMARK.json` gates interactive and verify_maps at 60 seconds a run;
exact_core and strata_enum are run by hand.  On a shared 2-core host the
speed of the whole machine drifts by 10 to 20% over tens of seconds, so a
run is only steady when it is long, and the time budget for a full set
of runs fits two workloads of that length.  interactive reaches every layer
(at small sizes), so the traced runs of the two still cover all of them.

With `--trace 0` the end-to-end metrics are printed: set-up time (median of
several fresh `import ruledstrata.cli`), latency and CPU time per
operation, items per second, peak RSS per child.  With `--trace 1` the same
first round is replayed in-process through `ruledstrata.cli.main`, once
under the boundary tracer (`tracer.py`) and once without it, and the
per-layer metrics are printed; exactly one round, whatever `--seconds`
says, so that its counts are exact per round.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The run context and the full summary
are also written to `.perfbench/` in the checkout.

Which end-to-end metric each per-layer metric should move, and where:
`import.*` moves setup_s everywhere and latency_p50_s on interactive; `cli.*` moves
latency_p50_s and peak_rss_mb on strata_enum; `homology.*` and
`plumbing.*` move items_per_s on exact_core; `stable_trees.*` moves
items_per_s and peak_rss_mb on strata_enum; `projective_maps.*` moves
items_per_s on verify_maps; `bundles.*` should stay near zero everywhere.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_SPAWNS = 11
MIN_ROUNDS = 2
IMPORT_CLI = "import ruledstrata.cli"
CONSOLE_SCRIPT = "import sys; from ruledstrata.cli import main; sys.exit(main())"
TRACER = Path(__file__).with_name("tracer.py")
LAYERS = ("cli", "reports", "homology", "bundles", "stable_trees", "plumbing",
          "projective_maps")


# ---------------------------------------------------------------------------
# statistics


def percentile(values, q: float) -> float:
    """q-th percentile, linear between closest ranks (as numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(values, threshold: float) -> int:
    return sum(1 for v in values if v > threshold)


# ---------------------------------------------------------------------------
# child processes


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def spawn(argv: list[str], env: dict, errfile) -> dict:
    """Run one child to completion; its own wall, CPU time and peak RSS.

    The child is reaped with `os.wait4`, so CPU time and `ru_maxrss` are that
    child's alone.  Wall time runs from spawn until exit with stdout drained.
    """
    errfile.seek(0)
    errfile.truncate()
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=errfile, env=env, cwd=ROOT)
    try:
        out = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - t0
    errfile.seek(0)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "exit": proc.returncode,
            "out": out, "err": errfile.read()}


def measure_setup(env: dict, errfile, spawns: int = SETUP_SPAWNS) -> list[float]:
    """Wall times of fresh `import ruledstrata.cli`, after one warm-up.

    The warm-up writes the bytecode caches of a fresh checkout.
    """
    times = []
    for i in range(spawns + 1):
        res = spawn([sys.executable, "-c", IMPORT_CLI], env, errfile)
        if res["exit"] != 0:
            raise SystemExit("perfbench: cannot import ruledstrata.cli:\n"
                             + res["err"].decode(errors="replace"))
        if i:
            times.append(res["wall_s"])
    return times


def run_rounds(ops, seed: int, seconds: float, env: dict, errfile,
               verifier: checks.Verifier, min_rounds: int = MIN_ROUNDS) -> list[dict]:
    """Closed loop over whole rounds; one sample per operation."""
    samples = []
    start = time.perf_counter()
    rounds = 0
    for order in workloads.round_orders(ops, seed):
        elapsed = time.perf_counter() - start
        if rounds >= min_rounds and elapsed + elapsed / rounds > seconds:
            break
        for op in order:
            res = spawn([sys.executable, "-c", CONSOLE_SCRIPT, *op.argv], env, errfile)
            verdict = verifier.verify(op, res["exit"], res["out"], res["err"])
            samples.append({"argv": op.argv, "items": op.items, "round": rounds,
                            "wall_s": res["wall_s"], "cpu_s": res["cpu_s"],
                            "rss_mb": res["rss_mb"], "exit": res["exit"],
                            "ok": verdict.ok, "contract_ok": verdict.contract_ok,
                            "reason": verdict.reason})
        rounds += 1
    return samples


def end_to_end(setup: list[float], samples: list[dict]) -> dict:
    walls = [s["wall_s"] for s in samples]
    return {
        "setup_s": (percentile(setup, 50), "s", f"median of {len(setup)} imports"),
        "latency_p50_s": (percentile(walls, 50), "s", f"n={len(walls)}"),
        "cpu_p50_s": (percentile([s["cpu_s"] for s in samples], 50), "s",
                      f"n={len(samples)}"),
        "items_per_s": (sum(s["items"] for s in samples) / sum(walls), "1/s",
                        f"items={sum(s['items'] for s in samples)}"),
        "peak_rss_mb": (max(s["rss_mb"] for s in samples), "MB", "largest child"),
    }


# ---------------------------------------------------------------------------
# traced run


def parse_importtime(log: str) -> float:
    """numpy's cumulative import time from an `-X importtime` log, in s.

    Only the lines before the tracer's marker count, which is the import of
    `ruledstrata.cli`; 0 when that import does not load numpy.
    """
    for line in log.split("perfbench: imported")[0].splitlines():
        if line.startswith("import time:") and line.rsplit("|", 1)[-1].strip() == "numpy":
            return int(line.split("|")[1]) / 1e6
    return 0.0


def replay_child(workload: str, seed: int, env: dict, errfile,
                 spans: Path | None) -> tuple[dict, str]:
    argv = [sys.executable]
    if spans is not None:
        argv += ["-X", "importtime"]
    argv += [str(TRACER), "--workload", workload, "--seed", str(seed)]
    if spans is not None:
        argv += ["--spans", str(spans)]
    res = spawn(argv, env, errfile)
    err = res["err"].decode(errors="replace")
    if res["exit"] != 0:
        raise SystemExit(f"perfbench: replay failed (exit {res['exit']}):\n{err}")
    return json.loads(res["out"].decode().splitlines()[-1]), err


def per_layer(traced: dict, untraced: dict, numpy_s: float) -> dict:
    layers = traced["layers"]

    def layer(name, key):
        return layers.get(name, {}).get(key, 0)

    def per_item(name, count_key):
        count = traced["counts"].get(count_key, 0)
        return layer(name, "self_s") / count * 1e6 if count else 0.0

    ops = traced["ops"]
    m = {
        "import.numpy_s": (numpy_s, "s"),
        "import.ruledstrata_s": (traced["import_s"] - numpy_s, "s"),
        "cli.output_mb": (sum(o["stdout_bytes"] for o in ops) / 1e6, "MB"),
        "cli.exit2": (sum(o["exit"] == 2 for o in ops), "count"),
        "cli.tracebacks": (sum(o["traceback"] for o in ops), "count"),
        "cli.contract_violations": (sum(not o["contract_ok"] for o in ops), "count"),
        "reports.render_s": (traced["function_s"].get("reports.render_table", 0.0), "s"),
        "homology.rows": (traced["counts"].get("rows", 0), "count"),
        "homology.us_per_row": (per_item("homology", "rows"), "us"),
        "plumbing.vertices": (traced["counts"].get("vertices", 0), "count"),
        "plumbing.blow_down_steps": (traced["counts"].get("blow_down_steps", 0), "count"),
        "plumbing.us_per_vertex": (per_item("plumbing", "vertices"), "us"),
        "stable_trees.descriptors": (traced["counts"].get("descriptors", 0), "count"),
        "stable_trees.us_per_descriptor": (per_item("stable_trees", "descriptors"), "us"),
        # the sum of the rows' `samples` fields: identity checks evaluated
        "projective_maps.samples": (traced["counts"].get("samples", 0), "count"),
        "projective_maps.us_per_sample": (per_item("projective_maps", "samples"), "us"),
        "trace.overhead_ratio": (traced["wall_s"] / untraced["wall_s"], "ratio"),
    }
    for name in LAYERS:
        m[f"{name}.calls"] = (layer(name, "calls"), "count")
        m[f"{name}.self_s"] = (layer(name, "self_s"), "s")
    return {k: (v, unit, "") for k, (v, unit) in sorted(m.items())}


# ---------------------------------------------------------------------------
# context and output


def run_context(workload: str, seed: int, trace: int) -> dict:
    commit = ""
    if (ROOT / ".git").exists():  # a plain source tree has no commit to record
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {"workload": workload, "seed": seed, "trace": trace,
            "commit": commit or "unknown", "python": platform.python_version(),
            "numpy": numpy_version, "nproc": os.cpu_count(),
            "loadavg": [round(x, 2) for x in os.getloadavg()]}


def report(context: dict, metrics: dict, rows: list[dict], notes: list[str]) -> dict:
    print(f"# ruledstrata benchmark: {context['workload']} seed={context['seed']} "
          f"trace={context['trace']}")
    print("# context " + json.dumps(context, sort_keys=True))
    for name, (value, unit, note) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit:6s} {note}")
    for line in notes:
        print(line)
    failed = sum(not r["ok"] for r in rows)
    result = {"correct": failed == 0, "attempted": len(rows), "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit, _) in metrics.items()}}
    path = OUT_DIR / (f"{context['workload']}-seed{context['seed']}"
                      f"-trace{context['trace']}.json")
    ops = [{**r, "argv": " ".join(r["argv"])[:200]} for r in rows]
    path.write_text(json.dumps({"context": context, "notes": notes, **result,
                                "ops": ops}, indent=1) + "\n", encoding="utf-8")
    return result


def tail_notes(samples: list[dict]) -> list[str]:
    """latency_p90_s, printed only where at least ten samples lie beyond it."""
    walls = [s["wall_s"] for s in samples]
    p90 = percentile(walls, 90)
    beyond = samples_beyond(walls, p90)
    if beyond < 10:
        return []
    return [f"latency_p90_s {p90:.6g} s (n={len(walls)}, {beyond} beyond)"]


def failure_notes(rows: list[dict]) -> list[str]:
    attempted = len(rows)
    failed = [r for r in rows if not r["ok"]]
    violations = [r for r in rows if not r["contract_ok"]]
    notes = [f"fail_ratio {len(failed) / attempted:.4f} ({len(failed)}/{attempted} "
             "operations with a wrong or malformed result)",
             f"contract_violation_ratio {len(violations) / attempted:.4f} "
             f"({len(violations)}/{attempted} operations without exit 2 and a "
             "clean stderr on hostile input)"]
    for r in failed[:10]:
        notes.append(f"FAILED {' '.join(r['argv'])[:120]}: {r['reason']}")
    distinct = {" ".join(r["argv"]): r["exit"] for r in violations if r["ok"]}
    for line, code in sorted(distinct.items()):
        notes.append(f"contract violation (exit {code}): {line}")
    return notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ruledstrata" / "cli.py").is_file():
        print(f"perfbench: no ruledstrata sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    context = run_context(args.workload, args.seed, args.trace)
    OUT_DIR.mkdir(exist_ok=True)
    refs = workloads.load_references()
    with tempfile.TemporaryFile(dir=OUT_DIR) as errfile:
        if args.trace == 0:
            setup = measure_setup(env, errfile)
            ops = workloads.build_ops(args.workload, args.seed, refs)
            samples = run_rounds(ops, args.seed, args.seconds, env, errfile,
                                 checks.Verifier(refs))
            context["ops"] = len(samples)
            context["rounds"] = samples[-1]["round"] + 1
            metrics = end_to_end(setup, samples)
            notes = tail_notes(samples)
            rows = samples
        else:
            measure_setup(env, errfile, spawns=0)
            spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.bin"
            traced, log = replay_child(args.workload, args.seed, env, errfile, spans)
            untraced, _ = replay_child(args.workload, args.seed, env, errfile, None)
            context["ops"] = len(traced["ops"])
            context["spans"] = traced["spans"]
            metrics = per_layer(traced, untraced, parse_importtime(log))
            notes = []
            rows = traced["ops"] + untraced["ops"]
    result = report(context, metrics, rows, notes + failure_notes(rows))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
