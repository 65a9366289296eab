"""Package-level contracts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Prints which of numpy and the numeric module a fresh interpreter has loaded.
NUMERIC_PROBE = ("import sys; print(sorted(m for m in sys.modules "
                 "if m in ('numpy', 'ruledstrata.projective_maps')))")
# Prints the threads of the process and the BLAS thread count it asks for.
BLAS_PROBE = ("import os; print(len(os.listdir('/proc/self/task')), "
              "os.environ.get('OPENBLAS_NUM_THREADS'))")


def run_fresh(code: str, blas_threads: str | None = None) -> list[str]:
    """Run code in a fresh interpreter with `src` on the path; stdout lines.

    OPENBLAS_NUM_THREADS is `blas_threads` in the child, unset when None.
    """
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.splitlines()


def run_cli_fresh(argvs, probe=NUMERIC_PROBE, blas_threads=None) -> list[str]:
    """Run `cli.main` on each argv in one fresh interpreter, output captured;
    print the exit codes, then what `probe` prints (by default the numeric
    modules it loaded)."""
    code = ("import contextlib, io\n"
            "from ruledstrata import cli\n"
            "codes = []\n"
            f"for argv in {argvs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "        codes.append(cli.main(argv))\n"
            "print(codes)\n" + probe)
    return run_fresh(code, blas_threads)


def test_import_loads_no_submodule():
    # the package is a namespace with a version; the API lives in the
    # submodules, so importing it must not pull in numpy or any of them
    code = ("import sys, ruledstrata; print(ruledstrata.__version__); "
            "print(sorted(m for m in sys.modules if m == 'numpy' "
            "or m.startswith('ruledstrata.')))")
    assert run_fresh(code) == ["0.1.0", "[]"]


def test_exact_subcommands_load_no_numpy():
    # only verify-maps needs floating point; the exact subcommands, their
    # --json form and an invalid input must not import numpy
    argvs = []
    for argv in (["strata", "--lambda", "5/2"], ["links", "--m", "2", "--k", "0"],
                 ["plumb", "--chain=-3,-1"], ["decompositions", "--n", "3"]):
        argvs += [argv, argv + ["--json"]]
    argvs += [["links", "--m", "3", "--k", "2", "--surface", "nontrivial"],
              ["decompositions", "--n", "3", "--pointed", "--json"],
              ["strata", "--lambda", "1/0"]]
    assert run_cli_fresh(argvs) == [str([0] * 10 + [2]), "[]"]


def test_reports_import_loads_no_numpy():
    assert run_fresh("import ruledstrata.reports\n" + NUMERIC_PROBE) == ["[]"]


def test_verify_maps_loads_numpy():
    # the positive case: the probe sees the numeric modules when they load
    assert run_cli_fresh([["verify-maps", "--samples", "5"]]) == [
        "[0]", "['numpy', 'ruledstrata.projective_maps']"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs /proc/self/task to count threads")
def test_verify_maps_runs_one_blas_thread():
    # the checks make no threaded BLAS call, so numpy must not start an
    # OpenBLAS worker thread when the user has not asked for a count; the
    # variable is unset again, so children of an in-process caller keep
    # their own BLAS thread count
    assert run_cli_fresh([["verify-maps", "--samples", "5"]],
                         BLAS_PROBE) == ["[0]", "1 None"]


def test_verify_maps_keeps_user_blas_threads():
    probe = "import os; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert run_cli_fresh([["verify-maps", "--samples", "5"]], probe,
                         blas_threads="2") == ["[0]", "2"]
