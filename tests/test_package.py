"""Package-level contracts."""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ruledstrata import cli

SRC = Path(__file__).resolve().parents[1] / "src"

# Prints which of numpy and the numeric module a fresh interpreter has loaded.
NUMERIC_PROBE = ("import sys; print(sorted(m for m in sys.modules "
                 "if m in ('numpy', 'ruledstrata.projective_maps')))")
# Prints every ruledstrata submodule a fresh interpreter has loaded.
MODULE_PROBE = ("import sys; print(sorted(m for m in sys.modules "
                "if m.startswith('ruledstrata.')))")
# Prints which of argparse and json a fresh interpreter has loaded; the
# command line reads its options and writes JSON without them, which saves
# about 10 ms of start-up.
STDLIB_PROBE = ("import sys; print(sorted(m for m in sys.modules "
                "if m in ('argparse', 'json')))")
# Prints which of argparse, dataclasses, inspect, json and numpy a fresh
# interpreter has loaded; no exact subcommand needs them, and dataclasses
# with inspect take about 11 ms to import.
HEAVY_PROBE = ("import sys; print(sorted(m for m in sys.modules if m in "
               "('argparse', 'dataclasses', 'inspect', 'json', 'numpy')))")
# Prints which of numpy.random and secrets a fresh interpreter has loaded;
# together they cost verify-maps about 6 MB of peak RSS, and its sampler
# needs neither.
RANDOM_PROBE = ("import sys; print(sorted(m for m in sys.modules "
                "if m in ('numpy.random', 'secrets')))")
# Prints the threads of the process and the BLAS thread count it asks for.
BLAS_PROBE = ("import os; print(len(os.listdir('/proc/self/task')), "
              "os.environ.get('OPENBLAS_NUM_THREADS'))")


def fresh_env(blas_threads: str | None = None) -> dict:
    """The environment of a fresh interpreter with `src` on the path, and
    OPENBLAS_NUM_THREADS set to `blas_threads`, or unset when None."""
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_fresh(code: str, blas_threads: str | None = None) -> list[str]:
    """Run code in a fresh interpreter with `src` on the path; stdout lines."""
    return subprocess.run([sys.executable, "-c", code],
                          env=fresh_env(blas_threads), check=True,
                          capture_output=True, text=True).stdout.splitlines()


def run_cli_fresh(argvs, probe=NUMERIC_PROBE, blas_threads=None) -> list[str]:
    """Run `cli.main` on each argv in one fresh interpreter, output captured;
    print the exit codes (a usage error's or help's SystemExit code too),
    then what `probe` prints (by default the numeric modules it loaded)."""
    code = ("import contextlib, io\n"
            "from ruledstrata import cli\n"
            "codes = []\n"
            f"for argv in {argvs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "        try:\n"
            "            codes.append(cli.main(argv))\n"
            "        except SystemExit as exc:\n"
            "            codes.append(exc.code)\n"
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


@pytest.mark.parametrize("argv, layers", [
    (["strata", "--lambda", "5/2"], ["homology"]),
    (["strata", "--lambda", "5/2", "--surface", "nontrivial", "--json"],
     ["homology"]),
    (["decompositions", "--n", "3"], ["stable_trees"]),
    (["decompositions", "--n", "3", "--pointed", "--json"], ["stable_trees"]),
    (["links", "--m", "2", "--k", "0", "--json"],
     ["bundles", "homology", "plumbing"]),
    (["links", "--m", "3", "--k", "2", "--surface", "nontrivial"],
     ["bundles", "homology", "plumbing"]),
    (["plumb", "--chain=-3,-1", "--json"], ["bundles", "plumbing"]),
    # an entry that does not parse is refused before any layer loads
    (["plumb", "--chain=-2,x"], []),
])
def test_exact_subcommand_loads_only_its_layers(argv, layers):
    # each subcommand loads the layers it calls and nothing heavier
    modules = sorted(f"ruledstrata.{m}" for m in ["cli", "reports"] + layers)
    code = str([0 if layers else 2])
    assert run_cli_fresh([argv], MODULE_PROBE + "\n" + HEAVY_PROBE) == [
        code, str(modules), "[]"]


def test_no_subcommand_loads_argparse_or_json():
    # verify-maps, which loads numpy, and help and usage errors read and
    # write without argparse and json as well
    argvs = [["verify-maps", "--samples", "5", "--json"],
             ["verify-maps", "--samples", "5"], ["--help"],
             ["decompositions", "-h"], ["links", "--m", "2"]]
    assert run_cli_fresh(argvs, STDLIB_PROBE) == ["[0, 0, 0, 0, 2]", "[]"]
    # the positive case: the probe sees both when they load
    assert run_fresh("import argparse, json\n" + STDLIB_PROBE) == [
        "['argparse', 'json']"]


def test_verify_maps_table_loads_no_exact_layer():
    # the table form loads `reports` to render, and no layer with it; numpy
    # itself imports `inspect`, but nothing imports `dataclasses`
    probe = MODULE_PROBE + "\nprint('dataclasses' in sys.modules)"
    assert run_cli_fresh([["verify-maps", "--samples", "5"]], probe) == [
        "[0]", "['ruledstrata.cli', 'ruledstrata.projective_maps', "
        "'ruledstrata.reports']", "False"]


def test_bad_verify_maps_arguments_refused_before_numpy():
    argvs = [["verify-maps", "--samples", "20", "--tol", "nan", "--json"],
             ["verify-maps", "--samples", "20", "--tol", "-1"],
             ["verify-maps", "--seed", "-1"],
             ["verify-maps", "--samples", "1000001", "--json"],
             ["verify-maps", "--seed", "1" + "0" * cli.MAX_DIGITS]]
    assert run_cli_fresh(argvs) == ["[2, 2, 2, 2, 2]", "[]"]


def test_reports_import_loads_no_numpy():
    assert run_fresh("import ruledstrata.reports\n" + NUMERIC_PROBE) == ["[]"]


def test_verify_maps_loads_numpy():
    # the positive case: the probe sees the numeric modules when they load
    assert run_cli_fresh([["verify-maps", "--samples", "5"]]) == [
        "[0]", "['numpy', 'ruledstrata.projective_maps']"]


def test_verify_maps_loads_no_numpy_random():
    # the report draws from its own counter streams, in JSON and table form
    argvs = [["verify-maps", "--samples", "5", "--json"],
             ["verify-maps", "--samples", "5"]]
    assert run_cli_fresh(argvs, RANDOM_PROBE) == ["[0, 0]", "[]"]
    # the positive case: the probe sees both when numpy.random loads
    assert run_fresh("import numpy.random\n" + RANDOM_PROBE) == [
        "['numpy.random', 'secrets']"]


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


def test_verify_maps_json_loads_no_exact_layer():
    # verify-maps --json needs only numpy and projective_maps: no report
    # builder, no exact layer
    assert run_cli_fresh([["verify-maps", "--samples", "5", "--json"]],
                         MODULE_PROBE) == [
        "[0]", "['ruledstrata.cli', 'ruledstrata.projective_maps']"]


def test_verify_maps_table_renders():
    # the table form loads `reports` only to render
    result = subprocess.run(
        [sys.executable, "-m", "ruledstrata.cli", "verify-maps", "--samples",
         "5"], env=fresh_env(), capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0].startswith("# verify-maps")
    assert lines[1].split()[:2] == ["check", "samples"]
    assert set(lines[2]) <= {"-", " "}
    assert len(lines) == 3 + 10 + 1 and lines[-1] == "pass: True"
    assert len({len(line) for line in lines[1:-1]}) == 1


def test_in_process_main_does_not_freeze(capsys):
    before = gc.get_freeze_count()
    assert cli.main(["links", "--m", "2", "--k", "1"]) == 0
    assert cli.main(["strata", "--lambda", "1/0"]) == 2
    with pytest.raises(SystemExit):
        cli.main(["links", "--bogus"])
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("argv, code", [
    (["links", "--m", "2", "--k", "1"], 0),
    (["links", "--bogus"], 2),
])
def test_process_main_freezes_before_exit(argv, code):
    # main() on sys.argv, as the console script calls it, freezes the
    # objects before interpreter shutdown, also on a usage error
    script = ("import atexit, gc, sys\n"
              "from ruledstrata import cli\n"
              "atexit.register(lambda: print('frozen at exit',"
              " gc.get_freeze_count() > 0, file=sys.stderr))\n"
              "print('frozen before', gc.get_freeze_count() > 0,"
              " file=sys.stderr)\n"
              f"sys.argv = ['ruledstrata'] + {argv!r}\n"
              "sys.exit(cli.main())\n")
    result = subprocess.run([sys.executable, "-c", script], env=fresh_env(),
                            capture_output=True, text=True)
    assert result.returncode == code, result.stderr
    err = result.stderr.splitlines()
    assert err[0] == "frozen before False"
    assert err[-1] == "frozen at exit True"


def test_unknown_surface_refused(capsys):
    for argv in (["strata", "--lambda", "2", "--surface", "bogus"],
                 ["links", "--m", "2", "--k", "1", "--surface", "bogus"]):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: unknown surface 'bogus'; "
                                "use trivial or nontrivial\n")


def test_closed_pipe_exits_quietly():
    # about 0.8 MB of JSON, far more than a pipe buffer holds; the reader
    # takes one byte and closes its end
    chain = ",".join(["-2"] * 399 + ["-1"])
    proc = subprocess.Popen(
        [sys.executable, "-m", "ruledstrata.cli", "plumb", f"--chain={chain}",
         "--json"], env=fresh_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE)
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "Exception ignored" not in err
