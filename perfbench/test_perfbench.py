"""Tests of the benchmark itself: statistics, tracer arithmetic, output
checks, and a tiny-size pass of every workload.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import statistics
import tempfile

import pytest

import checks
import run
import tracer
import workloads
from ruledstrata import cli, reports, stable_trees
from ruledstrata.homology import TRIVIAL, RuledSurface

REFS = workloads.load_references()


# ---------------------------------------------------------------------------
# percentile rule


def test_percentiles_on_synthetic_data():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert run.percentile(values, 50) == pytest.approx(50.5)
    assert run.percentile(values, 90) == pytest.approx(90.1)
    assert run.samples_beyond(values, run.percentile(values, 90)) == 10
    assert run.percentile(values, 50) == statistics.median(values)
    quartiles = statistics.quantiles(values, n=4, method="inclusive")
    assert [run.percentile(values, q) for q in (25, 75)] == pytest.approx(
        [quartiles[0], quartiles[2]])
    assert run.percentile([3.0], 90) == 3.0
    assert run.percentile([1.0, 2.0], 90) == pytest.approx(1.9)


def test_importtime_parse_stops_at_marker():
    log = ("import time: self [us] | cumulative | imported package\n"
           "import time:       120 |      75000 | numpy\n"
           "perfbench: imported\n"
           "import time:       100 |      99999 | numpy\n")
    assert run.parse_importtime(log) == pytest.approx(0.075)
    assert run.parse_importtime("perfbench: imported\n") == 0.0


# ---------------------------------------------------------------------------
# self-time arithmetic and the tracer


def test_self_time_of_nested_spans():
    # root [0, 10] with children a [1, 4] and b [5, 9]; a has child c [2, 3]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    assert tracer.self_times(parent, start, end) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert sum(tracer.self_times(parent, start, end)) == pytest.approx(10.0)


def test_tracer_spans_only_cross_module_calls(tmp_path):
    shape = (1, ((0, ((1, ()), (1, ()))), (2, ())))
    bound = tracer.BoundaryTracer()
    bound.install()
    try:
        assert stable_trees.shape_edges(shape) == 4
        report = reports.links_report(3, 2, TRIVIAL)
        assert isinstance(TRIVIAL, RuledSurface)
    finally:
        bound.uninstall()
    assert report["display"] == "L(4,1)"
    assert not hasattr(stable_trees.shape_edges, "__wrapped__")
    totals = bound.layer_totals()
    # the recursion of shape_edges is counted, with a single span
    assert totals["layers"]["stable_trees"]["calls"] == 5
    names = [bound.functions[f] for f in bound.span_function]
    assert names.count("stable_trees.shape_edges") == 1
    # links_report -> bundles.gluing_bundle and -> plumbing.link_adjacent
    assert "bundles.gluing_bundle" in names and "plumbing.link_adjacent" in names
    root = names.index("reports.links_report")
    children = {names[i] for i, p in enumerate(bound.span_parent) if p == root}
    assert {"bundles.gluing_bundle", "plumbing.link_adjacent"} <= children
    layers = totals["layers"]
    assert all(layers[name]["self_s"] >= 0 for name in layers)
    bound.write_spans(tmp_path / "spans.bin")
    header, _, body = (tmp_path / "spans.bin").read_bytes().partition(b"\n")
    header = json.loads(header)
    assert header["spans"] == len(names)
    assert len(body) == len(names) * sum(size for _, _, size in header["arrays"])


# ---------------------------------------------------------------------------
# output checks


def _cli_output(argv):
    code, out, err = tracer.call_main(cli.main, argv)
    assert code == 0, err
    return out


def test_checks_reject_nan_in_json():
    op = workloads.verify_op(20, 42, ("--json",))
    out = _cli_output(list(op.argv))
    assert checks.Verifier(REFS).verify(op, 0, out, b"").ok
    corrupt = out.replace(b'"maxResidual": 0.0', b'"maxResidual": NaN', 1)
    assert corrupt != out
    verdict = checks.Verifier(REFS).verify(op, 0, corrupt, b"")
    assert not verdict.ok and "NaN" in verdict.reason


def test_checks_reject_wrong_lens():
    op = workloads.plumb_op([-2, -2, -2], "minus_two", ("--json",))
    out = _cli_output(list(op.argv))
    assert checks.Verifier(REFS).verify(op, 0, out, b"").ok
    corrupt = out.replace(b'"p": 4', b'"p": 5')
    verdict = checks.Verifier(REFS).verify(op, 0, corrupt, b"")
    assert not verdict.ok and "L(4, 3)" in verdict.reason


def test_checks_reject_traceback_with_exit_2():
    tb = b"Traceback (most recent call last):\n  ...\nZeroDivisionError\n"
    hostile = workloads.hostile_op("strata", "--lambda", "1/0")
    verdict = checks.Verifier(REFS).verify(hostile, 2, b"", tb)
    assert verdict.ok and not verdict.contract_ok
    assert checks.Verifier(REFS).verify(hostile, 2, b"", b"error: ...\n").contract_ok
    assert not checks.Verifier(REFS).verify(hostile, 0, b"", b"").ok
    op = workloads.link_op(3, 2, "trivial")
    assert not checks.Verifier(REFS).verify(op, 2, b"", tb).ok


def test_checks_reject_changed_rerun():
    op = workloads.link_op(3, 2, "trivial", ("--json",))
    out = _cli_output(list(op.argv))
    verifier = checks.Verifier(REFS)
    assert verifier.verify(op, 0, out, b"").ok
    assert verifier.verify(op, 0, out, b"").ok
    assert not verifier.verify(op, 0, out.replace(b"  ", b"   "), b"").ok


def test_strict_json_rejects_non_finite_and_accepts_plain():
    with pytest.raises(checks.CheckFailure):
        checks.strict_json('{"x": Infinity}')
    with pytest.raises(checks.CheckFailure):
        checks.strict_json('{"x": 1e999}')
    assert checks.strict_json('{"x": [1, 2.5, "a", null]}') == {"x": [1, 2.5, "a", None]}


def test_continuant_lens():
    assert checks.continuant_lens([-3, -1]) == (2, 1)
    assert checks.continuant_lens([-2] * 4) == (5, 4)
    assert abs(checks.continuant_lens(workloads.collapse_chain(7))[0]) == 1
    assert checks.lens_equivalent((7, 2), (7, 4))  # 2 * 4 = 1 mod 7
    assert not checks.lens_equivalent((7, 1), (7, 2))


# ---------------------------------------------------------------------------
# tiny-size smoke pass of every workload


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_replays_in_process(workload):
    ops = workloads.build_ops(workload, 7, REFS, tiny=True)
    bound = tracer.BoundaryTracer()
    bound.install()
    try:
        result = tracer.replay(ops, cli.main, checks.Verifier(REFS), bound)
    finally:
        bound.uninstall()
    assert [o["reason"] for o in result["ops"] if not o["ok"]] == []
    assert bound.layer_totals()["layers"]["cli"]["calls"] >= len(ops)


def test_tiny_workloads_run_end_to_end():
    env = run.child_env()
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=run.OUT_DIR) as errfile:
        setup = run.measure_setup(env, errfile)
        for workload in workloads.WORKLOADS:
            ops = workloads.build_ops(workload, 7, REFS, tiny=True)
            samples = run.run_rounds(ops, 7, 0.0, env, errfile,
                                     checks.Verifier(REFS), min_rounds=1)
            assert len(samples) == len(ops)
            assert [s["reason"] for s in samples if not s["ok"]] == []
            metrics = run.end_to_end(setup, samples)
            assert all(value > 0 for value, _, _ in metrics.values())
