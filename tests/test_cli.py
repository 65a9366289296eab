"""Command-line interface and report contracts."""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import argparse_parser
from ruledstrata import MAX_DIGITS, MAX_SAMPLES, cli, projective_maps, reports
from ruledstrata.cli import render_table
from ruledstrata.projective_maps import verify_maps_report
from ruledstrata.reports import (
    decompositions_report,
    links_report,
    plumb_report,
    strata_report,
    surface_by_name,
)


def run_json(capsys, argv):
    code = cli.main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestStrata:
    def test_lambda_two(self, capsys):
        code, report = run_json(capsys, ["strata", "--lambda", "2"])
        assert code == 0
        rows = report["rows"]
        assert [r["k"] for r in rows] == [0, 1, 2]
        assert [r["codim"] for r in rows] == [0, 2, 6]

    def test_lambda_zero(self, capsys):
        code, report = run_json(capsys, ["strata", "--lambda", "0"])
        assert code == 0
        assert [r["k"] for r in report["rows"]] == [0]

    def test_lambda_seven_halves(self, capsys):
        code, report = run_json(capsys, ["strata", "--lambda", "7/2"])
        assert code == 0
        rows = report["rows"]
        assert [r["k"] for r in rows] == [0, 1, 2, 3, 4]
        assert rows[-1]["area"] == "1/2"

    def test_nontrivial_carries_diagnostic(self, capsys):
        code, report = run_json(
            capsys, ["strata", "--lambda", "2", "--surface", "nontrivial"])
        assert code == 0
        rows = report["rows"]
        assert [r["k"] for r in rows] == [1, 2]
        assert all(r["codim"] == 4 * r["k"] for r in rows)
        assert all(r["codim_adjunction"] == 4 * r["k"] - 4 for r in rows)
        assert not any(r["codim_consistent"] for r in rows)

    def test_invalid_lambda(self, capsys):
        assert cli.main(["strata", "--lambda", "-1"]) == 2
        assert cli.main(["strata", "--lambda", "0",
                         "--surface", "nontrivial"]) == 2
        capsys.readouterr()
        for argv in (["strata", "--lambda", "1/0"],
                     ["strata", "--lambda=7/0", "--surface", "nontrivial",
                      "--json"],
                     ["strata", "--lambda", "-1/2"],
                     ["strata", "--lambda", "-1/2", "--json"],
                     ["strata", "--lambda", "2", "--lambda", "-1/2"],
                     ["strata", "--lambda", "1e400"],
                     ["strata", "--lambda", "1e400", "--surface", "nontrivial",
                      "--json"]):
            assert cli.main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error:")
            assert "Traceback" not in captured.err

    def test_row_limit_boundary(self, capsys, monkeypatch):
        # the row count is exact before any row is built: with a limit of 3
        # rows, lambda = 2 (k = 0, 1, 2) and lambda = 3 on the blow-up
        # (k = 1, 2, 3) are accepted, and 1/7 more is refused
        monkeypatch.setattr(reports, "MAX_STRATA_ROWS", 3)
        for lam, more, surface in (("2", "15/7", "trivial"),
                                   ("3", "22/7", "nontrivial")):
            code, report = run_json(
                capsys, ["strata", "--lambda", lam, "--surface", surface])
            assert code == 0 and len(report["rows"]) == 3
            assert cli.main(["strata", "--lambda", more,
                             "--surface", surface]) == 2
            assert "above the limit" in capsys.readouterr().err

    def test_digit_limit(self, capsys):
        # a lambda whose numbers, exponent, numerator or denominator pass
        # `reports.MAX_DIGITS` is refused before CPython's 4,300-digit limit
        # on int text, or the work of 10**exponent, is reached
        limit = reports.MAX_DIGITS
        for text, err in (
                ("1/" + "9" * 4300, f"lambda number of 4300 digits is above "
                                    f"the limit {limit}"),
                ("1/" + "9" * 4301, f"lambda number of 4301 digits is above "
                                    f"the limit {limit}"),
                ("1/" + "9" * (limit + 1), f"lambda number of {limit + 1} "
                                           f"digits is above the limit {limit}"),
                ("1e-5000", f"lambda exponent -5000 is beyond the limit "
                            f"+/-{limit}"),
                ("1e-4_001", f"lambda exponent -4001 is beyond the limit "
                             f"+/-{limit}"),
                ("1e-4000", f"lambda has a numerator or denominator of more "
                            f"than {limit} digits, the limit")):
            for surface in ("trivial", "nontrivial"):
                argv = ["strata", "--lambda", text, "--surface", surface]
                assert cli.main(argv) == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err == f"error: {err}\n"
        for text in ("1/" + "9" * limit, "1e-3999"):
            code, report = run_json(capsys, ["strata", "--lambda", text])
            assert code == 0 and len(report["rows"]) == 2
            assert cli.main(["strata", "--lambda", text]) == 0
            assert capsys.readouterr().err == ""


#: Whole `links --json` reports, pinned literally: they fix the adjacent
#: step's integer `bundle` and the blow-up report's `trace` and `diagnostic`.
LINKS_REPORTS = {
    ("3", "2", "trivial"): {
        "subcommand": "links",
        "params": {"m": 3, "k": 2, "surface": "trivial"},
        "pass": True,
        "trace": [
            {"rule": "gluing-bundle-degree", "bundle": -4},
            {"rule": "circle-bundle-recognition",
             "space": {"tag": "lens", "p": 4, "q": 1, "notes": []}}],
        "result": {"tag": "lens", "p": 4, "q": 1, "notes": []},
        "display": "L(4,1)",
    },
    ("2", "0", "trivial"): {
        "subcommand": "links",
        "params": {"m": 2, "k": 0, "surface": "trivial"},
        "pass": True,
        "trace": [
            {"rule": "gluing-bundle-over-two-fiber-stratum", "bundle": [-2, 0]},
            {"rule": "attaching-twist", "bundle": [-3, -1]},
            {"rule": "orbifold-plumbing-regular-fiber", "bundle": [-1, 0]},
            {"rule": "blowdown-pullback",
             "space": {"tag": "pullback_canonical", "p": None, "q": None,
                       "notes": ["circle bundle over the one-point blow-up of "
                                 "the plane",
                                 "pulled back from the canonical circle "
                                 "bundle under the blowdown"]}},
            {"rule": "collapse-exceptional-fibers",
             "space": {"tag": "s5", "p": None, "q": None,
                       "notes": ["canonical circle bundle over the plane",
                                 "sublink over a conic: L(2,1) = RP3"]}}],
        "l_z": {"tag": "sphere_bundle3", "p": None, "q": None,
                "notes": ["link of the zero section in the gluing data"]},
        "result": {"tag": "s5", "p": None, "q": None,
                   "notes": ["canonical circle bundle over the plane",
                             "sublink over a conic: L(2,1) = RP3"]},
        "display": "S5",
        "sublink": {"tag": "lens", "p": 2, "q": 1, "notes": []},
        "sublink_display": "L(2,1) = RP3",
    },
    ("3", "2", "nontrivial"): {
        "subcommand": "links",
        "params": {"m": 3, "k": 2, "surface": "nontrivial"},
        "pass": True,
        "trace": [
            {"rule": "adjacent-link-stated-value",
             "space": {"tag": "lens", "p": 9, "q": 1,
                       "notes": ["stated adjacent link on the blow-up"]}}],
        "result": {"tag": "lens", "p": 9, "q": 1,
                   "notes": ["stated adjacent link on the blow-up"]},
        "display": "L(9,1)",
        "diagnostic": {
            "rule": "self-intersection-plus-two-gluing-degree",
            "degree": -3,
            "space": {"tag": "lens", "p": 3, "q": 1, "notes": []},
            "agrees_with_stated": False},
    },
}


#: The table form of the same reports, pinned as whole text.
LINKS_TABLES = {
    ("3", "2", "trivial"): (
        "# links  {'m': 3, 'k': 2, 'surface': 'trivial'}\n"
        "trace: [{'rule': 'gluing-bundle-degree', 'bundle': -4}, "
        "{'rule': 'circle-bundle-recognition', 'space': {'tag': 'lens', "
        "'p': 4, 'q': 1, 'notes': []}}]\n"
        "result: {'tag': 'lens', 'p': 4, 'q': 1, 'notes': []}\n"
        "display: L(4,1)\n"
        "pass: True\n"),
    ("2", "0", "trivial"): (
        "# links  {'m': 2, 'k': 0, 'surface': 'trivial'}\n"
        "trace: [{'rule': 'gluing-bundle-over-two-fiber-stratum', "
        "'bundle': [-2, 0]}, {'rule': 'attaching-twist', 'bundle': [-3, "
        "-1]}, {'rule': 'orbifold-plumbing-regular-fiber', 'bundle': [-1, "
        "0]}, {'rule': 'blowdown-pullback', "
        "'space': {'tag': 'pullback_canonical', 'p': None, 'q': None, "
        "'notes': ['circle bundle over the one-point blow-up of the plane', "
        "'pulled back from the canonical circle bundle under the blowdown']}}, "
        "{'rule': 'collapse-exceptional-fibers', 'space': {'tag': 's5', "
        "'p': None, 'q': None, "
        "'notes': ['canonical circle bundle over the plane', "
        "'sublink over a conic: L(2,1) = RP3']}}]\n"
        "l_z: {'tag': 'sphere_bundle3', 'p': None, 'q': None, "
        "'notes': ['link of the zero section in the gluing data']}\n"
        "result: {'tag': 's5', 'p': None, 'q': None, "
        "'notes': ['canonical circle bundle over the plane', "
        "'sublink over a conic: L(2,1) = RP3']}\n"
        "display: S5\n"
        "sublink_display: L(2,1) = RP3\n"
        "pass: True\n"),
    ("3", "2", "nontrivial"): (
        "# links  {'m': 3, 'k': 2, 'surface': 'nontrivial'}\n"
        "trace: [{'rule': 'adjacent-link-stated-value', "
        "'space': {'tag': 'lens', 'p': 9, 'q': 1, "
        "'notes': ['stated adjacent link on the blow-up']}}]\n"
        "result: {'tag': 'lens', 'p': 9, 'q': 1, "
        "'notes': ['stated adjacent link on the blow-up']}\n"
        "display: L(9,1)\n"
        "diagnostic: {'rule': 'self-intersection-plus-two-gluing-degree', "
        "'degree': -3, 'space': {'tag': 'lens', 'p': 3, 'q': 1, "
        "'notes': []}, 'agrees_with_stated': False}\n"
        "pass: True\n"),
}


class TestLinks:
    @pytest.mark.parametrize("m, k, surface", sorted(LINKS_REPORTS))
    def test_whole_report(self, capsys, m, k, surface):
        code, report = run_json(
            capsys, ["links", "--m", m, "--k", k, "--surface", surface])
        expected = LINKS_REPORTS[m, k, surface]
        assert code == 0
        assert report == expected
        assert list(report) == list(expected)

    @pytest.mark.parametrize("m, k, surface", sorted(LINKS_TABLES))
    def test_whole_table(self, capsys, m, k, surface):
        code = cli.main(["links", "--m", m, "--k", k, "--surface", surface])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert captured.out == LINKS_TABLES[m, k, surface]

    def test_digit_limit(self, capsys):
        # p is 2k or 4k + 1, so m and k are held to `reports.MAX_DIGITS`
        limit = reports.MAX_DIGITS
        big = 5 * 10**4299
        for surface in ("trivial", "nontrivial"):
            for k in (big, 10**limit):
                argv = ["links", "--m", str(k + 1), "--k", str(k),
                        "--surface", surface]
                assert cli.main(argv) == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err == (f"error: m or k has more than {limit} "
                                        "digits, the limit\n")
            k = 5 * 10**(limit - 1)
            code, report = run_json(capsys, ["links", "--m", str(k + 1),
                                             "--k", str(k), "--surface", surface])
            assert code == 0
            assert report["result"]["p"] == (2 * k if surface == "trivial"
                                             else 4 * k + 1)
            assert cli.main(["links", "--m", str(k + 1), "--k", str(k),
                             "--surface", surface]) == 0
            assert capsys.readouterr().err == ""

    def test_adjacent(self, capsys):
        code, report = run_json(capsys, ["links", "--m", "2", "--k", "1"])
        assert code == 0
        assert report["result"] == {"tag": "lens", "p": 2, "q": 1, "notes": []}
        assert [t["rule"] for t in report["trace"]] == [
            "gluing-bundle-degree", "circle-bundle-recognition"]

    def test_open_end(self, capsys):
        code, report = run_json(capsys, ["links", "--m", "2", "--k", "0"])
        assert code == 0
        assert report["result"]["tag"] == "s5"
        assert report["sublink"]["tag"] == "lens"
        assert (report["sublink"]["p"], report["sublink"]["q"]) == (2, 1)
        bundles = [t["bundle"] for t in report["trace"] if "bundle" in t]
        assert bundles == [[-2, 0], [-3, -1], [-1, 0]]

    def test_unsupported_pair_lists_cases(self, capsys):
        code = cli.main(["links", "--m", "4", "--k", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "m=k+1" in err and "m=2, k=0" in err
        with pytest.raises(ValueError, match="is not derived here"):
            links_report(4, 1, surface_by_name("trivial"))
        with pytest.raises(ValueError, match="is not derived here"):
            links_report(2, 0, surface_by_name("nontrivial"))

    def test_bad_ordering(self, capsys):
        assert cli.main(["links", "--m", "1", "--k", "1"]) == 2


class TestPlumb:
    def test_chain(self, capsys):
        code, report = run_json(capsys, ["plumb", "--chain", "-3,-1"])
        assert code == 0
        assert (report["result"]["p"], report["result"]["q"]) == (2, 1)
        assert report["blow_down_trace"] == [[-3, -1], [-2]]
        assert report["pass"] is True

    def test_chain_with_spaces(self, capsys):
        code, report = run_json(capsys, ["plumb", "--chain", "-1, -1"])
        assert code == 0
        assert report["result"]["p"] == 0

    def test_chain_length_limit(self, capsys):
        collapse = [-2] * (reports.MAX_CHAIN_LENGTH - 1) + [-1]
        code, report = run_json(
            capsys, ["plumb", "--chain=" + ",".join(map(str, collapse))])
        assert code == 0
        assert len(report["params"]["chain"]) == 1000
        assert len(report["blow_down_trace"]) == 1001
        assert cli.main(["plumb", "--chain=" + ",".join(["-2"] * 1001)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: chain of 1001 vertices is above the "
                                "limit 1000\n")

    def test_digit_limit(self, capsys):
        # CPython writes no int of more than 4,300 digits as text: a chain
        # whose lens parameter p is longer, and an entry that long, are
        # refused with the tool's own limit
        limit = reports.MAX_DIGITS
        for argv, err in (
                (["plumb", "--chain=" + ",".join(["-100000"] * 1000)],
                 f"lens parameter p of this chain has more than {limit} "
                 "digits, the limit"),
                (["plumb", "--chain=-" + "9" * 5001, "--json"],
                 f"chain entry of 5001 digits is above the limit {limit}")):
            assert cli.main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {err}\n"
        code, report = run_json(capsys, ["plumb", "--chain=-" + "9" * limit])
        assert code == 0
        assert report["result"]["p"] == 10**limit - 1
        assert cli.main(["plumb", "--chain=" + "9" * limit]) == 0
        assert "Traceback" not in capsys.readouterr().err

    def test_empty_chain(self, capsys):
        for argv in (["plumb", "--chain", ""], ["plumb", "--chain=,"],
                     ["plumb", "--chain", "", "--json"]):
            assert cli.main(argv) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "error: need a nonempty chain\n"


class TestVerifyMaps:
    def test_default_rows_pass(self, capsys):
        code, report = run_json(
            capsys, ["verify-maps", "--samples", "150"])
        assert code == 0
        assert report["pass"] is True
        rows = report["rows"]
        assert [r["check"] for r in rows] == [
            "h-symmetry", "h-diagonal-on-quadric", "phi32-tau-invariance",
            "phi32-image-on-cone", "phi30-lines-to-quadric",
            "s5-identification-norm", "orbit-map-invariance",
            "critical-values-round-trip", "phi30-generic-preimages",
            "phi30-line-preimages"]
        assert [r["samples"] for r in rows] == [150] * 8 + [100, 100]
        special = {"s5-identification-norm": 1e-12,
                   "critical-values-round-trip": 1e-7}
        assert [r["tolerance"] for r in rows] == [
            special.get(r["check"], 1e-9) for r in rows]

    def test_zero_samples_rejected(self, capsys):
        assert cli.main(["verify-maps", "--samples", "0"]) == 2
        with pytest.raises(ValueError):
            verify_maps_report(0, 42, 1e-9)

    def test_invalid_tolerance_rejected(self, capsys):
        for tol in ("nan", "inf", "0", "-1", "-inf", "-1e-3"):
            argv = ["verify-maps", "--samples", "5", "--tol", tol, "--json"]
            assert cli.main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error:")
        for tol in (float("nan"), float("inf"), 0.0, -1.0):
            with pytest.raises(ValueError):
                verify_maps_report(5, 42, tol)

    def test_samples_above_limit_rejected(self, capsys):
        for argv in (["verify-maps", "--samples", "1000001"],
                     ["verify-maps", "--samples", str(10**12), "--json"]):
            assert cli.main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error:")
            assert "samples" in captured.err
            assert "limit 1000000" in captured.err

    def test_negative_seed_rejected(self, capsys):
        # refused by name, not by numpy's "expected non-negative integer"
        assert cli.main(["verify-maps", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be >= 0, got -1\n"
        with pytest.raises(ValueError, match="seed"):
            verify_maps_report(5, -1, 1e-9)
        assert MAX_SAMPLES == 10**6

    def test_seed_digit_limit(self, capsys):
        # --seed is held to the digit limit of every integer the CLI reads,
        # below the 4,300 digits at which int() gives up
        limit = MAX_DIGITS
        assert limit == reports.MAX_DIGITS == 4000
        argv = ["verify-maps", "--samples", "1", "--seed", "9" * limit, "--json"]
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert cli.main(["verify-maps", "--seed", "1" + "0" * limit]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: seed has more than {limit} digits, "
                                "the limit\n")
        with pytest.raises(ValueError, match="4000 digits"):
            verify_maps_report(1, 10**limit, 1e-9)

    def test_worst_sample_in_range(self, capsys):
        code, report = run_json(capsys, ["verify-maps", "--samples", "150"])
        assert code == 0
        families = {"phi30-lines-to-quadric": 4, "phi30-line-preimages": 3}
        for row in report["rows"]:
            assert isinstance(row["worstSample"], int)
            assert 0 <= row["worstSample"] < (
                row["samples"] * families.get(row["check"], 1))
        assert cli.main(["verify-maps", "--samples", "150"]) == 0
        header = capsys.readouterr().out.splitlines()[1].split()
        assert header[-1] == "worstSample"

    def test_nan_residual_fails_cleanly(self, capsys, monkeypatch):
        monkeypatch.setattr(projective_maps, "VERIFY_CHECKS", (
            ("nan", "r", None, None,
             [lambda rng, m: np.where(np.arange(m) == 2, np.nan, 0.0)]),))
        assert cli.main(["verify-maps", "--samples", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines()[3].split() == [
            "nan", "5", "nan", "1.000e-09", "False", "r", "2"]
        assert cli.main(["verify-maps", "--samples", "5", "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "non-finite" in captured.err

    def test_seeded_rerun_identical(self, capsys):
        argv = ["verify-maps", "--samples", "40", "--seed", "7", "--json"]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert cli.main(argv) == 0
        second = capsys.readouterr().out
        assert first == second


class TestDecompositions:
    def test_rows_have_schema(self, capsys):
        code, report = run_json(capsys, ["decompositions", "--n", "2"])
        assert code == 0
        for row in report["rows"]:
            assert set(row) == {"parts", "shape", "dim", "isotropy"}

    def test_negative_degree_refused(self, capsys):
        assert cli.main(["decompositions", "--n", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        code, report = run_json(capsys, ["decompositions", "--n", "0"])
        assert code == 0 and report["rows"] == []

    def test_degree_above_limit_refused(self, capsys):
        assert reports.MAX_FIBER_DEGREE == 8
        for argv in (["decompositions", "--n", "9"],
                     ["decompositions", "--n", "12", "--pointed", "--json"]):
            assert cli.main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error:")
            assert "limit 8" in captured.err
        code, report = run_json(capsys, ["decompositions", "--n", "8", "--depth", "0"])
        assert code == 0 and len(report["rows"]) == 22

    def test_pointed_flag(self, capsys):
        code, report = run_json(
            capsys, ["decompositions", "--n", "2", "--pointed"])
        assert code == 0
        assert all(row["inferred"] for row in report["rows"])

    def test_depth_audit(self, capsys):
        # any negative depth is no bound, shown as null; a 4,000-digit depth
        # bounds nothing and is echoed; 5,000 digits are beyond what `int`
        # reads from text, so the option parser refuses them
        huge = "9" * 4000
        for flags in ([], ["--pointed"]):
            argv = ["decompositions", "--n", "4", *flags, "--depth"]
            code, unbounded = run_json(capsys, argv + ["-1"])
            assert code == 0 and unbounded["params"]["depth"] is None
            code, negative = run_json(capsys, argv + ["-7"])
            assert code == 0 and negative == unbounded
            code, wide = run_json(capsys, argv + [huge])
            assert code == 0 and wide["rows"] == unbounded["rows"]
            assert wide["params"]["depth"] == int(huge)
        with pytest.raises(SystemExit) as exc:
            cli.main(["decompositions", "--n", "4", "--depth", "9" * 5000])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: ruledstrata decompositions")
        assert "argument --depth: invalid int value" in captured.err
        assert "Traceback" not in captured.err


class TestParser:
    @pytest.mark.parametrize("argv", [
        ["decompositions", "--n", "2", "--surface", "nontrivial"],
        ["plumb", "--chain=-2", "--surface", "trivial"],
        ["strata", "--lambda", "2", "--seed", "1"],
        ["links", "--m", "2", "--k", "1", "--tol", "1e-3"],
        ["decompositions", "--n", "2", "--seed", "1"],
        ["verify-maps", "--surface", "trivial"],
    ])
    def test_unread_options_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_help_names_every_option(self, capsys):
        for argv in (["-h"], ["--help"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 0
            out = capsys.readouterr().out
            assert out.startswith("usage: ruledstrata [-h]")
            assert all(sub in out for sub in cli.COMMANDS)
        for sub, (_, options) in cli.COMMANDS.items():
            for flag in ("-h", "--help"):
                with pytest.raises(SystemExit) as exc:
                    cli.main([sub, flag])
                assert exc.value.code == 0
                captured = capsys.readouterr()
                assert captured.err == ""
                assert captured.out.startswith(f"usage: ruledstrata {sub} ")
                for name, *_ in options + (cli.JSON_OPTION,):
                    assert f"  {name}" in captured.out

    def test_unique_prefix_accepted(self, capsys):
        code, report = run_json(capsys, ["strata", "--lam", "5/2"])
        assert code == 0 and report["params"]["lambda"] == "5/2"
        assert cli.main(["strata", "--lambda", "5/2", "--js"]) == 0
        assert json.loads(capsys.readouterr().out) == report

    @pytest.mark.parametrize("argv, error", [
        (["verify-maps", "--s", "3"],
         "ambiguous option: --s could match --samples, --seed"),
        (["strata", "--lambda", "2", "--json=1"],
         "argument --json: ignored explicit argument '1'"),
        (["links", "--m", "2", "--k"], "argument --k: expected one argument"),
        (["plumb", "--chain"], "argument --chain: expected one argument"),
        (["links", "--m", "2"],
         "the following arguments are required: --k"),
        (["strata", "--lambda", "2", "--"], "unrecognized arguments: --"),
    ])
    def test_usage_errors(self, capsys, argv, error):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        usage, message = captured.err.splitlines()
        assert usage.startswith(f"usage: ruledstrata {argv[0]} [-h]")
        assert message == f"ruledstrata {argv[0]}: error: {error}"

    def test_unknown_subcommand(self, capsys):
        for argv in ([], ["bogus"], ["--json"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("usage: ruledstrata [-h] {strata,")
            assert "\nruledstrata: error: " in captured.err

    def test_values_starting_with_minus_reach_the_program(self, capsys):
        # no value is read as an option, so the program's own checks decide
        code, report = run_json(capsys, ["decompositions", "--n", "3",
                                         "--depth", "-1"])
        assert code == 0 and report["params"]["depth"] is None
        assert cli.main(["strata", "--lambda", "-1/2"]) == 2
        assert capsys.readouterr().err == (
            "error: lambda must be >= 0 on the product surface\n")
        assert cli.main(["plumb", "--chain", "--"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_each_subcommand_takes_json(self, capsys):
        for argv in (["strata", "--lambda", "2"],
                     ["links", "--m", "2", "--k", "1"],
                     ["plumb", "--chain=-2"],
                     ["verify-maps", "--samples", "5", "--seed", "3",
                      "--tol", "1e-9"],
                     ["decompositions", "--n", "2"]):
            code, report = run_json(capsys, argv)
            assert code == 0
            assert report["pass"] is True


class TestJsonText:
    """`cli.json_text` writes what `json.dumps(indent=2, allow_nan=False)`
    writes."""

    @pytest.mark.parametrize("value", [
        {}, [], [[]], {"a": {}}, {"a": [], "b": [{}]}, None, True, False,
        0, -7, 10**300, 0.0, -0.0, 1e-9, 1e16, 5e-324, 1.7976931348623157e308,
        "", "plain", 'quote " and \\ back', "\b\f\n\r\t\x00\x1f\x7f",
        "caf\u00e9", "\u2028", "\U0001f600", "\ud800 lone",
    ])
    def test_matches_json_dumps(self, value):
        assert cli.json_text(value) == json.dumps(value, indent=2,
                                                  allow_nan=False)

    @settings(max_examples=200, deadline=None)
    @given(st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats(
            allow_nan=False, allow_infinity=False) | st.text(),
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
            st.text(), inner, max_size=4), max_leaves=20))
    def test_matches_json_dumps_generated(self, value):
        assert cli.json_text(value) == json.dumps(value, indent=2,
                                                  allow_nan=False)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       [1, {"x": -float("inf")}]])
    def test_non_finite_float_raises(self, value):
        with pytest.raises(ValueError):
            cli.json_text(value)

    @pytest.mark.parametrize("value", [(1, 2), [np.float64(0.5)]])
    def test_other_types_refused(self, value):
        # reports hold plain JSON only: a tuple or numpy scalar is a bug
        with pytest.raises(TypeError):
            cli.json_text(value)


#: A report no subcommand builds, holding every kind of cell and tail field
#: the table writer meets: float cells in `.3e` and NaN, bool, list and dict
#: cells, a column the first row lacks, the tail fields out of their written
#: order, and the fields the table leaves out (`rule`, `sublink`).
SYNTHETIC_REPORT = {
    "subcommand": "synthetic",
    "params": {"n": 2, "pointed": False},
    "rows": [
        {"check": "zero", "maxResidual": 0.0, "pass": True, "worst": [0, 1]},
        {"check": "tiny", "maxResidual": 1.404e-15, "pass": True,
         "worst": [], "diagnostic": {"degree": -3}},
        {"check": "nan", "maxResidual": float("nan"), "pass": False,
         "worst": [7], "diagnostic": {}},
    ],
    "rule": "left-out",
    "blow_down_trace": [[-2, -1], [-1]],
    "display": "L(4,1)",
    "sublink": {"tag": "lens"},
    "trace": [{"rule": "gluing-bundle-degree", "bundle": -4}],
    "pass": False,
}


class TestRenderTable:
    def test_synthetic_report(self):
        # every column is padded to its widest cell, the last one too
        assert render_table(SYNTHETIC_REPORT) == (
            "# synthetic  {'n': 2, 'pointed': False}\n"
            "check  maxResidual  pass   worst   diagnostic    \n"
            "-----  -----------  -----  ------  --------------\n"
            "zero   0.000e+00    True   [0, 1]                \n"
            "tiny   1.404e-15    True   []      {'degree': -3}\n"
            "nan    nan          False  [7]     {}            \n"
            "trace: [{'rule': 'gluing-bundle-degree', 'bundle': -4}]\n"
            "display: L(4,1)\n"
            "blow_down_trace: [[-2, -1], [-1]]\n"
            "pass: False")


class TestReportContracts:
    def test_json_round_trip(self):
        for report in (
            strata_report(2, surface_by_name("trivial")),
            links_report(2, 0, surface_by_name("trivial")),
            links_report(3, 2, surface_by_name("nontrivial")),
            plumb_report([-2, -1, -2]),
            verify_maps_report(20, 42, 1e-9),
            decompositions_report(4, None, True),
            decompositions_report(5, 3, False),
        ):
            assert json.loads(json.dumps(report)) == report

    def test_rows_carry_rules(self):
        report = strata_report(2, surface_by_name("trivial"))
        assert all(r.get("rule") for r in report["rows"])
        report = verify_maps_report(10, 42, 1e-9)
        assert all(r.get("rule") for r in report["rows"])

    def test_table_rendering_fixed_width(self, capsys):
        assert cli.main(["strata", "--lambda", "2"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines()
                 if l and not l.startswith(("#", "pass"))]
        assert len(lines) >= 5  # header, separator, three rows
        assert len({len(l) for l in lines}) == 1
        assert set(lines[1]) <= {"-", " "}


# ---------------------------------------------------------------------------
# the CLI contract over generated argvs

def _mostly(valid, *junk):
    """Values that are valid four times in five, junk otherwise."""
    bad = st.sampled_from(("", "x", "-", "--", "1.5", "nan") + junk)
    return st.integers(0, 4).flatmap(lambda i: bad if i == 0 else valid)


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


# Each option with the values it may take: valid values within the work
# bounds (--n <= 5, --samples <= 30, |lambda| <= 50, chains of <= 12
# entries) and junk.
_VALUES = {
    "--lambda": _mostly(st.one_of(_ints(-50, 50), st.tuples(
        st.integers(-50, 50), st.integers(-3, 4)).map("{0[0]}/{0[1]}".format)),
        "1/", "2/-3", "inf"),
    "--surface": _mostly(st.sampled_from(("trivial", "nontrivial")), "bogus"),
    "--m": _mostly(_ints(-1, 4)),
    "--k": _mostly(_ints(-1, 3)),
    "--chain": _mostly(st.lists(st.integers(-6, 3), max_size=12).map(
        lambda c: ",".join(map(str, c))), ",", "-2,x", "1,,2", " -1 , -1 "),
    "--samples": _mostly(_ints(-2, 30)),
    "--seed": _mostly(_ints(-5, 2**40)),
    "--tol": _mostly(st.floats().map(repr), "0", "-inf", "1e-300"),
    "--n": _mostly(_ints(-2, 5)),
    "--depth": _mostly(_ints(-3, 4)),
}
_OPTIONS = {
    "strata": ("--lambda", "--surface"),
    "links": ("--m", "--k", "--surface"),
    "plumb": ("--chain",),
    "verify-maps": ("--samples", "--seed", "--tol"),
    "decompositions": ("--n", "--depth", "--pointed"),
    "bogus": (),
}
_STRAY = ("--json", "--pointed", "--bogus", "--chain", "-1")


def _group(opt):
    if opt in _VALUES:
        return _VALUES[opt].map(lambda v: [opt, v])
    return st.just([opt])


@st.composite
def _argv(draw):
    """A subcommand with each of its own options and --json three times in
    four, sometimes with a stray token or another subcommand's option."""
    sub = draw(st.sampled_from(sorted(_OPTIONS)))
    own = _OPTIONS[sub] + ("--json",)
    groups = [draw(_group(opt)) for opt in own if draw(st.integers(0, 3))]
    groups += draw(st.lists(st.one_of(
        st.sampled_from(_STRAY).map(lambda tok: [tok]),
        st.sampled_from(sorted(_VALUES)).flatmap(_group)), max_size=1))
    groups = draw(st.permutations(groups))
    return [sub] + [tok for group in groups for tok in group]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@settings(max_examples=300, deadline=None)
@given(_argv())
@example(["links", "--m", "2", "--k", "1", "-1"])
@example(["strata", "--lambda=2", "--json=1"])
@example(["verify-maps", "--tol", "nan"])
def test_parser_matches_argparse(argv):
    # where argparse read an argv, parse_args reads the same values, and
    # where it refused one, so does parse_args; except where a value starts
    # with "-" (argparse took it for an option) or is "--" (argparse took it
    # for the end of the options)
    if any(tok.startswith("-") and prev in _VALUES or tok.endswith("--")
           for prev, tok in zip(argv, argv[1:])):
        return
    results = []
    for parse in (argparse_parser().parse_args, cli.parse_args):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                # a NaN, as "--tol nan" gives, equals no value, itself
                # included: compare it as text
                results.append({k: "nan" if v != v else v
                                for k, v in vars(parse(argv)).items()})
            except SystemExit as exc:
                results.append(exc.code)
    assert results[0] == results[1], argv


@settings(max_examples=300, deadline=None)
@given(_argv())
# a value of exactly "--" is an ordinary value, which the checks refuse
@example(["plumb", "--chain", "--"])
@example(["verify-maps", "--samples=--", "--json"])
def test_cli_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    # a --json right after an option is that option's value, not the flag
    as_json = any(tok == "--json" and prev not in _VALUES
                  for prev, tok in zip(argv, argv[1:]))
    if as_json and code in (0, 1):
        text = out.getvalue()
        report = json.loads(text, parse_constant=_reject_constant)
        assert json.dumps(report, indent=2, allow_nan=False) + "\n" == text
