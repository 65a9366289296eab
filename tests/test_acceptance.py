"""Acceptance suite: one test per exit criterion, each printing a verdict.

Run with `pytest -v tests/test_acceptance.py -s` to see the per-criterion
lines.  Tolerances and budgets are pinned here, not configurable.
"""

import itertools
import json
import time

import numpy as np
import pytest
from oracles import (
    RP3,
    StableTree,
    TreeComponent,
    branch_moduli_dim,
    chern_pairing,
    combinatorial_isotropy,
    count_phi30,
    critical_values,
    fiber_class,
    map_from_critical_values,
    orbit_space_map,
    proj_residual,
    s5_identification,
    top_stratum_dimension,
    unordered_pair_residual,
    weighted_circle_orbit,
)

from ruledstrata import cli
from ruledstrata.homology import TRIVIAL, normal_codim, stratum_curve_class
from ruledstrata.plumbing import (
    blow_down_fully,
    chain_to_lens,
    lens_equivalent,
    lens_space,
)
from ruledstrata.projective_maps import (
    random_generic_square_rows,
    random_line_target_rows,
    random_separated_pair_rows,
    random_unit_sphere_rows,
)
from ruledstrata.stable_trees import enumerate_decompositions


def verdict(n, ok, text):
    print(f"acceptance criterion {n:2d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok


def run_cli_json(capsys, argv):
    code = cli.main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_criterion_01_adjacent_links(capsys):
    """links --m k+1 --k k gives L(2k,1) for k = 1..10 through the bundle."""
    start = time.monotonic()
    ok = True
    for k in range(1, 11):
        code, report = run_cli_json(
            capsys, ["links", "--m", str(k + 1), "--k", str(k)])
        result = report["result"]
        ok &= code == 0
        ok &= (result["tag"], result["p"], result["q"]) == ("lens", 2 * k, 1)
        ok &= report["trace"][0]["rule"] == "gluing-bundle-degree"
        ok &= report["trace"][0]["bundle"] == -2 * k
        ok &= report["trace"][1]["rule"] == "circle-bundle-recognition"
    elapsed = time.monotonic() - start
    ok &= elapsed < 1.0
    verdict(1, ok, f"adjacent links L(2k,1) for k=1..10 in {elapsed:.3f}s")


def test_criterion_02_open_end_link(capsys):
    """links --m 2 --k 0 runs the full pipeline to the 5-sphere."""
    start = time.monotonic()
    code, report = run_cli_json(capsys, ["links", "--m", "2", "--k", "0"])
    elapsed = time.monotonic() - start
    ok = code == 0
    bundles = [t["bundle"] for t in report["trace"] if "bundle" in t]
    ok &= bundles == [[-2, 0], [-3, -1], [-1, 0]]
    tags = [t["space"]["tag"] for t in report["trace"] if "space" in t]
    ok &= tags == ["pullback_canonical", "s5"]
    ok &= report["result"]["tag"] == "s5"
    ok &= (report["sublink"]["p"], report["sublink"]["q"]) == (2, 1)
    ok &= elapsed < 1.0
    verdict(2, ok, f"pipeline (-2,0)->(-3,-1)->(-1,0)->pullback->S5, "
                   f"sublink RP3, in {elapsed:.3f}s")


def test_criterion_03_plumbing_oracle_exhaustive():
    """Continued fraction agrees with blow-down reduction on every chain of
    length up to 6 with Euler numbers in [-5, -1]."""
    start = time.monotonic()
    checked = 0
    ok = True
    for length in range(1, 7):
        for eulers in itertools.product(range(-5, 0), repeat=length):
            direct = chain_to_lens(eulers)
            reduced = blow_down_fully(eulers)[-1]
            ok = ok and lens_equivalent(direct, chain_to_lens(reduced))
            checked += 1
    elapsed = time.monotonic() - start
    ok &= checked == sum(5**n for n in range(1, 7))
    ok &= elapsed < 30.0
    verdict(3, ok, f"{checked} chains, continued fraction == blow-down, "
                   f"in {elapsed:.1f}s")


def test_criterion_04_calibration_points():
    """[-1,-1] is S2 x S1 and [-3,-1] is L(2,1), exactly."""
    a = chain_to_lens([-1, -1])
    b = chain_to_lens([-3, -1])
    ok = (a.p, a.q) == (0, 1) and (b.p, b.q) == (2, 1)
    ok &= lens_equivalent(b, RP3)
    verdict(4, ok, "[-1,-1] -> S2 x S1 and [-3,-1] -> L(2,1)")


def test_criterion_05_stratum_tables():
    """Codimension identities and the partition dimension identity."""
    ok = True
    for k in range(1, 11):
        codim = normal_codim(stratum_curve_class(TRIVIAL, k))
        ok &= codim == 4 * k - 2
        ok &= codim == -(2 * chern_pairing(TRIVIAL.h2(1, -k)) - 2)
    count = 0
    for n in range(1, 9):
        for dec in enumerate_decompositions(n):
            p = len(dec)
            ok &= (top_stratum_dimension(dec)
                   == sum(branch_moduli_dim(d) for d in dec) + 2 * p)
            count += 1
    verdict(5, ok, f"codim 4k-2 for k=1..10 and 4n-2p identity over "
                   f"{count} partitions of n<=8")


def test_criterion_06_verify_maps(capsys):
    """verify-maps, 1000 seeded samples, core identities below 1e-9."""
    start = time.monotonic()
    code, report = run_cli_json(
        capsys, ["verify-maps", "--samples", "1000", "--seed", "42"])
    elapsed = time.monotonic() - start
    rows = {r["check"]: r for r in report["rows"]}
    core = ("h-symmetry", "h-diagonal-on-quadric", "phi32-tau-invariance",
            "phi32-image-on-cone", "phi30-lines-to-quadric")
    ok = code == 0 and report["pass"]
    worst = 0.0
    for check in core:
        row = rows[check]
        ok &= row["samples"] == 1000
        ok &= row["maxResidual"] < 1e-9
        worst = max(worst, row["maxResidual"])
    ok &= elapsed < 5.0
    verdict(6, ok, f"5 identities, worst residual {worst:.2e}, "
                   f"in {elapsed:.2f}s")


def test_criterion_07_covering_degrees():
    """Preimage counts 4 at generic targets, 2 on each coordinate line."""
    start = time.monotonic()
    rng = np.random.default_rng(42)
    ok = True
    for _ in range(100):
        got = count_phi30(random_generic_square_rows(rng, 1)[0],
                          cluster_tol=1e-6)
        ok &= got.count == 4 and got.generic
    for i in range(3):
        for _ in range(100):
            got = count_phi30(random_line_target_rows(rng, 1, i)[0],
                              cluster_tol=1e-6)
            ok &= got.count == 2 and not got.generic
    elapsed = time.monotonic() - start
    ok &= elapsed < 10.0
    verdict(7, ok, f"100 generic targets -> 4, 100 per line -> 2, "
                   f"in {elapsed:.2f}s")


def test_criterion_08_branch_point_round_trip():
    """Branch-point round trip below 1e-7 on 1000 separated seeded pairs."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        x, y = (r[0] for r in random_separated_pair_rows(rng, 1))
        got = critical_values(map_from_critical_values(x, y))
        worst = max(worst, unordered_pair_residual(got.values, (x, y)))
    ok = worst < 1e-7
    verdict(8, ok, f"1000 round trips, worst mismatch {worst:.2e}")


def test_criterion_09_weighted_action():
    """Orbit-map invariance below 1e-9; unit norm preserved to 1e-12."""
    rng = np.random.default_rng(42)
    worst_orbit = 0.0
    for _ in range(100):
        p = random_unit_sphere_rows(rng, 1)[0]
        theta = float(rng.uniform(0, 2 * np.pi))
        moved = weighted_circle_orbit(theta, p)
        worst_orbit = max(worst_orbit, proj_residual(
            orbit_space_map(p), orbit_space_map(moved)))
    worst_norm = 0.0
    for _ in range(1000):
        out = s5_identification(random_unit_sphere_rows(rng, 1)[0])
        worst_norm = max(worst_norm, abs(sum(abs(c) ** 2 for c in out) - 1.0))
    ok = worst_orbit < 1e-9 and worst_norm < 1e-12
    verdict(9, ok, f"orbit residual {worst_orbit:.2e}, "
                   f"norm drift {worst_norm:.2e}")


def test_criterion_10_example_isotropy():
    """The symmetric three-component tree has isotropy 2, then 1."""
    symmetric = StableTree(
        (TreeComponent(fiber_class(0), marked=1),
         TreeComponent(fiber_class(1)),
         TreeComponent(fiber_class(1))),
        ((0, 1), (0, 2)))
    broken = StableTree(
        (TreeComponent(fiber_class(0), marked=1),
         TreeComponent(fiber_class(1), marked=1),
         TreeComponent(fiber_class(1))),
        ((0, 1), (0, 2)))
    ok = (combinatorial_isotropy(symmetric) == 2
          and combinatorial_isotropy(broken) == 1)
    verdict(10, ok, "isotropy 2 on the symmetric tree, 1 after one mark")


def test_criterion_11_nontrivial_links(capsys):
    """Blow-up links L(4k+1,1) for k=1..5, diagnostic reported alongside."""
    ok = True
    for k in range(1, 6):
        code, report = run_cli_json(
            capsys, ["links", "--m", str(k + 1), "--k", str(k),
                     "--surface", "nontrivial"])
        result = report["result"]
        ok &= code == 0
        ok &= (result["tag"], result["p"], result["q"]) == ("lens", 4 * k + 1, 1)
        diag = report["diagnostic"]
        ok &= diag["degree"] == -(2 * k - 1)
        ok &= (diag["space"]["p"], diag["space"]["q"]) == \
            lens_pq_normalized(2 * k - 1)
        ok &= diag["agrees_with_stated"] is False
    verdict(11, ok, "L(4k+1,1) for k=1..5 with disagreeing diagnostic")


def lens_pq_normalized(p):
    s = lens_space(p, 1)
    return s.p, s.q


if __name__ == "__main__":
    pytest.main([__file__, "-v", "-s"])
