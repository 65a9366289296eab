"""Report builders behind the command-line interface.

Each builder returns a plain-JSON dictionary (strings, integers, floats,
booleans, lists, dicts), so emitted reports parse back to themselves.
Every row carries a stable `rule` string naming the rewrite or formula that
produced it, so traces survive refactors.  Exact rationals are rendered as
fraction strings.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import homology, plumbing, projective_maps as pm, stable_trees
from .bundles import gluing_bundle
from .homology import NONTRIVIAL, SURFACES, TRIVIAL, RuledSurface, SymplecticForm


def surface_by_name(name: str) -> RuledSurface:
    try:
        return SURFACES[name]
    except KeyError:
        raise ValueError(f"unknown surface {name!r}; "
                         f"use {' or '.join(SURFACES)}")


def _frac(x: Fraction) -> str:
    return str(Fraction(x))


# ---------------------------------------------------------------------------
# strata


def strata_report(lam: Fraction, surface: RuledSurface) -> dict:
    """Admissible strata with areas, codimensions and next-link dimensions."""
    form = SymplecticForm(surface, lam)
    rows = []
    for k in homology.admissible_strata(form):
        cls = homology.stratum_curve_class(surface, k)
        row = {
            "k": k,
            "class": repr(cls),
            "area": _frac(homology.area(form, cls)),
            "codim": homology.strata_codim(surface, k),
            "link_dim": homology.link_dimension(k + 1, k),
            "rule": "area-positivity/stratum-codimension",
        }
        if k == 0:
            row["note"] = "pointed link dimension 4m-3 (inferred)"
        if surface is NONTRIVIAL:
            check = homology.codim_cross_check(surface, k)
            row["codim_adjunction"] = check.adjunction
            row["codim_consistent"] = check.consistent
        rows.append(row)
    return {
        "subcommand": "strata",
        "params": {"lambda": _frac(lam), "surface": surface.name},
        "rows": rows,
        "pass": True,
    }


# ---------------------------------------------------------------------------
# links

SUPPORTED_LINKS = ("m=k+1 with k>=1 (either surface)",
                   "m=2, k=0 (trivial surface)")


class UnsupportedLinkError(ValueError):
    def __init__(self, m, k, surface):
        cases = "; ".join(SUPPORTED_LINKS)
        super().__init__(
            f"link for m={m}, k={k} on the {surface.name} surface "
            f"is not derived here; supported cases: {cases}")


def links_report(m: int, k: int, surface: RuledSurface) -> dict:
    """Normal form of the link of stratum m in the closure of stratum k."""
    if m <= k or k < 0:
        raise ValueError("need m > k >= 0")
    report = {
        "subcommand": "links",
        "params": {"m": m, "k": k, "surface": surface.name},
        "pass": True,
    }
    if surface is TRIVIAL and m == k + 1 and k >= 1:
        bundle = gluing_bundle(k)
        space = plumbing.link_adjacent(k)
        report["trace"] = [
            {"rule": "gluing-bundle-degree", "bundle": bundle.degree},
            {"rule": "circle-bundle-recognition", "space": space.to_json()},
        ]
        report["result"] = space.to_json()
        report["display"] = space.display()
        return report
    if surface is TRIVIAL and (m, k) == (2, 0):
        run = plumbing.link20_pipeline()
        trace = []
        for rule, state in run.steps:
            if isinstance(state, plumbing.Space):
                trace.append({"rule": rule, "space": state.to_json()})
            else:
                trace.append({"rule": rule, "bundle": list(state.degrees)})
        report["trace"] = trace
        report["l_z"] = run.l_z.to_json()
        report["result"] = run.link.to_json()
        report["display"] = run.link.display()
        report["sublink"] = run.sublink.to_json()
        report["sublink_display"] = run.sublink.display()
        return report
    if surface is NONTRIVIAL and m == k + 1 and k >= 1:
        run = plumbing.link_nontrivial(k)
        report["trace"] = [
            {"rule": "adjacent-link-stated-value", "space": run.space.to_json()},
        ]
        report["result"] = run.space.to_json()
        report["display"] = run.space.display()
        report["diagnostic"] = {
            "rule": "self-intersection-plus-two-gluing-degree",
            "degree": run.derived_degree,
            "space": run.derived.to_json(),
            "agrees_with_stated": run.agrees,
        }
        return report
    raise UnsupportedLinkError(m, k, surface)


# ---------------------------------------------------------------------------
# plumb


def plumb_report(chain: list[int]) -> dict:
    """Normal form of a linear plumbing chain, with the blow-down trace."""
    if not chain:
        raise ValueError("need a nonempty chain")
    space = plumbing.chain_to_lens(chain)
    trace = plumbing.blow_down_fully(chain)
    reduced = plumbing.chain_to_lens(trace[-1])
    return {
        "subcommand": "plumb",
        "params": {"chain": list(chain)},
        "result": space.to_json(),
        "display": space.display(),
        "rule": "negative-continued-fraction",
        "blow_down_trace": [list(c) for c in trace],
        "blow_down_result": reduced.to_json(),
        "pass": bool(plumbing.lens_equivalent(space, reduced)),
    }


# ---------------------------------------------------------------------------
# verify-maps


def _h_symmetry_residual(rng) -> float:
    p, q = pm.random_proj_point(rng, 2), pm.random_proj_point(rng, 2)
    return pm.proj_residual(pm.eval_h(p, q), pm.eval_h(q, p))


def _h_diagonal_residual(rng) -> float:
    p = pm.random_proj_point(rng, 2)
    return pm.quadric_residual(pm.eval_h(p, p))


def _tau_residual(rng) -> float:
    p = pm.random_proj_point(rng, 3)
    return pm.proj_residual(pm.eval_phi32(p), pm.eval_phi32(pm.tau(p)))


def _orbit_residual(rng) -> float:
    p = pm.random_unit_sphere_point(rng)
    moved = pm.weighted_circle_orbit(float(rng.uniform(0.0, 2.0 * np.pi)), p)
    return pm.proj_residual(pm.orbit_space_map(p), pm.orbit_space_map(moved))


def _round_trip_residual(rng) -> float:
    x, y = pm.random_separated_pair(rng)
    found = pm.critical_values(pm.map_from_critical_values(x, y))
    return pm.unordered_pair_residual(found.values, (x, y))


def _cover_line_residual(s1: int, s2: int):
    return lambda rng: pm.quadric_residual(
        pm.eval_phi30(pm.random_point_on_cover_line(rng, s1, s2)))


def _line_preimage_error(i: int):
    return lambda rng: abs(pm.count_preimages(
        pm.eval_phi30, pm.random_line_target(rng, i)).count - 2)


#: One entry per verify-maps row, in the order the seeded stream is drawn:
#: (check, rule, threshold or None for the requested tolerance, sample cap
#: or None, draws).  Each draw maps the generator to one sample's residual
#: and runs once per sample; a row with several draws covers one family
#: each, in turn.
VERIFY_CHECKS = (
    ("h-symmetry", "factor-swap-symmetry", None, None, [_h_symmetry_residual]),
    ("h-diagonal-on-quadric", "diagonal-image-quadric", None, None,
     [_h_diagonal_residual]),
    ("phi32-tau-invariance", "involution-quotient", None, None, [_tau_residual]),
    ("phi32-image-on-cone", "cone-equation", None, None, [
        lambda rng: pm.y_residual(pm.eval_phi32(pm.random_proj_point(rng, 3)))]),
    ("phi30-lines-to-quadric", "cover-lines-over-quadric", None, None,
     [_cover_line_residual(s1, s2) for s1 in (1, -1) for s2 in (1, -1)]),
    ("s5-identification-norm", "quotient-sphere-identification", 1e-12, None, [
        lambda rng: abs(sum(abs(c) ** 2 for c in pm.s5_identification(
            pm.random_unit_sphere_point(rng))) - 1.0)]),
    ("orbit-map-invariance", "weighted-action-quotient", None, None,
     [_orbit_residual]),
    ("critical-values-round-trip", "branch-point-normal-form", 1e-7, None,
     [_round_trip_residual]),
    ("phi30-generic-preimages", "four-fold-cover", None, 100, [
        lambda rng: abs(pm.count_preimages(
            pm.eval_phi30, pm.random_generic_square_target(rng)).count - 4)]),
    ("phi30-line-preimages", "branch-line-cover", None, 100,
     [_line_preimage_error(i) for i in range(3)]),
)


def verify_maps_report(samples: int, seed: int, tol: float) -> dict:
    """Residual report for the explicit projective models.

    One row per `VERIFY_CHECKS` entry, each with the sample count, the
    worst relative residual seen and a pass flag at that row's tolerance.
    The unit-norm check is held to 1e-12 and the branch-point round-trip to
    1e-7; the remaining identities use the requested tolerance.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    rng = np.random.default_rng(seed)
    rows = []
    for check, rule, threshold, cap, draws in VERIFY_CHECKS:
        n = samples if cap is None else min(samples, cap)
        threshold = tol if threshold is None else threshold
        worst = 0.0
        for draw in draws:
            for _ in range(n):
                worst = max(worst, draw(rng))
        rows.append({
            "check": check,
            "samples": n,
            "maxResidual": float(worst),
            "tolerance": threshold,
            "pass": bool(worst < threshold),
            "rule": rule,
        })
    return {
        "subcommand": "verify-maps",
        "params": {"samples": samples, "seed": seed, "tolerance": tol},
        "rows": rows,
        "pass": all(r["pass"] for r in rows),
    }


# ---------------------------------------------------------------------------
# decompositions


def decompositions_report(n: int, depth: int | None, pointed: bool) -> dict:
    descriptors = stable_trees.enumerate_strata(n, depth, pointed=pointed)
    return {
        "subcommand": "decompositions",
        "params": {"n": n, "depth": depth, "pointed": pointed},
        "rows": [d.to_json() for d in descriptors],
        "pass": True,
    }


# ---------------------------------------------------------------------------
# rendering


def render_table(report: dict) -> str:
    """Fixed-width text rendering of a report's rows."""
    lines = [f"# {report['subcommand']}  {report['params']}"]
    rows = report.get("rows")
    if rows:
        keys = []
        for row in rows:
            for key in row:
                if key not in keys:
                    keys.append(key)
        widths = {}
        rendered = []
        for row in rows:
            cells = {k: _cell(row.get(k, "")) for k in keys}
            rendered.append(cells)
            for k in keys:
                widths[k] = max(widths.get(k, len(k)), len(cells[k]))
        lines.append("  ".join(k.ljust(widths[k]) for k in keys))
        lines.append("  ".join("-" * widths[k] for k in keys))
        for cells in rendered:
            lines.append("  ".join(cells[k].ljust(widths[k]) for k in keys))
    for key in ("trace", "l_z", "result", "display", "sublink_display",
                "diagnostic", "blow_down_trace", "blow_down_result"):
        if key in report:
            lines.append(f"{key}: {report[key]}")
    lines.append(f"pass: {report['pass']}")
    return "\n".join(lines)


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.3e}"
    if isinstance(value, (dict, list)):
        return repr(value)
    return str(value)
