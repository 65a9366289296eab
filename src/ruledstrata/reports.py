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
from .homology import NONTRIVIAL, TRIVIAL, BundleKind, RuledSurface, SymplecticForm


def surface_by_name(name: str) -> RuledSurface:
    try:
        return {"trivial": TRIVIAL, "nontrivial": NONTRIVIAL}[name]
    except KeyError:
        raise ValueError(f"unknown surface {name!r}; use trivial or nontrivial")


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
        if surface.kind is BundleKind.NONTRIVIAL:
            check = homology.codim_cross_check(surface, k)
            row["codim_adjunction"] = check.adjunction
            row["codim_consistent"] = check.consistent
        rows.append(row)
    return {
        "subcommand": "strata",
        "params": {"lambda": _frac(lam), "surface": surface.kind.value},
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
            f"link for m={m}, k={k} on the {surface.kind.value} surface "
            f"is not derived here; supported cases: {cases}")


def links_report(m: int, k: int, surface: RuledSurface) -> dict:
    """Normal form of the link of stratum m in the closure of stratum k."""
    if m <= k or k < 0:
        raise ValueError("need m > k >= 0")
    report = {
        "subcommand": "links",
        "params": {"m": m, "k": k, "surface": surface.kind.value},
        "pass": True,
    }
    if surface.kind is BundleKind.TRIVIAL and m == k + 1 and k >= 1:
        bundle = gluing_bundle(k)
        space = plumbing.link_adjacent(k)
        report["trace"] = [
            {"rule": "gluing-bundle-degree", "bundle": bundle.degree},
            {"rule": "circle-bundle-recognition", "space": space.to_json()},
        ]
        report["result"] = space.to_json()
        report["display"] = space.display()
        return report
    if surface.kind is BundleKind.TRIVIAL and (m, k) == (2, 0):
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
    if surface.kind is BundleKind.NONTRIVIAL and m == k + 1 and k >= 1:
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
    space = plumbing.chain_to_lens(chain)
    trace = plumbing.blow_down_fully(chain)
    reduced = plumbing.recognize_reduced_chain(trace[-1])
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


def verify_maps_report(samples: int, seed: int, tol: float) -> dict:
    """Residual report for the explicit projective models.

    One row per identity, each with the sample count, the worst relative
    residual seen and a pass flag at that row's tolerance.  The unit-norm
    check is held to 1e-12 and the branch-point round-trip to 1e-7; the
    remaining identities use the requested tolerance.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    rng = np.random.default_rng(seed)
    rows = []

    def add_row(check, n, worst, rule, threshold=None):
        threshold = tol if threshold is None else threshold
        rows.append({
            "check": check,
            "samples": n,
            "maxResidual": float(worst),
            "tolerance": threshold,
            "pass": bool(worst < threshold),
            "rule": rule,
        })

    worst = 0.0
    for _ in range(samples):
        p = pm.random_proj_point(rng, 2)
        q = pm.random_proj_point(rng, 2)
        worst = max(worst, pm.eval_h(p, q).residual_to(pm.eval_h(q, p)))
    add_row("h-symmetry", samples, worst, "factor-swap-symmetry")

    worst = 0.0
    for _ in range(samples):
        p = pm.random_proj_point(rng, 2)
        worst = max(worst, pm.quadric_residual(pm.eval_h(p, p)))
    add_row("h-diagonal-on-quadric", samples, worst, "diagonal-image-quadric")

    worst = 0.0
    for _ in range(samples):
        p = pm.random_proj_point(rng, 3)
        worst = max(worst, pm.eval_phi32(p).residual_to(pm.eval_phi32(pm.tau(p))))
    add_row("phi32-tau-invariance", samples, worst, "involution-quotient")

    worst = 0.0
    for _ in range(samples):
        p = pm.random_proj_point(rng, 3)
        worst = max(worst, pm.y_residual(pm.eval_phi32(p)))
    add_row("phi32-image-on-cone", samples, worst, "cone-equation")

    worst = 0.0
    for s1 in (1, -1):
        for s2 in (1, -1):
            for _ in range(samples):
                p = pm.random_point_on_cover_line(rng, s1, s2)
                worst = max(worst, pm.quadric_residual(pm.eval_phi30(p)))
    add_row("phi30-lines-to-quadric", samples, worst, "cover-lines-over-quadric")

    worst = 0.0
    for _ in range(samples):
        p = pm.random_unit_sphere_point(rng)
        out = pm.s5_identification(p)
        norm_sq = sum(abs(c) ** 2 for c in out)
        worst = max(worst, abs(norm_sq - 1.0))
    add_row("s5-identification-norm", samples, worst,
            "quotient-sphere-identification", threshold=1e-12)

    worst = 0.0
    for _ in range(samples):
        p = pm.random_unit_sphere_point(rng)
        theta = float(rng.uniform(0.0, 2.0 * np.pi))
        moved = pm.weighted_circle_orbit(theta, p)
        worst = max(worst, pm.orbit_space_map(p).residual_to(pm.orbit_space_map(moved)))
    add_row("orbit-map-invariance", samples, worst, "weighted-action-quotient")

    worst = 0.0
    for _ in range(samples):
        x, y = pm.random_separated_pair(rng)
        found = pm.critical_values(pm.map_from_critical_values(x, y))
        worst = max(worst, pm.unordered_pair_residual(found.values, (x, y)))
    add_row("critical-values-round-trip", samples, worst,
            "branch-point-normal-form", threshold=1e-7)

    n_count = min(samples, 100)
    worst = 0
    for _ in range(n_count):
        target = pm.random_generic_square_target(rng)
        got = pm.count_preimages(pm.eval_phi30, target)
        worst = max(worst, abs(got.count - 4))
    add_row("phi30-generic-preimages", n_count, worst, "four-fold-cover")

    worst = 0
    for i in range(3):
        for _ in range(n_count):
            target = pm.random_line_target(rng, i)
            got = pm.count_preimages(pm.eval_phi30, target)
            worst = max(worst, abs(got.count - 2))
    add_row("phi30-line-preimages", n_count, worst, "branch-line-cover")

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
