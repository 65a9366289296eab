"""Numeric verification of the explicit projective models behind the
double-cover stratum.

Everything here is double-precision complex arithmetic with projective,
scale-invariant comparisons: two homogeneous tuples agree when all their
2x2 minors vanish relative to the coordinate scales, and a point satisfies
a homogeneous equation when the residual is small relative to scale to the
degree of the equation.  Comparisons use `DEFAULT_TOL` unless `close_to` is
given a tolerance.  Random sampling takes an explicit generator so runs are
reproducible per seed.  The module ends with the one report builder it
holds, `verify_maps_report`, and its `VERIFY_CHECKS` table.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

DEFAULT_TOL = 1e-9
CLUSTER_TOL = 1e-6
GENERIC_MARGIN = 1e-3


@dataclass(frozen=True)
class ProjPoint:
    """Homogeneous coordinates with tolerance-based projective equality."""

    coords: tuple[complex, ...]

    def __post_init__(self):
        coords = tuple(complex(c) for c in self.coords)
        object.__setattr__(self, "coords", coords)
        if not (any(coords) and all(map(cmath.isfinite, coords))):
            raise ValueError("projective point needs finite coordinates, "
                             "not all zero")

    @classmethod
    def of(cls, pt) -> "ProjPoint":
        if isinstance(pt, ProjPoint):
            return pt
        return cls(tuple(pt))

    @property
    def scale(self) -> float:
        return max(abs(c) for c in self.coords)

    def normalized(self) -> "ProjPoint":
        s = self.scale
        return ProjPoint(tuple(c / s for c in self.coords))

    def close_to(self, other, tol: float = DEFAULT_TOL) -> bool:
        return proj_residual(self, other) < tol

    def __iter__(self):
        return iter(self.coords)

    def __repr__(self):
        inner = ":".join(f"{c:.6g}" for c in self.coords)
        return f"[{inner}]"


def proj_residual(x, y) -> float:
    """Largest 2x2 minor of two coordinate rows (points or sequences),
    relative to scale; symmetric in its arguments."""
    p, q = ProjPoint.of(x), ProjPoint.of(y)
    x, y = p.coords, q.coords
    if len(x) != len(y):
        raise ValueError("length mismatch")
    worst = 0.0
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            worst = max(worst, abs(x[i] * y[j] - x[j] * y[i]))
    return worst / (p.scale * q.scale)


# ---------------------------------------------------------------------------
# the product-to-plane quotient map and the quadric


def eval_h(p, q) -> ProjPoint:
    """Quotient of the product of two spheres by the factor swap.

    ([x0:x1],[y0:y1]) -> [x0 y0 : x1 y1 : x0 y1 + x1 y0 - x0 y0 - x1 y1];
    symmetric in the two arguments, and the diagonal lands on the quadric
    tested by `quadric_q`.
    """
    x0, x1 = ProjPoint.of(p).coords
    y0, y1 = ProjPoint.of(q).coords
    return ProjPoint((x0 * y0, x1 * y1, x0 * y1 + x1 * y0 - x0 * y0 - x1 * y1))


def quadric_residual(pt) -> float:
    pt = ProjPoint.of(pt)
    u, v, w = pt.coords
    return abs((u + v + w) ** 2 - 4 * u * v) / pt.scale**2


def quadric_q(pt) -> bool:
    """Whether (u+v+w)^2 = 4uv holds, relative to scale squared."""
    return quadric_residual(pt) < DEFAULT_TOL


def tau(pt) -> ProjPoint:
    """The involution [x:y:z] -> [x:y:-z]."""
    x, y, z = ProjPoint.of(pt).coords
    return ProjPoint((x, y, -z))


def eval_phi30(pt) -> ProjPoint:
    """Coordinate squares [x:y:z] -> [x^2:y^2:z^2], a 4-fold cover."""
    x, y, z = ProjPoint.of(pt).coords
    return ProjPoint((x * x, y * y, z * z))


def eval_phi32(pt) -> ProjPoint:
    """[x:y:z] -> [x^2:y^2:z^2:xy], the quotient by `tau` onto the cone."""
    x, y, z = ProjPoint.of(pt).coords
    return ProjPoint((x * x, y * y, z * z, x * y))


def y_residual(pt) -> float:
    pt = ProjPoint.of(pt)
    u, v, w, t = pt.coords
    return abs(t * t - u * v) / pt.scale**2


def on_y(pt) -> bool:
    """Whether the quadric cone equation t^2 = uv holds."""
    return y_residual(pt) < DEFAULT_TOL


#: The one point of the cone fixed by a reparametrization of its stable map.
SINGULAR_CONE_POINT = ProjPoint((0, 0, 1, 0))


# ---------------------------------------------------------------------------
# degree-2 self-maps of the sphere


@dataclass(frozen=True)
class RationalMapDeg2:
    """Degree-2 self-map of the sphere as a homogeneous pair.

    Coefficient triples (a, b, c) encode a x0^2 + b x0 x1 + c x1^2.  The
    numerator and denominator may not share a projective root, which is a
    nonvanishing resultant.
    """

    numerator: tuple[complex, complex, complex]
    denominator: tuple[complex, complex, complex]
    tolerance: float = DEFAULT_TOL

    def __post_init__(self):
        num = tuple(complex(c) for c in self.numerator)
        den = tuple(complex(c) for c in self.denominator)
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)
        a, b, c = num
        d, e, f = den
        res = (a * f - c * d) ** 2 - (a * e - b * d) * (b * f - c * e)
        scale = (max(abs(a), abs(b), abs(c)) * max(abs(d), abs(e), abs(f))) ** 2
        if scale == 0 or abs(res) <= self.tolerance * scale:
            raise ValueError("numerator and denominator share a root")

    def __call__(self, pt) -> ProjPoint:
        x0, x1 = ProjPoint.of(pt).coords
        a, b, c = self.numerator
        d, e, f = self.denominator
        return ProjPoint((a * x0 * x0 + b * x0 * x1 + c * x1 * x1,
                          d * x0 * x0 + e * x0 * x1 + f * x1 * x1))


def squaring_map() -> RationalMapDeg2:
    """The normal form z -> z^2 in the [z:1] chart."""
    return RationalMapDeg2((1, 0, 0), (0, 0, 1))


class BranchPoints(NamedTuple):
    values: tuple[ProjPoint, ProjPoint]
    degenerate: bool


def _homogeneous_quadratic_roots(coeffs) -> list[ProjPoint]:
    """Projective roots of A x0^2 + B x0 x1 + C x1^2, with multiplicity."""
    arr = np.asarray(coeffs, dtype=complex)
    scale = float(np.max(np.abs(arr)))
    if scale == 0.0:
        raise ValueError("zero polynomial")
    trimmed = arr / scale
    roots: list[ProjPoint] = []
    lead = 0
    while lead < 2 and abs(trimmed[lead]) < 1e-14:
        roots.append(ProjPoint((1, 0)))
        lead += 1
    for r in np.roots(trimmed[lead:]):
        roots.append(ProjPoint((complex(r), 1)))
    return roots


def critical_values(m: RationalMapDeg2) -> BranchPoints:
    """The two branch points of a degree-2 self-map.

    The critical points are the roots of the Jacobian determinant of the
    homogeneous pair, itself a quadratic; the branch points are their
    images.  Confluent roots within tolerance are flagged as degenerate and
    returned as an equal pair rather than resolved.
    """
    a, b, c = m.numerator
    d, e, f = m.denominator
    # det of the Jacobian, divided by 2
    w = (a * e - b * d, 2 * (a * f - c * d), b * f - c * e)
    scale = max(abs(t) for t in w)
    disc = w[1] ** 2 - 4 * w[0] * w[2]
    # the discriminant is 4x the resultant, so confluence only happens for
    # maps validated with a loosened tolerance; keep a fixed floor here
    degenerate = abs(disc) < max(m.tolerance, DEFAULT_TOL) * scale**2
    pts = _homogeneous_quadratic_roots(w)
    if degenerate:
        value = m(pts[0])
        return BranchPoints((value, value), True)
    return BranchPoints((m(pts[0]), m(pts[1])), False)


def map_from_critical_values(x, y) -> RationalMapDeg2:
    """A degree-2 self-map with branch points exactly {x, y}.

    Conjugates the squaring normal form by the fractional-linear map sending
    0 and infinity to x and y; only the unordered branch pair is contracted,
    different conjugating choices differ by precomposition.
    """
    x = ProjPoint.of(x)
    y = ProjPoint.of(y)
    if x.close_to(y):
        raise ValueError("branch points must be distinct")
    x0, x1 = x.coords
    y0, y1 = y.coords
    return RationalMapDeg2((y0, 0, x0), (y1, 0, x1))


def apply_mobius(g, pt) -> ProjPoint:
    """Apply a 2x2 invertible complex matrix as a fractional-linear map."""
    p0, p1 = ProjPoint.of(pt).coords
    return ProjPoint((g[0][0] * p0 + g[0][1] * p1,
                      g[1][0] * p0 + g[1][1] * p1))


def compose_mobius(g, m: RationalMapDeg2) -> RationalMapDeg2:
    """Postcompose a degree-2 map with a fractional-linear map."""
    n, d = m.numerator, m.denominator
    num = tuple(g[0][0] * n[i] + g[0][1] * d[i] for i in range(3))
    den = tuple(g[1][0] * n[i] + g[1][1] * d[i] for i in range(3))
    return RationalMapDeg2(num, den, m.tolerance)


def unordered_pair_residual(pair_a, pair_b) -> float:
    """Projective mismatch of two unordered point pairs (best matching)."""
    a0, a1 = pair_a
    b0, b1 = pair_b
    straight = max(proj_residual(a0, b0), proj_residual(a1, b1))
    crossed = max(proj_residual(a0, b1), proj_residual(a1, b0))
    return min(straight, crossed)


# ---------------------------------------------------------------------------
# preimage counting


class PreimageCount(NamedTuple):
    count: int
    generic: bool


def _cluster_count(points: Iterable[ProjPoint], tol: float) -> int:
    reps: list[ProjPoint] = []
    for p in points:
        if all(proj_residual(p, r) >= tol for r in reps):
            reps.append(p)
    return len(reps)


def count_preimages(f, target, cluster_tol: float = CLUSTER_TOL) -> PreimageCount:
    """Number of distinct projective preimages of `target` under `f`.

    `f` is one of `eval_phi30`, `eval_phi32`, `eval_h`.  The induced
    univariate problems are solved in an affine chart pivoting on the
    largest target coordinate, candidates are verified against the target
    and clustered at `cluster_tol`.  Targets within the generic margin of
    the branch locus get the honest smaller count with generic = False.
    """
    target = ProjPoint.of(target).normalized()
    # built per call, so a map name rebound in this module (by a wrapper,
    # say) still dispatches
    counter = {eval_phi30: _count_phi30, eval_phi32: _count_phi32,
               eval_h: _count_h}.get(f)
    if counter is None:
        raise ValueError("unsupported map for preimage counting")
    return counter(target, cluster_tol)


def _verified_cluster(f, candidates, target, cluster_tol):
    good = [c for c in candidates
            if proj_residual(f(c), target) < 1e3 * DEFAULT_TOL]
    return _cluster_count(good, cluster_tol)


def _generic(pt: ProjPoint) -> bool:
    """Whether every coordinate stays outside the generic margin of zero."""
    return min(abs(c) for c in pt.coords) >= GENERIC_MARGIN * pt.scale


def _count_phi30(target, cluster_tol) -> PreimageCount:
    u, v, w = target.coords
    ru, rv, rw = np.sqrt(complex(u)), np.sqrt(complex(v)), np.sqrt(complex(w))
    candidates = []
    for s1 in (1, -1):
        for s2 in (1, -1):
            candidates.append(ProjPoint((ru, s1 * rv, s2 * rw)))
    count = _verified_cluster(eval_phi30, candidates, target, cluster_tol)
    return PreimageCount(count, _generic(target))


def _count_phi32(target, cluster_tol) -> PreimageCount:
    u, v, w, t = target.coords
    if abs(u) >= abs(v) and abs(u) > GENERIC_MARGIN**2:
        x = np.sqrt(complex(u))
        y = t / x
    elif abs(v) > GENERIC_MARGIN**2:
        y = np.sqrt(complex(v))
        x = t / y
    else:
        x, y = 0.0, 0.0
    rw = np.sqrt(complex(w))
    candidates = []
    for s in (1, -1):
        try:
            candidates.append(ProjPoint((x, y, s * rw)))
        except ValueError:
            pass  # zero tuple: no candidate from this sign
    count = _verified_cluster(eval_phi32, candidates, target, cluster_tol)
    generic = (min(abs(u), abs(v)) >= GENERIC_MARGIN * target.scale
               and abs(w) >= GENERIC_MARGIN * target.scale)
    return PreimageCount(count, generic)


def _count_h(target, cluster_tol) -> PreimageCount:
    u, v, w = target.coords
    # the unordered pair {x, y} solves v T^2 - (u+v+w) T + u = 0
    roots = _homogeneous_quadratic_roots((v, -(u + v + w), u))
    # eval_h is exactly symmetric, so one ordering of the pair verifies both
    verified = proj_residual(eval_h(*roots), target) < 1e3 * DEFAULT_TOL
    count = _cluster_count(roots, cluster_tol) if verified else 0
    return PreimageCount(count, quadric_residual(target) >= GENERIC_MARGIN)


# ---------------------------------------------------------------------------
# the weighted circle action on the 5-sphere


def _require_unit(xyz, tol=1e-6):
    x, y, z = (complex(c) for c in xyz)
    norm_sq = abs(x) ** 2 + abs(y) ** 2 + abs(z) ** 2
    if abs(norm_sq - 1.0) > tol:
        raise ValueError("point must lie on the unit 5-sphere")
    return x, y, z


def weighted_circle_orbit(theta: float, p) -> tuple[complex, complex, complex]:
    """Weight (1, 1, 2) circle action on the unit sphere in C^3."""
    x, y, z = _require_unit(p)
    rot = np.exp(1j * theta)
    return (rot * x, rot * y, rot * rot * z)


def s5_identification(p) -> tuple[complex, complex, complex]:
    """Identify the quotient of the 5-sphere by z -> -z with the 5-sphere.

    (x, y, z) -> (x sqrt(1+|z|^2), y sqrt(1+|z|^2), z^2); unit norm is
    preserved and the two lifts of a point give the same value.
    """
    x, y, z = _require_unit(p)
    stretch = np.sqrt(1.0 + abs(z) ** 2)
    return (x * stretch, y * stretch, z * z)


def orbit_space_map(p) -> ProjPoint:
    """Quotient of the weighted circle action, landing on the quadric cone.

    (x, y, z) -> [x^2 : y^2 : z : xy]; constant along orbits and the image
    satisfies t^2 = uv identically.
    """
    x, y, z = _require_unit(p)
    return ProjPoint((x * x, y * y, z, x * y))


# ---------------------------------------------------------------------------
# seeded samplers


def random_proj_point(rng, n: int) -> ProjPoint:
    parts = rng.standard_normal(2 * n)
    coords = tuple(complex(parts[2 * i], parts[2 * i + 1]) for i in range(n))
    return ProjPoint(coords).normalized()


def random_unit_sphere_point(rng) -> tuple[complex, complex, complex]:
    parts = rng.standard_normal(6)
    v = np.array([complex(parts[0], parts[1]), complex(parts[2], parts[3]),
                  complex(parts[4], parts[5])])
    v = v / np.linalg.norm(v)
    return (complex(v[0]), complex(v[1]), complex(v[2]))


def random_generic_square_target(rng) -> ProjPoint:
    """A squares-map target with all coordinates away from zero."""
    while True:
        pt = random_proj_point(rng, 3)
        if _generic(pt):
            return pt


def random_line_target(rng, i: int) -> ProjPoint:
    """A generic point of the i-th coordinate line in the plane."""
    while True:
        pt = random_proj_point(rng, 2)
        if _generic(pt):
            return ProjPoint(pt.coords[:i] + (0.0,) + pt.coords[i:])


def random_point_on_cover_line(rng, s1: int, s2: int) -> ProjPoint:
    """A point of the line x + s1 y + s2 i z = 0 upstairs of the quadric."""
    while True:
        y, z = random_proj_point(rng, 2).coords
        x = -(s1 * y + s2 * 1j * z)
        try:
            return ProjPoint((x, y, z)).normalized()
        except ValueError:
            continue


def random_separated_pair(rng, min_gap: float = 1e-3) -> tuple[ProjPoint, ProjPoint]:
    while True:
        x = random_proj_point(rng, 2)
        y = random_proj_point(rng, 2)
        if proj_residual(x, y) >= min_gap:
            return x, y


# ---------------------------------------------------------------------------
# verify-maps


def _h_symmetry_residual(rng) -> float:
    p, q = random_proj_point(rng, 2), random_proj_point(rng, 2)
    return proj_residual(eval_h(p, q), eval_h(q, p))


def _h_diagonal_residual(rng) -> float:
    p = random_proj_point(rng, 2)
    return quadric_residual(eval_h(p, p))


def _tau_residual(rng) -> float:
    p = random_proj_point(rng, 3)
    return proj_residual(eval_phi32(p), eval_phi32(tau(p)))


def _orbit_residual(rng) -> float:
    p = random_unit_sphere_point(rng)
    moved = weighted_circle_orbit(float(rng.uniform(0.0, 2.0 * np.pi)), p)
    return proj_residual(orbit_space_map(p), orbit_space_map(moved))


def _round_trip_residual(rng) -> float:
    x, y = random_separated_pair(rng)
    found = critical_values(map_from_critical_values(x, y))
    return unordered_pair_residual(found.values, (x, y))


def _cover_line_residual(s1: int, s2: int):
    return lambda rng: quadric_residual(
        eval_phi30(random_point_on_cover_line(rng, s1, s2)))


def _line_preimage_error(i: int):
    return lambda rng: abs(count_preimages(
        eval_phi30, random_line_target(rng, i)).count - 2)


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
        lambda rng: y_residual(eval_phi32(random_proj_point(rng, 3)))]),
    ("phi30-lines-to-quadric", "cover-lines-over-quadric", None, None,
     [_cover_line_residual(s1, s2) for s1 in (1, -1) for s2 in (1, -1)]),
    ("s5-identification-norm", "quotient-sphere-identification", 1e-12, None, [
        lambda rng: abs(sum(abs(c) ** 2 for c in s5_identification(
            random_unit_sphere_point(rng))) - 1.0)]),
    ("orbit-map-invariance", "weighted-action-quotient", None, None,
     [_orbit_residual]),
    ("critical-values-round-trip", "branch-point-normal-form", 1e-7, None,
     [_round_trip_residual]),
    ("phi30-generic-preimages", "four-fold-cover", None, 100, [
        lambda rng: abs(count_preimages(
            eval_phi30, random_generic_square_target(rng)).count - 4)]),
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
