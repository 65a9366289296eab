"""Slow-path references for the tests; pytest does not collect this module.

The scalar projective models take one point in plain complex arithmetic;
each is the reference for the `_rows` form of `ruledstrata.projective_maps`
and rounds as it does.  The whole-array residual forms build each
equation's full array of moduli, the bitwise reference for the residuals
that fold them column by column.  Only constants come from there, never a
`_rows` model.  The stable-tree route realizes a `stable_trees` descriptor as an
explicit labeled tree, with stability, automorphisms and dimensions, and
each branch shape's automorphisms are counted by recursion, the reference
for the cached counts of `stable_trees`.  The admissible strata are listed
by testing the area of each stratum in turn, the reference for the
closed-form count behind the strata report.  Stratum codimensions follow
the adjunction route through the tangent bundle's first Chern class, the
reference for `homology.normal_codim`, and the stated link dimensions
4(m - k) - 1 and 4m - 3 are the reference for its differences.  The three
named lens spaces are the tests' reference values.  The argparse parser the
command line used to build is the reference for `cli.parse_args`.
"""

from __future__ import annotations

import argparse
import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from ruledstrata.homology import (
    NONTRIVIAL,
    TRIVIAL,
    H2Class,
    SymplecticForm,
    area,
    intersect,
    stratum_curve_class,
)
from ruledstrata.plumbing import lens_space
from ruledstrata.projective_maps import CLUSTER_TOL, DEFAULT_TOL, GENERIC_MARGIN


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


def proj_residual(x, y) -> float:
    """Largest 2x2 minor of two coordinate rows (points or sequences),
    each divided by its largest modulus first, so no product overflows;
    symmetric in its arguments."""
    x = ProjPoint.of(x).normalized().coords
    y = ProjPoint.of(y).normalized().coords
    if len(x) != len(y):
        raise ValueError("length mismatch")
    worst = 0.0
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            worst = max(worst, abs(x[i] * y[j] - x[j] * y[i]))
    return worst


# ---------------------------------------------------------------------------
# the product-to-plane quotient map and the quadric


def eval_h(p, q) -> ProjPoint:
    """Quotient of the product of two spheres by the factor swap.

    ([x0:x1],[y0:y1]) -> [x0 y0 : x1 y1 : x0 y1 + x1 y0 - x0 y0 - x1 y1];
    symmetric in the two arguments, and the diagonal lands on the quadric
    (u+v+w)^2 = 4uv of `quadric_residual`.
    """
    x0, x1 = ProjPoint.of(p).coords
    y0, y1 = ProjPoint.of(q).coords
    return ProjPoint((x0 * y0, x1 * y1, x0 * y1 + x1 * y0 - x0 * y0 - x1 * y1))


def quadric_residual(pt) -> float:
    u, v, w = ProjPoint.of(pt).normalized().coords
    return abs((u + v + w) ** 2 - 4 * u * v)


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
    """The cone equation t^2 = uv, relative to scale squared."""
    u, v, w, t = ProjPoint.of(pt).normalized().coords
    return abs(t * t - u * v)


# ---------------------------------------------------------------------------
# degree-2 self-maps of the sphere


@dataclass(frozen=True)
class RationalMapDeg2:
    """Degree-2 self-map of the sphere as a homogeneous pair.

    Coefficient triples (a, b, c) encode a x0^2 + b x0 x1 + c x1^2.  The
    numerator and denominator may not share a projective root, which is a
    resultant above `DEFAULT_TOL` of the coefficient scale.
    """

    numerator: tuple[complex, complex, complex]
    denominator: tuple[complex, complex, complex]

    def __post_init__(self):
        num = tuple(complex(c) for c in self.numerator)
        den = tuple(complex(c) for c in self.denominator)
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)
        a, b, c = num
        d, e, f = den
        res = (a * f - c * d) ** 2 - (a * e - b * d) * (b * f - c * e)
        scale = (max(abs(a), abs(b), abs(c)) * max(abs(d), abs(e), abs(f))) ** 2
        if scale == 0 or abs(res) <= DEFAULT_TOL * scale:
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
    scale = float(np.hypot(arr.real, arr.imag).max())
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
    # disc is 4x the resultant that the constructor keeps above DEFAULT_TOL
    # of the coefficient scale; measured against the scale of w instead, a
    # map next to a shared root can still come out confluent
    degenerate = abs(disc) < DEFAULT_TOL * scale**2
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
    return RationalMapDeg2(num, den)


def unordered_pair_residual(pair_a, pair_b) -> float:
    """Projective mismatch of two unordered point pairs (best matching)."""
    a0, a1 = pair_a
    b0, b1 = pair_b
    straight = max(proj_residual(a0, b0), proj_residual(a1, b1))
    crossed = max(proj_residual(a0, b1), proj_residual(a1, b0))
    return min(straight, crossed)


# ---------------------------------------------------------------------------
# preimage counting
#
# Each counter gives the number of distinct projective preimages of a target
# under its map: candidates from an affine chart are verified against the
# target and clustered at `cluster_tol`.  Targets within the generic margin
# of the branch locus get the honest smaller count with generic = False.


class PreimageCount(NamedTuple):
    count: int
    generic: bool


def _cluster_count(points: Iterable[ProjPoint], tol: float) -> int:
    reps: list[ProjPoint] = []
    for p in points:
        if all(proj_residual(p, r) >= tol for r in reps):
            reps.append(p)
    return len(reps)


def _verified_cluster(f, candidates, target, cluster_tol):
    good = [c for c in candidates
            if proj_residual(f(c), target) < 1e3 * DEFAULT_TOL]
    return _cluster_count(good, cluster_tol)


def _generic(pt: ProjPoint) -> bool:
    """Whether every coordinate stays outside the generic margin of zero."""
    return min(abs(c) for c in pt.coords) >= GENERIC_MARGIN * pt.scale


def count_phi30(target, cluster_tol: float = CLUSTER_TOL) -> PreimageCount:
    target = ProjPoint.of(target).normalized()
    u, v, w = target.coords
    ru, rv, rw = np.sqrt(complex(u)), np.sqrt(complex(v)), np.sqrt(complex(w))
    candidates = []
    for s1 in (1, -1):
        for s2 in (1, -1):
            candidates.append(ProjPoint((ru, s1 * rv, s2 * rw)))
    count = _verified_cluster(eval_phi30, candidates, target, cluster_tol)
    return PreimageCount(count, _generic(target))


def count_phi32(target, cluster_tol: float = CLUSTER_TOL) -> PreimageCount:
    target = ProjPoint.of(target).normalized()
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


def count_h(target, cluster_tol: float = CLUSTER_TOL) -> PreimageCount:
    target = ProjPoint.of(target).normalized()
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
    if not abs(norm_sq - 1.0) <= tol:  # refuses a NaN norm too
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
# whole-array residual forms
#
# The batch residuals as they stood before `projective_maps` folded each
# equation's columns one at a time: every equation here builds its whole
# (n, m) array, whose moduli are then reduced row by row.  They round as
# the column-folded forms must, so those are held to them bit for bit.


def _whole_mul(u, v):
    re = u.real * v.real - u.imag * v.imag
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = u.real * v.imag + u.imag * v.real
    return out


def _whole_modulus(a):
    return np.hypot(a.real, a.imag)


def _whole_row_max(m):
    out = np.zeros(len(m))
    for col in m.reshape(len(m), -1).T:
        out = np.maximum(out, col)
    return out


def _whole_unit_rows(a):
    a = np.ascontiguousarray(a, dtype=complex)
    scale = _whole_row_max(_whole_modulus(a))
    if not np.all((scale > 0) & (scale < np.inf)):
        raise ValueError("projective point needs finite coordinates, "
                         "not all zero")
    return (a.view(float) / scale[:, None]).view(complex)


def whole_residual_rows(equation, *arrays):
    arrays = [_whole_unit_rows(a) for a in arrays]
    return _whole_row_max(_whole_modulus(equation(*arrays)))


def whole_minors_rows(x, y):
    """All 2x2 minors of two (n, k) arrays as one (n, k(k-1)/2) array."""
    if x.shape != y.shape:
        raise ValueError("length mismatch")
    i, j = np.triu_indices(x.shape[1], 1)
    return _whole_mul(x[:, i], y[:, j]) - _whole_mul(x[:, j], y[:, i])


def whole_quadric_rows(pts):
    u, v, w = pts.T
    return _whole_mul(u + v + w, u + v + w) - _whole_mul(4 * u, v)


def whole_cone_rows(pts):
    u, v, w, t = pts.T
    return _whole_mul(t, t) - _whole_mul(u, v)


def _whole_quadratic_roots_rows(t):
    roots = np.ones((len(t), 2, 2), dtype=complex)
    small = _whole_modulus(t[:, :2]) < 1e-14
    at_inf = small[:, 0]
    both_inf = at_inf & small[:, 1]
    roots[at_inf, 0, 1] = 0
    roots[both_inf, 1, 1] = 0
    linear = at_inf & ~both_inf
    roots[linear, 1, 0] = -t[linear, 2] / t[linear, 1]
    full = ~at_inf
    companion = np.zeros((int(full.sum()), 2, 2), dtype=complex)
    companion[:, 0] = -t[full, 1:] / t[full, :1]
    companion[:, 1, 0] = 1
    roots[full, :, 0] = np.linalg.eigvals(companion)
    return roots


def whole_critical_values_rows(num, den):
    """Branch values as the (2, 2, n) array of numerator and denominator
    (axis 0) at both points (axis 1), transposed to (n, 2, 2)."""
    num = np.asarray(num, dtype=complex)
    den = np.asarray(den, dtype=complex)
    a, b, c = num.T
    d, e, f = den.T
    ae, bd, af, cd, bf, ce = _whole_mul(np.stack([a, b, a, c, b, c]),
                                        np.stack([e, d, f, d, f, e]))
    w = np.stack([ae - bd, 2 * (af - cd), bf - ce], axis=1)
    disc = _whole_modulus(_whole_mul(w[:, 1], w[:, 1])
                          - _whole_mul(4 * w[:, 0], w[:, 2]))
    size = (_whole_row_max(_whole_modulus(num))
            * _whole_row_max(_whole_modulus(den))) ** 2
    if not np.all(disc > 4 * DEFAULT_TOL * size):
        raise ValueError("numerator and denominator share a root")
    scale = _whole_row_max(_whole_modulus(w))
    degenerate = disc < DEFAULT_TOL * scale**2
    pts = _whole_quadratic_roots_rows(w / scale[:, None])
    pts[degenerate, 1] = pts[degenerate, 0]
    x0, x1 = pts[..., 0].T[None], pts[..., 1].T[None]
    a, b, c = np.stack([num.T, den.T], axis=1)[:, :, None]
    m = _whole_mul
    values = m(m(a, x0), x0) + m(m(b, x0), x1) + m(m(c, x1), x1)
    return values.transpose(2, 1, 0), degenerate


def whole_unordered_pair_residual_rows(pairs_a, pairs_b):
    """Straight and crossed minors of the scaled points, the crossed pairs
    from a reversed copy of `pairs_b`."""
    n, _, k = pairs_a.shape
    a = _whole_unit_rows(pairs_a.reshape(-1, k))
    b = _whole_unit_rows(pairs_b.reshape(-1, k)).reshape(n, 2, k)
    straight, crossed = (
        _whole_row_max(_whole_modulus(whole_minors_rows(a, c.reshape(-1, k))))
        for c in (b, b[:, ::-1]))
    return np.minimum(np.maximum(straight[0::2], straight[1::2]),
                      np.maximum(crossed[0::2], crossed[1::2]))


# ---------------------------------------------------------------------------
# admissible strata and their codimensions


def admissible_strata(form: SymplecticForm) -> list[int]:
    """All stratum indices k whose defining curve class has positive area.

    This is the set-builder form { k : area > 0 }, evaluated exactly; on the
    product surface it equals {0, ..., l} where l - 1 < lambda <= l.  On the
    blow-up the indices start at k = 1.
    """
    out = []
    k = 0 if form.surface is TRIVIAL else 1
    while area(form, stratum_curve_class(form.surface, k)) > 0:
        out.append(k)
        k += 1
    return out


#: The first Chern class of each surface's tangent bundle in its basis:
#: 2A + 2F on the product and 3L - E on the blow-up.
TANGENT_CHERN = {TRIVIAL: (2, 2), NONTRIVIAL: (3, -1)}


def chern_pairing(c: H2Class) -> int:
    """Pairing of the tangent bundle's first Chern class with c."""
    return intersect(c.surface.h2(*TANGENT_CHERN[c.surface]), c)


def adjunction_codim(b: H2Class) -> int:
    """-(2 c1.B - 2) for the class B = b, the negative index of the
    deformation problem of a sphere in it, floored at 0: the route that
    `homology.normal_codim` is checked against."""
    return max(0, -(2 * chern_pairing(b) - 2))


def link_dimension(m: int, k: int) -> int:
    """Dimension of the normal link of stratum m inside the closure of k.

    4(m - k) - 1 for m > k >= 1.  For k = 0 the pointed link is used and its
    dimension is 4m - 3; that value is inferred from the m = 2 case, where
    the pointed link is the 5-sphere, and is not covered by the generic
    formula.
    """
    if m <= k:
        raise ValueError("need m > k")
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return 4 * m - 3
    return 4 * (m - k) - 1


# ---------------------------------------------------------------------------
# named lens spaces

S2XS1 = lens_space(0, 1)
RP3 = lens_space(2, 1)
S3 = lens_space(1, 0)


# ---------------------------------------------------------------------------
# stable trees


def fiber_class(d: int) -> H2Class:
    """The class dF on the product surface; d = 0 is a ghost label."""
    if d < 0:
        raise ValueError("fiber multiples have d >= 0")
    return TRIVIAL.h2(0, d)


def stem_class(m: int) -> H2Class:
    return TRIVIAL.h2(1, -m)


@dataclass(frozen=True)
class TreeComponent:
    """One component of the domain: homology label plus marked-point count."""

    label: H2Class
    marked: int = 0


@dataclass(frozen=True)
class StableTree:
    """Tree of components with labeled marked points.

    Edges are unordered pairs of component indices; double points are
    simple, so the edge set has no repeats.  At most one component is the
    stem, and its class must be A - mF with m >= 0.
    """

    components: tuple[TreeComponent, ...]
    edges: tuple[tuple[int, int], ...]
    stem: int | None = None

    def __post_init__(self):
        n = len(self.components)
        if n == 0:
            raise ValueError("tree must have at least one component")
        norm = []
        for i, j in self.edges:
            if i == j or not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"bad edge ({i}, {j})")
            norm.append((min(i, j), max(i, j)))
        if len(set(norm)) != len(norm):
            raise ValueError("components meet in at most one point")
        object.__setattr__(self, "edges", tuple(sorted(norm)))
        if len(self.edges) != n - 1 or not self._connected():
            raise ValueError("component graph must be a tree")
        if self.stem is not None:
            a, b = self.components[self.stem].label.coeffs
            if a != 1 or b > 0:
                raise ValueError("stem class must be A - mF with m >= 0")

    def _connected(self) -> bool:
        adj = self.adjacency()
        seen = {0}
        todo = [0]
        while todo:
            v = todo.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        return len(seen) == len(self.components)

    def adjacency(self) -> list[list[int]]:
        adj = [[] for _ in self.components]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return adj

    def degree(self, v: int) -> int:
        return sum(1 for i, j in self.edges if v in (i, j))

    @property
    def total_class(self) -> H2Class:
        return TRIVIAL.h2(sum(c.label.coeffs[0] for c in self.components),
                          sum(c.label.coeffs[1] for c in self.components))


def is_stable(t: StableTree) -> bool:
    """Whether every ghost component carries at least three special points.

    Special points are nodes and marked points; nonconstant components are
    unconstrained.
    """
    for v, comp in enumerate(t.components):
        if comp.label.coeffs == (0, 0) and t.degree(v) + comp.marked < 3:
            return False
    return True


def combinatorial_isotropy(t: StableTree) -> int:
    """Order of the automorphism group of the labeled tree.

    Automorphisms fix the stem and preserve component labels.  Marked points
    are labeled, so any component carrying one is fixed.  This counts only
    domain-tree symmetry and is an upper bound for the isotropy of a stable
    map with this shadow.
    """
    n = len(t.components)
    adj = t.adjacency()

    def key(v: int):
        comp = t.components[v]
        # labeled marked points pin the component: make its key unique
        pin = v if comp.marked > 0 else -1
        return (comp.label.coeffs, comp.marked, pin)

    def walk(v: int, parent: int) -> tuple[tuple, int]:
        children = []
        order = 1
        for w in adj[v]:
            if w != parent:
                canon, aut = walk(w, v)
                children.append(canon)
                order *= aut
        children.sort()
        # permutations of equal child subtrees
        swaps = math.prod(math.factorial(len(list(g)))
                          for _, g in itertools.groupby(children))
        return (key(v), tuple(children)), order * swaps

    if t.stem is not None or n == 1:
        root = t.stem if t.stem is not None else 0
        _, order = walk(root, -1)
    else:
        centers = _tree_centers(n, adj)
        if len(centers) == 1:
            _, order = walk(centers[0], -1)
        else:
            u, v = centers
            cu, ou = walk(u, v)
            cv, ov = walk(v, u)
            order = ou * ov * (2 if cu == cv else 1)
    return order


def _tree_centers(n: int, adj) -> list[int]:
    deg = [len(a) for a in adj]
    layer = [v for v in range(n) if deg[v] == 1]
    remaining = n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            for w in adj[v]:
                deg[w] -= 1
                if deg[w] == 1:
                    nxt.append(w)
        layer = nxt
    return layer


def stratum_tree(descriptor, stem_drop: int) -> StableTree:
    """Realize a `stable_trees.StratumDescriptor` as a stable tree with
    stem class A - mF.

    The result represents A - kF with k = m - n, where n is the total fiber
    degree of the descriptor; labels always sum to that class exactly.
    """
    components = [TreeComponent(stem_class(stem_drop))]
    edges: list[tuple[int, int]] = []

    def add(shape, parent: int):
        idx = len(components)
        # the marker slot, present only in pointed shapes
        marked = 1 if shape[1:-1] == (True,) else 0
        components.append(TreeComponent(fiber_class(shape[0]), marked=marked))
        edges.append((parent, idx))
        for child in shape[-1]:
            add(child, idx)

    for s in descriptor.shapes:
        add(s, 0)
    if descriptor.pointed_shape is not None:
        add(descriptor.pointed_shape, 0)
    return StableTree(tuple(components), tuple(edges), stem=0)


def shape_aut_order(shape) -> int:
    """Automorphisms of a rooted branch shape: the permutations of equal
    child subtrees, times each child's own automorphisms."""
    children = shape[-1]
    swaps = math.prod(math.factorial(children.count(c)) for c in set(children))
    return swaps * math.prod(shape_aut_order(c) for c in children)


def top_stratum_dimension(parts) -> int:
    """Real dimension 4n - 2p of the open stratum whose p branches have the
    fiber degrees `parts`, a partition of n."""
    return 4 * sum(parts) - 2 * len(parts)


def branch_moduli_dim(d: int) -> int:
    """Dimension 4(d - 1) of degree-d one-pointed stable maps to the sphere."""
    if d < 1:
        raise ValueError("branch degree must be >= 1")
    return 4 * (d - 1)


def argparse_parser() -> argparse.ArgumentParser:
    """The command line's options as argparse read them, help text aside."""
    parser = argparse.ArgumentParser(prog="ruledstrata")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    p = sub.add_parser("strata")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--surface", default="trivial")
    p = sub.add_parser("links")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--surface", default="trivial")
    p = sub.add_parser("plumb")
    p.add_argument("--chain", required=True)
    p = sub.add_parser("verify-maps")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--tol", type=float, default=1e-9)
    p = sub.add_parser("decompositions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--pointed", action="store_true")
    for p in sub.choices.values():
        p.add_argument("--json", action="store_true", dest="as_json")
    return parser
