"""Formal line-bundle and rank-2-bundle arithmetic over the sphere.

Bundles are expressions, not geometric objects, known by integer Chern
data.  Every computation feeding the link pipelines reduces to Euler and
Chern numbers, so isomorphism testing is integer comparison.  Orbifold
data is limited to isolated cyclic points, the only case that occurs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class LineBundleExpr:
    """A complex line bundle over the sphere, known by its Euler number."""

    degree: int

    def __repr__(self):
        return f"O({self.degree})"


def o(degree: int) -> LineBundleExpr:
    """The line bundle over the sphere with the given Euler number."""
    return LineBundleExpr(degree)


#: The tangent bundle of the sphere.
TANGENT_SPHERE = o(2)


def tensor(a: LineBundleExpr, b: LineBundleExpr) -> LineBundleExpr:
    """Tensor product; degrees add."""
    return LineBundleExpr(a.degree + b.degree)


def pullback_by_degree(d: int, a: LineBundleExpr) -> LineBundleExpr:
    """Pull back under a self-map of the sphere of the given degree."""
    return LineBundleExpr(d * a.degree)


def gluing_bundle(k: int) -> LineBundleExpr:
    """Line bundle of gluing parameters between adjacent strata k+1 and k.

    The node smoothings form the tensor product of the tangent line of the
    moving fiber with the tangent line of the section, the latter pulled
    back under the degree -(k+1) graph map.  The degree works out to -2k;
    it is computed here, not hard-coded.
    """
    if k <= 0:
        raise ValueError("adjacent strata need k >= 1")
    section_graph_degree = -(k + 1)
    return tensor(pullback_by_degree(section_graph_degree, TANGENT_SPHERE),
                  TANGENT_SPHERE)


@dataclass(frozen=True)
class Rank2BundleExpr:
    """A sum of two line bundles over the sphere.

    The ordered pair matters for plumbing bookkeeping (which factor gets
    twisted at an intermediate step), but the isomorphism type depends only
    on the degree sum.
    """

    degrees: tuple[int, int]

    @property
    def normal_form(self) -> int:
        return self.degrees[0] + self.degrees[1]

    def isomorphic(self, other: "Rank2BundleExpr") -> bool:
        return self.normal_form == other.normal_form

    def twisted(self, d0: int, d1: int) -> "Rank2BundleExpr":
        """Tensor the factors with line bundles of degrees d0 and d1."""
        return Rank2BundleExpr((self.degrees[0] + d0, self.degrees[1] + d1))

    def __repr__(self):
        return f"O({self.degrees[0]})+O({self.degrees[1]})"


def v2_bundle() -> Rank2BundleExpr:
    """Gluing-parameter bundle over the two-fiber stratum.

    The stratum of stable maps with two fiber components, compactified by
    the four-component configuration, is a sphere; over it the two gluing
    parameters form O(-2) + O(0).  The O(-2) factor is the adjacent-strata
    gluing bundle with k = 1, the trivial factor is the parameter at the
    fixed fiber.
    """
    return Rank2BundleExpr((gluing_bundle(1).degree, 0))


@dataclass(frozen=True)
class OrbifoldPoint:
    order: int
    # local weights of the cyclic action on (base chart) x (fiber)
    local_weights: tuple[int, ...]


@dataclass(frozen=True)
class OrbiLineBundle:
    """A line bundle with isolated cyclic orbifold points.

    The one instance used is the bundle of gluing parameters over the
    moduli space of two-pointed degree-2 self-maps of the sphere: a single
    order-2 point where the local action is (x, y) x v -> (-x, -y) x (-v),
    and whose unit circle bundle is the 5-sphere carrying the weighted
    circle action with weights (1, 1, 2).
    """

    base: str
    orbifold_points: tuple[OrbifoldPoint, ...]
    total_space: str
    action_weights: tuple[int, ...]

    def fiber_period_ratio(self, support_weights) -> Fraction:
        """Orbit period through a point, as a fraction of the generic 2*pi.

        `support_weights` are the action weights of the coordinates that are
        nonzero at the point; the period divides by their gcd.
        """
        ws = [int(w) for w in support_weights]
        if not ws:
            raise ValueError("point must have nonzero coordinates")
        return Fraction(1, math.gcd(*ws))


def ly_bundle() -> OrbiLineBundle:
    """The orbifold gluing-parameter bundle over the double-cover stratum."""
    return OrbiLineBundle(
        base="Y",
        orbifold_points=(OrbifoldPoint(order=2, local_weights=(1, 1, 1)),),
        total_space="S5",
        action_weights=(1, 1, 2),
    )
