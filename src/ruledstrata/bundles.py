"""Formal line-bundle and rank-2-bundle arithmetic over the sphere.

Bundles are expressions, not geometric objects, known by integer Chern
data.  Every computation feeding the link pipelines reduces to Euler and
Chern numbers, so isomorphism testing is integer comparison.  The weighted
orbifold circle bundle over the double-cover stratum has no record here:
the link pipeline enters it as the twist of `plumbing.plumb_with_ly`.
"""

from __future__ import annotations

from collections import namedtuple


class LineBundleExpr(namedtuple("LineBundleExpr", "degree")):
    """A complex line bundle over the sphere, known by its Euler number."""

    __slots__ = ()

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


class Rank2BundleExpr(namedtuple("Rank2BundleExpr", "degrees")):
    """A sum of two line bundles over the sphere, by its pair of degrees.

    The ordered pair matters for plumbing bookkeeping (which factor gets
    twisted at an intermediate step), but the isomorphism type depends only
    on the degree sum.
    """

    __slots__ = ()

    @property
    def normal_form(self) -> int:
        return self.degrees[0] + self.degrees[1]

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
