"""Gluing-parameter bundles over the sphere, as their integer degrees.

A line bundle over the sphere is determined by its Euler number and a sum
of two line bundles by its pair of degrees, so a bundle here is an int or
an `(int, int)` tuple: tensor product adds degrees, pullback under a
degree-d self-map multiplies by d, and isomorphism testing is integer
comparison.  The weighted orbifold circle bundle over the double-cover
stratum has no degree here: the link pipeline enters it as the twist of
`plumbing.plumb_with_ly`.
"""

from __future__ import annotations

#: Degree of the tangent bundle of the sphere.
TANGENT_DEGREE = 2


def gluing_bundle(k: int) -> int:
    """Degree of the gluing-parameter line bundle between strata k+1 and k.

    The node smoothings form the tensor product of the tangent line of the
    moving fiber with the tangent line of the section, the latter pulled
    back under the degree -(k+1) graph map.  The degree works out to -2k;
    it is computed here, not hard-coded.
    """
    if k <= 0:
        raise ValueError("adjacent strata need k >= 1")
    section_graph_degree = -(k + 1)
    return section_graph_degree * TANGENT_DEGREE + TANGENT_DEGREE


def v2_bundle() -> tuple[int, int]:
    """Degrees of the gluing-parameter bundle over the two-fiber stratum.

    The stratum of stable maps with two fiber components, compactified by
    the four-component configuration, is a sphere; over it the two gluing
    parameters form O(-2) + O(0).  The O(-2) factor is the adjacent-strata
    gluing bundle with k = 1, the trivial factor is the parameter at the
    fixed fiber.  The order of the pair matters for the plumbing
    bookkeeping, though the isomorphism type is the degree sum.
    """
    return gluing_bundle(1), 0
