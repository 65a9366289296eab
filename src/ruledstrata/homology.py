"""Exact intersection-form and symplectic-area arithmetic on the second
homology of the two rational ruled surfaces.

The trivial bundle is the product of two spheres, with hyperbolic pairing on
the basis (A, F) where A is the base class and F the fiber.  The nontrivial
bundle is the one-point blow-up of the projective plane, with diagonal
pairing (+1, -1) on the basis (L, E) of a line and the exceptional sphere.
All arithmetic here is exact: integer coefficients and `fractions.Fraction`
areas.  Admissibility of a stratum is a strict inequality that can sit
exactly on an integer boundary, so no floating point is used.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction


class RuledSurface(namedtuple("RuledSurface",
                              "name basis_names pairing tangent_chern")):
    """A rational ruled surface with a fixed integral basis of H_2.

    `name` is its key in `SURFACES`, `pairing` the intersection matrix in
    that basis and `tangent_chern` the coefficients of the first Chern class
    of the tangent bundle.
    """

    __slots__ = ()

    def h2(self, a: int, b: int) -> "H2Class":
        """Return the class a*e1 + b*e2 in this surface's basis."""
        if not (isinstance(a, int) and isinstance(b, int)):
            raise TypeError("homology coefficients must be exact integers")
        return H2Class(self, (a, b))


TRIVIAL = RuledSurface(
    name="trivial",
    basis_names=("A", "F"),
    pairing=((0, 1), (1, 0)),
    tangent_chern=(2, 2),
)

NONTRIVIAL = RuledSurface(
    name="nontrivial",
    basis_names=("L", "E"),
    pairing=((1, 0), (0, -1)),
    tangent_chern=(3, -1),
)

#: Both surfaces, keyed by name.
SURFACES = {s.name: s for s in (TRIVIAL, NONTRIVIAL)}


class H2Class(namedtuple("H2Class", "surface coeffs")):
    """An integral second homology class in the surface's fixed basis; build
    it with `RuledSurface.h2`."""

    __slots__ = ()

    def __repr__(self):
        names = self.surface.basis_names
        terms = []
        for c, name in zip(self.coeffs, names):
            if c == 0:
                continue
            if c == 1:
                terms.append(f"+{name}")
            elif c == -1:
                terms.append(f"-{name}")
            else:
                terms.append(f"{c:+d}{name}")
        if not terms:
            return "0"
        s = "".join(terms)
        return s[1:] if s.startswith("+") else s


def intersect(c1: H2Class, c2: H2Class) -> int:
    """Intersection number of two classes on the same surface.

    Symmetric and bilinear over the integers; e.g. on the product surface
    (A - kF) . (A - mF) = -(k + m).
    """
    if c1.surface != c2.surface:
        raise ValueError("classes live on different surfaces")
    m = c1.surface.pairing
    (a1, b1), (a2, b2) = c1.coeffs, c2.coeffs
    return (a1 * (m[0][0] * a2 + m[0][1] * b2)
            + b1 * (m[1][0] * a2 + m[1][1] * b2))


class SymplecticForm(namedtuple("SymplecticForm", "surface lam")):
    """The normalized form with area 1 on the fiber, parametrized by lambda.

    On the product surface the base class A has area 1 + lambda with
    lambda >= 0.  On the blow-up the line L has area 1 + lambda and the
    exceptional sphere E has area lambda > 0.  `lam` is a `Fraction`.
    """

    __slots__ = ()

    def __new__(cls, surface: RuledSurface, lam):
        lam = Fraction(lam)
        if surface is TRIVIAL:
            if lam < 0:
                raise ValueError("lambda must be >= 0 on the product surface")
        elif lam <= 0:
            raise ValueError("lambda must be > 0 on the blow-up")
        return super().__new__(cls, surface, lam)


def area(form: SymplecticForm, c: H2Class) -> Fraction:
    """Symplectic area of a class, exact in lambda.

    Linear in the class: on the product, area(A - kF) = 1 + lambda - k.
    """
    if form.surface != c.surface:
        raise ValueError("form and class live on different surfaces")
    a, b = c.coeffs
    lam = form.lam
    if form.surface is TRIVIAL:
        return a * (1 + lam) + b
    return a * (1 + lam) + b * lam


def stratum_curve_class(surface: RuledSurface, k: int) -> H2Class:
    """The curve class whose embedded representative defines stratum k.

    Product surface: A - kF for k >= 0.  Blow-up: E - (k-1)F for k >= 1,
    a section of self-intersection 1 - 2k.
    """
    if surface is TRIVIAL:
        if k < 0:
            raise ValueError("k must be >= 0")
        return surface.h2(1, -k)
    if k < 1:
        raise ValueError("blow-up strata are indexed by k >= 1")
    # E - (k-1)(L-E) = -(k-1) L + k E
    return surface.h2(-(k - 1), k)


def admissible_count(form: SymplecticForm) -> int:
    """How many indices k >= `first_stratum` give a curve class of positive
    area: stratum k has area 1 + lambda - k on both surfaces.
    """
    return math.ceil(1 + form.lam) - first_stratum(form.surface)


def first_stratum(surface: RuledSurface) -> int:
    """The least stratum index: 0 on the product, 1 on the blow-up."""
    return 0 if surface is TRIVIAL else 1


def chern_pairing(c: H2Class) -> int:
    """Pairing of the tangent bundle's first Chern class with c."""
    return intersect(c.surface.h2(*c.surface.tangent_chern), c)


def strata_codim(surface: RuledSurface, k: int) -> int:
    """Codimension of stratum k in the space of compatible structures.

    Product surface: 4k - 2 for k >= 1, and 0 for the open stratum k = 0.
    Blow-up: the stated value 4k.  On the blow-up this disagrees with the
    adjunction-style count (see `codim_cross_check`); the stated value is
    returned verbatim and never silently reconciled.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if surface is TRIVIAL:
        if k == 0:
            return 0  # open stratum
        return 4 * k - 2
    if k == 0:
        raise ValueError("blow-up strata are indexed by k >= 1; "
                         "the whole space is the closure of k = 1")
    return 4 * k


#: Stated stratum codimension next to the adjunction-style count, and
#: whether they agree.
CodimCheck = namedtuple("CodimCheck", "stated adjunction consistent")


def codim_cross_check(surface: RuledSurface, k: int) -> CodimCheck:
    """`adjunction` is -(2 c1.B - 2) for the stratum's curve class B, the
    negative index of the deformation problem.  On the product surface the
    two agree; on the blow-up they differ by 4 and the tension is surfaced
    here rather than resolved.
    """
    if k < 1:
        raise ValueError("cross-check defined for k >= 1")
    b = stratum_curve_class(surface, k)
    adj = -(2 * chern_pairing(b) - 2)
    stated = strata_codim(surface, k)
    return CodimCheck(stated, adj, stated == adj)


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
