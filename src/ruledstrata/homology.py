"""Exact intersection-form, symplectic-area and codimension arithmetic on
the second homology of the two rational ruled surfaces.

The trivial bundle is the product of two spheres, with hyperbolic pairing on
the basis (A, F) where A is the base class and F the fiber.  The nontrivial
bundle is the one-point blow-up of the projective plane, with diagonal
pairing (+1, -1) on the basis (L, E) of a line and the exceptional sphere,
and fiber L - E.  Each surface is one `RuledSurface` record: stratum k is
defined by the class e1 - k * fiber from its first index on, and its
codimension is `normal_codim` of that class on either surface.  The
blow-up's record also holds its stated codimension 4k, which differs from
`normal_codim`; reports show both and never reconcile them.  All arithmetic
here is exact: integer coefficients and `fractions.Fraction` areas.
Admissibility of a stratum is a strict inequality that can sit exactly on
an integer boundary, so no floating point is used.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction


class RuledSurface(namedtuple("RuledSurface", "name basis_names pairing "
                              "fiber first stated_codim_per_k")):
    """A rational ruled surface with a fixed integral basis (e1, e2) of H_2.

    `name` is its key in `SURFACES`, `pairing` the intersection matrix in
    that basis and `fiber` the coefficients of the fiber class.  Strata are
    indexed by k >= `first`.  Where the stated codimension of stratum k is
    not `normal_codim` of its class, it is `stated_codim_per_k * k`; None
    means there is no separate stated value.
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
    fiber=(0, 1),
    first=0,
    stated_codim_per_k=None,
)

NONTRIVIAL = RuledSurface(
    name="nontrivial",
    basis_names=("L", "E"),
    pairing=((1, 0), (0, -1)),
    fiber=(1, -1),
    first=1,
    stated_codim_per_k=4,
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

    e1 has area 1 + lambda and the fiber area 1, which fixes e2; the area is
    linear in the class: on the product, area(A - kF) = 1 + lambda - k.
    """
    if form.surface != c.surface:
        raise ValueError("form and class live on different surfaces")
    (a, b), (f1, f2) = c.coeffs, c.surface.fiber
    n, d = form.lam.numerator, form.lam.denominator
    # e2 = f2 * (fiber - f1 * e1), as f2 is +1 or -1; all over d
    return Fraction(a * (n + d) + b * f2 * (d - f1 * (n + d)), d)


def stratum_curve_class(surface: RuledSurface, k: int) -> H2Class:
    """The curve class whose embedded representative defines stratum k:
    e1 - k * fiber for k >= `surface.first`.

    Product surface: A - kF.  Blow-up: L - k(L - E) = E - (k-1)F, a section
    of self-intersection 1 - 2k.
    """
    if k < surface.first:
        raise ValueError(f"{surface.name} strata are indexed by "
                         f"k >= {surface.first}")
    f1, f2 = surface.fiber
    return surface.h2(1 - k * f1, -k * f2)


def admissible_count(form: SymplecticForm) -> int:
    """How many indices k >= `form.surface.first` give a curve class of
    positive area: stratum k has area 1 + lambda - k on both surfaces.
    """
    return math.ceil(1 + form.lam) - form.surface.first


def normal_codim(b: H2Class) -> int:
    """Codimension of the stratum of structures with an embedded sphere in
    class b: 2 dim H^1 of its normal bundle, 2(-1 - b.b) by Riemann-Roch,
    and 0 when b.b >= -1.

    A - kF on the product gives 4k - 2 (0 at k = 0), and E - (k-1)F on the
    blow-up gives 4k - 4.
    """
    return max(0, -2 - 2 * intersect(b, b))
