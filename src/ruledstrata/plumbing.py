"""Plumbing calculus for the links of strata.

A linear plumbing of circle bundles over the sphere is a chain, the tuple
of its Euler numbers from one end to the other.  Chains are recognized as
lens spaces through the negative continued fraction of their Euler
numbers, with the sign convention that the unit circle bundle of O(-n) is
L(n, 1); every other sign in the module follows from that choice.
Blow-downs of (+/-1) entries give an independent rewrite route to the same
normal forms.  The five-dimensional rewrites (plumbing a 3-sphere bundle
with the canonical circle bundle over the plane, or with the weighted
orbifold circle bundle) act on pairs of degrees, and are applied only in
the forms needed by the link pipelines.  Link results are `Space` normal
forms tagged "lens", "sphere_bundle3", "pullback_canonical" or "s5".
"""

from collections import namedtuple

from .bundles import gluing_bundle, v2_bundle


# ---------------------------------------------------------------------------
# normal-form spaces


class Space(namedtuple("Space", "tag p q notes eulers",
                       defaults=(None, None, (), ()))):
    """Normal form of a link computation.

    Tags: "lens" (with p, q), "sphere_bundle3" (the link of a zero section),
    "pullback_canonical" (the circle bundle over the blow-up of the plane
    pulled back from the plane) and "s5".  The conventions L(0,1) = S2 x S1,
    L(1,0) = S3 and L(2,1) = RP3 are applied in `display` and
    `lens_equivalent`, not by retagging.
    """

    __slots__ = ()

    def euler_over(self, name: str) -> int:
        for key, value in self.eulers:
            if key == name:
                return value
        raise KeyError(name)

    def display(self) -> str:
        if self.tag == "lens":
            if self.p == 0:
                return "L(0,1) = S2 x S1"
            if self.p == 1:
                return "L(1,0) = S3"
            if (self.p, self.q) == (2, 1):
                return "L(2,1) = RP3"
            return f"L({self.p},{self.q})"
        if self.tag == "s5":
            return "S5"
        return self.tag


def lens_space(p: int, q: int, notes: tuple[str, ...] = ()) -> Space:
    """L(p, q) normalized to p >= 0 and 0 <= q < p when p >= 2."""
    if p < 0:
        p, q = -p, -q
    if p == 0:
        q = 1
    elif p == 1:
        q = 0
    else:
        q %= p
    return Space("lens", p=p, q=q, notes=notes)


def _as_lens_pq(s: Space) -> tuple[int, int]:
    if s.tag != "lens":
        raise ValueError(f"{s.tag} is not a lens space")
    return s.p, s.q


def lens_equivalent(a: Space, b: Space) -> bool:
    """Diffeomorphism test for lens spaces.

    L(p, q) = L(p, q') iff q' is congruent to +/- q or to a +/- inverse of q
    mod p; L(0, .) is S2 x S1 and L(1, .) is S3 regardless of q.
    """
    p1, q1 = _as_lens_pq(a)
    p2, q2 = _as_lens_pq(b)
    if p1 != p2:
        return False
    p = p1
    if p in (0, 1):
        return True
    q1 %= p
    q2 %= p
    if q1 == q2 or (q1 + q2) % p == 0:
        return True
    return (q1 * q2) % p in (1 % p, (-1) % p)


# ---------------------------------------------------------------------------
# linear chains


def chain_to_lens(eulers) -> Space:
    """Lens space bounding a linear plumbing with the given Euler numbers.

    Evaluates the negative continued fraction [-e1, -e2, ...] projectively
    (a 2x2 integer matrix product), so interior infinities are harmless:
    a value p/q of 1/0 is the 3-sphere, 0/1 the product S2 x S1.  The
    empty chain, the plumbing of nothing, bounds the 4-ball: its identity
    matrix gives the 3-sphere.
    """
    m00, m01, m10, m11 = 1, 0, 0, 1
    for e in eulers:
        a = -e
        m00, m01, m10, m11 = (m00 * a + m01, -m00,
                              m10 * a + m11, -m10)
    return lens_space(m00, m10)


def circle_bundle_space(euler: int) -> Space:
    """Normal form of the unit circle bundle of O(euler) over the sphere."""
    return chain_to_lens([euler])


def blow_down(chain: tuple[int, ...]) -> tuple[int, ...]:
    """Remove the first (+/-1) entry of a chain, joining its neighbors.

    Each neighbor's Euler number changes by the opposite sign; with no such
    entry the chain is returned unchanged.
    """
    for v, e in enumerate(chain):
        if e in (1, -1):
            out = list(chain)
            if v > 0:
                out[v - 1] -= e
            if v + 1 < len(out):
                out[v + 1] -= e
            del out[v]
            return tuple(out)
    return chain


def blow_down_fully(chain) -> list[tuple[int, ...]]:
    """The blow-down trace: the chain, then each blow-down until none applies."""
    trace = [tuple(chain)]
    while True:
        nxt = blow_down(trace[-1])
        if nxt is trace[-1]:
            return trace
        trace.append(nxt)


# ---------------------------------------------------------------------------
# rank-2 rewrites used by the link pipelines, on pairs of degrees


def plumb_with_canonical(b: tuple[int, int]) -> tuple[int, int]:
    """Plumb the 3-sphere bundle with the canonical circle bundle over the
    plane: both degrees go up by one.

    The plumbed disk bundle is the blow-up of the shifted sum at a point of
    its zero section, so on boundaries S(O(k)+O(m)) becomes
    S(O(k+1)+O(m+1)).
    """
    return b[0] + 1, b[1] + 1


def plumb_with_ly(b: tuple[int, int]) -> tuple[int, int]:
    """Plumb with the weighted orbifold circle bundle at a regular fiber.

    The weighted fiber winds once more than a canonical fiber, so this is
    plumbing with the canonical circle bundle after one extra positive twist
    on the first factor: (k, m) -> (k+2, m+1).
    """
    return plumb_with_canonical((b[0] + 1, b[1]))


def twist_by_attaching(b: tuple[int, int]) -> tuple[int, int]:
    """Twist both factors by the degree -1 line of the attaching parameter.

    When the two-fiber gluing bundle is attached to the double-cover
    stratum, rotating the stem gluing parameter rotates both remaining
    parameters once, which tensors each factor with the tautological
    degree -1 bundle: (k, m) -> (k-1, m-1).
    """
    return b[0] - 1, b[1] - 1


def identify_pullback_over_blowdown(b: tuple[int, int]) -> Space:
    """Identify S(O(k)+O(m)) with k+m = -1 as a blowdown pullback.

    The projectivization of O(-1)+O(0) is the one-point blow-up of the
    plane, and its tautological circle bundle is the pullback of the
    canonical circle bundle under the blowdown map: trivial over the rigid
    section, Euler number -1 over the other section and over the fiber.
    """
    if sum(b) != -1:
        raise ValueError("pullback identification needs degree sum -1")
    return Space(
        "pullback_canonical",
        eulers=(("S-", 0), ("S+", -1), ("fiber", -1)),
        notes=("circle bundle over the one-point blow-up of the plane",
               "pulled back from the canonical circle bundle under the blowdown"),
    )


def collapse_exceptional(s: Space) -> Space:
    """Collapse the circles over the exceptional sphere to a single fiber.

    The pullback bundle is trivial over the exceptional sphere, so the
    collapse lands on the canonical circle bundle over the plane, which is
    the 5-sphere.  A conic in the plane is a degree-2 sphere, so the
    circles over it form the Euler number -2 bundle, a real projective
    3-space; that sublink is recorded on the result.
    """
    if s.tag != "pullback_canonical":
        raise ValueError("can only collapse the tagged pullback space")
    conic_euler = 2 * s.euler_over("fiber")
    sublink = circle_bundle_space(conic_euler)
    return Space(
        "s5",
        eulers=(("conic", conic_euler),),
        notes=("canonical circle bundle over the plane",
               f"sublink over a conic: {sublink.display()}"),
    )


# ---------------------------------------------------------------------------
# link pipelines


def link_adjacent(k: int) -> Space:
    """Normal link of stratum k+1 inside the closure of stratum k.

    Computed as the unit circle bundle of the gluing-parameter bundle, then
    recognized as a lens space; nothing is hard-coded.
    """
    if k < 1:
        raise ValueError("adjacent strata need k >= 1")
    return circle_bundle_space(gluing_bundle(k))


#: Trace and results of the two-step link at the open end, the link last.
Link20Result = namedtuple("Link20Result", "steps l_z sublink")


def link20_pipeline() -> Link20Result:
    """Link of stratum 2 inside the closure of the open stratum.

    The gluing data over the two-fiber stratum is twisted by the attaching
    parameter, plumbed into the orbifold bundle over the double-cover
    stratum at a regular fiber, identified as the blowdown pullback, and
    collapsed over the exceptional sphere, landing on the 5-sphere with the
    adjacent link sitting inside as the circles over a conic.
    """
    steps: list[tuple[str, object]] = []
    b = v2_bundle()
    steps.append(("gluing-bundle-over-two-fiber-stratum", b))
    b = twist_by_attaching(b)
    steps.append(("attaching-twist", b))
    b = plumb_with_ly(b)
    steps.append(("orbifold-plumbing-regular-fiber", b))
    l_z = Space("sphere_bundle3",
                notes=("link of the zero section in the gluing data",))
    pulled = identify_pullback_over_blowdown(b)
    steps.append(("blowdown-pullback", pulled))
    final = collapse_exceptional(pulled)
    steps.append(("collapse-exceptional-fibers", final))
    sublink = circle_bundle_space(final.euler_over("conic"))
    return Link20Result(tuple(steps), l_z, sublink)


#: Stated adjacent link on the blow-up surface, plus a diagnostic.
NontrivialLinkResult = namedtuple("NontrivialLinkResult",
                                  "space derived derived_degree agrees")


def link_nontrivial(k: int) -> NontrivialLinkResult:
    """Normal link of stratum k+1 in stratum k on the blow-up surface.

    `space` is the stated value L(4k+1, 1).  `derived` is what the
    self-intersection-plus-two gluing-degree rule would give instead; the
    two disagree and the disagreement is reported, never reconciled.
    """
    from .homology import NONTRIVIAL, intersect, stratum_curve_class
    if k < 1:
        raise ValueError("need k >= 1")
    stated = lens_space(4 * k + 1, 1,
                        notes=("stated adjacent link on the blow-up",))
    b = stratum_curve_class(NONTRIVIAL, k + 1)
    degree = intersect(b, b) + 2
    derived = circle_bundle_space(degree)
    return NontrivialLinkResult(stated, derived, degree,
                                lens_equivalent(stated, derived))
