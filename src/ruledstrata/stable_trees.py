"""Combinatorial shadows of genus-0 stable maps on the product ruled surface.

A stable map in class A - kF whose structure lies over stratum m >= k has a
distinguished stem component in class A - mF; everything else maps into
fibers.  This module handles the combinatorics only: the partitions of the
total fiber degree, the stable branch shapes as nested tuples, and the
stratum descriptors with their dimensions and automorphism counts.  The
test suite's `tests/oracles.py` realizes each descriptor as an explicit
tree of labeled components and checks it there; `reports` writes them.
"""

import itertools
import math
from collections import namedtuple
from functools import lru_cache


def _runs(items) -> list[tuple]:
    """(value, multiplicity) of each run of equal items, in order."""
    return [(v, len(list(g))) for v, g in itertools.groupby(items)]


def _perm_order(items) -> int:
    """Permutations of a sorted sequence that map each item to an equal one."""
    order = 1
    for _, m in _runs(items):
        order *= math.factorial(m)
    return order


# ---------------------------------------------------------------------------
# decompositions of the total fiber degree


def enumerate_decompositions(n: int) -> list[tuple[int, ...]]:
    """All integer partitions of n, each exactly once and largest part
    first: the positive fiber degrees of the branches (empty for n <= 0)."""
    if n <= 0:
        return []
    return list(_partitions(n))


def _partitions(n: int, cap: int | None = None):
    """Partitions of n >= 0 into parts <= cap, largest first; () for n = 0."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, n if cap is None else cap), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# branch shapes
#
# A branch attaches to the stem at one node, so its moduli is the space of
# one-pointed stable maps to the sphere of its total degree.  A shape is the
# combinatorial type of one of its strata: a rooted tree (root = component
# carrying the attach node) with nonnegative degree labels, ghosts needing
# two children on top of the root/parent special point.  Shapes are nested
# tuples, canonically sorted.  Plain nodes are (degree, children); nodes of
# a pointed shape, which carries one distinguished marked point somewhere
# in the branch, are (degree, marked, children).  Either way the degree is
# shape[0] and the children are shape[-1].
#
# A ghost carrying the point maps to the fixed incidence point, and a
# ghost's image is the node on its first nonconstant ancestor, so the point
# may not sit on a ghost whose whole path to the branch root consists of
# ghosts (the root's image is the attach point on the stem curve, away from
# the incidence point).  `_pointed_shapes_all` generates only the admissible
# placements; it and `enumerate_strata` pick the branch that carries the
# point by one generator, `_pointed_choices`.  No generator yields a shape
# twice.  Each takes an edge budget: a root with p <= budget children passes
# budget - p to each child's pool and drops the combinations over budget, so
# a bounded depth builds neither the full list nor one for a negative budget.
# Budgets are clamped to the most edges of their kind, 2d - 2, or 2d - 1 for
# pointed shapes under a nonconstant node: one full list a degree and kind.


@lru_cache(maxsize=None)
def _shapes_all(d: int, slot: tuple, budget: int) -> tuple[tuple, ...]:
    """Unpointed shapes of degree d with at most `budget` edges, with nodes
    (degree, *slot, children): `slot` is () for plain shapes and (False,)
    inside a pointed shape."""
    out = []
    for root_deg in range(d, -1, -1):
        for parts in _partitions(d - root_deg):
            if len(parts) > budget or root_deg == 0 and len(parts) < 2:
                continue
            for combo in _multisets(parts, _pool(budget - len(parts), slot)):
                out.append((root_deg, *slot, tuple(sorted(combo))))
    return tuple(sorted(out if budget >= 2 * d - 2 else
                        [s for s in out if _shape_counts(s)[0] <= budget]))


def _pool(spare: int, slot: tuple = (False,)):
    """v -> the unpointed shapes of degree v with at most `spare` edges."""
    return lambda v: _shapes_all(v, slot, min(spare, 2 * v - 2))


@lru_cache(maxsize=None)
def _pointed_shapes_all(d: int, ghost_path: bool,
                        budget: int) -> tuple[tuple, ...]:
    """Admissible pointed shapes of degree d with at most `budget` edges;
    `ghost_path` says whether every ancestor of the shape's root is a ghost
    (vacuously true at the branch root)."""
    out = []
    for root_deg in range(d, -1, -1):
        ghosts = ghost_path and root_deg == 0
        for parts in _partitions(d - root_deg):
            spare = budget - len(parts)
            # point on this component (one special point), never on a ghost
            # reached from the branch root through ghosts only
            if spare >= 0 and (root_deg > 0 or (parts and not ghost_path)):
                for combo in _multisets(parts, _pool(spare)):
                    out.append((root_deg, True, tuple(sorted(combo))))
            # point in one child subtree
            if spare < 0 or root_deg == 0 and len(parts) < 2:
                continue
            for _, child, others in _pointed_choices(
                    parts, lambda v: _pointed_shapes_all(
                        v, ghosts, min(spare, 2 * v - 1 - ghosts))):
                for combo in _multisets(others, _pool(spare)):
                    out.append((root_deg, False,
                                tuple(sorted((child,) + combo))))
    return tuple(sorted(out if budget >= 2 * d - 1 - ghost_path else
                        [s for s in out if _shape_counts(s)[0] <= budget]))


def _pointed_choices(parts, pool):
    """Each way to put the marked point on one of the branches `parts`:
    (its degree v, a pointed shape from `pool(v)`, the other parts).  Equal
    parts are one choice."""
    for i, part in enumerate(parts):
        if i == 0 or parts[i - 1] != part:
            for shape in pool(part):
                yield part, shape, parts[:i] + parts[i + 1:]


def _multisets(parts, pool):
    """For each run of equal degrees v in `parts`, a multiset of shapes from
    `pool(v)`: every choice, concatenated in the order of `parts`."""
    pools = [itertools.combinations_with_replacement(pool(v), m)
             for v, m in _runs(parts)]
    for pick in itertools.product(*pools):
        yield tuple(itertools.chain.from_iterable(pick))


def branch_shapes(d: int, max_extra_nodes: int | None = 3,
                  pointed: bool = False) -> list[tuple]:
    """Shapes of degree-d branches with at most the given number of nodes.

    Ghosts need two children, so a degree-d branch has at most 2d - 1
    components and 2d - 2 extra nodes: the enumeration is finite even
    unbounded, and a bound of None or above 2d - 2 gives the same, full
    list.  With `pointed` the shapes carry the marked point.
    """
    most = 2 * d - 2
    budget = most if max_extra_nodes is None else min(max_extra_nodes, most)
    return list(_pointed_shapes_all(d, True, budget) if pointed
                else _shapes_all(d, (), budget))


def shape_edges(shape) -> int:
    return len(shape[-1]) + sum(shape_edges(c) for c in shape[-1])


@lru_cache(maxsize=None)
def _shape_counts(shape) -> tuple[int, int]:
    """`shape_edges` and the automorphism order (the permutations of equal
    child subtrees, times each child's own) at once, cached per subtree."""
    kids = [_shape_counts(c) for c in shape[-1]]
    return (len(kids) + sum(e for e, _ in kids),
            _perm_order(shape[-1]) * math.prod(a for _, a in kids))


# ---------------------------------------------------------------------------
# stratum descriptors


class StratumDescriptor(namedtuple(
        "StratumDescriptor", "parts shapes dimension isotropy pointed_part "
        "pointed_shape", defaults=(None, None))):
    """One combinatorial stratum of the fiber over a stratum of structures.

    `parts` is the decomposition of the total fiber degree, a partition.
    `shapes` aligns with `parts`, less `pointed_part` in the pointed
    variant, where one branch is attached at the fixed incidence fiber and
    carries the marked point; its decorated shape sits in `pointed_shape`
    and `pointed_part` holds its degree.  Pointed output is inferred by the
    same counting rules as the plain case and flagged as such.
    """

    __slots__ = ()


def enumerate_strata(n: int, max_branch_depth: int | None = 3,
                     pointed: bool = False) -> list[StratumDescriptor]:
    """All stratum descriptors for total fiber degree n.

    Every decomposition of n is combined with every admissible branch
    degeneration of at most `max_branch_depth` nodes per branch.  Dimensions
    are 4n - 2p on top and drop by 2 per extra node or per extra branch.
    With `pointed` the configurations carry one marked point on a branch
    over a fixed base point, which pins that branch's attach point and
    drops the dimension by 2 more; this variant is inferred, not pinned.
    """
    def strata(dec, rest, marked=(), d0=None):
        # `rest` are the unpointed branches; `marked` holds the pointed
        # shape, if any, and d0 its degree
        for combo in _multisets(
                rest, lambda v: branch_shapes(v, max_branch_depth)):
            edges, auts = zip(*map(_shape_counts, combo + marked))
            dim = 4 * n - 2 * len(dec) - 2 * sum(edges) - 2 * len(marked)
            yield StratumDescriptor(dec, combo, dim, math.prod(auts),
                                    d0, *marked)

    out = []
    for dec in enumerate_decompositions(n):
        if not pointed:
            out += strata(dec, dec)
            continue
        for d0, ps, rest in _pointed_choices(dec, lambda v: branch_shapes(
                v, max_branch_depth, pointed=True)):
            out += strata(dec, rest, (ps,), d0)
    out.sort(key=lambda s: (-s.dimension, s.parts, s.shapes))
    return out
