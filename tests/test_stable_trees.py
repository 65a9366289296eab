"""Stability, partitions, stratum enumeration and combinatorial isotropy."""

import functools
import math

import pytest

from oracles import (
    StableTree,
    TreeComponent,
    branch_moduli_dim,
    combinatorial_isotropy,
    fiber_class,
    is_stable,
    shape_aut_order,
    stem_class,
    stratum_tree,
    top_stratum_dimension,
)
from ruledstrata import stable_trees
from ruledstrata.homology import TRIVIAL
from ruledstrata.stable_trees import (
    _pointed_shapes_all,
    _shapes_all,
    branch_shapes,
    enumerate_decompositions,
    enumerate_strata,
    shape_edges,
)
from ruledstrata.reports import _shape, _stratum_row


def ghost(marked=0):
    return TreeComponent(fiber_class(0), marked=marked)


def branch(d, marked=0):
    return TreeComponent(fiber_class(d), marked=marked)


def three_component_symmetric_tree(extra_mark_on_branch=False):
    """Constant middle component with a marked point, two equal branches."""
    comps = (ghost(marked=1),
             branch(1, marked=1 if extra_mark_on_branch else 0),
             branch(1))
    return StableTree(comps, ((0, 1), (0, 2)))


class TestStability:
    def test_bare_ghost_unstable(self):
        t = StableTree((ghost(), branch(1), branch(1)), ((0, 1), (0, 2)))
        assert not is_stable(t)

    def test_marked_ghost_stable(self):
        assert is_stable(three_component_symmetric_tree())

    def test_single_stem_stable(self):
        t = StableTree((TreeComponent(stem_class(3)),), ())
        assert is_stable(t)

    def test_adding_marks_preserves_stability(self):
        for n in (1, 2, 3):
            for desc in enumerate_strata(n, max_branch_depth=None):
                t = stratum_tree(desc, stem_drop=n)
                if not is_stable(t):
                    continue
                for v in range(len(t.components)):
                    comps = list(t.components)
                    comps[v] = TreeComponent(comps[v].label, comps[v].marked + 1)
                    t2 = StableTree(tuple(comps), t.edges, t.stem)
                    assert is_stable(t2)


class TestTreeValidation:
    def test_not_a_tree(self):
        with pytest.raises(ValueError):
            StableTree((ghost(), branch(1)), ())

    def test_duplicate_edge(self):
        with pytest.raises(ValueError):
            StableTree((ghost(), branch(1)), ((0, 1), (1, 0)))

    def test_stem_class_shape(self):
        with pytest.raises(ValueError):
            StableTree((branch(2),), (), stem=0)


class TestDecompositions:
    def test_small(self):
        assert enumerate_decompositions(2) == [(2,), (1, 1)]
        assert enumerate_decompositions(1) == [(1,)]
        assert len(enumerate_decompositions(4)) == 5
        assert enumerate_decompositions(0) == []
        assert enumerate_decompositions(-3) == []

    def test_counts_match_dp_oracle(self):
        # independent dynamic-programming partition counter
        limit = 30
        table = [1] + [0] * limit
        for part in range(1, limit + 1):
            for total in range(part, limit + 1):
                table[total] += table[total - part]
        for n in range(1, limit + 1):
            assert len(enumerate_decompositions(n)) == table[n]

    def test_parts_positive_and_sorted(self):
        # a decomposition is its parts tuple: positive, largest first
        for n in range(1, 13):
            for parts in enumerate_decompositions(n):
                assert sum(parts) == n and min(parts) >= 1
                assert list(parts) == sorted(parts, reverse=True)


class TestDimensions:
    def test_top_dimension(self):
        assert top_stratum_dimension((2,)) == 6
        assert top_stratum_dimension((1, 1)) == 4
        assert top_stratum_dimension((1,)) == 2

    def test_branch_moduli(self):
        assert branch_moduli_dim(1) == 0
        assert branch_moduli_dim(2) == 4
        with pytest.raises(ValueError):
            branch_moduli_dim(0)

    def test_dimension_identity(self):
        # 4n - 2p equals the sum of branch moduli plus attach points
        for n in range(1, 9):
            for dec in enumerate_decompositions(n):
                p = len(dec)
                lhs = top_stratum_dimension(dec)
                rhs = sum(branch_moduli_dim(d) for d in dec) + 2 * p
                assert lhs == rhs


class TestEnumerateStrata:
    def test_single_fiber(self):
        strata = enumerate_strata(1)
        assert len(strata) == 1
        assert strata[0].dimension == 2

    def test_two_fibers_top(self):
        dims = [d.dimension for d in enumerate_strata(2)]
        assert dims.count(6) == 1 and 4 in dims
        assert max(dims) == 6

    def test_dimension_bounds(self):
        for n in range(1, 6):
            strata = enumerate_strata(n, max_branch_depth=None)
            for d in strata:
                assert 0 <= d.dimension <= 4 * n - 2
                assert d.dimension % 2 == 0

    def test_degeneration_steps_drop_by_two(self):
        for n in (2, 3):
            for d in enumerate_strata(n, max_branch_depth=None):
                extra = sum(shape_edges(s) for s in d.shapes)
                p = len(d.parts)
                assert d.dimension == 4 * n - 2 * p - 2 * extra

    def test_depth_bound_trims(self):
        full = enumerate_strata(3, max_branch_depth=None)
        shallow = enumerate_strata(3, max_branch_depth=1)
        assert len(shallow) < len(full)

    def test_class_sum_invariant(self):
        for n in (1, 2, 3):
            for m in (n, n + 2):
                k = m - n
                for desc in enumerate_strata(n):
                    t = stratum_tree(desc, stem_drop=m)
                    assert t.total_class == TRIVIAL.h2(1, -k)

    @pytest.mark.parametrize("pointed", [False, True])
    def test_stratum_trees_stable_with_one_marked_point(self, pointed):
        for n in range(1, 5):
            for m in (n, n + 2):
                for desc in enumerate_strata(n, max_branch_depth=None,
                                             pointed=pointed):
                    t = stratum_tree(desc, stem_drop=m)
                    assert is_stable(t)
                    assert t.total_class == TRIVIAL.h2(1, -(m - n))
                    marked = [c.marked for c in t.components if c.marked]
                    assert marked == ([1] if pointed else [])

    def test_pointed_dimension_formula(self):
        for n in range(1, 5):
            for d in enumerate_strata(n, max_branch_depth=None, pointed=True):
                extra = sum(shape_edges(s)
                            for s in d.shapes + (d.pointed_shape,))
                p = len(d.parts)
                assert d.dimension == 4 * n - 2 * p - 2 * extra - 2

    @pytest.mark.parametrize("pointed", [False, True])
    def test_cached_shape_counts_match_recursion(self, pointed):
        # enumerate_strata and branch_shapes read edge and automorphism
        # counts from a per-shape cache, and generate shapes within an edge
        # budget; the plain recursions over the full lists are the oracle
        for d in range(1, 9):
            full = branch_shapes(d, None, pointed=pointed)
            edges = [shape_edges(s) for s in full]
            # each budget builds its own list: the near-full pointed lists
            # of degree 8 take seconds apiece, so there only 0..5 and the cap
            budgets = range(2 * d - 1)
            if pointed and d == 8:
                budgets = [*range(6), 2 * d - 2]
            for k in budgets:
                assert branch_shapes(d, k, pointed=pointed) == [
                    s for s, e in zip(full, edges) if e <= k]
        edges_of = functools.cache(shape_edges)
        for n in range(1, 8):
            every = enumerate_strata(n, None, pointed=pointed)
            for k in (0, 1, 3):
                assert enumerate_strata(n, k, pointed=pointed) == [
                    desc for desc in every if all(
                        edges_of(s) <= k for s in desc.shapes
                        + ((desc.pointed_shape,) if pointed else ()))]
        for n in range(1, 7):
            for depth in (None, 3):
                for desc in enumerate_strata(n, depth, pointed=pointed):
                    shapes = desc.shapes + ((desc.pointed_shape,) if pointed else ())
                    extra = sum(shape_edges(s) for s in shapes)
                    p = len(desc.parts)
                    assert desc.dimension == 4 * n - 2 * p - 2 * extra - 2 * pointed
                    assert desc.isotropy == math.prod(
                        shape_aut_order(s) for s in shapes)

    @pytest.mark.parametrize("pointed", [False, True])
    def test_isotropy_matches_tree_oracle(self, pointed):
        # the descriptor's isotropy multiplies the branches' own automorphisms;
        # in the tree, equal branches at the stem also swap with each other
        for n in range(1, 6):
            for desc in enumerate_strata(n, max_branch_depth=None, pointed=pointed):
                swaps = math.prod(math.factorial(desc.shapes.count(s))
                                  for s in set(desc.shapes))
                assert (combinatorial_isotropy(stratum_tree(desc, n))
                        == desc.isotropy * swaps)

    def test_each_degree_cached_once(self):
        # the top-level call and the recursion share one cache entry per
        # degree: plain shapes of degrees 1..6, and pointed shapes of 1..6
        # at the branch root plus 1..5 below a nonconstant component; a
        # depth at or above the most edges a branch can have is unbounded
        for depth in (None, 12, 10**4000):
            _shapes_all.cache_clear()
            _pointed_shapes_all.cache_clear()
            enumerate_strata(6, depth)
            assert _shapes_all.cache_info().currsize == 6
            enumerate_strata(6, depth, pointed=True)
            assert _pointed_shapes_all.cache_info().currsize == 11

    def test_no_list_for_a_negative_budget(self, monkeypatch):
        # a root with more children than its edge budget is skipped, so no
        # shape list, which could only be empty, is built or cached for a
        # budget below zero: 642 lists over this grid
        built = []
        for name in ("_shapes_all", "_pointed_shapes_all"):
            def record(*key, _build=getattr(stable_trees, name).__wrapped__):
                built.append(key)
                return _build(*key)
            monkeypatch.setattr(stable_trees, name,
                                functools.lru_cache(maxsize=None)(record))
        total = 0
        for n in range(1, 9):
            for depth in (0, 1, 3):
                for pointed in (False, True):
                    stable_trees._shapes_all.cache_clear()
                    stable_trees._pointed_shapes_all.cache_clear()
                    built.clear()
                    enumerate_strata(n, depth, pointed)
                    assert built and min(key[-1] for key in built) >= 0
                    total += len(built)
        assert total <= 642

    def test_json_schema(self):
        for desc in enumerate_strata(2):
            blob = _stratum_row(desc)
            assert set(blob) == {"parts", "shape", "dim", "isotropy"}
            assert blob["dim"] == desc.dimension

    def test_pointed_flagged_and_bounded(self):
        strata = enumerate_strata(2, pointed=True)
        assert all(d.pointed_part is not None for d in strata)
        dims = sorted(d.dimension for d in strata)
        assert dims == [0, 0, 2, 2, 2, 4]
        for d in strata:
            blob = _stratum_row(d)
            assert blob["inferred"] is True
            assert "pointed" in blob
        for m in range(1, 5):
            for d in enumerate_strata(m, pointed=True, max_branch_depth=None):
                assert 0 <= d.dimension <= 4 * m - 2
                assert d.dimension % 2 == 0


class TestIsotropy:
    def test_symmetric_pair(self):
        assert combinatorial_isotropy(three_component_symmetric_tree()) == 2

    def test_extra_mark_kills_symmetry(self):
        t = three_component_symmetric_tree(extra_mark_on_branch=True)
        assert combinatorial_isotropy(t) == 1

    def test_single_vertex(self):
        t = StableTree((TreeComponent(stem_class(1)),), ())
        assert combinatorial_isotropy(t) == 1

    def test_marked_branches_not_swappable(self):
        # labeled points pin components even when the counts agree
        comps = (ghost(marked=1), branch(1, marked=1), branch(1, marked=1))
        t = StableTree(comps, ((0, 1), (0, 2)))
        assert combinatorial_isotropy(t) == 1

    def test_distinct_labels_trivial(self):
        comps = (TreeComponent(stem_class(2)), branch(1), branch(2))
        t = StableTree(comps, ((0, 1), (0, 2)), stem=0)
        assert combinatorial_isotropy(t) == 1

    def test_three_equal_branches(self):
        comps = (TreeComponent(stem_class(3)), branch(1), branch(1), branch(1))
        t = StableTree(comps, ((0, 1), (0, 2), (0, 3)), stem=0)
        assert combinatorial_isotropy(t) == 6

    def test_cyclic_cover_hook(self):
        comps = (TreeComponent(stem_class(2)), branch(2))
        t = StableTree(comps, ((0, 1),), stem=0)
        assert combinatorial_isotropy(t) == 1

    def test_nested_symmetry(self):
        # two equal subtrees hanging off one branch vertex
        comps = (TreeComponent(stem_class(2)), branch(0, marked=1),
                 branch(1), branch(1))
        t = StableTree(comps, ((0, 1), (1, 2), (1, 3)), stem=0)
        assert combinatorial_isotropy(t) == 2


def test_branch_shape_catalogue():
    assert branch_shapes(1, None) == [(1, ())]
    shapes = branch_shapes(2, None)
    assert (2, ()) in shapes
    assert (1, ((1, ()),)) in shapes
    assert (0, ((1, ()), (1, ()))) in shapes
    assert len(shapes) == 3


def test_pointed_branch_shape_catalogue():
    assert branch_shapes(1, None, pointed=True) == [(1, True, ())]
    shapes = branch_shapes(2, None, pointed=True)
    # the point may sit on a ghost only below a nonconstant component
    assert shapes == [
        (0, False, ((1, False, ()), (1, True, ()))),
        (1, False, ((0, True, ((1, False, ()),)),)),
        (1, False, ((1, True, ()),)),
        (1, True, ((1, False, ()),)),
        (2, True, ()),
    ]
    assert branch_shapes(2, 1, pointed=True) == shapes[2:]
    assert [len(branch_shapes(d, None, pointed=True)) for d in range(1, 7)] == [
        1, 5, 29, 167, 981, 5775]
    assert [len(branch_shapes(d, 3, pointed=True)) for d in range(1, 7)] == [
        1, 5, 24, 67, 146, 270]
    assert _shape(shapes[2]) == [1, False, [[1, True, []]]]
    assert _shape((1, ((1, ()),))) == [1, [[1, []]]]
    assert shape_aut_order((0, False, ((1, False, ()), (1, False, ())))) == 2
    assert shape_aut_order((0, False, ((1, False, ()), (1, True, ())))) == 1
