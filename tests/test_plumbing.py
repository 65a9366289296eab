"""Plumbing rewrites, lens-space recognition and the link pipelines."""

import itertools

import pytest

from oracles import RP3, S2XS1, S3
from ruledstrata.plumbing import (
    blow_down,
    blow_down_fully,
    chain_to_lens,
    circle_bundle_space,
    collapse_exceptional,
    identify_pullback_over_blowdown,
    lens_equivalent,
    lens_space,
    link20_pipeline,
    link_adjacent,
    link_nontrivial,
    plumb_with_canonical,
    plumb_with_ly,
    twist_by_attaching,
)


def exact_det(rows):
    """Fraction-free determinant by cofactor expansion (oracle helper)."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    sign = 1
    for j in range(n):
        if rows[0][j] != 0:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += sign * rows[0][j] * exact_det(minor)
        sign = -sign
    return total


def chain_intersection_matrix(eulers):
    n = len(eulers)
    rows = [[0] * n for _ in range(n)]
    for i, e in enumerate(eulers):
        rows[i][i] = e
        if i + 1 < n:
            rows[i][i + 1] = rows[i + 1][i] = 1
    return rows


class TestChainToLens:
    def test_calibration_points(self):
        assert lens_equivalent(chain_to_lens([-1, -1]), S2XS1)
        assert lens_equivalent(chain_to_lens([-3, -1]), lens_space(2, 1))
        assert lens_equivalent(chain_to_lens([-3, -1]), RP3)

    def test_single_vertex(self):
        for k in range(1, 12):
            assert chain_to_lens([-2 * k]) == lens_space(2 * k, 1)

    def test_interior_infinity(self):
        assert lens_equivalent(chain_to_lens([-2, -1, -1]), S3)
        assert lens_equivalent(chain_to_lens([-1, -1, -1]), S3)

    def test_continued_fraction_value(self):
        # [-2,-1,-2]: 2 - 1/(1 - 1/2) = 0
        assert lens_equivalent(chain_to_lens([-2, -1, -2]), S2XS1)
        # [-2,-2]: 2 - 1/2 = 3/2
        assert chain_to_lens([-2, -2]) == lens_space(3, 2)

    def test_empty_chain_is_s3(self):
        assert chain_to_lens([]) == S3

    def test_determinant_oracle(self):
        # p and q from the chain's intersection matrix, independently of the
        # continued-fraction recursion
        for length in range(1, 6):
            for eulers in itertools.product(range(-4, 0), repeat=length):
                space = chain_to_lens(eulers)
                p = abs(exact_det(chain_intersection_matrix(list(eulers))))
                q = abs(exact_det(chain_intersection_matrix(list(eulers[1:]))))
                assert space.p == p
                if p > 0:
                    assert lens_equivalent(space, lens_space(p, q % p if p > 1 else q))


class TestBlowDown:
    def test_end_vertex(self):
        assert blow_down((-3, -1)) == (-2,)

    def test_pair(self):
        assert blow_down((-1, -1)) == (0,)

    def test_two_step(self):
        g = blow_down((-2, -1, -2))
        assert sorted(g) == [-1, -1]
        g = blow_down(g)
        assert g == (0,)

    def test_no_unimodular_vertex_is_identity(self):
        g = (-2, -3)
        assert blow_down(g) is g

    def test_single_vertex_blows_to_empty(self):
        reduced = blow_down((-1,))
        assert len(reduced) == 0
        assert chain_to_lens(reduced) == S3

    def test_first_unimodular_entry_goes(self):
        assert blow_down((-2, 1, -3, -1)) == (-3, -4, -1)
        assert blow_down((3, -1, -1, 2)) == (4, 0, 2)

    def test_trace(self):
        assert blow_down_fully([-2, -1, -2]) == [(-2, -1, -2), (-1, -1), (0,)]
        assert blow_down_fully((-2, -3)) == [(-2, -3)]
        trace = blow_down_fully([-2] * 9 + [-1])
        assert [len(g) for g in trace] == list(range(10, -1, -1))
        assert trace[-1] == ()
        for g, nxt in zip(trace, trace[1:]):
            assert blow_down(g) == nxt

    def test_oracle_equivalence_exhaustive(self):
        # blow-down rewriting and the continued fraction agree everywhere
        for length in range(1, 5):
            for eulers in itertools.product(range(-5, 0), repeat=length):
                direct = chain_to_lens(eulers)
                reduced = blow_down_fully(eulers)[-1]
                assert lens_equivalent(direct, chain_to_lens(reduced))


class TestRank2Rewrites:
    def test_plumb_with_canonical(self):
        assert plumb_with_canonical((-3, -1)) == (-2, 0)
        assert plumb_with_canonical((0, 0)) == (1, 1)
        for k in range(-5, 5):
            for m in range(-5, 5):
                assert sum(plumb_with_canonical((k, m))) == k + m + 2

    def test_plumb_with_ly(self):
        assert plumb_with_ly((-3, -1)) == (-1, 0)
        for k in range(-5, 5):
            for m in range(-5, 5):
                assert sum(plumb_with_ly((k, m))) == k + m + 3

    def test_ly_is_canonical_after_one_twist(self):
        for k in range(-10, 11):
            for m in range(-10, 11):
                assert plumb_with_ly((k, m)) == plumb_with_canonical((k + 1, m))

    def test_twist_by_attaching(self):
        assert twist_by_attaching((-2, 0)) == (-3, -1)
        for k in range(-5, 5):
            assert sum(twist_by_attaching((k, 2))) == k + 2 - 2


class TestPullbackAndCollapse:
    def test_identify(self):
        tagged = identify_pullback_over_blowdown((-1, 0))
        assert tagged.tag == "pullback_canonical"
        assert tagged.euler_over("S-") == 0
        assert tagged.euler_over("S+") == -1
        assert tagged.euler_over("fiber") == -1

    def test_identify_needs_sum_minus_one(self):
        with pytest.raises(ValueError):
            identify_pullback_over_blowdown((-2, 0))

    def test_collapse(self):
        tagged = identify_pullback_over_blowdown((-1, 0))
        final = collapse_exceptional(tagged)
        assert final.tag == "s5"
        assert final.euler_over("conic") == -2
        assert lens_equivalent(circle_bundle_space(final.euler_over("conic")), RP3)

    def test_collapse_requires_tag(self):
        with pytest.raises(ValueError):
            collapse_exceptional(S3)


class TestLinks:
    def test_adjacent(self):
        assert link_adjacent(1) == lens_space(2, 1)
        assert lens_equivalent(link_adjacent(1), RP3)
        assert link_adjacent(2) == lens_space(4, 1)
        for k in range(1, 11):
            assert link_adjacent(k) == chain_to_lens([-2 * k])
        with pytest.raises(ValueError):
            link_adjacent(0)

    def test_link20_pipeline(self):
        run = link20_pipeline()
        assert [s for _, s in run.steps[:3]] == [(-2, 0), (-3, -1), (-1, 0)]
        assert run.steps[3][1].tag == "pullback_canonical"
        assert run.steps[-1][1].tag == "s5"
        assert run.l_z.tag == "sphere_bundle3"
        assert sum(run.steps[2][1]) == -1
        assert lens_equivalent(run.sublink, RP3)

    def test_link_nontrivial(self):
        res = link_nontrivial(1)
        stated = ("stated adjacent link on the blow-up",)
        assert res.space == lens_space(5, 1, notes=stated)
        assert link_nontrivial(2).space == lens_space(9, 1, notes=stated)
        # the diagnostic derivation disagrees and says so
        assert res.derived_degree == -1
        assert lens_equivalent(res.derived, S3)
        assert not res.agrees


class TestLensEquivalence:
    def test_conventions(self):
        assert lens_equivalent(lens_space(0, 1), S2XS1)
        assert lens_equivalent(lens_space(2, 1), RP3)
        assert lens_equivalent(lens_space(5, 2), lens_space(5, 3))
        assert lens_equivalent(lens_space(7, 2), lens_space(7, 3))  # 2*3 = -1 mod 7
        assert not lens_equivalent(lens_space(7, 1), lens_space(5, 1))
        assert not lens_equivalent(lens_space(7, 1), lens_space(7, 2))
        assert not lens_equivalent(lens_space(5, 1), lens_space(5, 2))

    def test_equivalence_relation(self):
        spaces = [lens_space(p, q) for p in range(0, 31)
                  for q in range(0, max(p, 1) + 1)
                  if p == 0 or q == 0 or _gcd(p, q) == 1]
        import random
        rnd = random.Random(7)
        sample = rnd.sample(spaces, 40)
        for a in sample:
            assert lens_equivalent(a, a)
        for a in sample:
            for b in sample:
                assert lens_equivalent(a, b) == lens_equivalent(b, a)
        for a in sample[:15]:
            for b in sample[:15]:
                for c in sample[:15]:
                    if lens_equivalent(a, b) and lens_equivalent(b, c):
                        assert lens_equivalent(a, c)

    def test_non_lens_rejected(self):
        run = link20_pipeline()
        with pytest.raises(ValueError):
            lens_equivalent(run.steps[-1][1], RP3)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def test_space_display():
    assert chain_to_lens([-2]).display() == "L(2,1) = RP3"
    assert chain_to_lens([-1, -1]).display() == "L(0,1) = S2 x S1"
    assert chain_to_lens([-5]).display() == "L(5,1)"


def test_lens_normalization():
    s = lens_space(-5, 2)
    assert (s.p, s.q) == (5, 3)
    assert lens_space(0, 7).q == 1
    assert lens_space(1, 5).q == 0
    assert lens_space(6, 11).q == 5
