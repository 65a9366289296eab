"""Numeric checks for the explicit projective models."""

import numpy as np
import pytest

from ruledstrata.projective_maps import (
    SINGULAR_CONE_POINT,
    ProjPoint,
    RationalMapDeg2,
    apply_mobius,
    compose_mobius,
    count_preimages,
    critical_values,
    eval_h,
    eval_phi30,
    eval_phi32,
    map_from_critical_values,
    on_y,
    orbit_space_map,
    proj_residual,
    quadric_q,
    quadric_residual,
    random_generic_square_target,
    random_line_target,
    random_point_on_cover_line,
    random_proj_point,
    random_separated_pair,
    random_unit_sphere_point,
    s5_identification,
    squaring_map,
    tau,
    unordered_pair_residual,
    weighted_circle_orbit,
)

RNG = lambda: np.random.default_rng(42)  # noqa: E731


class TestProjPoint:
    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            ProjPoint((0, 0, 0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf,
                                     complex(1, np.nan), complex(np.inf, 0)])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            ProjPoint((1, bad))

    def test_scaling_invariance(self):
        rng = RNG()
        for _ in range(50):
            p = random_proj_point(rng, 3)
            scalar = complex(rng.standard_normal(), rng.standard_normal())
            if abs(scalar) < 1e-3:
                continue
            q = ProjPoint(tuple(scalar * c for c in p.coords))
            assert p.close_to(q)
            assert quadric_q(p) == quadric_q(q)
            assert count_preimages(eval_phi30, p) == count_preimages(eval_phi30, q)


class TestQuotientMap:
    def test_point_example(self):
        assert eval_h((0, 1), (1, 0)).close_to((0, 0, 1))

    def test_symmetry(self):
        rng = RNG()
        for _ in range(300):
            p = random_proj_point(rng, 2)
            q = random_proj_point(rng, 2)
            assert proj_residual(eval_h(p, q), eval_h(q, p)) < 1e-12

    def test_diagonal_on_quadric(self):
        rng = RNG()
        for _ in range(300):
            p = random_proj_point(rng, 2)
            assert quadric_residual(eval_h(p, p)) < 1e-12


class TestQuadric:
    def test_examples(self):
        assert quadric_q((1, 1, 0))
        assert not quadric_q((1, 0, 0))

    def test_cover_lines_map_to_quadric(self):
        rng = RNG()
        for s1 in (1, -1):
            for s2 in (1, -1):
                for _ in range(200):
                    p = random_point_on_cover_line(rng, s1, s2)
                    assert quadric_residual(eval_phi30(p)) < 1e-12


class TestSquaresMaps:
    def test_phi30_example(self):
        assert eval_phi30((1, 1j, 0)).close_to((1, -1, 0))

    def test_phi30_deck_group(self):
        rng = RNG()
        for _ in range(100):
            x, y, z = random_proj_point(rng, 3).coords
            base = eval_phi30((x, y, z))
            for s1 in (1, -1):
                for s2 in (1, -1):
                    assert base.close_to(eval_phi30((x, s1 * y, s2 * z)))

    def test_phi32_tau_invariance(self):
        rng = RNG()
        for _ in range(300):
            p = random_proj_point(rng, 3)
            assert proj_residual(eval_phi32(p), eval_phi32(tau(p))) < 1e-12

    def test_phi32_image_on_cone(self):
        rng = RNG()
        for _ in range(300):
            p = random_proj_point(rng, 3)
            assert on_y(eval_phi32(p))

    def test_singular_point(self):
        assert eval_phi32((0, 0, 1)).close_to(SINGULAR_CONE_POINT)

    def test_on_y_examples(self):
        assert on_y((0, 0, 1, 0))
        assert on_y((1, 1, 0, 1))
        assert not on_y((1, 1, 0, 0))


class TestCriticalValues:
    def test_squaring_map(self):
        got = critical_values(squaring_map())
        assert not got.degenerate
        assert unordered_pair_residual(got.values,
                                       (ProjPoint((0, 1)), ProjPoint((1, 0)))) < 1e-12

    def test_normal_form_reconstruction(self):
        # branch points 0 and infinity give back the squaring map itself
        assert map_from_critical_values((0, 1), (1, 0)) == squaring_map()

    def test_round_trip(self):
        rng = RNG()
        for _ in range(300):
            x, y = random_separated_pair(rng)
            got = critical_values(map_from_critical_values(x, y))
            assert not got.degenerate
            assert unordered_pair_residual(got.values, (x, y)) < 1e-7

    def test_mobius_equivariance(self):
        rng = RNG()
        for _ in range(200):
            while True:
                g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                if abs(np.linalg.det(g)) > 1e-2:
                    break
            m = map_from_critical_values(*random_separated_pair(rng))
            direct = critical_values(compose_mobius(g, m)).values
            moved = tuple(apply_mobius(g, v) for v in critical_values(m).values)
            assert unordered_pair_residual(direct, moved) < 1e-6

    def test_coincident_branch_points_rejected(self):
        p = ProjPoint((1, 1))
        with pytest.raises(ValueError):
            map_from_critical_values(p, p)

    def test_degenerate_flagged(self):
        # nearly-coincident critical points sneak past a loosened resultant
        # gate and must come back flagged, as an equal pair
        m = RationalMapDeg2((1, 0, -1e-13), (0, 1, 0), tolerance=1e-30)
        got = critical_values(m)
        assert got.degenerate
        assert got.values[0].close_to(got.values[1], tol=1e-5)

    def test_shared_root_rejected(self):
        with pytest.raises(ValueError):
            RationalMapDeg2((1, 0, 0), (1, 0, 0))


class TestPreimageCounts:
    def test_generic_four(self):
        rng = RNG()
        for _ in range(50):
            target = random_generic_square_target(rng)
            got = count_preimages(eval_phi30, target)
            assert got.count == 4
            assert got.generic

    def test_lines_two(self):
        rng = RNG()
        for i in range(3):
            for _ in range(50):
                target = random_line_target(rng, i)
                got = count_preimages(eval_phi30, target)
                assert got.count == 2
                assert not got.generic

    def test_double_branch_point_one(self):
        got = count_preimages(eval_phi30, ProjPoint((1, 0, 0)))
        assert got.count == 1
        assert not got.generic

    def test_phi32_two_and_composite_count(self):
        rng = RNG()
        for _ in range(50):
            p = random_generic_square_target(rng)
            target = eval_phi32(p)
            got = count_preimages(eval_phi32, target)
            assert got.count == 2
        # the squares map factors through the cone quotient: 2 x 2 = 4
        assert 2 * 2 == count_preimages(
            eval_phi30, random_generic_square_target(rng)).count

    def test_phi32_singular_point(self):
        got = count_preimages(eval_phi32, SINGULAR_CONE_POINT)
        assert got.count == 1
        assert not got.generic

    def test_h_counts(self):
        rng = RNG()
        for _ in range(50):
            p = random_proj_point(rng, 2)
            q = random_proj_point(rng, 2)
            target = eval_h(p, q)
            expected = 1 if quadric_residual(target) < 1e-3 else 2
            assert count_preimages(eval_h, target).count == expected
        diag = eval_h((1, 2), (1, 2))
        assert count_preimages(eval_h, diag).count == 1

    def test_unsupported_map(self):
        with pytest.raises(ValueError):
            count_preimages(tau, ProjPoint((1, 0, 0)))


class TestWeightedAction:
    def test_full_period(self):
        rng = RNG()
        for _ in range(100):
            p = random_unit_sphere_point(rng)
            moved = weighted_circle_orbit(2 * np.pi, p)
            assert max(abs(a - b) for a, b in zip(moved, p)) < 1e-12

    def test_half_period_on_singular_fiber(self):
        moved = weighted_circle_orbit(np.pi, (0, 0, 1))
        assert max(abs(a - b) for a, b in zip(moved, (0, 0, 1))) < 1e-12

    def test_half_period_moves_regular_point(self):
        p = (1 / np.sqrt(2), 1 / np.sqrt(2), 0)
        moved = weighted_circle_orbit(np.pi, p)
        assert max(abs(a - b) for a, b in zip(moved, (-p[0], -p[1], 0))) < 1e-12
        assert max(abs(m + q) for m, q in zip(moved, p)) < 1e-12

    def test_requires_unit_point(self):
        with pytest.raises(ValueError):
            weighted_circle_orbit(1.0, (1, 1, 1))


class TestSphereIdentification:
    def test_norm_preserved(self):
        rng = RNG()
        for _ in range(300):
            p = random_unit_sphere_point(rng)
            out = s5_identification(p)
            assert abs(sum(abs(c) ** 2 for c in out) - 1) < 1e-12

    def test_fixed_locus(self):
        p = (0.6, 0.8j, 0)
        out = s5_identification(p)
        assert max(abs(a - b) for a, b in zip(out, p)) < 1e-12

    def test_tau_invariance(self):
        rng = RNG()
        for _ in range(300):
            x, y, z = random_unit_sphere_point(rng)
            a = s5_identification((x, y, z))
            b = s5_identification((x, y, -z))
            assert max(abs(u - v) for u, v in zip(a, b)) < 1e-12


class TestOrbitSpaceMap:
    def test_orbit_invariance(self):
        rng = RNG()
        for _ in range(100):
            p = random_unit_sphere_point(rng)
            theta = float(rng.uniform(0, 2 * np.pi))
            moved = weighted_circle_orbit(theta, p)
            assert proj_residual(orbit_space_map(p), orbit_space_map(moved)) < 1e-9

    def test_lands_on_cone(self):
        rng = RNG()
        for _ in range(200):
            assert on_y(orbit_space_map(random_unit_sphere_point(rng)))

    def test_singular_orbit(self):
        assert orbit_space_map((0, 0, 1)).close_to(SINGULAR_CONE_POINT)


def test_proj_residual_basics():
    assert proj_residual((1, 2), (2, 4)) < 1e-15
    assert proj_residual((1, 0), (0, 1)) == 1.0
    for x, y in (((1, 0), (0, 0)), ((0, 0), (1, 0))):
        with pytest.raises(ValueError):
            proj_residual(x, y)
    with pytest.raises(ValueError):
        ProjPoint((1, 0)).close_to((0, 0))
    # a non-finite coordinate used to compare false inside `max` and vanish
    for bad in (np.nan, np.inf, -np.inf):
        for x, y in (((1, bad), (1, 1)), ((1, 1), (bad, 1))):
            with pytest.raises(ValueError):
                proj_residual(x, y)
    # the scale is the largest modulus, so huge coordinates do not overflow
    assert proj_residual((1e308, 1e308), (1, 1)) == 0.0


def test_exact_symmetries():
    # the preimage count for eval_h verifies one ordering of the root pair
    # and clusters the roots once, which relies on these holding exactly
    rng = RNG()
    for _ in range(500):
        p = random_proj_point(rng, 2)
        q = random_proj_point(rng, 2)
        assert eval_h(p, q).coords == eval_h(q, p).coords
        assert proj_residual(p, q) == proj_residual(q, p)
        a = random_proj_point(rng, 3)
        b = random_proj_point(rng, 3)
        assert proj_residual(a, b) == proj_residual(b, a)
