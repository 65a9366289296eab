"""Numeric checks for the explicit projective models."""

import json
import tracemalloc
import weakref

import numpy as np
import pytest

from oracles import (
    ProjPoint,
    RationalMapDeg2,
    apply_mobius,
    compose_mobius,
    count_h,
    count_phi30,
    count_phi32,
    critical_values,
    eval_h,
    eval_phi30,
    eval_phi32,
    map_from_critical_values,
    orbit_space_map,
    proj_residual,
    quadric_residual,
    s5_identification,
    squaring_map,
    tau,
    unordered_pair_residual,
    weighted_circle_orbit,
    whole_cone_rows,
    whole_critical_values_rows,
    whole_minors_rows,
    whole_quadric_rows,
    whole_residual_rows,
    whole_unordered_pair_residual_rows,
    y_residual,
)
from test_package import run_fresh
from ruledstrata import MAX_SAMPLES, projective_maps
from ruledstrata.projective_maps import (
    DEFAULT_TOL,
    VERIFY_CHECKS,
    VERIFY_CHUNK,
    Sampler,
    _generic_rows,
    _unit_rows,
    cone_rows,
    count_phi30_rows,
    critical_values_rows,
    eval_h_rows,
    eval_phi30_rows,
    eval_phi32_rows,
    minors_rows,
    orbit_space_map_rows,
    quadric_rows,
    random_cover_line_rows,
    random_generic_square_rows,
    random_line_target_rows,
    random_proj_rows,
    random_separated_pair_rows,
    random_unit_sphere_rows,
    residual_rows,
    s5_identification_rows,
    splitmix64,
    tau_rows,
    unordered_pair_residual_rows,
    verify_maps_report,
    weighted_circle_orbit_rows,
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
            p = ProjPoint(tuple(random_proj_rows(rng, 1, 3)[0]))
            scalar = complex(rng.standard_normal(), rng.standard_normal())
            if abs(scalar) < 1e-3:
                continue
            q = ProjPoint(tuple(scalar * c for c in p.coords))
            assert p.close_to(q)
            assert ((quadric_residual(p) < DEFAULT_TOL)
                    == (quadric_residual(q) < DEFAULT_TOL))
            assert count_phi30(p) == count_phi30(q)


class TestQuotientMap:
    def test_point_example(self):
        assert eval_h((0, 1), (1, 0)).close_to((0, 0, 1))

    def test_symmetry(self):
        rng = RNG()
        for _ in range(300):
            p = random_proj_rows(rng, 1, 2)[0]
            q = random_proj_rows(rng, 1, 2)[0]
            assert proj_residual(eval_h(p, q), eval_h(q, p)) < 1e-12

    def test_diagonal_on_quadric(self):
        rng = RNG()
        for _ in range(300):
            p = random_proj_rows(rng, 1, 2)[0]
            assert quadric_residual(eval_h(p, p)) < 1e-12


class TestQuadric:
    def test_examples(self):
        assert quadric_residual((1, 1, 0)) < DEFAULT_TOL
        assert quadric_residual((1, 0, 0)) >= DEFAULT_TOL

    def test_cover_lines_map_to_quadric(self):
        rng = RNG()
        for s1 in (1, -1):
            for s2 in (1, -1):
                for _ in range(200):
                    p = random_cover_line_rows(rng, 1, s1, s2)[0]
                    assert quadric_residual(eval_phi30(p)) < 1e-12


class TestSquaresMaps:
    def test_phi30_example(self):
        assert eval_phi30((1, 1j, 0)).close_to((1, -1, 0))

    def test_phi30_deck_group(self):
        rng = RNG()
        for _ in range(100):
            x, y, z = random_proj_rows(rng, 1, 3)[0]
            base = eval_phi30((x, y, z))
            for s1 in (1, -1):
                for s2 in (1, -1):
                    assert base.close_to(eval_phi30((x, s1 * y, s2 * z)))

    def test_phi32_tau_invariance(self):
        rng = RNG()
        for _ in range(300):
            p = random_proj_rows(rng, 1, 3)[0]
            assert proj_residual(eval_phi32(p), eval_phi32(tau(p))) < 1e-12

    def test_phi32_image_on_cone(self):
        rng = RNG()
        for _ in range(300):
            p = random_proj_rows(rng, 1, 3)[0]
            assert y_residual(eval_phi32(p)) < DEFAULT_TOL

    def test_singular_point(self):
        assert eval_phi32((0, 0, 1)).close_to((0, 0, 1, 0))

    def test_on_y_examples(self):
        assert y_residual((0, 0, 1, 0)) < DEFAULT_TOL
        assert y_residual((1, 1, 0, 1)) < DEFAULT_TOL
        assert y_residual((1, 1, 0, 0)) >= DEFAULT_TOL


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
            x, y = (r[0] for r in random_separated_pair_rows(rng, 1))
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
            m = map_from_critical_values(
                *(r[0] for r in random_separated_pair_rows(rng, 1)))
            direct = critical_values(compose_mobius(g, m)).values
            moved = tuple(apply_mobius(g, v) for v in critical_values(m).values)
            assert unordered_pair_residual(direct, moved) < 1e-6

    def test_coincident_branch_points_rejected(self):
        p = ProjPoint((1, 1))
        with pytest.raises(ValueError):
            map_from_critical_values(p, p)

    def test_degenerate_flagged(self):
        # a map next to a shared root passes the resultant gate, and its
        # nearly coincident critical points come back flagged, as an equal pair
        num, den = TestBatchOracle.near_confluent_maps(RNG(), 5)
        got = critical_values(RationalMapDeg2(tuple(num[4]), tuple(den[4])))
        assert got.degenerate
        assert got.values[0].close_to(got.values[1], tol=1e-5)

    def test_shared_root_rejected(self):
        with pytest.raises(ValueError):
            RationalMapDeg2((1, 0, 0), (1, 0, 0))


class TestPreimageCounts:
    def test_generic_four(self):
        rng = RNG()
        for _ in range(50):
            target = random_generic_square_rows(rng, 1)[0]
            got = count_phi30(target)
            assert got.count == 4
            assert got.generic

    def test_lines_two(self):
        rng = RNG()
        for i in range(3):
            for _ in range(50):
                target = random_line_target_rows(rng, 1, i)[0]
                got = count_phi30(target)
                assert got.count == 2
                assert not got.generic

    def test_double_branch_point_one(self):
        got = count_phi30(ProjPoint((1, 0, 0)))
        assert got.count == 1
        assert not got.generic

    def test_phi32_two_and_composite_count(self):
        rng = RNG()
        for _ in range(50):
            p = random_generic_square_rows(rng, 1)[0]
            target = eval_phi32(p)
            got = count_phi32(target)
            assert got.count == 2
        # the squares map factors through the cone quotient: 2 x 2 = 4
        assert 2 * 2 == count_phi30(random_generic_square_rows(rng, 1)[0]).count

    def test_phi32_singular_point(self):
        got = count_phi32((0, 0, 1, 0))
        assert got.count == 1
        assert not got.generic

    def test_h_counts(self):
        rng = RNG()
        for _ in range(50):
            p = random_proj_rows(rng, 1, 2)[0]
            q = random_proj_rows(rng, 1, 2)[0]
            target = eval_h(p, q)
            expected = 1 if quadric_residual(target) < 1e-3 else 2
            assert count_h(target).count == expected
        diag = eval_h((1, 2), (1, 2))
        assert count_h(diag).count == 1


class TestWeightedAction:
    def test_full_period(self):
        rng = RNG()
        for _ in range(100):
            p = random_unit_sphere_rows(rng, 1)[0]
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf,
                                     complex(0, np.nan), complex(np.inf, 0)])
    def test_non_finite_point_refused(self, bad):
        # a NaN norm is no closer to 1 than the tolerance; the scalar maps
        # refuse it as their batch forms do
        for f in (lambda p: weighted_circle_orbit(1.0, p), s5_identification,
                  orbit_space_map):
            for p in ((bad, 0, 0), (0.6, 0.8, bad)):
                with pytest.raises(ValueError, match="unit 5-sphere"):
                    f(p)


class TestSphereIdentification:
    def test_norm_preserved(self):
        rng = RNG()
        for _ in range(300):
            p = random_unit_sphere_rows(rng, 1)[0]
            out = s5_identification(p)
            assert abs(sum(abs(c) ** 2 for c in out) - 1) < 1e-12

    def test_fixed_locus(self):
        p = (0.6, 0.8j, 0)
        out = s5_identification(p)
        assert max(abs(a - b) for a, b in zip(out, p)) < 1e-12

    def test_tau_invariance(self):
        rng = RNG()
        for _ in range(300):
            x, y, z = random_unit_sphere_rows(rng, 1)[0]
            a = s5_identification((x, y, z))
            b = s5_identification((x, y, -z))
            assert max(abs(u - v) for u, v in zip(a, b)) < 1e-12


class TestOrbitSpaceMap:
    def test_orbit_invariance(self):
        rng = RNG()
        for _ in range(100):
            p = random_unit_sphere_rows(rng, 1)[0]
            theta = float(rng.uniform(0, 2 * np.pi))
            moved = weighted_circle_orbit(theta, p)
            assert proj_residual(orbit_space_map(p), orbit_space_map(moved)) < 1e-9

    def test_lands_on_cone(self):
        rng = RNG()
        for _ in range(200):
            pt = orbit_space_map(random_unit_sphere_rows(rng, 1)[0])
            assert y_residual(pt) < DEFAULT_TOL

    def test_singular_orbit(self):
        assert orbit_space_map((0, 0, 1)).close_to((0, 0, 1, 0))


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
    # each row is divided by its own scale before the minors: the product
    # of the raw coordinates would overflow to inf - 1e200, then NaN
    assert proj_residual((1e200, 1e200), (1e200, 1)) == 1.0
    assert proj_residual((1e200, 1), (1e200, 1e200)) == 1.0
    assert residual_rows(minors_rows, [[1e200, 1e200]],
                         [[1e200, 1]]).tolist() == [1.0]


def test_residual_rows_frees_raw_rows_before_the_equation():
    # the raw rows are garbage once scaled, so only the scaled rows are
    # alive while the equation forms its minors
    raw = []

    def fresh():
        rows = np.array(random_proj_rows(RNG(), 8, 2))
        raw.append(weakref.ref(rows))
        return rows

    def equation(x, y):
        alive.extend(r() is not None for r in raw)
        return minors_rows(x, y)

    alive = []
    residual_rows(equation, fresh(), fresh())
    assert alive == [False, False]


def test_exact_symmetries():
    # the preimage count for eval_h verifies one ordering of the root pair
    # and clusters the roots once, which relies on these holding exactly
    rng = RNG()
    for _ in range(500):
        p = random_proj_rows(rng, 1, 2)[0]
        q = random_proj_rows(rng, 1, 2)[0]
        assert eval_h(p, q).coords == eval_h(q, p).coords
        assert proj_residual(p, q) == proj_residual(q, p)
        a = random_proj_rows(rng, 1, 3)[0]
        b = random_proj_rows(rng, 1, 3)[0]
        assert proj_residual(a, b) == proj_residual(b, a)


# ---------------------------------------------------------------------------
# the batch forms against the scalar forms they are held to

ORACLE_TOL = 1e-15


def points(rows):
    return [ProjPoint(tuple(r)) for r in rows]


def assert_residuals_agree(batch, scalar):
    assert batch.shape == (len(scalar),)
    assert np.max(np.abs(batch - np.array(scalar))) <= ORACLE_TOL


def assert_points_agree(batch_rows, scalar_points):
    assert len(batch_rows) == len(scalar_points)
    assert max(proj_residual(b, s)
               for b, s in zip(points(batch_rows), scalar_points)) <= ORACLE_TOL


def near_copies(rng, rows, size):
    """Rows times random scalars, moved by about `size`: residuals near
    zero, as the identities produce."""
    scalars = random_proj_rows(rng, len(rows), 1)
    return rows * scalars + size * random_proj_rows(rng, len(rows), rows.shape[1])


class TestBatchOracle:
    N = 400

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_proj_residual(self, k):
        rng = RNG()
        x = random_proj_rows(rng, self.N, k)
        for y in (random_proj_rows(rng, self.N, k), near_copies(rng, x, 1e-12)):
            assert_residuals_agree(
                residual_rows(minors_rows, x, y),
                [proj_residual(p, q) for p, q in zip(points(x), points(y))])

    @pytest.mark.parametrize("row", [[1, np.nan], [1, -np.inf],
                                     [complex(1, np.nan), 1], [0, 0]])
    def test_bad_rows_rejected(self, row):
        good = random_proj_rows(RNG(), 3, 2)
        rows = np.vstack([good, [row]])
        with pytest.raises(ValueError, match="finite coordinates"):
            residual_rows(minors_rows, rows, rows[::-1])
        with pytest.raises(ValueError, match="finite coordinates"):
            residual_rows(quadric_rows, np.hstack([rows, rows[:, :1]]))
        with pytest.raises(ValueError, match="length mismatch"):
            residual_rows(minors_rows, good, random_proj_rows(RNG(), 3, 3))

    def test_maps(self):
        rng = RNG()
        p, q = random_proj_rows(rng, self.N, 2), random_proj_rows(rng, self.N, 2)
        assert_points_agree(eval_h_rows(p, q),
                            [eval_h(a, b) for a, b in zip(points(p), points(q))])
        t = random_proj_rows(rng, self.N, 3)
        assert_points_agree(eval_phi30_rows(t), [eval_phi30(a) for a in points(t)])
        assert_points_agree(eval_phi32_rows(t), [eval_phi32(a) for a in points(t)])
        assert_points_agree(tau_rows(t), [tau(a) for a in points(t)])

    def test_quadric_and_cone_residuals(self):
        rng = RNG()
        p = random_proj_rows(rng, self.N, 2)
        on_quadric = eval_h_rows(p, p)
        cover = random_cover_line_rows(rng, self.N, 1, -1)
        for rows in (random_proj_rows(rng, self.N, 3), on_quadric,
                     eval_phi30_rows(cover), near_copies(rng, on_quadric, 1e-9)):
            assert_residuals_agree(residual_rows(quadric_rows, rows),
                                   [quadric_residual(a) for a in points(rows)])
        t = random_proj_rows(rng, self.N, 3)
        for rows in (random_proj_rows(rng, self.N, 4), eval_phi32_rows(t)):
            assert_residuals_agree(residual_rows(cone_rows, rows),
                                   [y_residual(a) for a in points(rows)])

    def test_sphere_maps(self):
        rng = RNG()
        u = random_unit_sphere_rows(rng, self.N)
        theta = rng.uniform(0, 2 * np.pi, self.N)
        moved = weighted_circle_orbit_rows(theta, u)
        scalar_moved = [weighted_circle_orbit(t, a) for t, a in zip(theta, u)]
        assert np.max(np.abs(moved - np.array(scalar_moved))) <= ORACLE_TOL
        assert_points_agree(orbit_space_map_rows(moved),
                            [orbit_space_map(a) for a in scalar_moved])
        s5 = s5_identification_rows(u)
        assert np.max(np.abs(s5 - np.array([s5_identification(a) for a in u]))
                      ) <= ORACLE_TOL

    def test_unit_sphere_check(self):
        rows = random_unit_sphere_rows(RNG(), 5)
        rows[3] *= 1 + 1e-5
        for f in (s5_identification_rows, orbit_space_map_rows,
                  lambda r: weighted_circle_orbit_rows(np.zeros(len(r)), r)):
            f(rows[:3])
            with pytest.raises(ValueError, match="unit 5-sphere"):
                f(rows)
        with pytest.raises(ValueError, match="unit 5-sphere"):
            s5_identification_rows([[1, 0, np.nan]])

    def test_unordered_pairs(self):
        rng = RNG()
        x, y = random_separated_pair_rows(rng, self.N)
        a = np.stack([x, y], axis=1)
        for b in (np.stack([y, x], axis=1), np.stack(random_separated_pair_rows(
                rng, self.N), axis=1)):
            assert_residuals_agree(
                unordered_pair_residual_rows(a, b),
                [unordered_pair_residual(points(pa), points(pb))
                 for pa, pb in zip(a, b)])

    @staticmethod
    def near_confluent_maps(rng, n):
        """Maps next to a shared root, with discriminants on both sides of
        the degenerate floor: (x0^2 + x0 x1 + c x1^2 : -x0^2 + x0 x1 + x1^2)
        degenerates at c = sqrt(5) - 2, and moving c off it by 10^-9.62 to
        10^-8.5, in a random direction, keeps the resultant above its floor.
        Numerator and denominator get random complex factors."""
        shift = 10.0 ** rng.uniform(-9.62, -8.5, n) * np.exp(
            2j * np.pi * rng.uniform(size=n))
        factor = 10.0 ** rng.uniform(-1, 1, (n, 2)) * np.exp(
            2j * np.pi * rng.uniform(size=(n, 2)))
        num = np.stack([np.ones(n), np.ones(n), np.sqrt(5) - 2 + shift], axis=1)
        den = np.tile([-1.0, 1.0, 1.0], (n, 1))
        return factor[:, :1] * num, factor[:, 1:] * den

    def test_critical_values(self):
        rng = RNG()
        x, y = random_separated_pair_rows(rng, self.N)
        zero = np.zeros(self.N)
        round_trip = (np.stack([y[:, 0], zero, x[:, 0]], axis=1),
                      np.stack([y[:, 1], zero, x[:, 1]], axis=1))
        general = (random_proj_rows(rng, self.N, 3),
                   random_proj_rows(rng, self.N, 3))
        flags = []
        for num, den in (round_trip, general,
                         self.near_confluent_maps(rng, self.N)):
            values, degenerate = critical_values_rows(num, den)
            scalar = [critical_values(RationalMapDeg2(tuple(a), tuple(b)))
                      for a, b in zip(num, den)]
            assert degenerate.tolist() == [s.degenerate for s in scalar]
            for i in (0, 1):
                assert_points_agree(values[:, i], [s.values[i] for s in scalar])
            flags.append(int(degenerate.sum()))
        # the near-confluent maps reach both sides of the degenerate flag
        assert flags[:2] == [0, 0] and 0 < flags[2] < self.N

    def test_critical_values_shared_root_rejected(self):
        num = random_proj_rows(RNG(), 3, 3)
        for bad_num, bad_den in (([1, 0, 0], [1, 0, 0]),
                                 ([1, 0, -1e-13], [0, 1, 0]),
                                 ([0, 0, 0], [0, 1, 0]),
                                 ([1, 1, np.sqrt(5) - 2 + 1e-10], [-1, 1, 1]),
                                 # both leading coefficients 0: the Jacobian
                                 # would have both roots at infinity
                                 ([0, 1, 2], [0, 3, 1])):
            with pytest.raises(ValueError):
                RationalMapDeg2(bad_num, bad_den)
            with pytest.raises(ValueError, match="share a root"):
                critical_values_rows(np.vstack([num, bad_num]),
                                     np.vstack([num[::-1], bad_den]))

    def test_phi30_counts(self):
        rng = RNG()
        special = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0],
                            [1, 1e-4, 1], [1, -1, 1j], [4, 1e-300, 1]], complex)
        for targets in (random_generic_square_rows(rng, self.N),
                        random_proj_rows(rng, self.N, 3), special,
                        *(random_line_target_rows(rng, self.N, i) for i in range(3))):
            counts = count_phi30_rows(targets)
            scalar = [count_phi30(t) for t in points(targets)]
            assert counts.tolist() == [s.count for s in scalar]
            assert _generic_rows(_unit_rows(targets)).tolist() == [
                s.generic for s in scalar]

    def test_residuals_ignore_row_scale(self):
        # each input row times 2^500 or 2^-500: both are exact, so a batch
        # form that divides every row by its scale first gives the same
        # bits, and one that skips `_unit_rows` moves by up to 2^2000
        rng = RNG()

        def scaled(rows):
            exps = rng.choice([-500, 500], rows.shape[:-1])
            return rows * np.ldexp(1.0, exps)[..., None]

        def assert_scale_free(f, *arrays):
            assert f(*arrays).tobytes() == f(*map(scaled, arrays)).tobytes()

        for k in (2, 3, 4):
            x = random_proj_rows(rng, self.N, k)
            for y in (random_proj_rows(rng, self.N, k), near_copies(rng, x, 1e-12)):
                assert_scale_free(lambda x, y: residual_rows(minors_rows, x, y),
                                  x, y)
        p = random_proj_rows(rng, self.N, 2)
        for rows in (random_proj_rows(rng, self.N, 3), eval_h_rows(p, p)):
            assert_scale_free(lambda r: residual_rows(quadric_rows, r), rows)
        t = random_proj_rows(rng, self.N, 3)
        for rows in (random_proj_rows(rng, self.N, 4), eval_phi32_rows(t)):
            assert_scale_free(lambda r: residual_rows(cone_rows, r), rows)
        x, y = random_separated_pair_rows(rng, self.N)
        a = np.stack([x, y], axis=1)
        for b in (np.stack([y, x], axis=1), np.stack(random_separated_pair_rows(
                rng, self.N), axis=1)):
            assert_scale_free(unordered_pair_residual_rows, a, b)
        for targets in (random_generic_square_rows(rng, self.N),
                        *(random_line_target_rows(rng, self.N, i) for i in range(3))):
            assert_scale_free(count_phi30_rows, targets)


# ---------------------------------------------------------------------------
# the column folds against the whole-array forms they replaced


def outcome(f, *arrays):
    """The bytes of each array `f` returns, or the message it raises."""
    try:
        out = f(*arrays)
    except ValueError as exc:
        return str(exc)
    return [np.asarray(a).tobytes() for a in (out if type(out) is tuple
                                              else (out,))]


def with_bad_rows(rows, rng):
    """Copies of `rows`, one for each non-finite value (NaN, inf, -inf and
    a NaN imaginary part), with it put into three random rows."""
    out = []
    for bad in (np.nan, np.inf, -np.inf, complex(1, np.nan)):
        copy = rows.copy()
        at = rng.choice(len(rows), 3, replace=False)
        copy.reshape(len(rows), -1)[at, rng.integers(copy[0].size)] = bad
        out.append(copy)
    return out


def scaled_by(rows, rng, e=500):
    """Each point times 2^e or 2^-e, both exact."""
    exps = rng.choice([-e, e], rows.shape[:-1])
    return rows * np.ldexp(1.0, exps)[..., None]


class TestColumnFolds:
    N = 300

    def assert_same(self, f, oracle, *arrays, rejected=False):
        got = outcome(f, *arrays)
        assert got == outcome(oracle, *arrays)
        assert isinstance(got, str) == rejected

    def cases(self, rng, *arrays):
        """(arrays, rejected) for the arrays as given, rescaled, and with
        bad rows in each."""
        yield arrays, False
        yield [scaled_by(a, rng) for a in arrays], False
        for i, a in enumerate(arrays):
            for bad in with_bad_rows(a, rng):
                yield [*arrays[:i], bad, *arrays[i + 1:]], True

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_minors(self, k):
        rng = RNG()
        x = random_proj_rows(rng, self.N, k)
        if k == 1:  # no minors at all: n zeros, not one scalar
            assert residual_rows(minors_rows, x, x).tobytes() == bytes(
                8 * self.N)
        for y in (random_proj_rows(rng, self.N, k), near_copies(rng, x, 1e-12)):
            for arrays, rejected in self.cases(rng, x, y):
                self.assert_same(
                    lambda x, y: residual_rows(minors_rows, x, y),
                    lambda x, y: whole_residual_rows(whole_minors_rows, x, y),
                    *arrays, rejected=rejected)

    def test_quadric_and_cone(self):
        rng = RNG()
        p = random_proj_rows(rng, self.N, 2)
        t = random_proj_rows(rng, self.N, 3)
        for equation, oracle, rows in (
                (quadric_rows, whole_quadric_rows, random_proj_rows(rng, self.N, 3)),
                (quadric_rows, whole_quadric_rows, eval_h_rows(p, p)),
                (cone_rows, whole_cone_rows, random_proj_rows(rng, self.N, 4)),
                (cone_rows, whole_cone_rows, eval_phi32_rows(t))):
            for (rows,), rejected in self.cases(rng, rows):
                self.assert_same(lambda r: residual_rows(equation, r),
                                 lambda r: whole_residual_rows(oracle, r),
                                 rows, rejected=rejected)

    def test_unordered_pairs(self):
        rng = RNG()
        a = np.stack(random_separated_pair_rows(rng, self.N), axis=1)
        for b in (a[:, ::-1],
                  np.stack(random_separated_pair_rows(rng, self.N), axis=1)):
            for arrays, rejected in self.cases(rng, a, b):
                self.assert_same(unordered_pair_residual_rows,
                                 whole_unordered_pair_residual_rows,
                                 *arrays, rejected=rejected)

    def test_critical_values(self):
        rng = RNG()
        x, y = random_separated_pair_rows(rng, self.N)
        zero = np.zeros(self.N)
        maps = [(np.stack([y[:, 0], zero, x[:, 0]], axis=1),
                 np.stack([y[:, 1], zero, x[:, 1]], axis=1)),
                (random_proj_rows(rng, self.N, 3),
                 random_proj_rows(rng, self.N, 3)),
                TestBatchOracle.near_confluent_maps(rng, self.N)]
        for num, den in maps:
            # the discriminant is quartic in the coefficients, so 2^500
            # would overflow it
            for arrays in ((num, den), (scaled_by(num, rng, 100),
                                        scaled_by(den, rng, 100))):
                self.assert_same(critical_values_rows,
                                 whole_critical_values_rows, *arrays)
            for bad in with_bad_rows(num, rng):
                with np.errstate(invalid="ignore"):  # inf times 0 is NaN
                    self.assert_same(critical_values_rows,
                                     whole_critical_values_rows, bad, den,
                                     rejected=True)
        # the values array is laid out point by point, as it is indexed
        values, _ = critical_values_rows(*maps[1])
        assert values.flags.c_contiguous and values.shape == (self.N, 2, 2)


def scalar_draw(check, family, rng, n):
    """One family of a verify-maps row point by point with the scalar forms,
    on the samples the batch draw takes from the same generator."""
    if check == "h-symmetry":
        p, q = points(random_proj_rows(rng, n, 2)), points(random_proj_rows(rng, n, 2))
        return [proj_residual(eval_h(a, b), eval_h(b, a)) for a, b in zip(p, q)]
    if check == "h-diagonal-on-quadric":
        return [quadric_residual(eval_h(a, a))
                for a in points(random_proj_rows(rng, n, 2))]
    if check == "phi32-tau-invariance":
        return [proj_residual(eval_phi32(a), eval_phi32(tau(a)))
                for a in points(random_proj_rows(rng, n, 3))]
    if check == "phi32-image-on-cone":
        return [y_residual(eval_phi32(a)) for a in points(random_proj_rows(rng, n, 3))]
    if check == "phi30-lines-to-quadric":
        s1, s2 = [(1, 1), (1, -1), (-1, 1), (-1, -1)][family]
        return [quadric_residual(eval_phi30(a))
                for a in points(random_cover_line_rows(rng, n, s1, s2))]
    if check == "s5-identification-norm":
        return [abs(sum(abs(c) ** 2 for c in s5_identification(a)) - 1.0)
                for a in random_unit_sphere_rows(rng, n)]
    if check == "orbit-map-invariance":
        u = random_unit_sphere_rows(rng, n)
        theta = rng.uniform(0.0, 2.0 * np.pi, n)
        return [proj_residual(orbit_space_map(a),
                              orbit_space_map(weighted_circle_orbit(t, a)))
                for t, a in zip(theta, u)]
    if check == "critical-values-round-trip":
        x, y = random_separated_pair_rows(rng, n)
        return [unordered_pair_residual(
            critical_values(map_from_critical_values(a, b)).values, (a, b))
            for a, b in zip(points(x), points(y))]
    if check == "phi30-generic-preimages":
        return [abs(count_phi30(t).count - 4)
                for t in points(random_generic_square_rows(rng, n))]
    if check == "phi30-line-preimages":
        return [abs(count_phi30(t).count - 2)
                for t in points(random_line_target_rows(rng, n, family))]
    raise AssertionError(check)


# ---------------------------------------------------------------------------
# the seeded streams of the verify-maps report


def test_splitmix64_known_answers():
    # the reference generator's first three outputs from seed 0
    assert splitmix64(0, 0, 3).tolist() == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    # a word depends only on its counter, not on how it is drawn
    assert np.array_equal(np.concatenate([splitmix64(5, 0, 1024),
                                          splitmix64(5, 1024, 976)]),
                          splitmix64(5, 0, 2000))


#: Draws from a `Sampler` named `rng`, of each kind, as an expression.
STREAM_DRAWS = ("[rng.words(3).tolist(), rng.uniform(-1.0, 1.0, 3).tolist(), "
                "rng.standard_normal((2, 3)).tolist()]")


def test_sampler_streams_repeat():
    # the same (seed, check) gives the same draws in every call, here and
    # in a fresh interpreter (with its own string hash seed)
    rng = Sampler(42, "h-symmetry")
    first = eval(STREAM_DRAWS)
    rng = Sampler(42, "h-symmetry")
    assert eval(STREAM_DRAWS) == first
    assert run_fresh("from ruledstrata.projective_maps import Sampler\n"
                     f"rng = Sampler(42, 'h-symmetry')\nprint({STREAM_DRAWS})"
                     ) == [str(first)]
    # another check or another seed gives another stream
    keys = {Sampler(seed, check).key for seed in (42, 43)
            for check in ("h-symmetry", "h-diagonal-on-quadric")}
    assert len(keys) == 4


@pytest.mark.parametrize("lo, hi", [(0.0, 2 * np.pi), (-1.0, 1.0), (0.0, 1.0)])
def test_sampler_uniform_in_range(lo, hi):
    u = Sampler(7, "uniform").uniform(lo, hi, 10**5)
    assert np.all((lo <= u) & (u < hi))
    assert u.min() < lo + 1e-3 * (hi - lo) and u.max() > hi - 1e-3 * (hi - lo)
    # the least and the greatest word, at the ends of the range
    class Ends(Sampler):
        def words(self, n):
            return np.array([0, 2**64 - 1], dtype=np.uint64)
    low, high = Ends(7, "uniform").uniform(lo, hi, 2)
    assert low == lo and high < hi


def test_sampler_normal_moments():
    x = Sampler(0, "normal-moments").standard_normal((10**5,))
    assert abs(x.mean()) < 0.01
    assert abs(x.var() - 1) < 0.02
    # the shape asked for, filled from the front when the count is odd
    rng = Sampler(0, "normal-moments")
    assert rng.standard_normal((3, 5)).shape == (3, 5)
    assert rng.count == 8


@pytest.mark.parametrize("check, draws", [(c[0], c[-1]) for c in VERIFY_CHECKS])
def test_verify_draws_match_scalar_forms(check, draws):
    # on a numpy Generator and on the report's own stream for the check
    for generator in (np.random.default_rng, lambda seed: Sampler(seed, check)):
        for family, draw in enumerate(draws):
            batch = draw(generator(family), 300)
            assert_residuals_agree(
                batch, scalar_draw(check, family, generator(family), 300))


# ---------------------------------------------------------------------------
# the verify-maps report


def families(check):
    return next(len(draws) for name, *_, draws in VERIFY_CHECKS if name == check)


@pytest.mark.parametrize("n", [1, VERIFY_CHUNK - 1, VERIFY_CHUNK,
                               VERIFY_CHUNK + 1, 2 * VERIFY_CHUNK + 1])
def test_verify_maps_chunk_boundaries(n):
    report = verify_maps_report(n, 7, 1e-9)
    rows = report["rows"]
    assert [r["samples"] for r in rows] == [n] * 8 + [min(n, 100)] * 2
    assert report["pass"] and all(r["pass"] for r in rows)
    for r in rows:
        assert 0 <= r["worstSample"] < r["samples"] * families(r["check"])
    again = verify_maps_report(n, 7, 1e-9)
    assert json.dumps(report) == json.dumps(again)


#: The most memory, in bytes, that one chunk of any verify-maps row may
#: allocate at once beyond what it started with.
CHUNK_PEAK_BOUND = 600_000


def test_verify_maps_chunk_peaks():
    # one chunk of every row as the report draws it, each traced on its
    # own; the equations fold their columns, so no chunk holds a stacked
    # copy of its samples
    def chunks(seed):
        for check, _, _, cap, draws in VERIFY_CHECKS:
            rng = Sampler(seed, check)
            for draw in draws:
                yield check, draw, rng, min(VERIFY_CHUNK, cap or VERIFY_CHUNK)

    for _, draw, rng, n in chunks(1):  # first calls load what they need
        draw(rng, n)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    peaks = {}
    try:
        for check, draw, rng, n in chunks(7):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            draw(rng, n)
            peak = tracemalloc.get_traced_memory()[1] - start
            peaks[check] = max(peaks.get(check, 0), peak)
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(peaks) == len(VERIFY_CHECKS)
    assert max(peaks.values()) <= CHUNK_PEAK_BOUND, peaks


def test_verify_maps_rows_draw_apart(monkeypatch):
    # each row draws from its own stream, so the order of the rows does not
    # change what any of them draws
    rows = verify_maps_report(50, 3, 1e-9)["rows"]
    monkeypatch.setattr(projective_maps, "VERIFY_CHECKS", VERIFY_CHECKS[::-1])
    assert verify_maps_report(50, 3, 1e-9)["rows"] == rows[::-1]


def _cover_line_without_i(rng, n, s1, s2):
    y, z = random_proj_rows(rng, n, 2).T
    return np.stack([-(s1 * y + s2 * z), y, z], axis=1)


def _s5_stretch_by_modulus(pts):
    x, y, z = np.asarray(pts, dtype=complex).T
    stretch = np.sqrt(1.0 + np.abs(z))
    return projective_maps._mul(np.stack([x, y, z], axis=1),
                                np.stack([stretch, stretch, z], axis=1))


def _orbit_weights_one(theta, pts):
    rot = np.exp(1j * theta)
    return projective_maps._mul(np.stack([rot, rot, rot], axis=1), pts)


def _tau_negating_x(pts):
    out = pts.copy()
    out[:, 0] = -out[:, 0]
    return out


def _h_cross_term_stretched(p, q):
    (x0y0, x0y1), (x1y0, x1y1) = projective_maps._mul(p.T[:, None], q.T[None])
    return np.stack([x0y0, x1y1, x0y1 + x1y0 * (1 + 1e-6) - x0y0 - x1y1],
                    axis=1)


def _critical_values_stretched(num, den):
    values, degenerate = critical_values_rows(num, den)
    values[:, :, 0] *= 1 + 1e-6
    return values, degenerate


#: One plausible defect per verify-maps row: the row's check, the name in
#: `projective_maps` the defect replaces, and its replacement.
MUTANTS = {
    "h-symmetry": ("eval_h_rows", _h_cross_term_stretched),
    "h-diagonal-on-quadric": ("eval_h_rows", lambda p, q: eval_h_rows(p, q)
                              * np.array([1, 1, 1 + 1e-6])),
    "phi32-tau-invariance": ("tau_rows", _tau_negating_x),
    "phi32-image-on-cone": ("eval_phi32_rows", lambda pts: projective_maps._mul(
        pts[:, [0, 1, 2, 0]], pts[:, [0, 1, 2, 2]])),
    "phi30-lines-to-quadric": ("random_cover_line_rows", _cover_line_without_i),
    "s5-identification-norm": ("s5_identification_rows",
                               _s5_stretch_by_modulus),
    "orbit-map-invariance": ("weighted_circle_orbit_rows", _orbit_weights_one),
    "critical-values-round-trip": ("critical_values_rows",
                                   _critical_values_stretched),
    "phi30-generic-preimages": ("_PHI30_SIGNS",
                                projective_maps._PHI30_SIGNS[:3]),
    "phi30-line-preimages": ("CLUSTER_TOL", 0),
}


@pytest.mark.parametrize("check", [entry[0] for entry in VERIFY_CHECKS])
def test_verify_maps_row_catches_its_mutant(check, monkeypatch):
    """Each row passes on the code as it is and fails at 5,000 samples and
    seed 42 once its defect is applied: the cross term x1*y0 of `eval_h`
    times 1 + 1e-6, the third coordinate of `eval_h` times 1 + 1e-6, `tau`
    negating x instead of z, x*z for x*y in the cone map, cover lines drawn
    without the factor i, the S^5 stretch sqrt(1 + |z|) for
    sqrt(1 + |z|^2), circle weights (1, 1, 1), the numerator values of
    `critical_values` times 1 + 1e-6, a dropped sign pattern, and no
    preimage cluster merged.

    The third-coordinate defect is symmetric in the two factors, so
    `h-symmetry` reads 0.0 under it; its own defect breaks the swap.  The
    round-trip defect covers the values and their pairing, not the root
    solver: the drawn maps have their critical points exactly at 0 and
    infinity, so every root's first coordinate times 1.5 still passes.
    """
    row = next(entry for entry in VERIFY_CHECKS if entry[0] == check)
    monkeypatch.setattr(projective_maps, "VERIFY_CHECKS", (row,))
    assert verify_maps_report(5000, 42, DEFAULT_TOL)["pass"]
    monkeypatch.setattr(projective_maps, *MUTANTS[check])
    assert not verify_maps_report(5000, 42, DEFAULT_TOL)["pass"]


def test_verify_maps_samples_limit():
    assert MAX_SAMPLES == 10**6
    with pytest.raises(ValueError, match="limit 1000000"):
        verify_maps_report(MAX_SAMPLES + 1, 42, 1e-9)


def test_verify_maps_worst_sample_and_nan(monkeypatch):
    """The fold keeps the first worst draw, counted family by family across
    chunks, and a NaN residual, once seen, is the worst."""
    n = VERIFY_CHUNK + 500

    def spike(value, at):
        def draw(rng, m):
            start = draw.seen
            draw.seen += m
            out = np.zeros(m)
            for i in at:
                if start <= i < start + m:
                    out[i - start] = value
            return out
        draw.seen = 0
        return draw

    monkeypatch.setattr(projective_maps, "VERIFY_CHECKS", (
        ("max", "r", None, None, [spike(0.5, [3]),
                                  spike(0.75, [VERIFY_CHUNK + 7, n - 1])]),
        ("nan", "r", None, None, [spike(0.75, [9]),
                                  spike(np.nan, [VERIFY_CHUNK + 2, n - 1]),
                                  spike(1.0, [0])]),
        ("zero", "r", None, None, [spike(0.0, [])]),
    ))
    first, second, third = verify_maps_report(n, 0, 1.0)["rows"]
    assert (first["maxResidual"], first["worstSample"]) == (0.75, n + VERIFY_CHUNK + 7)
    assert first["pass"] is True
    assert np.isnan(second["maxResidual"]) and second["pass"] is False
    assert second["worstSample"] == n + VERIFY_CHUNK + 2
    assert (third["maxResidual"], third["worstSample"]) == (0.0, 0)
