"""Numeric verification of the explicit projective models behind the
double-cover stratum.

Everything here is double-precision complex arithmetic with projective,
scale-invariant comparisons.  Each identity is an equation on raw rows,
which `residual_rows` divides by their largest moduli before it folds the
largest modulus of the equation's (n,) columns as they come: two tuples
agree when their 2x2 minors (`minors_rows`) vanish, and a point lies on the
quadric or the cone when `quadric_rows` or `cone_rows` does.  Each report
row draws from its own `Sampler` stream, keyed by the seed and its check,
so runs repeat per seed.

Each model has one form here, on the rows of an (n, k) complex array,
named with a `_rows` suffix; `verify_maps_report` with its `VERIFY_CHECKS`
table runs them.  The scalar form of each model, on one point and named
without the suffix (`eval_h`, `proj_residual`, `critical_values`, ...),
is the reference in the test suite's `tests/oracles.py`.
"""

import math
import random

import numpy as np

from . import check_verify_maps_args

DEFAULT_TOL = 1e-9
CLUSTER_TOL = 1e-6
GENERIC_MARGIN = 1e-3


# The batch forms round as the scalar references do, so the tests can hold
# them to those within 1e-15.  Two numpy operations round otherwise, so
# every complex product goes through `_mul` (numpy may fuse its
# multiply-adds) and every modulus through `_modulus` (numpy's complex abs
# may differ from Python's, which is hypot, in the last bit).


def _mul(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Complex product of arrays, rounded as Python's complex product."""
    re = u.real * v.real - u.imag * v.imag
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = u.real * v.imag + u.imag * v.real
    return out


def _modulus(a: np.ndarray) -> np.ndarray:
    return np.hypot(a.real, a.imag)


def _max_modulus(n: int, columns) -> np.ndarray:
    """Row maxima of the moduli of (n,) complex columns, folded as they
    arrive, NaN kept; n zeros for no column."""
    out = np.zeros(n)
    for col in columns:
        out = np.maximum(out, _modulus(col))
    return out


def _unit_rows(a) -> np.ndarray:
    """Each row of a complex (n, k) array divided by its largest modulus.

    The batch form of `ProjPoint(row).normalized()`, bit for bit: a row
    with a non-finite coordinate, or with every coordinate zero, raises.
    """
    a = np.ascontiguousarray(a, dtype=complex)
    scale = _max_modulus(len(a), a.T)
    # a NaN or infinite coordinate makes the scale NaN or infinite
    if not np.all((scale > 0) & (scale < np.inf)):
        raise ValueError("projective point needs finite coordinates, "
                         "not all zero")
    # real and imaginary parts divided apart, as Python divides by a float
    return (a.view(float) / scale[:, None]).view(complex)


def residual_rows(equation, *arrays) -> np.ndarray:
    """The one array residual helper: the largest modulus of `equation` at
    each row of (n, k) arrays, once `_unit_rows` has checked and scaled it."""
    arrays = [_unit_rows(a) for a in arrays]  # drops the raw arrays
    return _max_modulus(len(arrays[0]), equation(*arrays))


def minors_rows(x, y):
    """The 2x2 minors x_i y_j - x_j y_i, i < j, of two (n, k) arrays, one
    (n,) column at a time."""
    if x.shape != y.shape:
        raise ValueError("length mismatch")
    return (_mul(x[:, i], y[:, j]) - _mul(x[:, j], y[:, i])
            for i, j in zip(*np.triu_indices(x.shape[1], 1)))


# ---------------------------------------------------------------------------
# the product-to-plane quotient map and the quadric


def eval_h_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """`eval_h` of each pair of rows of two (n, 2) arrays."""
    # xy[i, j] = x_i y_j; the sample axis last keeps numpy's loops long
    (x0y0, x0y1), (x1y0, x1y1) = _mul(p.T[:, None], q.T[None])
    return np.stack([x0y0, x1y1, x0y1 + x1y0 - x0y0 - x1y1], axis=1)


def quadric_rows(pts) -> list:
    """(u + v + w)^2 - 4uv at each row of an (n, 3) array."""
    u, v, w = pts.T
    return [_mul(u + v + w, u + v + w) - _mul(4 * u, v)]


def tau_rows(pts: np.ndarray) -> np.ndarray:
    """`tau` of each row of an (n, 3) array."""
    out = pts.copy()
    out[:, 2] = -out[:, 2]
    return out


def eval_phi30_rows(pts: np.ndarray) -> np.ndarray:
    """`eval_phi30` of each row of an (n, 3) array."""
    return _mul(pts, pts)


def eval_phi32_rows(pts: np.ndarray) -> np.ndarray:
    """`eval_phi32` of each row of an (n, 3) array."""
    return _mul(pts[:, [0, 1, 2, 0]], pts[:, [0, 1, 2, 1]])


def cone_rows(pts) -> list:
    """t^2 - uv at each row [u:v:w:t] of an (n, 4) array."""
    u, v, w, t = pts.T
    return [_mul(t, t) - _mul(u, v)]


# ---------------------------------------------------------------------------
# degree-2 self-maps of the sphere


def _quadratic_roots_rows(t: np.ndarray) -> np.ndarray:
    """`_homogeneous_quadratic_roots` of each row of an (n, 3) array divided
    by its row scale, as (n, 2, 2) homogeneous pairs.

    One root is at infinity when the leading coefficient is below 1e-14 of
    the row scale, never both (|disc| < 6.4e-13 `size`; the caller raises
    below 4e-9 `size`); the rest are `np.roots`' companion roots, bit for bit.
    """
    roots = np.ones((len(t), 2, 2), dtype=complex)
    at_inf = _modulus(t[:, 0]) < 1e-14
    roots[at_inf, 0, 1] = 0
    roots[at_inf, 1, 0] = -t[at_inf, 2] / t[at_inf, 1]
    full = ~at_inf
    companion = np.zeros((int(full.sum()), 2, 2), dtype=complex)
    companion[:, 0] = -t[full, 1:] / t[full, :1]
    companion[:, 1, 0] = 1
    roots[full, :, 0] = np.linalg.eigvals(companion)
    return roots


def critical_values_rows(num, den) -> tuple[np.ndarray, np.ndarray]:
    """`critical_values` of the maps with coefficient rows `num` and `den`,
    two (n, 3) arrays: the branch-point pairs as (n, 2, 2) and the
    degenerate flags.

    A row whose numerator and denominator share a root (a resultant at
    most `DEFAULT_TOL` times the squared coefficient scale) raises.
    """
    num = np.asarray(num, dtype=complex)
    den = np.asarray(den, dtype=complex)
    n, m = len(num), _mul
    a, b, c = num.T
    d, e, f = den.T
    w = m(a, e) - m(b, d), 2 * (m(a, f) - m(c, d)), m(b, f) - m(c, e)
    # |disc| is exactly 4x the resultant's modulus
    disc = _modulus(m(w[1], w[1]) - m(4 * w[0], w[2]))
    size = (_max_modulus(n, num.T) * _max_modulus(n, den.T)) ** 2
    if not np.all(disc > 4 * DEFAULT_TOL * size):
        raise ValueError("numerator and denominator share a root")
    scale = _max_modulus(n, w)
    degenerate = disc < DEFAULT_TOL * scale**2
    pts = _quadratic_roots_rows(np.stack(w, axis=1) / scale[:, None])
    pts[degenerate, 1] = pts[degenerate, 0]
    # values[:, i, j]: numerator (j = 0) or denominator at point i
    values = np.empty((n, 2, 2), dtype=complex)
    for i in (0, 1):
        x0, x1 = pts[:, i].T
        for j, (a, b, c) in enumerate((num.T, den.T)):
            values[:, i, j] = (m(m(a, x0), x0) + m(m(b, x0), x1)
                               + m(m(c, x1), x1))
    return values, degenerate


def unordered_pair_residual_rows(pairs_a: np.ndarray, pairs_b: np.ndarray
                                 ) -> np.ndarray:
    """`unordered_pair_residual` of each pair of rows of two (n, 2, k)
    arrays; a NaN residual is kept, not dropped."""
    n, _, k = pairs_a.shape
    a, b = (_unit_rows(p.reshape(-1, k)).reshape(n, 2, k)  # scaled once
            for p in (pairs_a, pairs_b))
    r = {(i, j): _max_modulus(n, minors_rows(a[:, i], b[:, j]))
         for i in (0, 1) for j in (0, 1)}
    return np.minimum(np.maximum(r[0, 0], r[1, 1]),
                      np.maximum(r[0, 1], r[1, 0]))


# ---------------------------------------------------------------------------
# preimage counting


def _generic_rows(pts: np.ndarray) -> np.ndarray:
    """Whether each row keeps all coordinates outside the generic margin."""
    size = _modulus(pts)
    return size.min(axis=1) >= GENERIC_MARGIN * size.max(axis=1)


#: The sign patterns (1, s1, s2) of the phi30 preimage candidates, in the
#: order the scalar `count_phi30` tries them.
_PHI30_SIGNS = np.array([[1, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1]])


def count_phi30_rows(targets) -> np.ndarray:
    """`count_phi30(t).count` for each row t of an (n, 3) array: the number
    of distinct preimages under `eval_phi30_rows`.

    The four square-root candidates of each target are verified against it
    and clustered greedily in the scalar order, all rows at once.
    """
    target = _unit_rows(targets)
    candidates = np.sqrt(target)[:, None, :] * _PHI30_SIGNS  # exact: signs
    verified = residual_rows(
        minors_rows, eval_phi30_rows(candidates.reshape(-1, 3)),
        np.repeat(target, len(_PHI30_SIGNS), axis=0),
    ).reshape(len(target), -1) < 1e3 * DEFAULT_TOL
    reps = np.zeros_like(verified)
    for j in range(len(_PHI30_SIGNS)):
        new = verified[:, j]
        for k in range(j):
            apart = residual_rows(minors_rows, candidates[:, j],
                                  candidates[:, k]) >= CLUSTER_TOL
            new = new & (~reps[:, k] | apart)
        reps[:, j] = new
    return reps.sum(axis=1)


# ---------------------------------------------------------------------------
# the weighted circle action on the 5-sphere


def _norm_sq_rows(pts: np.ndarray) -> np.ndarray:
    x, y, z = _modulus(pts.T)
    return x**2 + y**2 + z**2


def _require_unit_rows(pts) -> np.ndarray:
    """An (n, 3) array whose every row must be a unit vector."""
    pts = np.asarray(pts, dtype=complex)
    if not np.all(np.abs(_norm_sq_rows(pts) - 1.0) <= 1e-6):
        raise ValueError("point must lie on the unit 5-sphere")
    return pts


def weighted_circle_orbit_rows(theta: np.ndarray, pts) -> np.ndarray:
    """`weighted_circle_orbit` of each angle and row of an (n, 3) array."""
    pts = _require_unit_rows(pts)
    rot = np.exp(1j * theta)
    return _mul(np.stack([rot, rot, _mul(rot, rot)], axis=1), pts)


def s5_identification_rows(pts) -> np.ndarray:
    """`s5_identification` of each row of an (n, 3) array."""
    x, y, z = _require_unit_rows(pts).T
    stretch = np.sqrt(1.0 + _modulus(z) ** 2)
    return _mul(np.stack([x, y, z], axis=1), np.stack([stretch, stretch, z], axis=1))


def orbit_space_map_rows(pts) -> np.ndarray:
    """`orbit_space_map` of each row of an (n, 3) array."""
    pts = _require_unit_rows(pts)
    out = eval_phi32_rows(pts)  # x^2, y^2, z^2, xy
    out[:, 2] = pts[:, 2]
    return out


# ---------------------------------------------------------------------------
# seeded samplers

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def splitmix64(key: int, start: int, n: int) -> np.ndarray:
    """The SplitMix64 words of stream `key` at counters start + 1, ...,
    start + n (Steele, Lea & Flood, OOPSLA 2014): word c is the mix of
    key + c * gamma, modulo 2^64, so key 0 gives the generator's reference
    sequence from seed 0."""
    z = np.arange(start + 1, start + n + 1, dtype=np.uint64)
    z *= _GAMMA
    z += np.uint64(key)
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


class Sampler:
    """A seeded stream of doubles, drawn by `splitmix64` on a counter.

    The stream's key is 64 bits of stdlib `random` seeded with the string
    "seed/name", so each (seed, name) gives its own stream, whatever is drawn
    from the others, and no numpy.random is loaded.  `uniform` and
    `standard_normal` take the arguments of the numpy Generator methods of
    those names, as the samplers below call them, so those take either.
    `standard_normal` runs numpy's `log`, `cos` and `sin`, whose last bits
    may differ between numpy builds and CPUs.
    """

    __slots__ = ("key", "count")

    def __init__(self, seed: int, name: str):
        self.key = random.Random(f"{seed}/{name}").getrandbits(64)
        self.count = 0

    def words(self, n: int) -> np.ndarray:
        """The next n words of the stream."""
        out = splitmix64(self.key, self.count, n)
        self.count += n
        return out

    def uniform(self, lo: float, hi: float, n: int) -> np.ndarray:
        """n doubles lo + (hi - lo) u, u in [0, 1) from the top 53 bits of
        one word.  As with numpy's `uniform`, rounding may give hi itself for
        some ranges, though not for [0, 2 pi)."""
        return lo + (hi - lo) * ((self.words(n) >> np.uint64(11)) * 2.0**-53)

    def standard_normal(self, shape: tuple) -> np.ndarray:
        """Standard normals in the given shape, two from each word by the
        Box-Muller transform of its 32-bit halves, the high half giving the
        radius and the low half the angle.

        The angle's cosine and sine are taken in single precision, where
        numpy vectorizes them; in double precision they cost more than all
        of numpy's own normals (10^5 verify-maps samples took 12% longer).
        So a normal may be off its exact transform by up to 1e-6 times the
        radius, which no check depends on: each computes in double precision
        on the sample as drawn.
        """
        size = math.prod(shape)
        w = self.words((size + 1) // 2)
        radius = np.sqrt(-2.0 * np.log(((w >> np.uint64(32)) + 1) * 2.0**-32))
        angle = ((w & np.uint64(0xFFFFFFFF)).astype(np.float32)
                 * np.float32(2.0 * np.pi * 2.0**-32))
        out = np.empty((len(w), 2))
        out[:, 0] = radius * np.cos(angle)
        out[:, 1] = radius * np.sin(angle)
        return out.reshape(-1)[:size].reshape(shape)


def random_proj_rows(rng, n: int, k: int) -> np.ndarray:
    """n random points of projective (k-1)-space as (n, k) rows of
    standard complex Gaussians: their directions are uniform on the unit
    sphere, and every residual divides by the scale itself."""
    return rng.standard_normal((n, 2 * k)).view(complex)


def random_unit_sphere_rows(rng, n: int) -> np.ndarray:
    """n random points of the unit sphere in C^3 as (n, 3) rows."""
    v = rng.standard_normal((n, 6)).view(complex)
    return v / np.sqrt(_norm_sq_rows(v))[:, None]


def _draw_until(rng, n: int, draw, keep) -> np.ndarray:
    """n rows of `draw(rng, m)` that pass `keep`, drawing the shortfall
    again until none is left."""
    parts = []
    while n:
        rows = draw(rng, n)
        rows = rows[keep(rows)]
        parts.append(rows)
        n -= len(rows)
    return np.concatenate(parts)


def random_generic_square_rows(rng, n: int) -> np.ndarray:
    """n squares-map targets with all coordinates away from zero."""
    return _draw_until(rng, n, lambda rng, m: random_proj_rows(rng, m, 3),
                       _generic_rows)


def random_line_target_rows(rng, n: int, i: int) -> np.ndarray:
    """n generic points of the i-th coordinate line in the plane."""
    pts = _draw_until(rng, n, lambda rng, m: random_proj_rows(rng, m, 2),
                      _generic_rows)
    return np.insert(pts, i, 0, axis=1)


def random_cover_line_rows(rng, n: int, s1: int, s2: int) -> np.ndarray:
    """n points of the line x + s1 y + s2 i z = 0 upstairs of the quadric."""
    def draw(rng, m):
        y, z = random_proj_rows(rng, m, 2).T
        return np.stack([-(s1 * y + s2 * 1j * z), y, z], axis=1)
    return _draw_until(rng, n, draw,
                       lambda rows: _max_modulus(len(rows), rows.T) > 0)


#: The least projective distance between the two points of a sampled pair.
MIN_PAIR_GAP = 1e-3


def random_separated_pair_rows(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n pairs of points of the sphere at least `MIN_PAIR_GAP` apart, as two
    (n, 2) arrays."""
    def draw(rng, m):
        return np.hstack([random_proj_rows(rng, m, 2),
                          random_proj_rows(rng, m, 2)])
    pairs = _draw_until(rng, n, draw, lambda rows: residual_rows(
        minors_rows, rows[:, :2], rows[:, 2:]) >= MIN_PAIR_GAP)
    return pairs[:, :2], pairs[:, 2:]


# ---------------------------------------------------------------------------
# verify-maps

#: Samples drawn and checked at a time: enough that numpy's per-call cost
#: does not dominate, few enough that one chunk of any row peaks at
#: 200-500 kB of arrays (tracemalloc), the largest adding to the peak RSS.
VERIFY_CHUNK = 1024


def _h_symmetry(rng, n):
    p, q = random_proj_rows(rng, n, 2), random_proj_rows(rng, n, 2)
    return residual_rows(minors_rows, eval_h_rows(p, q), eval_h_rows(q, p))


def _h_diagonal(rng, n):
    p = random_proj_rows(rng, n, 2)
    return residual_rows(quadric_rows, eval_h_rows(p, p))


def _tau_invariance(rng, n):
    p = random_proj_rows(rng, n, 3)
    return residual_rows(minors_rows, eval_phi32_rows(p),
                         eval_phi32_rows(tau_rows(p)))


def _cover_line(s1, s2):
    return lambda rng, n: residual_rows(quadric_rows, eval_phi30_rows(
        random_cover_line_rows(rng, n, s1, s2)))


def _s5_norm(rng, n):
    out = s5_identification_rows(random_unit_sphere_rows(rng, n))
    return np.abs(_norm_sq_rows(out) - 1.0)


def _orbit_invariance(rng, n):
    p = random_unit_sphere_rows(rng, n)
    moved = weighted_circle_orbit_rows(rng.uniform(0.0, 2.0 * np.pi, n), p)
    return residual_rows(minors_rows, orbit_space_map_rows(p),
                         orbit_space_map_rows(moved))


def _round_trip(rng, n):
    x, y = random_separated_pair_rows(rng, n)
    zero = np.zeros(n)
    # map_from_critical_values(x, y) for each row: the squaring map
    # conjugated to send 0 and infinity to x and y
    found, _ = critical_values_rows(np.stack([y[:, 0], zero, x[:, 0]], axis=1),
                                    np.stack([y[:, 1], zero, x[:, 1]], axis=1))
    return unordered_pair_residual_rows(found, np.stack([x, y], axis=1))


def _preimages(targets, expected):
    """A draw of |preimage count - expected| at `targets(rng, n)`; each
    caller's lambda looks its sampler up when it draws."""
    def draw(rng, n):
        counts = count_phi30_rows(targets(rng, n))
        return np.abs(counts - expected).astype(float)
    return draw


#: One entry per verify-maps row, in report order: (check, rule, threshold
#: or None for the requested tolerance, sample cap or None, draws).  Each
#: draw maps the row's generator and a sample count m to the m residuals of
#: m fresh samples; a row with several draws covers one family each, in turn,
#: from the one stream of its row.
VERIFY_CHECKS = (
    ("h-symmetry", "factor-swap-symmetry", None, None, [_h_symmetry]),
    ("h-diagonal-on-quadric", "diagonal-image-quadric", None, None,
     [_h_diagonal]),
    ("phi32-tau-invariance", "involution-quotient", None, None,
     [_tau_invariance]),
    ("phi32-image-on-cone", "cone-equation", None, None, [lambda rng, n:
        residual_rows(cone_rows, eval_phi32_rows(random_proj_rows(rng, n, 3)))]),
    ("phi30-lines-to-quadric", "cover-lines-over-quadric", None, None,
     [_cover_line(s1, s2) for s1 in (1, -1) for s2 in (1, -1)]),
    ("s5-identification-norm", "quotient-sphere-identification", 1e-12, None,
     [_s5_norm]),
    ("orbit-map-invariance", "weighted-action-quotient", None, None,
     [_orbit_invariance]),
    ("critical-values-round-trip", "branch-point-normal-form", 1e-7, None,
     [_round_trip]),
    ("phi30-generic-preimages", "four-fold-cover", None, 100,
     [_preimages(lambda rng, n: random_generic_square_rows(rng, n), 4)]),
    ("phi30-line-preimages", "branch-line-cover", None, 100,
     [_preimages(lambda rng, n, i=i: random_line_target_rows(rng, n, i), 2)
      for i in range(3)]),
)


def verify_maps_report(samples: int, seed: int, tol: float) -> dict:
    """Residual report for the explicit projective models.

    One row per `VERIFY_CHECKS` entry, drawn from its own `Sampler` stream
    keyed by the seed and the row's check, each with the sample count, the
    worst relative residual seen, a pass flag at that row's tolerance and
    `worstSample`, the 0-based index of the worst draw counted family by
    family (the first of equal worst ones; a NaN residual counts as worst).
    The unit-norm check is held to 1e-12 and the branch-point round-trip to
    1e-7; the remaining identities use the requested tolerance.  Samples
    are drawn `VERIFY_CHUNK` at a time; more than `MAX_SAMPLES` raises.
    """
    check_verify_maps_args(samples, seed, tol)
    rows = []
    for check, rule, threshold, cap, draws in VERIFY_CHECKS:
        rng = Sampler(seed, check)
        n = samples if cap is None else min(samples, cap)
        threshold = tol if threshold is None else threshold
        worst, worst_at = 0.0, 0
        for family, draw in enumerate(draws):
            for start in range(0, n, VERIFY_CHUNK):
                residuals = draw(rng, min(VERIFY_CHUNK, n - start))
                i = int(np.argmax(residuals))  # the first NaN, if any
                if not math.isnan(worst) and not residuals[i] <= worst:
                    worst, worst_at = float(residuals[i]), family * n + start + i
        rows.append({
            "check": check,
            "samples": n,
            "maxResidual": worst,
            "tolerance": threshold,
            "pass": bool(worst < threshold),
            "rule": rule,
            "worstSample": worst_at,
        })
    return {
        "subcommand": "verify-maps",
        "params": {"samples": samples, "seed": seed, "tolerance": tol},
        "rows": rows,
        "pass": all(r["pass"] for r in rows),
    }
