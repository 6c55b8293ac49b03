"""Minimum-norm point of a convex hull: frozen cases and optimality checks."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import ConvexHull

from ordnash.minnorm import _GAP_TOL, min_norm_point


def _hull_grid_min_sq(points, resolution):
    """Brute-force min ||z||^2 over a simplex grid of hull weights."""
    pts = np.asarray(points, dtype=float)
    m = pts.shape[0]
    best = np.inf
    for combo in itertools.product(range(resolution + 1), repeat=m - 1):
        rest = sum(combo)
        if rest > resolution:
            continue
        weights = np.array(combo + (resolution - rest,), dtype=float) / resolution
        z = weights @ pts
        best = min(best, float(z @ z))
    return best


def _faces_min_sq(points):
    """Exact min ||z||^2 over conv(points), by brute force over faces.

    Every face of at most d + 1 points whose affine minimum-norm point has
    nonnegative weights gives a point of the hull; the optimum is among them.
    Each face is solved through its KKT system; a singular system is an
    affinely dependent face, whose optimum a smaller face already covers.
    """
    pts = np.asarray(points, dtype=float)
    m, d = pts.shape
    best = np.inf
    for k in range(1, min(m, d + 1) + 1):
        for face in itertools.combinations(range(m), k):
            q = pts[list(face)]
            kkt = np.block([[q @ q.T, np.ones((k, 1))], [np.ones((1, k)), np.zeros((1, 1))]])
            try:
                weights = np.linalg.solve(kkt, np.r_[np.zeros(k), 1.0])[:k]
            except np.linalg.LinAlgError:
                continue
            if weights.min() < -1e-12:
                continue
            weights = np.clip(weights, 0.0, None)
            z = (weights / weights.sum()) @ q
            best = min(best, float(z @ z))
    return best


def _polygon_min_sq(points):
    """Exact min ||z||^2 over the hull of a full-dimensional 2-D point set."""
    pts = np.asarray(points, dtype=float)
    hull = ConvexHull(pts)
    if np.all(hull.equations[:, -1] <= 0.0):
        return 0.0  # the origin satisfies every facet inequality
    best = np.inf
    for a, b in hull.simplices:
        edge = pts[b] - pts[a]
        t = np.clip(-(pts[a] @ edge) / (edge @ edge), 0.0, 1.0)
        z = pts[a] + t * edge
        best = min(best, float(z @ z))
    return best


def _thin_cloud(seed):
    """1,000 points in a 2-D strip of length 2 and width 2e-4."""
    rng = np.random.default_rng(seed)
    angle = rng.uniform(0.0, np.pi)
    along = np.array([np.cos(angle), np.sin(angle)])
    across = np.array([-along[1], along[0]])
    centre = rng.uniform(-2.0, 2.0, size=2)
    return (
        centre
        + rng.uniform(-1.0, 1.0, size=(1000, 1)) * along
        + rng.uniform(-1e-4, 1e-4, size=(1000, 1)) * across
    )


def _small_set(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "collinear":
        dim = int(rng.integers(2, 4))
        steps = rng.uniform(-2.0, 2.0, size=(int(rng.integers(3, 8)), 1))
        return rng.uniform(-1.0, 1.0, size=dim) + steps * rng.normal(size=dim)
    if kind == "duplicates":
        base = rng.uniform(-2.0, 2.0, size=(4, 2))
        return base[rng.integers(0, 4, size=9)]
    if kind == "origin-on-edge":
        a = rng.uniform(-2.0, 2.0, size=2)
        return np.vstack([a, -rng.uniform(0.1, 3.0) * a, rng.uniform(1.0, 3.0, size=(3, 2))])
    if kind == "origin-at-vertex":
        return np.vstack([rng.uniform(0.5, 2.0, size=(3, 2)), np.zeros(2)])
    if kind == "integer-grid":
        dim = int(rng.integers(1, 4))
        return rng.integers(-2, 3, size=(int(rng.integers(2, 9)), dim)).astype(float)
    dim = {"one-dim": 1, "three-dim": 3}[kind]
    return rng.uniform(-2.0, 2.0, size=(int(rng.integers(2, 9)), dim))


def _assert_matches_oracle(pts, oracle_sq):
    res = min_norm_point(pts)
    scale = float(np.max(np.sum(pts**2, axis=1)))
    assert res.converged
    assert abs(float(res.point @ res.point) - oracle_sq) <= 1e-12 * scale


class TestAgainstExactOracle:
    """Squared norm within 1e-12 max ||p||^2 of an exact, independent oracle."""

    @pytest.mark.parametrize("seed", range(20))
    def test_thin_clouds(self, seed):
        pts = _thin_cloud(seed)
        _assert_matches_oracle(pts, _polygon_min_sq(pts))

    @pytest.mark.parametrize(
        "kind",
        [
            "collinear",
            "duplicates",
            "origin-on-edge",
            "origin-at-vertex",
            "integer-grid",
            "one-dim",
            "three-dim",
        ],
    )
    def test_degenerate_and_small_sets(self, kind):
        for seed in range(40):
            pts = _small_set(kind, seed)
            _assert_matches_oracle(pts, _faces_min_sq(pts))


class TestFrozenCases:
    def test_two_dim_diagonal(self):
        # hull of (1,0), (0,1), (1,1): closest point to the origin is the
        # midpoint of the first two vertices.
        res = min_norm_point(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        np.testing.assert_allclose(res.point, [0.5, 0.5], atol=1e-9)
        assert res.converged

    def test_scalar_offsets(self):
        res = min_norm_point(np.array([[0.2], [0.5], [0.9]]))
        np.testing.assert_allclose(res.point, [0.2], atol=1e-12)

    def test_straddling_segment_contains_zero(self):
        res = min_norm_point(np.array([[-1.0], [1.0]]))
        assert float(np.linalg.norm(res.point)) <= 1e-9

    def test_single_point(self):
        res = min_norm_point(np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(res.point, [3.0, 4.0])
        assert res.converged

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            min_norm_point(np.empty((0, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        with pytest.raises(ValueError):
            min_norm_point(np.array([[bad, 1.0], [1.0, 2.0]]))


class TestOptimality:
    @given(st.integers(0, 10_000), st.integers(2, 6), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_variational_characterization(self, seed, count, dim):
        # z is the min-norm point of the hull iff <z, a - z> >= 0 for every
        # generator a; the stopping rule allows _GAP_TOL * max ||a||^2 of slack.
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-2, 2, size=(count, dim))
        res = min_norm_point(pts)
        z = res.point
        inner = pts @ z - float(z @ z)
        assert res.converged
        assert np.min(inner) >= -_GAP_TOL * float(np.max(np.sum(pts**2, axis=1)))

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_norm_below_every_generator(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-2, 2, size=(5, 2))
        res = min_norm_point(pts)
        norms = np.linalg.norm(pts, axis=1)
        assert np.linalg.norm(res.point) <= norms.min() + 1e-9


class TestAgainstGridOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_simplex_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-1.5, 1.5, size=(3, 2))
        res = min_norm_point(pts)
        grid_sq = _hull_grid_min_sq(pts, resolution=60)
        found_sq = float(res.point @ res.point)
        # The grid value is an upper bound sampled at resolution 1/60.
        assert found_sq <= grid_sq + 1e-9
        assert grid_sq <= found_sq + 0.01
