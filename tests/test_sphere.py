from __future__ import annotations

import math

import numpy as np
import pytest

from bilipfactor.geometry_core import GeometryError
from bilipfactor.map_engine import Compose, Scaling, Translation
from bilipfactor.sphere import (
    _chordal_pairs,
    factor_scaling_sphere,
    factor_translation_sphere,
    sample_points,
    scaling_step_bound,
    solve_scaling_step,
    spherical_distortion,
    translation_step_bound,
)


class _Infinity:
    """The point at infinity of the extended plane (a singleton)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"


INFINITY = _Infinity()


def oracle_scaling_step(epsilon: float) -> float:
    """Independent bisection on a / (1 - (a^2 - 1)) = 1 + epsilon."""
    lo, hi = 1.0, 1.41
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if mid / (1.0 - (mid * mid - 1.0)) > 1.0 + epsilon:
            hi = mid
        else:
            lo = mid
    return lo


def chordal_distance(x, y) -> float:
    """Chordal metric on R^d U {infinity} (unit-diameter sphere chart).

    chi(x, y) = |x-y| / sqrt((1+|x|^2)(1+|y|^2)) for finite points and
    1 / sqrt(1+|x|^2) when the other point is infinite.
    """
    x_inf = x is INFINITY
    y_inf = y is INFINITY
    if x_inf and y_inf:
        return 0.0
    if x_inf:
        return 1.0 / math.sqrt(1.0 + float(np.dot(y, y)))
    if y_inf:
        return 1.0 / math.sqrt(1.0 + float(np.dot(x, x)))
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(
        np.linalg.norm(x - y) / math.sqrt((1.0 + np.dot(x, x)) * (1.0 + np.dot(y, y)))
    )


def lift_distortion_bound(eps_prime: float) -> float:
    """Chordal bound (1 + e')(1 - e')^-2 for a Euclidean (1+e')-bi-Lipschitz
    origin-fixing map, 0 <= e' < 1."""
    return (1.0 + eps_prime) / (1.0 - eps_prime) ** 2


class TestChordal:
    def test_point_to_itself(self):
        p = np.array([1.3, -0.4])
        assert chordal_distance(p, p) == 0.0
        assert chordal_distance(INFINITY, INFINITY) == 0.0

    def test_origin_to_infinity(self):
        assert chordal_distance(np.zeros(2), INFINITY) == 1.0

    def test_origin_to_unit(self):
        assert chordal_distance(np.zeros(2), np.array([1.0, 0.0])) == pytest.approx(
            1.0 / math.sqrt(2.0)
        )

    def test_symmetry_and_range(self, rng):
        for _ in range(200):
            x = rng.normal(scale=5.0, size=2)
            y = rng.normal(scale=5.0, size=2)
            d = chordal_distance(x, y)
            assert d == chordal_distance(y, x)
            assert 0.0 <= d <= 1.0
            assert 0.0 <= chordal_distance(x, INFINITY) <= 1.0

    def test_triangle_inequality_sampled(self, rng):
        pts = [rng.normal(scale=4.0, size=2) for _ in range(300)] + [INFINITY] * 6
        idx = rng.integers(0, len(pts), size=(20000, 3))
        worst = 0.0
        for i, j, k in idx:
            a, b, c = pts[i], pts[j], pts[k]
            slack = chordal_distance(a, b) + chordal_distance(b, c) - chordal_distance(a, c)
            worst = min(worst, slack)
        assert worst >= -1e-12

    @pytest.mark.parametrize("dim", [2, 3])
    def test_pairs_match_oracle(self, dim):
        # _chordal_pairs is the metric spherical_distortion sweeps; its
        # last row and column are the distances to infinity.
        pts = sample_points(dim, 4.0, 40)
        got = _chordal_pairs(pts, True)
        points = list(pts) + [INFINITY]
        want = np.array([[chordal_distance(x, y) for y in points] for x in points])
        assert got.shape == want.shape == (42, 42)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


class TestDistortion:
    def test_identity(self):
        from bilipfactor.map_engine import Identity

        assert spherical_distortion(Identity()) == pytest.approx(1.0, abs=1e-12)

    def test_small_translation_under_bound(self):
        v = 0.05
        sampled = spherical_distortion(Translation((v, 0.0)))
        assert sampled <= translation_step_bound(v) + 1e-9

    def test_scaling_under_bound(self):
        a = 1.081
        sampled = spherical_distortion(Scaling(a))
        assert sampled <= scaling_step_bound(a) + 1e-9

    def test_lift_bound_mechanism(self, rng):
        # Origin-fixing Euclidean (1+e')-bi-Lipschitz maps stay within the
        # lifted chordal bound on samples.
        eps_prime = 0.05
        from bilipfactor.geometry_core import AffineMapData, rotation_2d
        from bilipfactor.map_engine import Affine

        for _ in range(10):
            sigma = np.exp(rng.uniform(-math.log1p(eps_prime), math.log1p(eps_prime), 2))
            mat = rotation_2d(rng.uniform(-3, 3)) @ np.diag(sigma)
            sampled = spherical_distortion(Affine(AffineMapData(mat, np.zeros(2))), count=100)
            assert sampled <= lift_distortion_bound(eps_prime) + 1e-6


class TestTranslationFactoring:
    def test_zero_vector(self):
        assert factor_translation_sphere(np.zeros(2), 0.1).count == 0

    def test_count_example(self):
        rep = factor_translation_sphere(np.array([10.0, 0.0]), 0.1)
        v0 = 0.1 / 1.1
        assert rep.count == math.ceil(10.0 / v0) == 110
        assert all(s.analytic_bound <= 1.1 + 1e-12 for s in rep.steps)
        assert all(s.sampled <= 1.1 + 1e-6 for s in rep.steps)

    def test_composite_exact(self, rng):
        v = np.array([3.7, -2.1])
        rep = factor_translation_sphere(v, 0.2)
        comp = rep.composite()
        pts = rng.normal(scale=10.0, size=(100, 2))
        assert np.abs(comp.evaluate(pts) - (pts + v)).max() <= 1e-12


class TestScalingFactoring:
    def test_unit(self):
        assert factor_scaling_sphere(1.0, 0.3).count == 0

    def test_count_vs_bisection_oracle(self):
        a0 = solve_scaling_step(0.3)
        assert a0 == pytest.approx(oracle_scaling_step(0.3), abs=1e-9)
        rep = factor_scaling_sphere(16.0, 0.3)
        assert rep.count == math.ceil(math.log(16.0) / math.log(a0) - 1e-12)
        assert all(s.analytic_bound <= 1.3 + 1e-9 for s in rep.steps)
        assert all(s.sampled <= 1.3 + 1e-6 for s in rep.steps)

    def test_shrinking_scale(self, rng):
        rep = factor_scaling_sphere(1.0 / 7.0, 0.25)
        comp = rep.composite()
        pts = rng.normal(scale=3.0, size=(50, 2))
        assert np.abs(comp.evaluate(pts) - pts / 7.0).max() <= 1e-12
        assert all(s.sampled <= 1.25 + 1e-6 for s in rep.steps)

    def test_invalid_inputs(self):
        with pytest.raises(GeometryError):
            factor_scaling_sphere(-2.0, 0.3)
        with pytest.raises(GeometryError):
            factor_translation_sphere(np.array([1.0, 0.0]), 0.0)


class TestLiftBound:
    def test_values(self):
        assert lift_distortion_bound(0.0) == 1.0
        assert lift_distortion_bound(0.1) == pytest.approx(1.1 / 0.81, abs=1e-12)


class TestSamples:
    def test_deterministic_and_spread(self):
        a = sample_points(2, 3.0, 64)
        b = sample_points(2, 3.0, 64)
        assert np.array_equal(a, b)
        assert np.max(np.linalg.norm(a, axis=1)) <= 3.0 + 1e-12
        a3 = sample_points(3, 2.0, 64)
        assert a3.shape == (65, 3)
