from __future__ import annotations

import math

import numpy as np
import pytest

from bilipfactor.geometry_core import (
    AffineMapData,
    Cube,
    DyadicCube,
    GeometryError,
    bilip_constant,
    dyadic_ancestor,
    dyadic_children,
    linear_dilatation,
    pseudo_distance,
    rotation_2d,
    rotation_3d,
    svd,
    unit_cube_dyadics,
)

from conftest import random_orientation_preserving, random_rotation


class TestSvd:
    def test_identity(self):
        dec = svd(np.eye(2))
        assert np.allclose(dec.u, np.eye(2))
        assert np.allclose(dec.sigma, [1.0, 1.0])
        assert np.allclose(dec.v_t, np.eye(2))

    def test_diagonal_by_hand(self):
        # Eigenvalues of A^T A for diag(2, 1/2) are 4 and 1/4.
        dec = svd(np.diag([2.0, 0.5]))
        assert np.allclose(dec.sigma, [2.0, 0.5], atol=1e-14)

    def test_rotation(self):
        r = rotation_2d(np.pi / 2)
        dec = svd(r)
        assert np.allclose(dec.sigma, [1.0, 1.0], atol=1e-14)
        assert np.abs(dec.u @ dec.v_t - r).max() < 1e-12

    def test_reconstruction_and_conventions(self, rng):
        for i in range(1000):
            d = 2 if i % 2 == 0 else 3
            m = rng.normal(size=(d, d)) * rng.choice([1e-2, 1.0, 1e2])
            dec = svd(m)
            scale = max(np.abs(m).max(), 1e-300)
            assert np.abs(dec.reconstruct() - m).max() <= 1e-12 * scale
            assert np.abs(dec.u @ dec.u.T - np.eye(d)).max() < 1e-12
            assert np.abs(dec.v_t @ dec.v_t.T - np.eye(d)).max() < 1e-12
            assert np.all(np.diff(dec.sigma) <= 1e-15)
            assert np.linalg.det(dec.v_t) > 0
            if np.linalg.det(m) > 0:
                assert np.linalg.det(dec.u) > 0

    def test_against_lapack_singular_values(self, rng):
        for i in range(500):
            d = 2 + (i % 2)
            m = rng.normal(size=(d, d))
            ours = svd(m).sigma
            ref = np.linalg.svd(m, compute_uv=False)
            assert np.abs(ours - ref).max() <= 1e-10 * max(1.0, ref[0])

    def test_degenerate_flag(self):
        assert svd(np.diag([1.0, 0.0])).degenerate
        assert not svd(np.eye(3)).degenerate


class TestScalars:
    def test_bilip_examples(self):
        assert bilip_constant(np.eye(2)) == 1.0
        assert bilip_constant(np.diag([2.0, 0.5])) == pytest.approx(2.0, abs=1e-12)
        assert bilip_constant(np.diag([4.0, 1.0])) == pytest.approx(4.0, abs=1e-12)

    def test_bilip_singular(self):
        with pytest.raises(GeometryError, match="not bi-Lipschitz"):
            bilip_constant(np.diag([1.0, 0.0]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_singular_values_rejected(self):
        # The SVD overflows to sigma = [inf, nan]; NaN must not pass the
        # degenerate test and come back as L = inf.
        huge = np.full((2, 2), 1e308)
        assert not np.all(np.isfinite(svd(huge).sigma))
        with pytest.raises(GeometryError, match="overflow"):
            bilip_constant(huge)
        with pytest.raises(GeometryError, match="overflow"):
            linear_dilatation(huge)

    def test_dilatation_examples(self):
        assert linear_dilatation(np.eye(2)) == 1.0
        assert linear_dilatation(np.diag([2.0, 0.5])) == pytest.approx(4.0, abs=1e-12)
        assert linear_dilatation(rotation_2d(1.1)) == pytest.approx(1.0, abs=1e-12)

    def test_dilatation_inverse_symmetry(self, rng):
        for _ in range(200):
            m = random_orientation_preserving(rng, 2, 5.0)
            assert linear_dilatation(m) == pytest.approx(
                linear_dilatation(np.linalg.inv(m)), rel=1e-9
            )

    def test_pseudo_distance(self, rng):
        assert pseudo_distance(np.diag([2.0, 3.0]), np.diag([2.0, 3.0])) == pytest.approx(1.0)
        assert pseudo_distance(np.eye(2), np.diag([2.0, 0.5])) == pytest.approx(4.0, abs=1e-9)
        assert pseudo_distance(rotation_2d(0.7), np.eye(2)) == pytest.approx(1.0, abs=1e-9)
        for _ in range(100):
            s = random_orientation_preserving(rng, 2, 4.0)
            t = random_orientation_preserving(rng, 2, 4.0)
            assert pseudo_distance(s, t) == pytest.approx(pseudo_distance(t, s), rel=1e-9)
            assert pseudo_distance(s, t) >= 1.0 - 1e-12
        # Equality holds exactly for conformal S^-1 T.
        s = rotation_2d(0.3)
        t = 2.5 * rotation_2d(-0.9)
        assert pseudo_distance(s, t) == pytest.approx(1.0, abs=1e-9)

    def test_submultiplicative_bilip(self, rng):
        for _ in range(1000):
            a = random_orientation_preserving(rng, 2, 3.0)
            b = random_orientation_preserving(rng, 2, 3.0)
            assert bilip_constant(a @ b) <= bilip_constant(a) * bilip_constant(b) + 1e-9


class TestDyadic:
    def test_children_level0(self):
        q = DyadicCube(0, (0, 0))
        kids = dyadic_children(q)
        assert len(kids) == 4
        assert all(k.level == 1 for k in kids)
        # Children tile the parent exactly.
        assert sum(k.volume for k in kids) == q.volume

    def test_ancestor_roundtrip(self):
        q = DyadicCube(0, (0, 0))
        child = dyadic_children(q)[2]
        assert dyadic_ancestor(child, 1) == q

    def test_3d_level2(self):
        q = DyadicCube(2, (1, 2, 3))
        kids = dyadic_children(q)
        assert len(kids) == 8
        assert all(k.side == 0.125 for k in kids)

    def test_negative_request(self):
        with pytest.raises(GeometryError):
            dyadic_ancestor(DyadicCube(1, (0, 0)), -1)
        with pytest.raises(GeometryError):
            dyadic_ancestor(DyadicCube(1, (0, 0)), 2)

    def test_level_counts_and_tiling(self):
        for d, k in ((2, 3), (3, 2)):
            cubes = unit_cube_dyadics(d, k)
            assert len(cubes) == 2 ** (k * d)
            assert sum(q.volume for q in cubes) == 1

    def test_cube_dilate(self):
        c = Cube((0.5, 0.5), 1.0)
        assert c.dilate(3.0).side == 3.0
        assert c.dilate(3.0).center == c.center

    def test_affine_map_data(self):
        a = AffineMapData(np.diag([2.0, 1.0]), [1.0, 0.0])
        assert np.allclose(a.apply(np.zeros(2)), [1.0, 0.0])
        inv = a.inverse()
        pts = np.random.default_rng(0).normal(size=(10, 2))
        assert np.abs(inv.apply(a.apply(pts)) - pts).max() < 1e-12
