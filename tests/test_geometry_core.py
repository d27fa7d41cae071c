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
    bilip_constants,
    cube_lattice,
    cube_lattices,
    linear_dilatation,
    pseudo_distance,
    rotation_2d,
    rotation_3d,
    svd,
    unit_cube_dyadics,
)

from conftest import random_orientation_preserving, random_rotation


def reference_bilip(m) -> float:
    """bilip_constant through svd(): max(sigma_0, 1/sigma_-1) of its sorted singular values."""
    dec = svd(m)
    if not all(map(math.isfinite, dec.sigma)):
        raise GeometryError("not bi-Lipschitz: singular values overflow")
    if dec.degenerate or dec.sigma[-1] == 0.0:
        raise GeometryError("not bi-Lipschitz: singular matrix")
    return float(max(dec.sigma[0], 1.0 / dec.sigma[-1]))


def _bits(x: float) -> int:
    return int(np.float64(x).view(np.int64))


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
        with pytest.raises(GeometryError, match="not bi-Lipschitz: singular matrix"):
            bilip_constant(np.diag([1.0, 0.0]))
        with pytest.raises(GeometryError, match="not bi-Lipschitz: singular matrix"):
            bilip_constant(np.diag([1.0, 0.0, 2.0]))

    def test_closed_form_equals_svd(self):
        # 2x2 matrices take sigma_2d, not svd(); L must keep svd()'s bits,
        # scalar and stacked, and the raising cases their messages.
        gen = np.random.default_rng(20260)
        ms = gen.normal(size=(10_000, 2, 2)) * gen.choice([1e-3, 1.0, 1e3], size=(10_000, 1, 1))
        ms[1::5] = ms[1::5, ::-1]  # rows swapped: the determinant changes sign
        ms[2::5, [0, 1], [1, 0]] = 0.0  # diagonal
        ms[3::5, 1] = ms[3::5, 0] * gen.uniform(-2, 2, size=(2000, 1)) + gen.normal(size=(2000, 2)) * 1e-9
        ms[4::50, 1] = ms[4::50, 0] * 0.5  # singular
        stacked = bilip_constants(ms)
        singular = 0
        for m, got in zip(ms, stacked):
            (a, b), (c, d) = m.tolist()
            q, r = math.hypot((a + d) / 2.0, (c - b) / 2.0), math.hypot((a - d) / 2.0, (c + b) / 2.0)
            assert svd(m).sigma.tolist() == [q + r, abs(q - r)]  # math.hypot, not np.hypot
            try:
                want = reference_bilip(m)
            except GeometryError as e:
                singular += 1
                assert math.isnan(got)
                with pytest.raises(GeometryError, match=str(e)):
                    bilip_constant(m)
                continue
            assert _bits(bilip_constant(m)) == _bits(want) == _bits(got)
        assert 0 < singular < 1000
        assert (np.linalg.det(ms) < 0).sum() > 4000

    def test_stacked_3d_equals_scalar(self, rng):
        ms = rng.normal(size=(200, 3, 3))
        ms[::20, 2] = ms[::20, 0]
        want = []
        for m in ms:
            try:
                want.append(bilip_constant(m))
            except GeometryError:
                want.append(math.nan)
        assert np.array_equal(bilip_constants(ms), want, equal_nan=True)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_singular_values_rejected(self):
        # The SVD overflows to sigma = [inf, nan]; NaN must not pass the
        # degenerate test and come back as L = inf.
        huge = np.full((2, 2), 1e308)
        assert not np.all(np.isfinite(svd(huge).sigma))
        with pytest.raises(GeometryError, match="not bi-Lipschitz: singular values overflow"):
            bilip_constant(huge)
        assert math.isnan(bilip_constants(huge[None])[0])
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
        kids = q.children()
        assert len(kids) == 4
        assert all(k.level == 1 for k in kids)
        # Children tile the parent exactly.
        assert sum(k.volume for k in kids) == q.volume

    def test_ancestor_roundtrip(self):
        q = DyadicCube(0, (0, 0))
        child = q.children()[2]
        assert child.ancestor(1) == q

    def test_3d_level2(self):
        q = DyadicCube(2, (1, 2, 3))
        kids = q.children()
        assert len(kids) == 8
        assert all(k.side == 0.125 for k in kids)

    def test_negative_request(self):
        with pytest.raises(GeometryError):
            DyadicCube(1, (0, 0)).ancestor(-1)
        with pytest.raises(GeometryError):
            DyadicCube(1, (0, 0)).ancestor(2)

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


class TestCubeLattices:
    @staticmethod
    def meshgrid_lattice(center, side, n):
        """One linspace per axis between the cube's corners, then meshgrid in "ij" order."""
        c = Cube(center, side)
        axes = [np.linspace(c.lo()[k], c.hi()[k], n) for k in range(c.dim)]
        return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)

    @pytest.mark.parametrize("d,n", [(2, 9), (3, 5), (2, 2)])
    def test_each_lattice_has_its_own_linspace_bits(self, d, n):
        rng = np.random.default_rng(40 + d + n)
        centers = rng.normal(size=(11, d)) * 10.0 ** rng.uniform(-3, 3, size=(11, 1))
        sides = 10.0 ** rng.uniform(-4, 3, size=11)
        pts = cube_lattices(centers, sides, n)
        assert pts.shape == (11, n**d, d)
        for i in range(11):
            want = self.meshgrid_lattice(tuple(centers[i]), sides[i], n)
            assert np.array_equal(pts[i].view(np.int64), want.view(np.int64))

    def test_cube_lattice_is_the_single_cube_case(self):
        q = Cube((0.3, -1.7, 2.0), 0.37)
        pts, pitch = cube_lattice(q, q.side / 4)
        assert pitch == q.side / 4
        assert np.array_equal(pts, self.meshgrid_lattice(q.center, q.side, 5))
