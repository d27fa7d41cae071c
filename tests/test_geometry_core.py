from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from bilipfactor.geometry_core import (
    AffineMapData,
    Cube,
    GeometryError,
    SVD_TOL,
    bilip_constant,
    bilip_constants,
    cube_lattice,
    cube_lattices,
    polyline_length,
    rotation_2d,
    row_norms,
    svd,
    unit_cube_dyadics,
)

from conftest import random_orientation_preserving


def reference_bilip(m) -> float:
    """bilip_constant through svd(): max(sigma_0, 1/sigma_-1) of its sorted singular values."""
    dec = svd(m)
    if not all(map(math.isfinite, dec.sigma)):
        raise GeometryError("not bi-Lipschitz: singular values overflow")
    if not dec.sigma[-1] > SVD_TOL * (dec.sigma[0] if dec.sigma[0] > 0 else 1.0):
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
            assert np.abs(dec.u @ np.diag(dec.sigma) @ dec.v_t - m).max() <= 1e-12 * scale
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

    def test_submultiplicative_bilip(self, rng):
        for _ in range(1000):
            a = random_orientation_preserving(rng, 2, 3.0)
            b = random_orientation_preserving(rng, 2, 3.0)
            assert bilip_constant(a @ b) <= bilip_constant(a) * bilip_constant(b) + 1e-9


class TestDyadic:
    def test_level_counts_and_tiling(self):
        # The level's corner coords as int64 rows, in C order: each cube once.
        for d, k in ((2, 0), (2, 3), (3, 2)):
            cubes = unit_cube_dyadics(d, k)
            assert cubes.dtype == np.int64 and cubes.shape == (2 ** (k * d), d)
            assert cubes.tolist() == [list(x) for x in itertools.product(range(2**k), repeat=d)]
            assert np.array_equal(cubes, np.indices((2**k,) * d).reshape(d, -1).T)

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


class TestRowNorms:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_equals_numpy_norm_in_bits(self, d, seed):
        # Squares added in order are NumPy's sum for fewer than 8 terms, on any
        # stack shape and with the special values mixed into the coordinates.
        gen = np.random.default_rng(2700 + 10 * d + seed)
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, math.inf, -math.inf, math.nan,
                            1e154, 1e-160, -1.7e308])
        for shape in [(1,), (257,), (7, 33), (3, 4, 5)]:
            v = gen.normal(size=shape + (d,)) * 10.0 ** gen.integers(-170, 170, size=shape + (d,))
            pick = gen.random(v.shape) < 0.3
            v[pick] = gen.choice(special, size=int(pick.sum()))
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                got, want = row_norms(v), np.linalg.norm(v, axis=-1)
            assert got.shape == want.shape == shape
            assert got.tobytes() == want.tobytes()

    def test_coordinate_rows_view(self):
        # A transposed (non-contiguous) stack gives the same bits.
        v = np.random.default_rng(27).normal(size=(3, 400)).T
        assert row_norms(v).tobytes() == np.linalg.norm(v, axis=1).tobytes()


class TestPolylineLength:
    def test_sums_segment_lengths(self):
        assert polyline_length(np.array([[0.0, 0.0]])) == 0.0
        assert polyline_length(np.array([[0.0, 0.0], [3.0, 4.0], [3.0, 0.0], [3.0, 0.0]])) == 9.0
        assert polyline_length(np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 2.0]])) == 3.0

    def test_overflow_gives_inf(self):
        with np.errstate(over="ignore"):
            assert polyline_length(np.array([[0.0, 0.0], [1e308, 1e308]])) == math.inf
