from __future__ import annotations

import math

import numpy as np
import pytest

from bilipfactor.geometry_core import AffineMapData, Cube, GeometryError, cube_lattice, rotation_2d
from bilipfactor.map_engine import (
    Affine,
    Blend,
    BlendRun,
    CertificationError,
    Compose,
    DomainError,
    Grid,
    Identity,
    LogSpiral,
    Scaling,
    Translation,
    affine_fit_samples,
    almost_affine_fit,
    blend_weight,
    estimate_distortion,
    sup_distance,
)

from conftest import small_rotation_blend
from test_corona import blend_3d


def brute_force_distortion(m, region: Cube, h: float) -> float:
    """Independent dense pair sweep (no shared code with the estimator kernel)."""
    pts, _ = cube_lattice(region, h)
    imgs = m.evaluate(pts)
    dx = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    dy = np.linalg.norm(imgs[:, None, :] - imgs[None, :, :], axis=2)
    mask = dx > 0
    r = dy[mask] / dx[mask]
    return float(np.max(np.maximum(r, 1.0 / r)))


class TestEvaluate:
    def test_identity(self):
        assert np.allclose(Identity()([0.3, 0.7]), [0.3, 0.7])

    def test_logspiral_polar_form(self):
        k = 0.7
        for r in (0.5, 1.0, 2.0):
            out = LogSpiral(k)([r, 0.0])
            ang = k * math.log(r)
            assert np.allclose(out, [r * math.cos(ang), r * math.sin(ang)], atol=1e-14)
        assert np.allclose(LogSpiral(k)([0.0, 0.0]), [0.0, 0.0])

    def test_compose_right_to_left(self):
        comp = Compose(
            (Affine(AffineMapData(np.diag([2.0, 1.0]), np.zeros(2))), Translation((1.0, 0.0)))
        )
        assert np.allclose(comp([0.0, 0.0]), [2.0, 0.0])

    def test_grid_interpolation_and_domain(self):
        xs = np.linspace(0.0, 1.0, 5)
        g = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1)
        vals = 2.0 * g  # samples of x -> 2x
        gm = Grid(np.zeros(2), 0.25, (5, 5), vals)
        pts = np.random.default_rng(0).uniform(0, 1, size=(50, 2))
        assert np.abs(gm.evaluate(pts) - 2.0 * pts).max() < 1e-12
        with pytest.raises(DomainError):
            gm([2.0, 0.5])

    def test_blend_regions(self):
        bl = Blend(Translation((0.5, 0.0)), Cube((0.0, 0.0), 1.0), 2.0)
        assert np.allclose(bl([0.2, 0.1]), [0.7, 0.1])  # w = 1 on the cube
        assert np.allclose(bl([5.0, 5.0]), [5.0, 5.0])  # identity outside lam cube
        w = blend_weight(np.array([[0.75, 0.0]]), Cube((0.0, 0.0), 1.0), 2.0)
        assert 0.0 < w[0] < 1.0

    @pytest.mark.parametrize("lam", [math.inf, math.nan, 1.0])
    def test_blend_refuses_lambda_outside_one_to_inf(self, lam):
        # An infinite lambda would make every weight inf/inf = NaN: the blend would act as the identity.
        with pytest.raises(GeometryError, match="blend lambda must be finite and > 1"):
            Blend(Translation((0.5, 0.0)), Cube((0.0, 0.0), 1.0), lam)


def catalogue() -> list[tuple[str, MapExpr, int]]:
    """(id, map, dimension) for every map type of the catalogue."""
    axis = np.linspace(0.0, 1.0, 5)
    lattice = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1)
    run = BlendRun(
        centers=np.array([[0.5, 0.5], [0.4, 0.6], [0.55, 0.45]]),
        sides=np.array([0.4, 0.3, 0.5]),
        lams=np.array([2.0, 1.5, 1.8]),
        shifts=np.array([[0.01, -0.02], [0.0, 0.03], [-0.01, 0.0]]),
        matrices=np.stack([rotation_2d(t) for t in (0.01, -0.02, 0.015)]),
    )
    return [
        *((f"logspiral-{k}", LogSpiral(k), 2) for k in (0.05, 0.3, 1.0, -2.5)),
        ("identity", Identity(), 3),
        ("translation", Translation((0.07, -0.03)), 2),
        ("scaling", Scaling(1.3), 3),
        ("affine", Affine(AffineMapData(np.array([[1.2, 0.1], [-0.3, 0.9]]), np.array([0.1, 0.2]))), 2),
        ("grid", Grid(np.zeros(2), 0.25, (5, 5), lattice**2 + 0.1 * lattice[..., ::-1]), 2),
        ("blend", small_rotation_blend((0.5, 0.5), 0.01, side=0.4), 2),
        ("blend-3d", blend_3d(), 3),
        ("blend-run", run, 2),
        ("compose", Compose((small_rotation_blend((0.4, 0.6), 0.005), LogSpiral(0.02))), 2),
    ]


class TestEvaluateEach:
    @pytest.mark.parametrize("m, dim", [c[1:] for c in catalogue()], ids=[c[0] for c in catalogue()])
    def test_equals_per_row_evaluate(self, m, dim):
        # Centre images of stacked fits come from one evaluate_each call, and
        # must carry the bits of each row evaluated alone, origin included.
        gen = np.random.default_rng(31)
        for n in (1, 3, 8, 9, 17, 100, 1000):
            pts = gen.uniform(0.0, 1.0, size=(n, dim))
            pts[n // 2] = 0.0
            alone = np.array([m.evaluate(p[None])[0] for p in pts])
            assert np.array_equal(m.evaluate_each(pts).view(np.int64), alone.view(np.int64))


class TestEstimateDistortion:
    def test_identity(self):
        cert = estimate_distortion(Identity(), Cube((0.0, 0.0), 1.0), 0.25)
        assert cert.L_lo == 1.0

    def test_exact_affine_branch(self):
        cert = estimate_distortion(
            Affine(AffineMapData(np.diag([2.0, 0.5]), np.zeros(2))), Cube((0.0, 0.0), 1.0), 0.5
        )
        assert cert.method == "exact-affine"
        assert cert.L_lo == pytest.approx(2.0, abs=1e-12)

    def test_logspiral_vs_dense_oracle(self):
        region = Cube((0.75, 0.0), 0.4)
        cert = estimate_distortion(LogSpiral(0.5), region, 0.01)
        oracle = brute_force_distortion(LogSpiral(0.5), region, 0.005)
        assert cert.L_lo <= oracle + 1e-12  # lower bound
        assert abs(cert.L_lo - oracle) <= 1e-3

    def test_monotone_under_refinement(self):
        maps = [LogSpiral(0.4), Blend(Translation((0.1, 0.0)), Cube((0.0, 0.0), 0.5), 2.0),
                Compose((LogSpiral(0.2), Scaling(1.2)))]
        region = Cube((0.6, 0.1), 0.5)
        for m in maps:
            values = [estimate_distortion(m, region, h).L_lo for h in (0.1, 0.05, 0.025)]
            assert values[0] <= values[1] + 1e-12 <= values[2] + 2e-12

    def test_sampled_equals_exact_for_affine_via_force(self):
        # Wrapping in a Blend with huge cube keeps it non-affine structurally
        # but affine on the sampled window: sampled == exact constant.
        am = AffineMapData(rotation_2d(0.4) @ np.diag([1.5, 0.8]), np.zeros(2))
        big = Blend(Affine(am), Cube((0.0, 0.0), 100.0), 2.0)
        region = Cube((0.0, 0.0), 1.0)
        for h in (0.5, 0.25):
            cert = estimate_distortion(big, region, h)
            assert cert.method == "sampled-pairs"
            assert cert.L_lo == pytest.approx(1.5, abs=1e-9)  # max(1.5, 1/0.8)

    def test_coincident_images_error(self):
        from bilipfactor.map_engine import MapExpr

        class Collapse(MapExpr):
            def evaluate(self, pts):
                out = np.array(pts, copy=True)
                out[:, 0] = 0.0
                return out

        with pytest.raises(CertificationError, match="not injective"):
            estimate_distortion(Collapse(), Cube((0.0, 0.0), 1.0), 0.5)


class TestSupDistance:
    def test_same_map(self):
        assert sup_distance(LogSpiral(0.2), LogSpiral(0.2), Cube((0.6, 0.0), 0.4), 0.05) == 0.0

    def test_translation_offset(self):
        v = sup_distance(Identity(), Translation((0.1, 0.0)), Cube((0.0, 0.0), 1.0), 0.25)
        assert v == pytest.approx(0.1, abs=1e-12)

    def test_logspiral_vs_pl_interpolation(self):
        from bilipfactor.pl_approx import freudenthal, pl_interpolate

        eta = 0.05
        box = Cube((1.0, 1.0), 1.0)
        tri = freudenthal(eta / (4 * np.sqrt(2)), box)
        pl = pl_interpolate(LogSpiral(0.2), tri)
        assert sup_distance(pl, LogSpiral(0.2), box, tri.pitch / 2) <= eta


class TestStackedLstsq:
    def test_gufunc_matches_lstsq_per_matrix(self, rng):
        # affine_fit_samples relies on the private gufunc behind np.linalg.lstsq
        # taking a (k, n, d+1) stack; each solve must keep the public bits.
        for d in (2, 3):
            design = np.concatenate([rng.normal(size=(6, 40, d)), np.ones((6, 40, 1))], axis=2)
            design[1, :, 1] = design[1, :, 0]  # rank deficient
            imgs = rng.normal(size=(6, 40, d))
            rcond = np.finfo(float).eps * 40
            sol, _, rank, sv = np.linalg._umath_linalg.lstsq(design, imgs, rcond, signature="ddd->ddid")
            for i in range(6):
                want = np.linalg.lstsq(design[i], imgs[i], rcond=None)
                assert sol[i].tobytes() == want[0].tobytes()
                assert rank[i] == want[2] == (d if i == 1 else d + 1)
                assert sv[i].tobytes() == want[3].tobytes()

    def test_rank_and_failed_solve(self):
        pts = np.array([[[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]])
        *_, rank = affine_fit_samples(pts, pts, np.zeros((2, 2)), np.zeros((2, 2)))
        assert rank.tolist() == [2, 3]
        bad = pts.copy()
        bad[1, 0, 0] = np.nan
        with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
            np.linalg.lstsq(np.hstack([bad[1], np.ones((3, 1))]), pts[1], rcond=None)
        with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
            affine_fit_samples(bad, pts, np.zeros((2, 2)), np.zeros((2, 2)))


class TestAlmostAffineFit:
    def test_affine_exact(self, rng):
        am = AffineMapData(rng.normal(size=(2, 2)) + 2 * np.eye(2), rng.normal(size=2))
        for side, h in ((0.25, 0.05), (1.0, 0.2)):
            a, res = almost_affine_fit(Affine(am), Cube((0.3, 0.4), side), h)
            assert res <= 1e-12
            assert np.abs(a.matrix - am.matrix).max() < 1e-9

    def test_anchored_at_center(self):
        q = Cube((1.0, 0.0), 0.1)
        m = LogSpiral(0.3)
        a, _ = almost_affine_fit(m, q, 0.01)
        assert np.abs(a.apply(np.asarray(q.center)) - m(np.asarray(q.center))).max() < 1e-12

    def test_logspiral_residual_small_far_cube(self):
        a, res = almost_affine_fit(LogSpiral(0.3), Cube((1.0, 0.0), 0.1), 0.01)
        assert res <= 0.05

    def test_residual_monotone_toward_singularity(self):
        _, res_far = almost_affine_fit(LogSpiral(0.3), Cube((1.0, 0.0), 0.1), 0.01)
        _, res_near = almost_affine_fit(LogSpiral(0.3), Cube((0.5, 0.0), 0.9), 0.05)
        assert res_near > res_far

    def test_dense_lattice_oracle(self):
        # Residual at the build pitch is a lower bound for the finer-pitch sup.
        q = Cube((1.0, 0.0), 0.1)
        a, res = almost_affine_fit(LogSpiral(0.3), q, 0.02)
        lo = np.asarray(q.center) - q.side
        hi = np.asarray(q.center) + q.side
        fine = np.stack(
            np.meshgrid(*[np.linspace(lo[k], hi[k], 41) for k in range(2)], indexing="ij"), axis=-1
        ).reshape(-1, 2)
        sup_fine = np.max(np.linalg.norm(LogSpiral(0.3).evaluate(fine) - a.apply(fine), axis=1))
        assert sup_fine / q.diam <= 0.05
