from __future__ import annotations

import math

import numpy as np
import pytest

from bilipfactor.geometry_core import AffineMapData, Cube, rotation_2d, rotation_3d
from bilipfactor.map_engine import (
    Affine,
    DomainError,
    Identity,
    LogSpiral,
    MapExpr,
    estimate_distortion,
    sup_distance,
)
from bilipfactor.pl_approx import (
    complexity_count,
    freudenthal,
    pl_interpolate,
    verify_pl,
)

from conftest import random_orientation_preserving

UNIT2 = Cube((0.5, 0.5), 1.0)


class TestFreudenthal:
    def test_cell_counts(self):
        assert freudenthal(2, 1.0, (np.zeros(2), np.ones(2))).n_simplices == 2
        assert freudenthal(3, 1.0, (np.zeros(3), np.ones(3))).n_simplices == 6

    def test_simplex_diameter(self):
        for d in (2, 3):
            tri = freudenthal(d, 0.2, (np.zeros(d), np.ones(d)))
            assert tri.simplex_diameter == pytest.approx(0.2 * math.sqrt(d))
        # diameter eta/4 corresponds to pitch eta / (4 sqrt(d))
        eta = 0.1
        tri = freudenthal(2, eta / (4 * math.sqrt(2)), (np.zeros(2), np.ones(2)))
        assert tri.simplex_diameter == pytest.approx(eta / 4)

    def test_offsets_partition_cell(self):
        # The d! simplices tile the unit cell: their volumes sum to 1.
        for d in (2, 3):
            tri = freudenthal(d, 1.0, (np.zeros(d), np.ones(d)))
            offs = tri.simplex_vertex_offsets().astype(float)
            total = 0.0
            for s in offs:
                total += abs(np.linalg.det(s[1:] - s[0])) / math.factorial(d)
            assert total == pytest.approx(1.0)


class TestInterpolate:
    def test_affine_is_exact(self, rng):
        am = AffineMapData(random_orientation_preserving(rng, 2, 2.0), rng.normal(size=2))
        pl = pl_interpolate(Affine(am), freudenthal(2, 0.25, UNIT2))
        assert np.abs(pl.matrices - am.matrix).max() < 1e-12
        pts = rng.uniform(0.05, 0.95, size=(100, 2))
        assert np.abs(pl.as_map().evaluate(pts) - am.apply(pts)).max() < 1e-12

    def test_rotation_unit_constants(self):
        rot = Affine(AffineMapData(rotation_2d(0.6), np.zeros(2)))
        pl = pl_interpolate(rot, freudenthal(2, 0.1, UNIT2))
        assert pl.constants.max() == pytest.approx(1.0, abs=1e-12)
        assert np.all(pl.orientations == 1)

    def test_rotation_3d(self):
        rot = Affine(AffineMapData(rotation_3d([1.0, 1.0, 0.0], 0.4), np.zeros(3)))
        pl = pl_interpolate(rot, freudenthal(3, 0.25, Cube((0.5, 0.5, 0.5), 1.0)))
        assert pl.constants.max() == pytest.approx(1.0, abs=1e-12)
        assert np.all(pl.orientations == 1)

    def test_logspiral_sup_bound(self):
        eta = 0.1
        box = Cube((1.0, 1.0), 1.0)  # [0.5, 1.5]^2
        tri = freudenthal(2, eta / (4 * math.sqrt(2)), box)
        pl = pl_interpolate(LogSpiral(0.05), tri)
        err = sup_distance(pl.as_map(), LogSpiral(0.05), box, tri.pitch / 2)
        assert err <= eta

    def test_outside_triangulation_is_domain_error(self):
        g = pl_interpolate(Identity(), freudenthal(2, 0.25, UNIT2)).as_map()
        with pytest.raises(DomainError, match="outside its triangulation"):
            g(np.array([1.5, 0.5]))

    def test_continuity_across_faces(self, rng):
        pl = pl_interpolate(LogSpiral(0.2), freudenthal(2, 0.2, Cube((1.5, 0.5), 1.0)))
        g = pl.as_map()
        # Points on interior cell edges evaluate consistently from both sides.
        for x in np.linspace(1.05, 1.95, 7):
            p = np.array([x, 0.5])
            left = g(p - np.array([1e-12, 0.0]))
            right = g(p + np.array([1e-12, 0.0]))
            assert np.linalg.norm(left - right) < 1e-9


class TestVerify:
    def test_rotation_all_verdicts(self):
        rot = Affine(AffineMapData(rotation_2d(0.4), np.zeros(2)))
        pl = pl_interpolate(rot, freudenthal(2, 0.05, UNIT2))
        v = verify_pl(pl, 0.05)
        assert v.lipschitz_ok and v.injective_ok and v.surjective_spotcheck_ok
        assert v.n_unresolved <= 0.001 * v.n_targets

    def test_logspiral_all_verdicts(self):
        eta = 0.1
        tri = freudenthal(2, eta / (4 * math.sqrt(2)), Cube((1.0, 1.0), 1.0))
        pl = pl_interpolate(LogSpiral(0.05), tri)
        v = verify_pl(pl, 0.2)
        assert v.lipschitz_ok and v.injective_ok and v.surjective_spotcheck_ok

    def test_fold_fails(self):
        class Fold(MapExpr):
            def evaluate(self, pts):
                out = np.array(pts, copy=True)
                out[..., 0] = np.abs(out[..., 0])
                return out

        pl = pl_interpolate(Fold(), freudenthal(2, 0.125, Cube((0.0, 0.0), 2.0)))
        v = verify_pl(pl, 0.2)
        assert (not v.lipschitz_ok) or (not v.injective_ok)
        assert v.min_orientation == -1

    def test_global_lipschitz_matches_per_simplex(self):
        # Sampled global estimate stays within the per-simplex bound.
        eps = 0.05
        tri = freudenthal(2, 0.05, UNIT2)
        pl = pl_interpolate(LogSpiral(0.03), tri)
        assert np.all(pl.constants <= 1 + 2 * eps + 1e-9)
        cert = estimate_distortion(pl.as_map(), Cube((0.5, 0.5), 0.9), 0.05)
        assert cert.L_lo <= 1 + 2 * eps + 1e-6


class TestComplexity:
    def test_counts(self):
        pl = pl_interpolate(Identity(), freudenthal(2, 0.25, UNIT2))
        assert complexity_count(pl) == 32
        pl3 = pl_interpolate(Identity(), freudenthal(3, 0.5, Cube((0.5, 0.5, 0.5), 1.0)))
        assert complexity_count(pl3) == 48

    def test_halving_eta_scales_by_two_to_d(self):
        for d in (2, 3):
            box = Cube((0.5,) * d, 1.0)
            counts = []
            for eta in (0.4, 0.2, 0.1):
                tri = freudenthal(d, eta / (4 * math.sqrt(d)), box)
                counts.append(complexity_count(pl_interpolate(Identity(), tri)))
            for a, b in zip(counts, counts[1:]):
                assert 0.8 * 2**d <= b / a <= 1.25 * 2**d


class TestPolarizationBound:
    def test_vertex_bilip_data_gives_small_affine_constant(self, rng):
        # For random maps that are (1+eps)-bi-Lipschitz on simplex vertices,
        # the interpolated affine piece is (1+2 eps)-bi-Lipschitz.
        eps = 0.05
        ok = 0
        trials = 0
        for _ in range(200):
            mat = random_orientation_preserving(rng, 2, 1.0 + eps)
            shift = rng.normal(size=2)
            pl = pl_interpolate(
                Affine(AffineMapData(mat, shift)), freudenthal(2, 1.0, (np.zeros(2), np.ones(2)))
            )
            trials += 1
            ok += int(np.all(pl.constants <= 1 + 2 * eps + 1e-12))
        assert ok == trials
