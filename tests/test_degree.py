from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest

from bilipfactor.degree import DegreeError, degree_winding_2d
from bilipfactor.geometry_core import AffineMapData, Cube, rotation_2d
from bilipfactor.map_engine import Affine, Blend, Identity, MapExpr
from bilipfactor.pl_approx import degree_pl, freudenthal, pl_interpolate

from conftest import random_orientation_preserving


@dataclass(frozen=True)
class ComplexPower(MapExpr):
    n: int

    def evaluate(self, pts):
        z = pts[..., 0] + 1j * pts[..., 1]
        w = z**self.n
        return np.stack([w.real, w.imag], axis=-1)


def square_ring(cube: Cube) -> np.ndarray:
    return cube.vertices()[[0, 1, 3, 2, 0]]


UNIT = Cube((0.5, 0.5), 1.0)


class TestDegreePL:
    def test_identity_square(self):
        pl = pl_interpolate(Identity(), freudenthal(0.25, UNIT))
        assert degree_pl(pl, np.array([0.5, 0.5])) == 1

    def test_reflection(self):
        swap = Affine(AffineMapData(np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros(2)))
        pl = pl_interpolate(swap, freudenthal(0.25, UNIT))
        assert degree_pl(pl, np.array([0.4, 0.6])) == -1

    def test_squaring_map_degree_two(self):
        box = Cube((0.0, 0.0), 2.0)
        pl = pl_interpolate(ComplexPower(2), freudenthal(0.05, box))
        y = np.array([0.0131, 0.0071])  # regular value near 0
        assert degree_pl(pl, y) == 2
        # Independent oracle: winding of the PL map over the box boundary.
        assert degree_winding_2d(pl, y, square_ring(Cube((0.0, 0.0), 1.9))) == 2


class TestWinding:
    def test_identity_square(self):
        assert degree_winding_2d(Identity(), np.array([0.3, 0.2]), square_ring(UNIT)) == 1

    def test_outside_target(self):
        assert degree_winding_2d(Identity(), np.array([5.0, 5.0]), square_ring(UNIT)) == 0

    def test_cubing_map(self):
        th = np.linspace(0.0, 2.0 * math.pi, 257)
        circle = np.stack([np.cos(th), np.sin(th)], axis=-1)
        assert degree_winding_2d(ComplexPower(3), np.zeros(2), circle) == 3

    def test_target_on_boundary_rejected(self):
        with pytest.raises(DegreeError):
            degree_winding_2d(Identity(), np.array([0.5, 1.0]), square_ring(UNIT))


class TestOracleAgreement:
    def test_simplex_sum_vs_winding_random_pl(self):
        # 200 random near-identity PL maps: both degree computations agree.
        gen = np.random.default_rng(11)
        agree = 0
        total = 0
        tri = freudenthal(0.25, UNIT)
        for trial in range(200):
            pl = pl_interpolate(Identity(), tri)
            images = pl.vertex_images + gen.uniform(-0.08, 0.08, size=pl.vertex_images.shape)
            pl2 = pl_interpolate(_Tabulated(images, tri), tri)
            target = pl2(np.array([0.5, 0.5])) + gen.uniform(-0.01, 0.01, size=2)
            ring = square_ring(Cube((0.5, 0.5), 1.0))
            try:
                w = degree_winding_2d(pl2, target, ring)
                s = degree_pl(pl2, target)
            except DegreeError:
                continue
            total += 1
            agree += int(w == s)
        assert total >= 150
        assert agree == total

    def test_additivity_over_children(self):
        # Degree over a square equals the sum over its four dyadic children.
        gen = np.random.default_rng(5)
        cases = 0
        while cases < 50:
            theta = gen.uniform(-0.5, 0.5)
            shift = gen.uniform(-0.05, 0.05, size=2)
            m = Blend(
                Affine(AffineMapData(rotation_2d(theta), shift)), Cube((0.5, 0.5), 0.6), 2.0
            )
            y = m(np.asarray([gen.uniform(0.3, 0.7), gen.uniform(0.3, 0.7)]))
            try:
                whole = degree_winding_2d(m, y, square_ring(UNIT))
                parts = 0
                for cx in (0.25, 0.75):
                    for cy in (0.25, 0.75):
                        parts += degree_winding_2d(m, y, square_ring(Cube((cx, cy), 0.5)))
            except DegreeError:
                continue
            assert whole == parts
            cases += 1

    def test_homeomorphism_case_degree_one(self):
        gen = np.random.default_rng(9)
        for _ in range(30):
            mat = random_orientation_preserving(gen, 2, 1.3)
            m = Affine(AffineMapData(mat, gen.uniform(-0.1, 0.1, size=2)))
            x = np.array([gen.uniform(0.35, 0.65), gen.uniform(0.35, 0.65)])
            assert degree_winding_2d(m, m(x), square_ring(UNIT)) == 1


@dataclass(frozen=True, eq=False)
class _Tabulated(MapExpr):
    """Vertex-image table as a map: defined on triangulation vertices only."""

    images: np.ndarray
    tri: object

    def evaluate(self, pts):
        t = (np.atleast_2d(pts) - self.tri.origin) / self.tri.pitch
        idx = np.rint(t).astype(int)
        if np.abs(t - idx).max() > 1e-9:
            raise ValueError("tabulated map sampled off-vertex")
        return self.images[tuple(idx.T)]
