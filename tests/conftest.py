from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from bilipfactor.geometry_core import AffineMapData, Cube, rotation_2d, rotation_3d, unit_cube_dyadics
from bilipfactor.map_engine import Affine, Blend, Compose, LogSpiral, MapExpr, Scaling, Translation


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def random_rotation(rng: np.random.Generator, d: int) -> np.ndarray:
    if d == 2:
        return rotation_2d(rng.uniform(-np.pi, np.pi))
    axis = rng.normal(size=3)
    return rotation_3d(axis / np.linalg.norm(axis), rng.uniform(-np.pi, np.pi))


def random_orientation_preserving(rng: np.random.Generator, d: int, l_max: float) -> np.ndarray:
    """Random linear map with singular values in [1/l_max, l_max] (so L <= l_max)."""
    sigma = np.exp(rng.uniform(-np.log(l_max), np.log(l_max), size=d))
    return random_rotation(rng, d) @ np.diag(sigma) @ random_rotation(rng, d)


def small_rotation_blend(center, theta: float, side: float = 0.3, lam: float = 2.0) -> MapExpr:
    c = np.asarray(center, dtype=float)
    rot = rotation_2d(theta)
    inner = Affine(AffineMapData(rot, c - rot @ c))
    return Blend(inner, Cube(tuple(c), side), lam)


def smooth_test_maps() -> list[MapExpr]:
    """20 smooth planar maps evaluable on the unit square (and its 2Q windows)."""
    maps: list[MapExpr] = []
    gen = np.random.default_rng(424242)
    for _ in range(6):
        mat = random_orientation_preserving(gen, 2, 1.6)
        maps.append(Affine(AffineMapData(mat, gen.uniform(-0.3, 0.3, size=2))))
    for k in (0.01, 0.02, 0.03):
        maps.append(LogSpiral(k))
    for theta in (0.002, 0.003, 0.005):
        maps.append(small_rotation_blend((0.5, 0.5), theta, side=0.4))
    for k, theta in ((0.015, 0.005), (0.02, -0.005)):
        maps.append(
            Compose((small_rotation_blend((0.4, 0.6), theta, side=0.3), LogSpiral(k)))
        )
    for a in (0.9, 1.1, 1.25):
        maps.append(Compose((Scaling(a), Translation((0.05, -0.02)))))
    maps.append(Compose((Translation((0.2, 0.1)), Affine(AffineMapData(rotation_2d(0.1), np.zeros(2))))))
    maps.append(Compose((LogSpiral(0.01), Scaling(1.05))))
    maps.append(Translation((0.07, 0.03)))
    assert len(maps) == 20
    return maps


# The dyadic-cube vocabulary of the reference implementations: one object per
# cube, built from the library's int64 rows [level, *coords].


@dataclass(frozen=True)
class DyadicCube:
    """[j 2^-k, (j+1) 2^-k] per axis; level k, integer corner coords j."""

    level: int
    coords: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def volume(self) -> Fraction:
        return Fraction(1, 2 ** (self.level * self.dim))

    @property
    def row(self) -> tuple[int, ...]:
        return (self.level, *self.coords)

    def to_cube(self) -> Cube:
        s = 2.0**-self.level
        return Cube(tuple((c + 0.5) * s for c in self.coords), s)

    def children(self) -> list[DyadicCube]:
        """The 2^d children, the first axis slowest."""
        return [DyadicCube(self.level + 1, tuple(2 * c + o for c, o in zip(self.coords, offs)))
                for offs in np.ndindex((2,) * self.dim)]

    def parent(self) -> DyadicCube:
        return DyadicCube(self.level - 1, tuple(c >> 1 for c in self.coords))

    def contains_dyadic(self, other: DyadicCube) -> bool:
        shift = other.level - self.level
        return shift >= 0 and tuple(c >> shift for c in other.coords) == self.coords


def cubes(rows: np.ndarray) -> list[DyadicCube]:
    """One cube per row [level, *coords], in row order."""
    return [DyadicCube(level, tuple(x)) for level, *x in np.asarray(rows).tolist()]


def dyadic_level(dim: int, level: int) -> list[DyadicCube]:
    """The level's cubes of [0,1]^dim in C order."""
    return [DyadicCube(level, tuple(x)) for x in unit_cube_dyadics(dim, level).tolist()]


def good(c) -> set[DyadicCube]:
    return set(cubes(c.good))


def bad(c) -> set[DyadicCube]:
    return set(cubes(c.bad))


def region_index(c) -> dict[DyadicCube, int]:
    """Good cube -> its region, level by level in C order."""
    return {q: int(c.labels[q.level][q.coords]) for q in cubes(c.good)}


def members(c, i: int) -> set[DyadicCube]:
    return {DyadicCube(level, tuple(x)) for level, lab in enumerate(c.labels) for x in np.argwhere(lab == i).tolist()}


def tops_of(c) -> list[DyadicCube]:
    """The region tops, region by region."""
    return cubes(c.tops)


def r_cubes(level) -> list[DyadicCube]:
    return cubes(level.r_rows)


def q_cubes(level) -> list[DyadicCube]:
    return cubes(level.q_rows)


def owner(level) -> dict[DyadicCube, DyadicCube]:
    """R -> the previous level's Q that owns it."""
    return dict(zip(r_cubes(level), cubes(level.owner_rows)))
