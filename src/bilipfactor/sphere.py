"""Chordal-metric computations on the extended plane and factoring of
translations and scalings into small-spherical-distortion steps.

The sphere of unit diameter is handled through the chart R^d U {infinity},
and chordal distances are Euclidean distances of stereographic lifts, so a
chordal sweep is kernels.pairwise_distortion on the lifted samples and
images, infinity included (every map under test fixes it).  The scaling
step is the closed-form root of its per-step bound.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import kernels
from .geometry_core import GeometryError, step_count
from .map_engine import MapExpr, Scaling, Translation


def stereographic_lift(pts: np.ndarray) -> np.ndarray:
    """Lifts (x, |x|^2) / (1 + |x|^2) of the rows of pts, then infinity's (0, ..., 0, 1): their
    Euclidean distances are the chordal distances on the sphere of unit diameter."""
    norms2 = np.einsum("ij,ij->i", pts, pts)
    lifted = np.column_stack([pts, norms2]) / (1.0 + norms2)[:, None]
    return np.vstack([lifted, np.eye(1, lifted.shape[1], lifted.shape[1] - 1)])


def sample_points(dim: int, radius: float, count: int) -> np.ndarray:
    """Deterministic well-spread points in a ball (golden-angle spiral)."""
    i = np.arange(1, count + 1, dtype=float)
    r = radius * np.sqrt(i / count)
    if dim == 2:
        ang = i * math.pi * (3.0 - math.sqrt(5.0))
        pts = np.stack([r * np.cos(ang), r * np.sin(ang)], axis=-1)
    else:
        z = 1.0 - 2.0 * (i - 0.5) / count
        phi = i * math.pi * (3.0 - math.sqrt(5.0))
        s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        pts = r[:, None] * np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=-1)
    return np.vstack([np.zeros(dim), pts])


def spherical_distortion(m: MapExpr, dim: int = 2, count: int = 160) -> float:
    """Largest chordal ratio over the sample pairs of m as evaluated in floats: a lower
    bound on m's chordal constant up to the rounding of the images and lifts.

    m must fix infinity (translations, scalings, and their compositions
    do); the samples fill the ball of radius 4, and pairs include the
    infinity pairings.
    """
    pts = sample_points(dim, 4.0, count)
    ratio, min_img = kernels.pairwise_distortion(stereographic_lift(pts), stereographic_lift(m.evaluate(pts)))
    if min_img == 0.0:
        raise GeometryError("coincident images in the spherical sweep")
    return ratio


def translation_step_bound(step_length: float) -> float:
    """Analytic chordal distortion bound (1 - |v|)^-1 for one translation step."""
    if step_length >= 1.0:
        raise GeometryError("translation step bound requires |v| < 1")
    return 1.0 / (1.0 - step_length)


def scaling_step_bound(a: float) -> float:
    """Analytic chordal distortion bound a (1 - |a^2 - 1|)^-1 for one scaling step.

    Valid for 0 < a < sqrt(2); for a < 1 the formula evaluates to 1/a.
    """
    denom = 1.0 - abs(a * a - 1.0)
    if a <= 0.0 or denom <= 0.0:
        raise GeometryError("scaling step outside the bound's validity range")
    return a / denom


@dataclass(frozen=True)
class SphericalStep:
    map: MapExpr
    analytic_bound: float
    sampled: float


@dataclass(eq=False)
class SphericalFactorReport:
    """count equal steps: the target is step.map applied count times (step
    is None when count is 0)."""

    step: SphericalStep | None
    count: int
    target: MapExpr
    epsilon: float

    @property
    def steps(self) -> Iterator[SphericalStep]:
        """Every step in order: the one step, count times."""
        return itertools.repeat(self.step, self.count)


def factor_translation_sphere(v, epsilon: float) -> SphericalFactorReport:
    """Split a translation into N equal steps of chordal distortion <= 1+epsilon.

    Step length v0 = epsilon / (1 + epsilon) makes the analytic bound
    (1 - v0)^-1 equal 1 + epsilon; N = ceil(|v| / v0).
    """
    if epsilon <= 0:
        raise GeometryError("epsilon must be positive")
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.shape[0] not in (2, 3):
        raise GeometryError("only 2-D and 3-D translations are supported")
    with np.errstate(over="ignore"):  # an overflowing length is refused below
        length = float(np.linalg.norm(v))
    if not math.isfinite(length):
        raise GeometryError(f"translation length must be finite, got {length}")
    target = Translation(tuple(v))
    if length == 0.0:
        return SphericalFactorReport(None, 0, target, epsilon)
    v0 = epsilon / (1.0 + epsilon)
    n = step_count(length, v0, f"epsilon {epsilon}")
    step = Translation(tuple(v / n))
    sampled = spherical_distortion(step, dim=v.shape[0])
    return SphericalFactorReport(SphericalStep(step, translation_step_bound(length / n), sampled),
                                 n, target, epsilon)


def solve_scaling_step(epsilon: float) -> float:
    """Root a > 1 of a (1 - (a^2 - 1))^-1 == 1 + epsilon: the positive root of
    (1+epsilon) a^2 + a - 2 (1+epsilon) = 0, as (sqrt(u^2 + 8) - u) / 2 with
    u = 1 / (1 + epsilon), in which no term overflows."""
    u = 1.0 / (1.0 + epsilon)
    return (math.sqrt(u * u + 8.0) - u) / 2.0


def factor_scaling_sphere(a: float, epsilon: float) -> SphericalFactorReport:
    """Split a scaling into equal a^(1/N) steps of chordal distortion <= 1+epsilon.

    The per-step sampled distortion is taken in the plane.
    """
    if a <= 0:
        raise GeometryError("scaling factor must be positive")
    if not math.isfinite(a):
        raise GeometryError(f"scaling factor must be finite, got {a}")
    if epsilon <= 0:
        raise GeometryError("epsilon must be positive")
    target = Scaling(a)
    if a == 1.0:
        return SphericalFactorReport(None, 0, target, epsilon)
    log_a0 = math.log(solve_scaling_step(epsilon))  # 0 once the step rounds to 1
    n = step_count(abs(math.log(a)), log_a0, f"epsilon {epsilon}")
    step = Scaling(a ** (1.0 / n))
    return SphericalFactorReport(SphericalStep(step, scaling_step_bound(step.a), spherical_distortion(step)),
                                 n, target, epsilon)
