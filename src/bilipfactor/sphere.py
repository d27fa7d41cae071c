"""Chordal-metric computations on the extended plane and factoring of
translations and scalings into small-spherical-distortion steps.

The sphere of unit diameter is handled entirely through the chart
R^d U {infinity}: the chordal metric has a closed three-case form there,
the point at infinity enters the sampled pairs as one extra row
(_chordal_pairs), and every map under test fixes it.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .geometry_core import GeometryError, step_count
from .map_engine import MapExpr, Scaling, Translation


def _chordal_pairs(pts: np.ndarray, with_infinity: bool) -> np.ndarray:
    """Condensed chordal distance matrix over finite points (+ infinity row)."""
    norms2 = np.einsum("ij,ij->i", pts, pts)
    w = 1.0 / np.sqrt(1.0 + norms2)
    diff = pts[:, None, :] - pts[None, :, :]
    d = np.linalg.norm(diff, axis=2) * w[:, None] * w[None, :]
    if with_infinity:
        d = np.pad(d, ((0, 1), (0, 1)))
        d[-1, :-1] = w
        d[:-1, -1] = w
    return d


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
    """Sampled lower bound on the chordal bi-Lipschitz constant of m.

    m must fix infinity (translations, scalings, and their compositions
    do); the samples fill the ball of radius 4, and pairs include the
    infinity pairings.
    """
    pts = sample_points(dim, 4.0, count)
    imgs = m.evaluate(pts)
    d_src = _chordal_pairs(pts, with_infinity=True)
    d_img = _chordal_pairs(imgs, with_infinity=True)
    iu = np.triu_indices(d_src.shape[0], k=1)
    src = d_src[iu]
    img = d_img[iu]
    if np.any(img <= 0.0):
        raise GeometryError("coincident images in the spherical sweep")
    ratios = img / src
    return float(np.max(np.maximum(ratios, 1.0 / ratios)))


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
    n = step_count(length / v0, f"epsilon {epsilon}")
    step_v = v / n
    step = Translation(tuple(step_v))
    bound = translation_step_bound(length / n)
    sampled = spherical_distortion(step, dim=v.shape[0])
    return SphericalFactorReport(SphericalStep(step, bound, sampled), n, target, epsilon)


def solve_scaling_step(epsilon: float) -> float:
    """Bisection root of a (1 - (a^2 - 1))^-1 == 1 + epsilon on a > 1."""
    target = 1.0 + epsilon
    lo, hi = 1.0, math.sqrt(2.0) - 1e-9
    f = lambda a: a / (1.0 - (a * a - 1.0)) - target
    if f(hi) < 0:
        raise GeometryError("epsilon too large for the per-step scaling bound")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo < 1e-12:
            break
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


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
    target = Scaling(a) if a != 1.0 else Scaling(1.0)
    if a == 1.0:
        return SphericalFactorReport(None, 0, target, epsilon)
    a0 = solve_scaling_step(epsilon)
    n = step_count(abs(math.log(a)) / math.log(a0), f"epsilon {epsilon}")
    step_a = a ** (1.0 / n)
    step = Scaling(step_a)
    bound = scaling_step_bound(step_a)
    sampled = spherical_distortion(step)
    return SphericalFactorReport(SphericalStep(step, bound, sampled), n, target, epsilon)
