"""Local topological degree of planar maps as winding numbers.

Winding numbers are independent of the simplex-sum degrees of
piecewise-affine maps (pl_approx.degrees_pl_batch, degree_pl); the two are
cross-checked in the test suite, where winding numbers serve as the oracle
for the piecewise-affine verifier.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry_core import polyline_length, resample_polyline, row_norms
from .map_engine import MapExpr

class DegreeError(RuntimeError):
    pass


def winding_sum(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Summed wrapped arctan2 increments of closed rings (first point repeated last), given as
    coordinates dx, dy (..., n) relative to a point each: 2 pi times each winding number, up to rounding."""
    inc = np.diff(np.arctan2(dy, dx), axis=-1)
    return np.sum((inc + math.pi) % (2.0 * math.pi) - math.pi, axis=-1)


def degree_winding_2d(m: MapExpr, y: np.ndarray, boundary: np.ndarray) -> int:
    """Winding number of m o boundary around y (planar maps only).

    boundary is a closed polyline (first point repeated last, or closed
    automatically).  The sampling count follows ceil(64 * image perimeter /
    dist(y, image)); the summed angle increments must round to an integer
    with residual <= 1e-6 * 2pi.
    """
    y = np.asarray(y, dtype=float)
    boundary = np.asarray(boundary, dtype=float)
    if y.shape[0] != 2 or boundary.shape[1] != 2:
        raise DegreeError("winding degree is planar only")
    if not np.allclose(boundary[0], boundary[-1]):
        boundary = np.vstack([boundary, boundary[0]])

    probe = m.evaluate(resample_polyline(boundary, 256))
    dist = float(np.min(row_norms(probe - y)))
    if dist <= 0:
        raise DegreeError("target lies on the sampled boundary image")
    perimeter = polyline_length(probe)
    count = int(min(2_000_000, max(256, math.ceil(64.0 * perimeter / dist))))
    imgs = m.evaluate(resample_polyline(boundary, count + 1))

    rel = imgs - y
    dist = float(np.min(row_norms(rel)))
    step = float(np.max(row_norms(np.diff(imgs, axis=0))))
    if dist < 10.0 * step:
        raise DegreeError("insufficient boundary resolution near the target")
    total = float(winding_sum(rel[:, 0], rel[:, 1]))
    winding = round(total / (2.0 * math.pi))
    if abs(total - 2.0 * math.pi * winding) > 1e-6 * 2.0 * math.pi:
        raise DegreeError("insufficient boundary resolution: non-integer winding")
    return int(winding)
