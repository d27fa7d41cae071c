"""Evaluable map catalog, composition, and the sampled distortion estimator.

Maps R^d -> R^d are represented by a closed set of MapExpr variants; every
certification step in the package goes through estimate_distortion /
sup_distance on deterministic lattices, so the certificates reproduce
bit-for-bit.  Sampled distortion values are LOWER bounds on the true
bi-Lipschitz constant: refining the lattice can only raise them.

A BlendRun holds a chain of blends of one kind (translations, or affine
maps) as arrays of centres, sides, lambdas and inner maps.  It evaluates
as the composition of its Blend factors does, bit for bit, and walk()
returns the images after any list of prefixes in one pass; indexing
builds the individual Blend objects for JSON and tests.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _linalg, _umath_linalg

from . import kernels
from .geometry_core import (
    AffineMapData,
    Cube,
    GeometryError,
    bilip_constant,
    box_lattice,
    cube_lattice,
)


class DomainError(ValueError):
    """Evaluation requested outside a map's domain."""


class CertificationError(RuntimeError):
    """A sampled certificate violated its target bound."""


class MapExpr:
    """Base class: a deterministic evaluable map R^d -> R^d."""

    __slots__ = ()

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def evaluate_each(self, pts: np.ndarray) -> np.ndarray:
        """Each row's image exactly as evaluate gives it for that row alone; maps whose
        batches round rows differently (a Blend's active rows, a BLAS product) keep this loop."""
        return np.array([self.evaluate(p[None])[0] for p in pts]).reshape(pts.shape)

    def __call__(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        if pts.ndim == 1:
            return self.evaluate(pts[None, :])[0]
        return self.evaluate(pts)


@dataclass(frozen=True, slots=True)
class Identity(MapExpr):
    def evaluate(self, pts):
        return np.array(pts, dtype=float, copy=True)

    evaluate_each = evaluate  # elementwise: a row's bits do not depend on the batch


@dataclass(frozen=True, slots=True)
class Translation(MapExpr):
    v: tuple[float, ...]

    def evaluate(self, pts):
        return pts + np.asarray(self.v)

    evaluate_each = evaluate  # elementwise: a row's bits do not depend on the batch


@dataclass(frozen=True, slots=True)
class Scaling(MapExpr):
    a: float

    def __post_init__(self):
        if not (self.a > 0):
            raise GeometryError("scaling factor must be positive")

    def evaluate(self, pts):
        return self.a * pts

    evaluate_each = evaluate  # elementwise: a row's bits do not depend on the batch


@dataclass(frozen=True, eq=False, slots=True)
class Affine(MapExpr):
    map: AffineMapData

    def evaluate(self, pts):
        return self.map.apply(pts)


@dataclass(frozen=True, slots=True)
class LogSpiral(MapExpr):
    """(r, theta) -> (r, theta + k log r) in the plane; fixes the origin."""

    k: float

    def evaluate(self, pts):
        pts = np.asarray(pts, dtype=float)
        if pts.shape[-1] != 2:
            raise DomainError("log-spiral map is planar")
        r = np.hypot(pts[..., 0], pts[..., 1])
        out = np.zeros_like(pts)
        nz = r > 0
        ang = self.k * np.log(r[nz])
        c, s = np.cos(ang), np.sin(ang)
        out[nz, 0] = c * pts[nz, 0] - s * pts[nz, 1]
        out[nz, 1] = s * pts[nz, 0] + c * pts[nz, 1]
        return out

    evaluate_each = evaluate  # elementwise: a row's bits do not depend on the batch


@dataclass(frozen=True, eq=False, slots=True)
class Grid(MapExpr):
    """Multilinear interpolation of image samples on a regular lattice."""

    origin: np.ndarray
    pitch: float
    extents: tuple[int, ...]
    values: np.ndarray  # shape extents + (d,)

    def __post_init__(self):
        origin = np.asarray(self.origin, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if any(e < 2 for e in self.extents):
            raise GeometryError("grid extents must be >= 2 per axis")
        if values.shape != tuple(self.extents) + (origin.shape[0],):
            raise GeometryError("grid values shape must be extents + (d,)")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "extents", tuple(int(e) for e in self.extents))

    def evaluate(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        t = (pts - self.origin) / self.pitch
        hi = np.asarray(self.extents) - 1
        if np.any(t < -1e-9) or np.any(t > hi + 1e-9):
            raise DomainError("grid map evaluated outside its hull")
        t = np.clip(t, 0.0, hi)
        i0 = np.minimum(t.astype(int), hi - 1)
        f = t - i0
        d = self.origin.shape[0]
        out = np.zeros((pts.shape[0], d))
        for corner in range(2**d):
            offs = np.array([(corner >> k) & 1 for k in range(d)])
            w = np.ones(pts.shape[0])
            for k in range(d):
                w = w * (f[:, k] if offs[k] else (1.0 - f[:, k]))
            idx = tuple((i0 + offs).T)
            out += w[:, None] * self.values[idx]
        return out


def _weight_ratio(x: np.ndarray, center, side, lam) -> np.ndarray:
    """(lam l/2 - |x - center|_sup) / ((lam - 1) l/2), broadcast over x (..., d)."""
    half = side / 2.0
    r = np.abs(x[..., 0] - center[..., 0])
    for k in range(1, x.shape[-1]):
        r = np.maximum(r, np.abs(x[..., k] - center[..., k]))
    return (lam * half - r) / ((lam - 1.0) * half)


def blend_weight(pts: np.ndarray, cube: Cube, lam: float) -> np.ndarray:
    """1 on the cube, 0 outside lam*cube, linear in the sup-norm in between."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    return np.clip(_weight_ratio(pts, np.asarray(cube.center), cube.side, lam), 0.0, 1.0)


@dataclass(frozen=True, eq=False, slots=True)
class Blend(MapExpr):
    """x -> (1-w) x + w inner(x): inner on the cube, identity outside lam*cube."""

    inner: MapExpr
    cube: Cube
    lam: float

    def __post_init__(self):
        if not (self.lam > 1.0):
            raise GeometryError("blend requires lam > 1")

    def evaluate(self, pts):
        w = blend_weight(pts, self.cube, self.lam)
        out = np.array(pts, dtype=float, copy=True)
        active = w > 0.0
        if np.any(active):
            inner_vals = self.inner.evaluate(np.atleast_2d(pts)[active])
            out[active] = (1.0 - w[active, None]) * out[active] + w[active, None] * inner_vals
        return out


# Points x block steps held at once by the walker.
_WALK_ELEMS = 1 << 16
_WALK_MIN_BLOCK = 16
_NEG_ZERO_BITS = np.float64(-0.0).view(np.int64)  # no other float has these bits


def _first_true(mask: np.ndarray, none: int) -> np.ndarray:
    """Per column of mask (span, m), the first row that is True, else none."""
    return np.where(mask.any(axis=0), mask.argmax(axis=0), none)


@dataclass(frozen=True, eq=False, slots=True)
class BlendRun(MapExpr, Sequence):
    """n blends applied in order, stored as arrays.

    Factor i is Blend(inner_i, C(centers[i], sides[i]), lams[i]); inner_i is
    Translation(shifts[i]) for kind "translation" and the affine map
    x -> matrices[i] x + shifts[i] for kind "affine".  run[i] and iteration
    build those Blend objects; walk() evaluates prefixes without them.
    """

    kind: str  # "translation" | "affine"
    centers: np.ndarray  # (n, d)
    sides: np.ndarray  # (n,)
    lams: np.ndarray  # (n,)
    shifts: np.ndarray  # (n, d)
    matrices: np.ndarray | None = None  # (n, d, d) for kind "affine"

    def __len__(self) -> int:
        return self.sides.shape[0]

    def __getitem__(self, i):
        if isinstance(i, (slice, np.ndarray)):
            mats = None if self.matrices is None else self.matrices[i]
            return BlendRun(self.kind, self.centers[i], self.sides[i], self.lams[i], self.shifts[i], mats)
        if self.kind == "translation":
            inner = Translation(tuple(self.shifts[i]))
        else:
            inner = Affine(AffineMapData(self.matrices[i], self.shifts[i]))
        return Blend(inner, Cube(tuple(self.centers[i]), self.sides[i]), float(self.lams[i]))

    def evaluate(self, pts):
        return self.walk(pts, [len(self)])[0]

    def apply_each(self, pts: np.ndarray) -> np.ndarray:
        """Factor i alone applied to the points pts[i], pts (n, m, d), with
        Blend.evaluate's arithmetic: (1-w) x + w inner(x) where w > 0, else x."""
        w = np.clip(self._block_ratio(pts, 0, len(self)), 0.0, 1.0)[..., None]
        if self.kind == "translation":
            inner = pts + self.shifts[:, None]
        else:
            inner = np.matmul(pts, self.matrices.swapaxes(1, 2)) + self.shifts[:, None]
        return np.where(w > 0.0, (1.0 - w) * pts + w * inner, pts)

    def _ratio(self, x: np.ndarray, i: int) -> np.ndarray:
        """blend_weight of factor i before clipping, at the points x (m, d)."""
        return _weight_ratio(x, self.centers[i], self.sides[i], self.lams[i])

    def _block_ratio(self, x: np.ndarray, k: int, span: int) -> np.ndarray:
        """_ratio at steps k .. k+span-1 as a (span, m) array: of the same
        points x (m, d) at every step, or of x[i] at step k+i, x (span, m, d)."""
        s = slice(k, k + span)
        return _weight_ratio(x, self.centers[s, None], self.sides[s, None], self.lams[s, None])

    def _inner(self, x: np.ndarray, i: int) -> np.ndarray:
        """inner_i of the rows of x."""
        if self.kind == "translation":
            return x + self.shifts[i]
        return x @ self.matrices[i].T + self.shifts[i]

    def _step(self, x: np.ndarray, i: int) -> None:
        """Apply factor i to every row of x in place, as Blend.evaluate does."""
        w = np.clip(self._ratio(x, i), 0.0, 1.0)
        active = w > 0.0
        if np.any(active):
            xa = x[active]
            wa = w[active, None]
            x[active] = (1.0 - wa) * xa + wa * self._inner(xa, i)

    def walk(self, pts, stops) -> np.ndarray:
        """Images of pts after each prefix of stops (non-decreasing lengths in [0, n]).

        Both kinds jump over each block of steps along which every point
        keeps w == 0 (it stays put) or w == 1 (it moves by inner alone).
        The moving rows go through the block as one path: the steps summed
        in order (translations) or one x @ M.T + s per step (affine), on the
        same rows in the same order as Blend.evaluate's active rows.  Where
        w == 1 Blend.evaluate writes 0 * x + inner(x), which is inner(x) bit
        for bit unless inner(x) holds a -0.0.  So a step runs exactly, as
        Blend.evaluate does, wherever some point has 0 < w < 1 or a moving
        image holds a -0.0.  Every block's path is a view of one buffer,
        sized for the longest block and all points, so the walk takes its
        scratch memory once.
        """
        x = np.array(pts, dtype=float, copy=True)
        stops = [int(s) for s in stops]
        out = np.empty((len(stops),) + x.shape)
        if not x.shape[0] or not stops:
            return out
        cap = max(1, _WALK_ELEMS // x.shape[0])
        buf = np.empty((min(cap, stops[-1]) + 1) * x.size)
        block = min(_WALK_MIN_BLOCK, cap)
        k = 0
        for j, stop in enumerate(stops):
            while k < stop:
                span = min(stop - k, block)
                e = self._walk_block(x, k, span, buf)
                if e == 0:
                    self._step(x, k)
                    e = 1
                block = min(2 * block, cap) if e == span else min(_WALK_MIN_BLOCK, cap)
                k += e
            out[j] = x
        return out

    def _walk_block(self, x: np.ndarray, k: int, span: int, buf: np.ndarray) -> int:
        """Move x in place over the steps k, k+1, ... (at most span of them)
        along which every point keeps its w of step k, 0 or 1, and no moving
        image holds a -0.0; return how many steps that is (0: step k runs
        exactly).  The moving points' path is built in the flat buffer buf,
        which holds at least (span + 1) * x.size floats."""
        first = self._ratio(x, k)
        still = first <= 0.0
        moving = first >= 1.0
        if not np.all(still | moving):  # some point has 0 < w < 1
            return 0
        keep = np.full(x.shape[0], span)
        if np.any(still):
            keep[still] = _first_true(self._block_ratio(x[still], k, span) > 0.0, span)
        if np.any(moving):
            m = int(np.count_nonzero(moving))
            path = buf[: (span + 1) * m * x.shape[1]].reshape(span + 1, m, x.shape[1])
            np.compress(moving, x, axis=0, out=path[0])
            if self.kind == "translation":
                path[1:] = self.shifts[k : k + span, None]
                np.add.accumulate(path, axis=0, out=path)
            else:
                for i in range(span):
                    path[i + 1] = self._inner(path[i], k + i)
            miss = self._block_ratio(path[:-1], k, span) < 1.0
            neg_zero = path[1:].view(np.int64) == _NEG_ZERO_BITS
            if neg_zero.any():
                miss |= neg_zero.any(axis=2)
            keep[moving] = _first_true(miss, span)
        e = int(keep.min())
        if e and np.any(moving):
            x[moving] = path[e]
        return e

    def touching(self, pts) -> np.ndarray:
        """Indices of the factors that move some of pts (w > 0 there)."""
        pts = np.asarray(pts, dtype=float)
        chunk = max(1, _WALK_ELEMS // max(1, pts.shape[0]))
        hits = [
            a + np.flatnonzero(np.any(self._block_ratio(pts, a, chunk) > 0.0, axis=1))
            for a in range(0, len(self), chunk)
        ]
        return np.concatenate(hits) if hits else np.empty(0, dtype=np.intp)


@dataclass(frozen=True, eq=False, slots=True)
class Compose(MapExpr):
    """Composition f_T o ... o f_1 stored as (f_T, ..., f_1): rightmost applies first."""

    maps: tuple[MapExpr, ...]

    def __post_init__(self):
        if len(self.maps) == 0:
            raise GeometryError("compose list must be non-empty")

    def evaluate(self, pts):
        out = np.asarray(pts, dtype=float)
        for m in reversed(self.maps):
            out = m.evaluate(out)
        return out


def compose_sequence(factors: list[MapExpr]) -> MapExpr:
    """Composite of factors listed in application order (factors[0] first)."""
    if not factors:
        return Identity()
    if len(factors) == 1:
        return factors[0]
    return Compose(tuple(reversed(factors)))


def affine_part(m: MapExpr, dim: int) -> AffineMapData | None:
    """Exact affine representation when the expression is affine, else None.

    Dispatch is on the exact type: subclasses may evaluate differently and
    must not silently take the exact branch.
    """
    t = type(m)
    if t is Identity:
        return AffineMapData.identity(dim)
    if t is Translation:
        return AffineMapData(np.eye(dim), np.asarray(m.v))
    if t is Scaling:
        return AffineMapData(m.a * np.eye(dim), np.zeros(dim))
    if t is Affine:
        return m.map
    if t is Compose:
        parts = [affine_part(f, dim) for f in m.maps]
        if any(p is None for p in parts):
            return None
        acc = parts[-1]
        for p in reversed(parts[:-1]):
            acc = p.compose(acc)
        return acc
    return None


def map_dim(m: MapExpr) -> int | None:
    """The d of R^d -> R^d that the expression fixes, or None when it acts in
    every dimension (identity, scaling) or its type does not say.  A blend
    or composite whose parts fix different dimensions raises GeometryError."""
    t = type(m)
    if t is Translation:
        return len(m.v)
    if t is Affine:
        return m.map.dim
    if t is LogSpiral:
        return 2
    if t is Grid:
        return m.origin.shape[0]
    if t is Blend:
        dims = {m.cube.dim, map_dim(m.inner)}
    elif t is Compose:
        dims = {map_dim(f) for f in m.maps}
    else:
        return None
    dims.discard(None)
    if len(dims) > 1:
        raise GeometryError(f"{t.__name__.lower()} parts act in different dimensions: {sorted(dims)}")
    return dims.pop() if dims else None


@dataclass(frozen=True, eq=False, slots=True)
class DistortionCertificate:
    """Sampled (or exact-affine) lower bound on the bi-Lipschitz constant."""

    region: Cube
    h: float
    L_lo: float
    method: str  # "exact-affine" | "sampled-pairs"
    pair_count: int


def estimate_distortion(m: MapExpr, region: Cube, h: float) -> DistortionCertificate:
    """Lower bound on the bi-Lipschitz constant of m over the region.

    All lattice pairs at pitch <= h are swept; an exact branch bypasses
    sampling for affine expressions.
    """
    aff = affine_part(m, region.dim)
    if aff is not None:
        return DistortionCertificate(
            region=region, h=0.0, L_lo=bilip_constant(aff), method="exact-affine", pair_count=0
        )
    pts, pitch = cube_lattice(region, h)
    imgs = m.evaluate(pts)
    if not np.all(np.isfinite(imgs)):
        raise DomainError("map produced non-finite values on the sampling lattice")
    ratio, min_img = kernels.pairwise_distortion(pts, imgs)
    if min_img == 0.0:
        raise CertificationError("not injective on samples: coincident images")
    pair_count = pts.shape[0] * (pts.shape[0] - 1) // 2
    return DistortionCertificate(
        region=region, h=pitch, L_lo=max(1.0, ratio), method="sampled-pairs", pair_count=pair_count
    )


def sup_distance(m1: MapExpr, m2: MapExpr, region: Cube, h: float) -> float:
    """Max over the region lattice of |m1(x) - m2(x)| (lower bound on the sup)."""
    pts, _ = cube_lattice(region, h)
    return float(np.max(np.linalg.norm(m1.evaluate(pts) - m2.evaluate(pts), axis=1)))


def almost_affine_fit(
    m: MapExpr,
    q: Cube,
    h: float,
    clip: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[AffineMapData, float]:
    """Least-squares affine fit of m over the lattice of 2q, re-anchored at x(Q).

    clip, when given, intersects the sampling box with [clip_lo, clip_hi]
    (used when the map is only defined on a window).  The residual is
    sup |m - A| over the lattice, normalized by diam(q).
    """
    lo = np.asarray(q.center) - q.side
    hi = np.asarray(q.center) + q.side
    if clip is not None:
        lo = np.maximum(lo, np.asarray(clip[0], dtype=float))
        hi = np.minimum(hi, np.asarray(clip[1], dtype=float))
        if np.any(hi - lo <= 0):
            raise GeometryError("clip box excludes the whole sampling region")
    pts, center = box_lattice(lo, hi, h), np.asarray([q.center])
    lin, shift, err, rank = affine_fit_samples(pts[None], m.evaluate(pts)[None], center, m.evaluate(center))
    if rank[0] < q.dim + 1:
        raise GeometryError("rank deficient sample matrix in affine fit")
    return AffineMapData(lin[0].T, shift[0]), float(err[0].max()) / q.diam


def affine_fit_samples(pts: np.ndarray, imgs: np.ndarray, centers: np.ndarray,
                       center_imgs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Affine fits x @ lin[i] + shift[i] of k windows (pts, imgs = m(pts): (k, n, d)),
    anchored at centers (k, d), center_imgs = m(centers); returns lin, shift, |fit - m| at
    each point (k, n) and ranks.  One solve by np.linalg.lstsq's gufunc (its rcond and errors);
    the anchor and residual use AffineMapData.apply's layout, so each fit has one window's bits."""
    k, n, d = pts.shape
    design = np.concatenate([pts, np.ones((k, n, 1))], axis=2)
    with np.errstate(call=_linalg._raise_linalgerror_lstsq, invalid="call",
                     over="ignore", divide="ignore", under="ignore"):
        sol, _, rank, _ = _umath_linalg.lstsq(design, imgs, np.finfo(float).eps * max(n, d + 1),
                                              signature="ddd->ddid")
    lin = sol[:, :-1]
    shift = sol[:, -1] + center_imgs - ((centers[:, None, :] @ lin)[:, 0] + sol[:, -1])
    err = np.linalg.norm(imgs - (np.matmul(pts, lin) + shift[:, None, :]), axis=2)
    return lin, shift, err, rank
