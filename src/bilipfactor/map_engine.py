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

from . import kernels
from .geometry_core import (
    AffineMapData,
    Cube,
    GeometryError,
    bilip_constant,
    box_lattice,
    cube_lattice,
    svd,
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

    def __call__(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        if pts.ndim == 1:
            return self.evaluate(pts[None, :])[0]
        return self.evaluate(pts)


@dataclass(frozen=True, slots=True)
class Identity(MapExpr):
    def evaluate(self, pts):
        return np.array(pts, dtype=float, copy=True)


@dataclass(frozen=True, slots=True)
class Translation(MapExpr):
    v: tuple[float, ...]

    def evaluate(self, pts):
        return pts + np.asarray(self.v)


@dataclass(frozen=True, slots=True)
class Scaling(MapExpr):
    a: float

    def __post_init__(self):
        if not (self.a > 0):
            raise GeometryError("scaling factor must be positive")

    def evaluate(self, pts):
        return self.a * pts


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


@dataclass(frozen=True, eq=False)
class GridMap:
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

    @property
    def dim(self) -> int:
        return self.origin.shape[0]

    def interpolate(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        t = (pts - self.origin) / self.pitch
        hi = np.asarray(self.extents) - 1
        if np.any(t < -1e-9) or np.any(t > hi + 1e-9):
            raise DomainError("grid map evaluated outside its hull")
        t = np.clip(t, 0.0, hi)
        i0 = np.minimum(t.astype(int), hi - 1)
        f = t - i0
        d = self.dim
        out = np.zeros((pts.shape[0], d))
        for corner in range(2**d):
            offs = np.array([(corner >> k) & 1 for k in range(d)])
            w = np.ones(pts.shape[0])
            for k in range(d):
                w = w * (f[:, k] if offs[k] else (1.0 - f[:, k]))
            idx = tuple((i0 + offs).T)
            out += w[:, None] * self.values[idx]
        return out


@dataclass(frozen=True, eq=False, slots=True)
class Grid(MapExpr):
    grid: GridMap

    def evaluate(self, pts):
        return self.grid.interpolate(pts)


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


# Points x block steps held at once by the translation walker.
_WALK_ELEMS = 1 << 16
_WALK_MIN_BLOCK = 16


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
        if isinstance(i, slice):
            mats = None if self.matrices is None else self.matrices[i]
            return BlendRun(self.kind, self.centers[i], self.sides[i], self.lams[i], self.shifts[i], mats)
        if self.kind == "translation":
            inner = Translation(tuple(self.shifts[i]))
        else:
            inner = Affine(AffineMapData(self.matrices[i], self.shifts[i]))
        return Blend(inner, Cube(tuple(self.centers[i]), self.sides[i]), float(self.lams[i]))

    def evaluate(self, pts):
        return self.walk(pts, [len(self)])[0]

    def _ratio(self, x: np.ndarray, steps) -> np.ndarray:
        """blend_weight before clipping, of points x (..., d) at the given steps."""
        return _weight_ratio(x, self.centers[steps], self.sides[steps], self.lams[steps])

    def _step(self, x: np.ndarray, i: int) -> None:
        """Apply factor i to every row of x in place, as Blend.evaluate does."""
        w = np.clip(self._ratio(x, i), 0.0, 1.0)
        active = w > 0.0
        if np.any(active):
            xa = x[active]
            if self.kind == "translation":
                inner = xa + self.shifts[i]
            else:
                inner = xa @ self.matrices[i].T + self.shifts[i]
            wa = w[active, None]
            x[active] = (1.0 - wa) * xa + wa * inner

    def walk(self, pts, stops) -> np.ndarray:
        """Images of pts after each prefix of stops (non-decreasing lengths in [0, n]).

        Affine runs step every factor on all points, as Blend.evaluate
        does.  Translation runs jump over each block of steps along which
        every point keeps w == 0 (it stays put) or w == 1 (it moves by the
        steps accumulated in order: 0 * x + (x + v) is x + v bit for bit,
        signed zeros included, so the sum rounds as the factors do); a step
        where some point has 0 < w < 1 runs as Blend.evaluate does.
        """
        x = np.array(pts, dtype=float, copy=True)
        stops = [int(s) for s in stops]
        out = np.empty((len(stops),) + x.shape)
        if not x.shape[0]:
            return out
        if self.kind == "translation":
            return self._walk_translations(x, stops, out)
        k = 0
        for j, stop in enumerate(stops):
            while k < stop:
                self._step(x, k)
                k += 1
            out[j] = x
        return out

    def _walk_translations(self, x: np.ndarray, stops: list[int], out: np.ndarray) -> np.ndarray:
        m, d = x.shape
        cap = max(1, _WALK_ELEMS // m)
        block = min(_WALK_MIN_BLOCK, cap)
        k = 0
        for j, stop in enumerate(stops):
            while k < stop:
                first = self._ratio(x, k)
                still = first <= 0.0
                moving = first >= 1.0
                if not np.all(still | moving):  # some point has 0 < w < 1
                    self._step(x, k)
                    k += 1
                    block = min(_WALK_MIN_BLOCK, cap)
                    continue
                # Jump to the first step, at most a block ahead, where some
                # point leaves its w (0 or 1).
                span = min(stop - k, block)
                keep = np.full(m, span)
                if np.any(still):
                    hit = self._ratio(x[still, None, :], slice(k, k + span)) > 0.0
                    keep[still] = np.where(hit.any(axis=1), hit.argmax(axis=1), span)
                if np.any(moving):
                    path = np.empty((int(moving.sum()), span + 1, d))
                    path[:, 0] = x[moving]
                    path[:, 1:] = self.shifts[k : k + span]
                    path = np.add.accumulate(path, axis=1)
                    miss = self._ratio(path[:, :-1], slice(k, k + span)) < 1.0
                    keep[moving] = np.where(miss.any(axis=1), miss.argmax(axis=1), span)
                e = int(keep.min())  # >= 1: every point keeps its w at step k
                if np.any(moving):
                    x[moving] = path[:, e]
                k += e
                block = min(2 * block, cap) if e == span else min(_WALK_MIN_BLOCK, cap)
            out[j] = x
        return out

    def touching(self, pts) -> np.ndarray:
        """Indices of the factors that move some of pts (w > 0 there)."""
        pts = np.asarray(pts, dtype=float)
        chunk = max(1, _WALK_ELEMS // max(1, pts.shape[0]))
        hits = [
            a + np.flatnonzero(np.any(self._ratio(pts[:, None, :], slice(a, a + chunk)) > 0.0, axis=0))
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


@dataclass(frozen=True, eq=False, slots=True)
class DistortionCertificate:
    """Sampled (or exact-affine) lower bound on the bi-Lipschitz constant."""

    region: Cube
    h: float
    L_lo: float
    method: str  # "exact-affine" | "sampled-pairs"
    pair_count: int


def estimate_distortion(
    m: MapExpr,
    region: Cube,
    h: float,
    extra_pairs: int = 0,
    seed: int = 0,
) -> DistortionCertificate:
    """Lower bound on the bi-Lipschitz constant of m over the region.

    All lattice pairs at pitch <= h are swept; an exact branch bypasses
    sampling for affine expressions.  extra_pairs > 0 adds that many seeded
    random point pairs inside the region on top of the lattice sweep.
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
    if extra_pairs > 0:
        rng = np.random.default_rng(seed)
        lo, hi = region.lo(), region.hi()
        xs = rng.uniform(lo, hi, size=(extra_pairs, region.dim))
        ys = rng.uniform(lo, hi, size=(extra_pairs, region.dim))
        dx = np.linalg.norm(xs - ys, axis=1)
        keep = dx > 0
        dy = np.linalg.norm(m.evaluate(xs[keep]) - m.evaluate(ys[keep]), axis=1)
        if np.any(dy == 0.0):
            raise CertificationError("not injective on samples: coincident images")
        r = dy / dx[keep]
        if r.size:
            ratio = max(ratio, float(np.max(np.maximum(r, 1.0 / r))))
        pair_count += int(np.count_nonzero(keep))
    return DistortionCertificate(
        region=region, h=pitch, L_lo=max(1.0, ratio), method="sampled-pairs", pair_count=pair_count
    )


def sup_distance(m1: MapExpr, m2: MapExpr, region: Cube, h: float) -> float:
    """Max over the region lattice of |m1(x) - m2(x)| (lower bound on the sup)."""
    pts, _ = cube_lattice(region, h)
    return float(np.max(np.linalg.norm(m1.evaluate(pts) - m2.evaluate(pts), axis=1)))


def procrustes_isometry(
    samples: list[tuple[np.ndarray, np.ndarray]] | tuple[np.ndarray, np.ndarray],
) -> tuple[AffineMapData, float]:
    """Least-squares rigid alignment J(x) = R x + b of sample pairs (x_i, y_i).

    R is the orthogonal minimizer of sum |J(x_i) - y_i|^2 (SVD of the
    cross-covariance); det(R) = +1 unless a reflection fits strictly
    better.  Returns (J, max_i |J(x_i) - y_i|).
    """
    if isinstance(samples, tuple) and len(samples) == 2:
        xs, ys = np.asarray(samples[0], float), np.asarray(samples[1], float)
    else:
        xs = np.asarray([p[0] for p in samples], dtype=float)
        ys = np.asarray([p[1] for p in samples], dtype=float)
    d = xs.shape[1]
    if xs.shape[0] < d + 1:
        raise GeometryError("need at least d+1 sample pairs")
    xc, yc = xs.mean(axis=0), ys.mean(axis=0)
    xs0, ys0 = xs - xc, ys - yc
    cov = xs0.T @ ys0
    if np.linalg.matrix_rank(xs0, tol=1e-10 * max(1.0, np.abs(xs0).max())) < d:
        raise GeometryError("rank deficient: sample cloud is collinear/coplanar")
    dec = svd(cov)
    r_free = (dec.u @ dec.v_t).T
    if np.linalg.det(r_free) >= 0:
        r = r_free
    else:
        # Candidate proper rotation: flip the least-significant direction.
        u = dec.u.copy()
        u[:, -1] = -u[:, -1]
        r_proper = (u @ dec.v_t).T
        res_free = np.sum((xs0 @ r_free.T - ys0) ** 2)
        res_proper = np.sum((xs0 @ r_proper.T - ys0) ** 2)
        r = r_free if res_free < res_proper - 1e-15 else r_proper
    b = yc - r @ xc
    j = AffineMapData(r, b)
    dev = float(np.max(np.linalg.norm(j.apply(xs) - ys, axis=1)))
    return j, dev


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
    pts = box_lattice(lo, hi, h)
    return affine_fit_samples(m, q, pts, m.evaluate(pts))


def affine_fit_samples(
    m: MapExpr, q: Cube, pts: np.ndarray, imgs: np.ndarray
) -> tuple[AffineMapData, float]:
    """The fit of almost_affine_fit from given samples imgs = m(pts).

    Callers that already hold m on the lattice of 2q pass it here, so the
    least-squares solve sees the same bytes as if almost_affine_fit had
    sampled the window itself.
    """
    design = np.hstack([pts, np.ones((pts.shape[0], 1))])
    sol, _, rank, _ = np.linalg.lstsq(design, imgs, rcond=None)
    if rank < q.dim + 1:
        raise GeometryError("rank deficient sample matrix in affine fit")
    a = AffineMapData(sol[:-1].T, sol[-1])
    center = np.asarray(q.center)
    a = AffineMapData(a.matrix, a.shift + m(center) - a.apply(center))
    residual = float(np.max(np.linalg.norm(imgs - a.apply(pts), axis=1))) / q.diam
    return a, residual
