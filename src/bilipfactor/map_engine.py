"""Evaluable map catalog, composition, and the sampled distortion estimator.

Maps R^d -> R^d are represented by a closed set of MapExpr variants; every
certification step in the package goes through estimate_distortion /
sup_distance on deterministic lattices, so the certificates reproduce
bit-for-bit.  A sampled distortion value is the largest ratio over the
lattice pairs of the map as evaluated in floats: a lower bound on the true
bi-Lipschitz constant up to that rounding, which a finer lattice that
contains the coarser one can only raise.

A BlendRun holds a chain of blends of one kind (translations, or affine
maps, as its matrices are None or not) as arrays of centres, sides,
lambdas and inner maps.  It evaluates as the composition of its Blend
factors does, bit for bit, and walk() returns the images after any list
of prefixes in one pass; indexing builds the individual Blend objects for
JSON and tests.  The walk holds points as coordinate rows (d, m): one
M @ x per affine step, and exact block tests on per-axis extremes and
outward-rounded boxes in place of per-point weights.  M @ x must round as
Blend's x @ M.T does on the same rows; tests/test_factorization.py pins
that for the BLAS in use.
"""

from __future__ import annotations

import math
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
    row_norms,
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
        if not np.all(np.isfinite(origin)):
            raise GeometryError(f"grid origin must be finite, got {origin.tolist()}")
        if not 0.0 < self.pitch < math.inf:  # NaN fails too
            raise GeometryError(f"grid pitch must be finite and positive, got {self.pitch!r}")
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
    """(lam l/2 - |x - center|_sup) / ((lam - 1) l/2) of points held as
    coordinate rows x (..., d, m); center (..., d, 1), side and lam broadcast."""
    half = side / 2.0
    r = np.abs(x[..., 0, :] - center[..., 0, :])
    for k in range(1, x.shape[-2]):
        np.maximum(r, np.abs(x[..., k, :] - center[..., k, :]), out=r)
    return np.divide(np.subtract(lam * half, r, out=r), (lam - 1.0) * half, out=r)


def blend_weight(pts: np.ndarray, cube: Cube, lam: float) -> np.ndarray:
    """1 on the cube, 0 outside lam*cube, linear in the sup-norm in between."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    return np.clip(_weight_ratio(pts.T, np.asarray(cube.center)[:, None], cube.side, lam), 0.0, 1.0)


@dataclass(frozen=True, eq=False, slots=True)
class Blend(MapExpr):
    """x -> (1-w) x + w inner(x): inner on the cube, identity outside lam*cube."""

    inner: MapExpr
    cube: Cube
    lam: float

    def __post_init__(self):
        if not 1.0 < self.lam < math.inf:  # an infinite lambda makes every weight NaN
            raise GeometryError(f"blend lambda must be finite and > 1, got {self.lam}")

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
# Still points x steps of one chunk of their weight ratios: 15 * 2^10 floats
# are 120 KB, below glibc's default mmap threshold of 128 KB.
_RATIO_ELEMS = 15 << 10
_NEG_ZERO_BITS = np.float64(-0.0).view(np.int64)  # no other float has these bits


@dataclass(frozen=True, eq=False, slots=True)
class BlendRun(MapExpr, Sequence):
    """n blends applied in order, stored as arrays.

    Factor i is Blend(inner_i, C(centers[i], sides[i]), lams[i]); inner_i is
    Translation(shifts[i]) in a translation run (matrices None) and the
    affine map x -> matrices[i] x + shifts[i] in an affine run.  run[i] and
    iteration build those Blend objects; walk() evaluates prefixes without
    them.
    """

    centers: np.ndarray  # (n, d)
    sides: np.ndarray  # (n,)
    lams: np.ndarray  # (n,)
    shifts: np.ndarray  # (n, d)
    matrices: np.ndarray | None = None  # (n, d, d) in an affine run

    def __len__(self) -> int:
        return self.sides.shape[0]

    def __getitem__(self, i):
        if isinstance(i, (slice, np.ndarray)):
            mats = None if self.matrices is None else self.matrices[i]
            return BlendRun(self.centers[i], self.sides[i], self.lams[i], self.shifts[i], mats)
        if self.matrices is None:
            inner = Translation(tuple(self.shifts[i]))
        else:
            inner = Affine(AffineMapData(self.matrices[i], self.shifts[i]))
        return Blend(inner, Cube(tuple(self.centers[i]), self.sides[i]), float(self.lams[i]))

    def evaluate(self, pts):
        return self.walk(pts, [len(self)])[0]

    def apply_each(self, pts: np.ndarray) -> np.ndarray:
        """Factor i alone applied to the points pts[i], pts (n, m, d), with
        Blend.evaluate's arithmetic: (1-w) x + w inner(x) where w > 0, else x."""
        w = np.clip(self._ratio(pts.swapaxes(1, 2), slice(None)), 0.0, 1.0)[..., None]
        if self.matrices is None:
            inner = pts + self.shifts[:, None]
        else:
            inner = np.matmul(pts, self.matrices.swapaxes(1, 2)) + self.shifts[:, None]
        return np.where(w > 0.0, (1.0 - w) * pts + w * inner, pts)

    def _ratio(self, x: np.ndarray, s) -> np.ndarray:
        """blend_weight before clipping of the factors s (an index or a slice) at the coordinate
        rows x: x (d, m) at each factor of s, or x[i] (x (span, d, m)) at the i-th factor of s."""
        return _weight_ratio(x, self.centers[s, :, None], self.sides[s, None], self.lams[s, None])

    def _product(self, x: np.ndarray, i: int, out: np.ndarray) -> np.ndarray:
        """matrices[i] @ x of the coordinate rows x (d, m) into out (an affine run): the
        one product the walk's paths take, with the bits of the factor's x @ M.T on the
        same rows."""
        return np.matmul(self.matrices[i], x, out=out)

    def _step(self, x: np.ndarray, i: int) -> None:
        """Apply factor i to the coordinate rows x (d, m) in place: Blend.evaluate of self[i]."""
        x[...] = self[i].evaluate(x.T).T

    def walk(self, pts, stops) -> np.ndarray:
        """Images of pts after each prefix of stops (non-decreasing lengths in [0, n]).

        The walk copies pts (m, d) once, as coordinate rows (d, m).  Both
        kinds jump over each block of steps along which every point keeps
        w == 0 (it stays put) or w == 1 (it moves by inner alone).  The
        moving points, the columns of Blend.evaluate's active rows in their
        order, go through the block as one path: the steps summed in order
        (translations) or one M @ x per step (affine), plus the step's shift
        where some shift of the block is not +0.0, else one + 0.0 to the
        whole path at the end of the block.  M @ x has
        the bits of Blend's x @ M.T for the same rows (the tests pin this for
        the BLAS in use); a subset of the rows may round differently, so
        only the moving points are multiplied.  Where w == 1 Blend.evaluate
        writes 0 * x + inner(x), which is inner(x) bit for bit unless
        inner(x) holds a -0.0.  So a step runs exactly, as Blend.evaluate of
        its factor, wherever some point has 0 < w < 1 or a moving image holds
        a -0.0.  _walk_block decides each block with exact tests that give
        the per-point answers: the moving points' weights from their
        per-axis extremes, the still points' behind an outward-rounded box,
        and the -0.0 scan only at steps whose shift holds a -0.0.  Every
        block's path is a view of one buffer, sized for the longest block
        and all points, so the walk takes its scratch memory once.
        """
        pts = np.asarray(pts, dtype=float)
        x = np.array(pts.T, order="C")
        stops = [int(s) for s in stops]
        out = np.empty((len(stops),) + pts.shape)
        if not pts.shape[0] or not stops:
            return out
        cap = max(1, _WALK_ELEMS // pts.shape[0])
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
            out[j] = x.T
        return out

    def _walk_block(self, x: np.ndarray, k: int, span: int, buf: np.ndarray) -> int:
        """Move the coordinate rows x (d, m) in place over the steps k, k+1,
        ... (at most span of them) along which every point keeps its w of
        step k, 0 or 1, and no moving image holds a -0.0; return how many
        steps that is (0: step k runs exactly, through Blend.evaluate).

        Each test answers as the per-point weights would, bit for bit:
        - Still points: a chunk of steps at a time (at most _RATIO_ELEMS
          ratios), only the points inside the chunk's outward-rounded union
          box (_near) take weight ratios; the rest have w == 0 there.
        - Moving points: their path is built in buf, which holds at least
          (span + 1) * x.size floats.  |fl(x - c)| peaks at an end of each
          axis and the ratio does not increase with the sup-norm radius, so
          the smallest ratio at a step is that of the per-axis minimum or
          maximum corner (a translation run's extremes are those of step k
          summed with the steps, as each point's are).  A NaN coordinate
          drops its point from the per-point maximum but not from the
          corners, so a block with one takes the per-point ratios.
        - Affine paths: a block whose shifts are all +0.0 takes the products
          alone, path[i + 1] = M path[i], and adds + 0.0 to path[1:] once.
          x + 0.0 differs from x only at x == -0.0, and a zero's sign
          reaches a product's result only when that result is a zero (with
          or without FMA), so the path differs from the per-step one only in
          the signs of zeros, which the final + 0.0 makes +0.0 as each step's
          would.  Other blocks add each step's shift after its product.
        - -0.0 images: a rounded sum is -0.0 only if both terms are, so
          path[i + 1] (M x or path[i], plus shifts[k + i]) can hold one
          only where shifts[k + i] does; only those steps are scanned.
        """
        first = self._ratio(x, k)
        still = first <= 0.0
        moving = first >= 1.0
        if not np.all(still | moving):  # some point has 0 < w < 1
            return 0
        if np.any(still):
            xs = x[:, still]
            per = max(1, _RATIO_ELEMS // xs.shape[1])
            for a in range(0, span, per):
                s = slice(k + a, k + min(a + per, span))
                hit = np.any(self._ratio(xs[:, self._near(xs, s)], s) > 0.0, axis=1)
                if hit.any():
                    span = a + int(hit.argmax())
                    break
        if not np.any(moving):
            return span
        d, m = x.shape[0], int(np.count_nonzero(moving))
        path = buf[: (span + 1) * d * m].reshape(span + 1, d, m)
        np.compress(moving, x, axis=1, out=path[0])
        s = slice(k, k + span)
        ends = np.empty((span, d, 2))  # per step and axis, the moving points' min and max
        if self.matrices is None:
            path[1:] = self.shifts[s, :, None]
            np.add.accumulate(path, axis=0, out=path)
            # fl(x + v) is monotone in x, so the extremes take the same steps.
            np.min(path[0], axis=1, out=ends[0, :, 0])
            np.max(path[0], axis=1, out=ends[0, :, 1])
            ends[1:] = self.shifts[k : k + span - 1, :, None]
            np.add.accumulate(ends, axis=0, out=ends)
        else:
            product, shifts = self._product, self.shifts[s, :, None]
            if shifts.view(np.int64).any():  # some shift is not +0.0
                for i in range(span):
                    np.add(product(path[i], k + i, path[i + 1]), shifts[i], out=path[i + 1])
            else:
                for i in range(span):
                    product(path[i], k + i, path[i + 1])
                np.add(path[1:], 0.0, out=path[1:])
            np.min(path[:-1], axis=2, out=ends[..., 0])
            np.max(path[:-1], axis=2, out=ends[..., 1])
        if np.isnan(ends).any():
            ends = path[:-1]
        miss = np.any(self._ratio(ends, s) < 1.0, axis=1)
        zero = np.flatnonzero(np.any(self.shifts[s].view(np.int64) == _NEG_ZERO_BITS, axis=1))
        if zero.size:
            miss[zero] |= np.any(path[zero + 1].view(np.int64) == _NEG_ZERO_BITS, axis=(1, 2))
        if miss.any():
            span = int(miss.argmax())
        if span:
            x[:, moving] = path[span]
        return span

    def _near(self, x: np.ndarray, s: slice) -> np.ndarray:
        """Indices of the columns of the coordinate rows x (d, m) inside the
        union box of the lam-cubes of the factors s, its bounds rounded
        outward.  lam * (side / 2.0) has _weight_ratio's bits, and a point
        outside the box has |fl(x_k - c_k)| >= that for every factor of s
        (lams > 1), so its ratio is <= 0 there (NaN points are outside)."""
        reach = (self.lams[s] * (self.sides[s] / 2.0))[:, None]
        lo = np.nextafter(np.min(self.centers[s] - reach, axis=0), -np.inf)[:, None]
        hi = np.nextafter(np.max(self.centers[s] + reach, axis=0), np.inf)[:, None]
        return np.flatnonzero(np.all((x >= lo) & (x <= hi), axis=0))

    def touching(self, pts) -> np.ndarray:
        """Indices of the factors that move some of pts (w > 0 there); only the
        points inside a chunk's union box (_near) take weight ratios."""
        x = np.array(np.asarray(pts, dtype=float).T, order="C")
        chunk = max(1, _WALK_ELEMS // max(1, x.shape[1]))
        hits = []
        for a in range(0, len(self), chunk):
            s = slice(a, a + chunk)
            hit = np.any(self._ratio(x[:, self._near(x, s)], s) > 0.0, axis=1)
            hits.append(a + np.flatnonzero(hit))
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
    """L_lo: the closed-form constant of an affine map ("exact-affine"), or the largest ratio over
    the pitch-h lattice pairs of the map as evaluated in floats, a lower bound up to that rounding."""

    h: float
    L_lo: float
    method: str  # "exact-affine" | "sampled-pairs"


def estimate_distortion(m: MapExpr, region: Cube, h: float) -> DistortionCertificate:
    """Distortion of m over the region: all lattice pairs at pitch <= h are swept for the
    largest ratio of m's float images; an exact branch bypasses sampling for affine expressions."""
    aff = affine_part(m, region.dim)
    if aff is not None:
        return DistortionCertificate(h=0.0, L_lo=bilip_constant(aff), method="exact-affine")
    pts, pitch = cube_lattice(region, h)
    imgs = m.evaluate(pts)
    if not np.all(np.isfinite(imgs)):
        raise DomainError("map produced non-finite values on the sampling lattice")
    ratio, min_img = kernels.pairwise_distortion(pts, imgs)
    if min_img == 0.0:
        raise CertificationError("not injective on samples: coincident images")
    return DistortionCertificate(h=pitch, L_lo=max(1.0, ratio), method="sampled-pairs")


def sup_distance(m1: MapExpr, m2: MapExpr, region: Cube, h: float) -> float:
    """Max over the region lattice of |m1(x) - m2(x)| as evaluated in floats
    (a lower bound on the sup up to the rounding of those evaluations)."""
    pts, _ = cube_lattice(region, h)
    return float(np.max(row_norms(m1.evaluate(pts) - m2.evaluate(pts))))


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
    err = row_norms(imgs - (np.matmul(pts, lin) + shift[:, None, :]))
    return lin, shift, err, rank
