"""Factoring model maps (linear in a cube, shrink, translation along a path)
into certified small-distortion factors, the near-identity step chains of
diagonal and rotation matrices they are built from, and the gluing operator
glue_identity_outside.

Every factor a blend builder emits comes with a sampled distortion bound;
builders auto-retry with smaller internal steps when a bound exceeds its
target.  Compactly supported factors are produced by blending a near-identity
map to the identity across an annulus, then certifying the blend a
posteriori; there is no uncertified extension step anywhere.

The blend builders (linear in a cube, shrink, translation along a path)
emit one array-backed BlendRun per call.  A factor's key is a constant
prefix plus one row of a key array; only the distinct rows become key
tuples.  The bounds go into a dict from key to L_lo that lives for one run
(or one shuffle): each distinct factor shape is swept once, and
linear-in-cube factors are swept on their canonical conjugate (blend cube
C(0, 1)), which gives the same sampled lower bound up to rounding.  An
attempt's new keys are swept as one stack in key order, a block of whole
lattices at a time, stopping after the block that holds the first factor
above the bound; bounds and dict end as in a scan one key at a time.
A FactorSequence keeps the run and one bound per factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .geometry_core import (
    AffineMapData,
    Cube,
    GeometryError,
    SVD_TOL,
    TOLERANCES,
    bilip_constant,
    check_matrix,
    cube_lattice,
    cube_lattices,
    polyline_length,
    resample_polyline,
    rotation_2d,
    rotation_3d,
    row_norms,
    step_count,
    svd,
)
from .map_engine import (
    Affine,
    Blend,
    BlendRun,
    CertificationError,
    Compose,
    DistortionCertificate,
    DomainError,
    Identity,
    MapExpr,
    Translation,
    compose_sequence,
    estimate_distortion,
    sampled_L_lo,
    sup_distance,
)

# Lattice density for per-factor certificates (points per axis).
CERT_POINTS = {2: 9, 3: 5}
MAX_RETRIES = 4


class FactorCertificationError(CertificationError):
    """A factor's sampled distortion exceeded the target after all retries."""

    def __init__(self, index: int, bound: float, target: float):
        super().__init__(
            f"factor {index} certified at {bound:.6f} > target {target:.6f} after retries"
        )
        self.index = index
        self.bound = bound


def cert_pitch(side, dim: int):
    """Lattice pitch of a certificate sweep over a cube of this side (or array of sides)."""
    return side / (CERT_POINTS[dim] - 1)


def sweep_method(dim: int) -> tuple[str, int]:
    """Method and pair count of every certificate of a blend run."""
    n = CERT_POINTS[dim] ** dim
    return "sampled-pairs", n * (n - 1) // 2


@dataclass(eq=False)
class FactorSequence:
    """Ordered factors (applied first-to-last) realizing target on region.

    Every factor is the identity outside support.  L_lo[i] is factors[i]'s
    sampled distortion bound over its support cube C(centers[i], lams[i]
    sides[i]), swept at cert_pitch; check_factor_sequence alone checks the
    composite against target, finding shell-moving factors with touching.
    """

    factors: BlendRun
    target: MapExpr
    region: Cube
    support: Cube
    L_lo: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def T(self) -> int:
        return len(self.factors)

    def max_certified(self) -> float:
        return float(self.L_lo.max()) if self.L_lo.size else 1.0


def _certify(
    run: BlendRun, prefix: tuple, rows: np.ndarray, bound: float, cache: dict,
) -> tuple[np.ndarray | None, tuple[int, float] | None]:
    """The bound of every factor of a run, or its first factor above bound.

    run[i] has the key prefix + tuple(rows[i]).  A key names a factor up to
    the changes its sampled distortion does not see: position (shrink,
    translate) or scale (linear), so run may hold the factors' conjugates by
    similarities.  cache maps each key swept so far to its L_lo.  The
    distinct rows are looked up in first-occurrence order, and run[i] of the
    first i under each key not in cache is swept over its own support cube
    by _sweeps as the lookups reach it.  Returns (bounds, None), or (None,
    (index, L_lo)) of the first factor certified above bound.  Cache and
    errors raised are those of a scan over per-factor keys sweeping one key
    at a time.
    """
    firsts, inverse = _key_groups(rows)
    order = np.argsort(firsts)
    firsts = firsts[order].tolist()
    keys = [prefix + tuple(row) for row in rows[firsts].tolist()]
    todo = [first for key, first in zip(keys, firsts) if key not in cache]
    sweeps = _sweeps(run[np.array(todo, dtype=np.intp)])
    bounds = np.empty(len(keys))
    for j, key, first in zip(order.tolist(), keys, firsts):
        l_lo = cache.get(key)
        if l_lo is None:
            l_lo = cache[key] = next(sweeps)
        if l_lo > bound:
            return None, (first, l_lo)
        bounds[j] = l_lo
    return bounds[inverse], None


def _key_groups(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(rows, axis=0)'s first indices and inverse, up to the order of the groups:
    a stable lexsort puts equal rows next to each other, the first of each group at its head."""
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    head = np.ones(len(rows), dtype=bool)
    head[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(head) - 1
    return order[head], inverse


def _sweeps(run: BlendRun):
    """estimate_distortion's L_lo of each factor of run over its support at cert_pitch, in order.

    Whole lattices are stacked, at most kernels._BLOCK_PAIRS pairs (or one
    lattice) a block, swept when its first bound is asked for; a factor's
    DomainError or CertificationError is raised when its turn comes.  A
    block whose lattices are equal point for point hands the kernel one of
    them as the source of every image set: the points are compared, not the
    supports, since sides that differ in their last bit can give one lattice.
    """
    d = run.centers.shape[1]
    n = CERT_POINTS[d]  # cube_lattice's count at cert_pitch: side / (side / 2^k) is exact
    per = max(1, kernels._BLOCK_PAIRS // sweep_method(d)[1])
    for a in range(0, len(run), per):
        block = run[a : a + per]
        pts = cube_lattices(block.centers, block.lams * block.sides, n)
        imgs = block.apply_each(pts)
        finite = np.isfinite(imgs).all(axis=(1, 2))
        imgs[~finite] = pts[~finite]  # a finite kernel input; such a factor raises at its turn
        ratios, min_imgs = kernels.pairwise_distortions(pts[:1] if (pts == pts[:1]).all() else pts, imgs)
        for ok, ratio, min_img in zip(finite.tolist(), ratios.tolist(), min_imgs.tolist()):
            if not ok:
                raise DomainError("map produced non-finite values on the sampling lattice")
            yield sampled_L_lo(ratio, min_img)


def _no_blends(target: MapExpr, region: Cube, support: Cube, meta: dict) -> FactorSequence:
    """A blend builder's sequence for a map that needs no factor: a run of none,
    whose kind nothing reads, so it holds no matrices."""
    d = region.dim
    run = BlendRun(np.empty((0, d)), np.empty(0), np.empty(0), np.empty((0, d)))
    return FactorSequence(run, target, region, support, np.empty(0), meta)


def _rotation_angle_axis(r: np.ndarray) -> tuple[float, np.ndarray | None]:
    d = r.shape[0]
    if d == 2:
        return math.atan2(r[1, 0], r[0, 0]), None
    tr = float(np.trace(r))
    theta = math.acos(min(1.0, max(-1.0, (tr - 1.0) / 2.0)))
    if theta < 1e-14:
        return 0.0, None
    if theta < math.pi - 1e-9:
        axis = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
        return theta, axis / (2.0 * math.sin(theta))
    # theta == pi: axis from the dominant column of (r + I) / 2.
    m = (r + np.eye(3)) / 2.0
    k = int(np.argmax(np.diag(m)))
    axis = m[:, k]
    return math.pi, axis / np.linalg.norm(axis)


def rotation_step_count(theta: float, alpha: float, what: str) -> int:
    """Minimal N with ||R_step - I|| = 2 sin(theta / 2N) strictly below alpha, at most MAX_STEPS."""
    theta = abs(theta)
    if theta == 0.0:
        return 0
    if alpha >= 2.0:
        return 1
    n = max(1, step_count(theta, 2.0 * math.asin(alpha / 2.0), what))
    while 2.0 * math.sin(theta / (2.0 * n)) >= alpha:
        n += 1
    return n


def _rotation_steps(r: np.ndarray, alpha: float, what: str) -> list[np.ndarray]:
    theta, axis = _rotation_angle_axis(r)
    n = rotation_step_count(theta, alpha, what)
    if n == 0:
        return []
    if r.shape[0] == 2:
        step = rotation_2d(theta / n)
    else:
        step = rotation_3d(axis, theta / n)
    return [step] * n


def diagonal_step_count(l_bound: float, alpha: float, what: str) -> int:
    """Minimal n with L^(1/n) strictly below 1 + alpha, at most MAX_STEPS."""
    if l_bound <= 1.0 + SVD_TOL:
        return 1
    n = max(1, step_count(math.log(l_bound), math.log1p(alpha), what))
    while l_bound ** (1.0 / n) >= 1.0 + alpha:
        n += 1
    return n


def _diagonal_steps(sigma: np.ndarray, alpha: float, l_bound: float, what: str) -> list[np.ndarray]:
    d = sigma.shape[0]
    if np.all(np.abs(sigma - 1.0) <= SVD_TOL):
        return []
    n = diagonal_step_count(l_bound, alpha, what)
    steps = []
    for k in range(d):
        m = np.eye(d)
        m[k, k] = sigma[k] ** (1.0 / n)
        steps += [m] * n
    return steps


def factor_diagonal(sigma, alpha: float, l_bound: float) -> list[np.ndarray]:
    """Split diag(sigma) into d*n single-entry diagonal steps near the identity.

    n is the smallest integer with L^(1/n) < 1 + alpha; partial products
    keep every diagonal entry inside [1/L, L].  All-ones sigma yields no
    step.
    """
    sigma = np.asarray(sigma, dtype=float).reshape(-1)
    if sigma.shape[0] not in (2, 3):
        raise GeometryError("sigma must have length 2 or 3")
    if np.any(sigma <= 0):
        raise GeometryError("sigma entries must be positive")
    if not (0 < alpha < 1):
        raise GeometryError("alpha must lie in (0, 1)")
    if np.any(sigma > l_bound + 1e-12) or np.any(sigma < 1.0 / l_bound - 1e-12):
        raise GeometryError("sigma outside [1/L, L]")
    return _diagonal_steps(sigma, alpha, l_bound, f"alpha {alpha}")


def factor_rotation(r, alpha: float) -> list[np.ndarray]:
    """Split a rotation into N equal-angle steps with ||step - I|| < alpha.

    d=2 uses the rotation angle directly; d=3 uses the axis-angle form.
    The step norm 2 sin(theta/2N) is exact, and the N-fold product equals
    the input to within 1e-10.
    """
    if not alpha > 0:  # NaN fails too
        raise GeometryError(f"alpha must be positive, got {alpha}")
    r = check_matrix(r)
    d = r.shape[0]
    if np.abs(r @ r.T - np.eye(d)).max() > 1e-9:
        raise GeometryError("input is not orthogonal")
    if np.linalg.det(r) < 0:
        raise GeometryError("orientation-reversing isometry cannot be factored")
    return _rotation_steps(r, alpha, f"alpha {alpha}")


def _linear_chain(a: np.ndarray, alpha: float, what: str) -> list[np.ndarray]:
    """Near-identity linear steps (rotation, diagonal, rotation) multiplying to a;
    a step count above MAX_STEPS is refused, naming what, before its list is built."""
    dec = svd(a)
    l_bound = max(dec.sigma[0], 1.0 / dec.sigma[-1])
    return (
        _rotation_steps(dec.v_t, alpha, what)
        + _diagonal_steps(dec.sigma, alpha, l_bound, what)
        + _rotation_steps(dec.u, alpha, what)
    )


def factor_linear_in_cube(
    a: AffineMapData | np.ndarray,
    q: Cube,
    c_support: float,
    epsilon: float,
) -> FactorSequence:
    """Factor an orientation-preserving linear map on a cube at the origin.

    The rotation-diagonal-rotation chain of near-identity linear steps is
    applied one step at a time; each step acts linearly on the running
    image of q and blends to the identity across an annulus of relative
    width c_support, so every factor is the identity outside the cube of
    side c_support * L * sqrt(d) * l(q).  Each factor is certified at or
    below 1 + epsilon (its step auto-halves); check_factor_sequence checks agreement.

    A factor Blend(A, C(0, s), lam) with A linear is conjugate under
    x -> s x to Blend(A, C(0, 1), lam), so the latter is swept in its place,
    once per distinct (step, lam) in the call.
    """
    mat = a.matrix if isinstance(a, AffineMapData) else check_matrix(a)
    if isinstance(a, AffineMapData) and np.any(np.abs(a.shift) > 1e-12):
        raise GeometryError("expected a linear map (zero translation)")
    d = mat.shape[0]
    if q.dim != d:
        raise GeometryError("map and cube dimensions differ")
    if np.linalg.det(mat) <= 0:
        raise GeometryError("linear factoring requires an orientation-preserving map")
    if np.max(np.abs(np.asarray(q.center))) > 1e-12:
        raise GeometryError("cube must be centered at the origin")
    if not (c_support > 1.0):
        raise GeometryError("support constant must exceed 1")
    l_bound = bilip_constant(mat)
    support = Cube(q.center, c_support * l_bound * math.sqrt(d) * q.side)
    target = Affine(AffineMapData(mat, np.zeros(d)))

    if np.abs(mat - np.eye(d)).max() <= SVD_TOL:
        return _no_blends(target, q, support, {"alpha": 0.0})

    alpha0 = epsilon / (4.0 * c_support * l_bound * math.sqrt(d))
    # Strict w == 1 margin over the running image (see factor_shrink).
    margin = min(1.1, math.sqrt(c_support))
    lam = c_support / margin
    cache: dict = {}
    verts = q.vertices()
    last_fail: tuple[int, float] | None = None
    for attempt in range(MAX_RETRIES + 1):
        alpha = alpha0 / 2**attempt
        steps = _linear_chain(mat, alpha, f"epsilon {epsilon}")
        n = len(steps)
        # Blend cube side: margin times the sup-norm diameter of the running image,
        # the images of the vertices under the partial products before each step.
        partials = np.empty((n, d, d))
        partial = np.eye(d)
        for idx, step in enumerate(steps):
            partials[idx] = partial
            partial = step @ partial
        sides = margin * (2.0 * np.max(np.abs(verts @ partials.transpose(0, 2, 1)), axis=(1, 2)))
        run = BlendRun(np.broadcast_to(np.asarray(q.center), (n, d)), sides, np.full(n, lam),
                       np.zeros((n, d)), np.array(steps).reshape(n, d, d))
        canonical = BlendRun(np.zeros((n, d)), np.ones(n), run.lams, run.shifts, run.matrices)
        bounds, last_fail = _certify(canonical, ("linear", d, lam), run.matrices.reshape(n, d * d).view(np.int64),
                                     1.0 + epsilon + TOLERANCES["certificate_slack"], cache)
        if bounds is not None:
            return FactorSequence(run, target, q, support, bounds, meta={"alpha": alpha})
    raise FactorCertificationError(last_fail[0], last_fail[1], 1.0 + epsilon)


def factor_shrink(q: Cube, lam: float, c: float, epsilon: float, cache: dict) -> FactorSequence:
    """Factor x -> center + c (x - center) on q into blended radial scalings.

    Factors are the identity outside lam * q; c may exceed 1 (expansion)
    as long as lam > c so the growing image keeps clear of the support
    boundary.  Step scale auto-halves on certification failure.  cache is
    the key -> L_lo dict of _certify, shared by the calls of one shuffle.
    """
    d = q.dim
    if not (c > 0):
        raise GeometryError("scale factor must be positive")
    if not (lam > max(1.0, c)):
        raise GeometryError("need lam > max(1, c) for the support to contain the motion")
    center = np.asarray(q.center)
    target = Affine(AffineMapData(c * np.eye(d), (1.0 - c) * center))
    support = q.dilate(lam)
    if abs(c - 1.0) <= SVD_TOL:
        return _no_blends(target, q, support, {})

    # The blend cube carries a strict margin over the moving cube so that
    # cube points sit in the w == 1 interior (an exact-boundary point would
    # lag by rounding and the lag compounds across steps).
    margin = min(1.2, (lam / max(1.0, c)) ** 0.25)
    lam_min = lam / (margin * max(1.0, c))
    kappa = 1.0 + math.sqrt(d) * lam_min / (lam_min - 1.0)
    cap0 = 0.99 * epsilon / ((1.0 + epsilon) * kappa)
    last_fail: tuple[int, float] | None = None
    for attempt in range(MAX_RETRIES + 1):
        cap = cap0 / 2**attempt
        n = max(1, step_count(abs(math.log(c)), math.log1p(cap), f"epsilon {epsilon}"))
        step = c ** (1.0 / n)
        # Factor i scales by step about the center, blended on q dilated by
        # margin c^(i/n) (the running image plus margin).
        scale = np.array([margin * c ** (i / n) for i in range(n)])
        sides = scale * q.side
        lams = lam / scale
        run = BlendRun(np.broadcast_to(center, (n, d)), sides, lams,
                       np.broadcast_to((1.0 - step) * center, (n, d)),
                       np.broadcast_to(step * np.eye(d), (n, d, d)))
        rows = np.column_stack([[round(s, 14) for s in sides.tolist()], [round(l_i, 12) for l_i in lams.tolist()]])
        bounds, last_fail = _certify(run, ("shrink", d, round(step, 14)), rows,
                                     1.0 + epsilon + TOLERANCES["certificate_slack"], cache)
        if bounds is not None:
            return FactorSequence(run, target, q, support, bounds, meta={"step_scale": step})
    raise FactorCertificationError(last_fail[0], last_fail[1], 1.0 + epsilon)


TRANSLATION_BLEND_LAM = 4.0  # support C(x, 4 l) stays within 2 diam(q) of the path


def factor_translation_along_path(
    q: Cube, path: np.ndarray, epsilon: float, cache: dict | None = None
) -> FactorSequence:
    """Carry a cube along a rectifiable path by blended translation steps.

    Each factor translates the current cube C(p_j, l(q)) to C(p_{j+1}, l(q))
    and is the identity outside C(p_j, 4 l(q)), hence at every point farther
    than 2 diam(q) from the path.  The composite acts as the pure
    translation to the path endpoint on q.  Step length auto-halves on
    certification failure.
    """
    path = np.atleast_2d(np.asarray(path, dtype=float))
    d = q.dim
    if path.shape[1] != d:
        raise GeometryError("path dimension mismatch")
    if np.max(np.abs(path[0] - np.asarray(q.center))) > 1e-12:
        raise GeometryError("path must start at the cube center")
    end = path[-1]
    target = Translation(tuple(end - np.asarray(q.center)))
    with np.errstate(over="ignore"):  # an overflowing length is refused below
        total = polyline_length(path)
    if not math.isfinite(total):
        raise GeometryError(f"path length must be finite, got {total}")
    tube = Cube(tuple((path.min(axis=0) + path.max(axis=0)) / 2.0),
                float(np.max(path.max(axis=0) - path.min(axis=0)) + 4.0 * q.side))
    if total == 0.0:
        return _no_blends(target, q, tube, {})

    # Blend cube 1.5x the moving cube (strict w == 1 margin over the cube;
    # an exact-boundary point would lag by rounding and the lag compounds),
    # outer support still C(node, 4 l(q)).
    blend_side = 1.5 * q.side
    lam = TRANSLATION_BLEND_LAM / 1.5
    delta0 = 0.95 * (epsilon / (1.0 + epsilon)) * (lam - 1.0) * blend_side / 2.0
    cache = {} if cache is None else cache
    prefix = ("translate", d, round(q.side, 14), lam)
    last_fail: tuple[int, float] | None = None
    for attempt in range(MAX_RETRIES + 1):
        delta = delta0 / 2**attempt
        # Refused before any node is made: a side small enough to zero delta, or too many steps.
        n = max(1, step_count(total, delta, f"epsilon {epsilon} with cube side {q.side}"))
        nodes = resample_polyline(path, n + 1)
        steps = np.diff(nodes, axis=0)
        run = BlendRun(nodes[:-1], np.full(n, blend_side), np.full(n, lam), steps)
        bounds, last_fail = _certify(run, prefix, np.round(steps / q.side, 12),
                                     1.0 + epsilon + TOLERANCES["certificate_slack"], cache)
        if bounds is not None:
            return FactorSequence(run, target, q, tube, bounds, meta={"delta": delta})
    raise FactorCertificationError(last_fail[0], last_fail[1], 1.0 + epsilon)


def factor_linear_outside_cube(
    a: AffineMapData | np.ndarray,
    q: Cube,
    c_support: float,
    epsilon: float,
) -> tuple[list[MapExpr], list[DistortionCertificate], Cube]:
    """Factor a linear map on the complement of a cube at the origin.

    Same chain as factor_linear_in_cube with inverted supports: each factor
    acts as its linear step outside an inscribed cube of the running image
    of q and is the identity on an inner cube, which contains
    (1/(c_support L sqrt(d))) q.  Returns (factors, certificates, inner
    cube).
    """
    mat = a.matrix if isinstance(a, AffineMapData) else check_matrix(a)
    d = mat.shape[0]
    if q.dim != d:
        raise GeometryError("map and cube dimensions differ")
    if np.linalg.det(mat) <= 0:
        raise GeometryError("linear factoring requires an orientation-preserving map")
    if np.max(np.abs(np.asarray(q.center))) > 1e-12:
        raise GeometryError("cube must be centered at the origin")
    l_bound = bilip_constant(mat)
    target = Affine(AffineMapData(mat, np.zeros(d)))
    probe = Cube(q.center, c_support * l_bound * math.sqrt(d) * q.side)
    if np.abs(mat - np.eye(d)).max() <= SVD_TOL:
        return [], [], q

    alpha0 = epsilon / (4.0 * c_support * l_bound * math.sqrt(d))
    last_fail: tuple[int, float] | None = None
    for attempt in range(MAX_RETRIES + 1):
        alpha = alpha0 / 2**attempt
        steps = _linear_chain(mat, alpha, f"epsilon {epsilon}")
        factors: list[MapExpr] = []
        certs: list[DistortionCertificate] = []
        partial = np.eye(d)
        inner_side = math.inf
        ok = True
        for idx, step in enumerate(steps):
            inv_partial = np.linalg.inv(partial)
            # Largest axis cube inscribed in partial(q): row-sum norm of the inverse.
            row_sums = np.abs(inv_partial).sum(axis=1)
            s_inscribed = q.side / float(np.max(row_sums))
            s_inner = s_inscribed / c_support
            inner_side = min(inner_side, s_inner)
            cube_i = Cube(q.center, s_inner)
            step_map = AffineMapData(step, np.zeros(d))
            factor = Compose((Affine(step_map), Blend(Affine(step_map.inverse()), cube_i, c_support)))
            cert = estimate_distortion(factor, Cube(q.center, 2.0 * c_support * s_inner), cert_pitch(s_inner, d))
            if cert.L_lo > 1.0 + epsilon + TOLERANCES["certificate_slack"]:
                last_fail = (idx, cert.L_lo)
                ok = False
                break
            factors.append(factor)
            certs.append(cert)
            partial = step @ partial
        if ok:
            pts, _ = cube_lattice(probe, probe.side / 16)
            outside = pts[~q.contains(pts, tol=1e-12)]
            comp = compose_sequence(factors)
            err = float(np.max(row_norms(comp.evaluate(outside) - target.evaluate(outside))))
            if err > TOLERANCES["agreement_rel"] * probe.diam:
                raise CertificationError(f"composite deviates from target outside the cube by {err:.3e}")
            return factors, certs, Cube(q.center, inner_side)
    raise FactorCertificationError(last_fail[0], last_fail[1], 1.0 + epsilon)


@dataclass(frozen=True, eq=False, slots=True)
class Piecewise(MapExpr):
    """Map equal to each piece on its (closed) region and the identity elsewhere."""

    pieces: tuple[tuple[Cube, MapExpr], ...]

    def evaluate(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = np.array(pts, copy=True)
        claimed = np.zeros(pts.shape[0], dtype=bool)
        for region, m in self.pieces:
            mask = region.contains(pts) & ~claimed
            if np.any(mask):
                out[mask] = m.evaluate(pts[mask])
                claimed |= mask
        return out


@dataclass(frozen=True)
class GlueReport:
    piece_bounds: tuple[float, ...]
    glued: DistortionCertificate


def glue_identity_outside(
    pieces: list[tuple[Cube, MapExpr]], h: float
) -> tuple[MapExpr, GlueReport]:
    """Glue maps supported on non-overlapping cubes, identity elsewhere.

    Each piece must send its cube into itself and fix the cube boundary
    (lattice-checked to 1e-9).  The glued sampled distortion is certified
    against the square of the largest piece bound.
    """
    if not pieces:
        empty = DistortionCertificate(0.0, 1.0, "exact-affine")
        return Identity(), GlueReport((), empty)
    for i, (r1, _) in enumerate(pieces):
        for r2, _ in pieces[i + 1 :]:
            if r1.overlaps(r2, tol=1e-12):
                raise GeometryError("piece regions have overlapping interiors")
    bounds = []
    for region, m in pieces:
        ring = _boundary_lattice(region, h)
        dev = float(np.max(row_norms(m.evaluate(ring) - ring)))
        if dev > 1e-9:
            raise GeometryError(f"not identity on boundary (deviation {dev:.3e})")
        pts, _ = cube_lattice(region, h)
        imgs = m.evaluate(pts)
        if not np.all(region.contains(imgs, tol=1e-9)):
            raise GeometryError("piece does not map its region into itself")
        bounds.append(estimate_distortion(m, region, h).L_lo)
    glued = Piecewise(tuple(pieces))
    lo = np.min([r.lo() for r, _ in pieces], axis=0)
    hi = np.max([r.hi() for r, _ in pieces], axis=0)
    span = float(np.max(hi - lo)) * 1.2
    hull = Cube(tuple((lo + hi) / 2.0), span)
    cert = estimate_distortion(glued, hull, h)
    bound = max(bounds) ** 2
    if cert.L_lo > bound + 1e-6:
        raise CertificationError(
            f"glued distortion {cert.L_lo:.6f} exceeds the squared piece bound {bound:.6f}"
        )
    return glued, GlueReport(tuple(bounds), cert)


def _boundary_lattice(region: Cube, h: float) -> np.ndarray:
    pts, _ = cube_lattice(region, h)
    lo, hi = region.lo(), region.hi()
    on_face = np.any(
        (np.abs(pts - lo) < 1e-12 * region.side) | (np.abs(pts - hi) < 1e-12 * region.side), axis=1
    )
    return pts[on_face]


def check_factor_sequence(fs: FactorSequence, epsilon: float) -> dict:
    """Re-verify a factor sequence's contracts; returns a report dict.

    Checks composite-vs-target agreement on the region lattice at pitch
    side / 16, per-factor bounds against 1 + epsilon, and identity outside
    the support on a surrounding shell lattice.
    """
    region = fs.region
    agree = sup_distance(fs.factors, fs.target, region, region.side / 16)
    report = {
        "T": fs.T,
        "agreement_sup": agree,
        "agreement_ok": agree <= TOLERANCES["agreement_rel"] * region.diam,
        "max_certified": fs.max_certified(),
        "certificates_ok": bool(np.all(fs.L_lo <= 1.0 + epsilon + TOLERANCES["certificate_slack"])),
    }
    # A factor that moves no shell point is exactly the identity there.
    shell, _ = cube_lattice(fs.support.dilate(1.5), fs.support.side / 8)
    outside = shell[~fs.support.contains(shell, tol=1e-12)]
    run = fs.factors
    worst = 0.0
    for i in run.touching(outside):
        moved = run[i].evaluate(outside)
        worst = max(worst, float(np.max(row_norms(moved - outside))))
        if worst > TOLERANCES["support_identity"]:
            break
    report["support_identity_dev"] = worst
    report["support_ok"] = worst <= TOLERANCES["support_identity"]
    return report
