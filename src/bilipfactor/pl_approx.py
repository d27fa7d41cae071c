"""Piecewise-affine approximation on Freudenthal triangulations.

A box is tiled by cubical cells, each split into d! simplices by coordinate
orderings; interpolating a map at the lattice vertices gives a globally
continuous piecewise-affine map.  The interpolant is itself a map: it
holds its simplex images, gathered once, and the per-simplex data (affine
pieces, distortion constants, orientation signs) that is verified rather
than assumed:
orientation + per-simplex constants for the Lipschitz verdict, degree sweeps
and orientation signs for injectivity, degree sweeps for surjectivity.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .degree import DegreeError
from .geometry_core import Cube, GeometryError, check_points
from .map_engine import DomainError, MapExpr

FACE_TOL = 1e-12
PERTURB_SIZE = 1e-9
SWEEP_TARGETS = 1 << 13  # targets per pass of the degree sweep
# (target, simplex) candidate pairs one pass may gather: 4x the largest pass of the tests
# (995,328, a 3-D sweep), 66x the benchmark pool's (63,319)
SWEEP_CANDIDATES = 1 << 22
# Deterministic tie-break direction for non-regular targets.
_PERTURB_DIR = np.array([1.0, 1.0 / math.pi, 1.0 / math.pi**2])


@dataclass(frozen=True, eq=False)
class Triangulation:
    """Freudenthal triangulation of an axis box: d! simplices per lattice cell."""

    dim: int
    pitch: float
    origin: np.ndarray  # lower corner of the covered box
    cells: tuple[int, ...]  # number of cells per axis

    @property
    def permutations(self) -> list[tuple[int, ...]]:
        return list(itertools.permutations(range(self.dim)))

    @cached_property
    def permutation_index(self) -> np.ndarray:
        """Simplex index within a cell of each ordering p, at sum_k p[k] (d+1)^k."""
        d = self.dim
        base = (d + 1) ** np.arange(d)
        out = np.full(((d + 1) ** d,), -1, dtype=int)
        for i, perm in enumerate(self.permutations):
            out[int(np.dot(perm, base))] = i
        return out

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.cells))

    @property
    def n_simplices(self) -> int:
        return self.n_cells * math.factorial(self.dim)

    def covered_hi(self) -> np.ndarray:
        return self.origin + self.pitch * np.asarray(self.cells)

    def vertex_grid(self) -> np.ndarray:
        """All lattice vertices, shape (cells+1 per axis) + (dim,)."""
        axes = [self.origin[k] + self.pitch * np.arange(self.cells[k] + 1) for k in range(self.dim)]
        grid = np.meshgrid(*axes, indexing="ij")
        return np.stack(grid, axis=-1)

    def simplex_vertex_offsets(self) -> np.ndarray:
        """Integer vertex offsets per permutation, shape (d!, d+1, d).

        The simplex for ordering p is {x_{p[0]} <= ... <= x_{p[d-1]}} within
        the unit cell; its vertex chain adds unit steps e_{p[d-1]}, ...,
        e_{p[0]}.
        """
        d = self.dim
        out = np.zeros((math.factorial(d), d + 1, d), dtype=int)
        for pi, perm in enumerate(self.permutations):
            v = np.zeros(d, dtype=int)
            for j, axis in enumerate(reversed(perm), start=1):
                v = v.copy()
                v[axis] += 1
                out[pi, j] = v
        return out


def freudenthal(pitch: float, box: Cube) -> Triangulation:
    """Triangulation of the box's dimension whose cells cover the box."""
    with np.errstate(over="ignore"):  # a cube near the float limit overflows its corners
        lo, hi = box.lo(), box.hi()
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise GeometryError(f"triangulation box must have finite corners, got lo {lo.tolist()} and hi {hi.tolist()}")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        spans = (hi - lo) / pitch
    # Refused before any ceil: a pitch that is not finite and positive, or one
    # that underflows against the box (its cell counts overflow).
    if not (0.0 < pitch < math.inf and np.all(np.isfinite(spans))):
        raise GeometryError("triangulation pitch must be positive")
    cells = tuple(max(1, int(math.ceil(s - 1e-12))) for s in spans.tolist())
    return Triangulation(dim=box.dim, pitch=pitch, origin=lo, cells=cells)


@dataclass(frozen=True)
class PLVerdicts:
    lipschitz_ok: bool
    injective_ok: bool
    surjective_spotcheck_ok: bool
    n_targets: int = 0
    n_unresolved: int = 0
    max_simplex_constant: float = 0.0


@dataclass(frozen=True, eq=False, slots=True)
class PLApprox(MapExpr):
    """The interpolant, a map on the covered box: vertex images, the image
    vertices of each simplex, and per-simplex affine pieces."""

    tri: Triangulation
    vertex_images: np.ndarray  # shape (cells+1 per axis) + (dim,)
    simplices: np.ndarray  # (n_simplices, d+1, d); simplex k d! + p is ordering p of cell k, cells in C order
    matrices: np.ndarray  # (n_simplices, d, d)
    shifts: np.ndarray  # (n_simplices, d)
    constants: np.ndarray  # per-simplex bi-Lipschitz constants
    orientations: np.ndarray  # per-simplex determinant signs

    def evaluate(self, pts):
        tri = self.tri
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        t = (pts - tri.origin) / tri.pitch
        hi = np.asarray(tri.cells, dtype=float)
        if np.any(t < -1e-9) or np.any(t > hi + 1e-9):
            raise DomainError("piecewise-affine map evaluated outside its triangulation")
        cell = np.minimum(np.floor(np.clip(t, 0.0, None)).astype(int), np.asarray(tri.cells) - 1)
        frac = t - cell
        order = np.argsort(frac, axis=1, kind="stable")  # ascending: simplex ordering
        d = tri.dim
        perm_idx = tri.permutation_index[order @ ((d + 1) ** np.arange(d))]
        nf = math.factorial(d)
        strides = np.concatenate([np.cumprod(np.asarray(tri.cells)[::-1])[::-1][1:], [1]])
        cell_flat = cell @ strides
        sim = cell_flat * nf + perm_idx
        mats = self.matrices[sim]
        shifts = self.shifts[sim]
        return np.einsum("nij,nj->ni", mats, pts) + shifts


def pl_interpolate(f: MapExpr, tri: Triangulation) -> PLApprox:
    """Piecewise-affine interpolant of f on the triangulation vertices.

    Per-simplex affine pieces are solved exactly from the d+1 vertex
    constraints (the vertex chain makes the solve a column assembly);
    continuity across shared faces is automatic.
    """
    verts = tri.vertex_grid()
    flat = verts.reshape(-1, tri.dim)
    images = f.evaluate(flat).reshape(verts.shape)

    d = tri.dim
    grid = np.meshgrid(*[np.arange(c) for c in tri.cells], indexing="ij")
    corners = np.stack([g.ravel() for g in grid], axis=-1)
    idx = corners[:, None, None, :] + tri.simplex_vertex_offsets()[None, :, :, :]  # (cells, d!, d+1, d)
    img_flat = images[tuple(idx.reshape(-1, d).T)].reshape(-1, d + 1, d)
    nf = math.factorial(d)
    n = img_flat.shape[0]
    mats = np.empty((n, d, d))
    diffs = (img_flat[:, 1:, :] - img_flat[:, :-1, :]) / tri.pitch  # (n, d, d)
    for pi, perm in enumerate(tri.permutations):
        cols = list(reversed(perm))  # step j increments axis cols[j]
        sel = np.arange(pi, n, nf)
        for j, axis in enumerate(cols):
            mats[sel, :, axis] = diffs[sel, j, :]
    base_pts = (tri.origin + tri.pitch * corners)[:, None, :].repeat(nf, axis=1).reshape(n, d)
    shifts = img_flat[:, 0, :] - np.einsum("nij,nj->ni", mats, base_pts)

    sv = np.linalg.svd(mats, compute_uv=False)
    smax, smin = sv[:, 0], sv[:, -1]
    constants = np.where(smin > 0, np.maximum(smax, 1.0 / np.maximum(smin, 1e-300)), np.inf)
    orientations = np.sign(np.linalg.det(mats)).astype(int)
    return PLApprox(
        tri=tri,
        vertex_images=images,
        simplices=img_flat,
        matrices=mats,
        shifts=shifts,
        constants=constants,
        orientations=orientations,
    )


def degrees_pl_batch(pl: PLApprox, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Simplex-sum degrees for many targets; returns (degrees, unresolved mask).

    Non-degenerate image simplices sit in CSR buckets: (grid cell key, simplex)
    pairs over each bounding box, sorted by key, on a grid of the mean box size.
    Each pass of SWEEP_TARGETS targets gathers their buckets (a key off the
    grid has none), keeps the boxes that hold a target within the face
    tolerance and solves all barycentric systems in one einsum; a pass whose
    buckets hold more than SWEEP_CANDIDATES simplices in all is refused with
    GeometryError before they are gathered (a few huge image simplices can
    put nearly every simplex in every bucket).  Targets within
    the tolerance of a face are re-swept once, together, at the fixed tie-break
    perturbation; those still on a face get degree 0 and are flagged unresolved.
    """
    sims, signs = pl.simplices, pl.orientations
    d = pl.tri.dim
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    tol = FACE_TOL

    lo, hi = sims.min(axis=1), sims.max(axis=1)
    pad = tol * np.maximum(np.max(hi - lo, axis=1), 1e-300)[:, None]
    box_lo, box_hi = lo - pad, hi + pad
    edges = np.transpose(sims[:, 1:, :] - sims[:, :1, :], (0, 2, 1))  # (n, d, d)
    live = np.nonzero(~(np.abs(np.linalg.det(edges)) < 1e-300))[0]
    inv = np.zeros_like(edges)
    inv[live] = np.linalg.inv(edges[live])

    with np.errstate(over="ignore"):  # an overflowing mean is refused below
        cell = float(np.mean(hi - lo)) or 1.0
    if not cell < math.inf:  # one bucket would hold every simplex: a sweep of all pairs
        raise GeometryError(f"image simplices too large to bucket: mean box size {cell}")
    glo = lo.min(axis=0)
    key_lo = np.floor((lo[live] - glo) / cell).astype(int)
    span = np.floor((hi[live] - glo) / cell).astype(int) - key_lo + 1
    shape = (key_lo + span).max(axis=0, initial=1)
    per_sim = span.prod(axis=1)
    owner = np.repeat(np.arange(live.size), per_sim)
    rank = np.arange(owner.size) - np.repeat(np.cumsum(per_sim) - per_sim, per_sim)  # index in own key box
    keys = key_lo[owner]
    for k in reversed(range(d)):
        rank, keys[:, k] = rank // span[owner, k], keys[:, k] + rank % span[owner, k]
    bucket_key = np.ravel_multi_index(keys.T, shape)
    order = np.argsort(bucket_key, kind="stable")
    bucket_key, bucket_sim = bucket_key[order], live[owner[order]]

    def sweep(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        parts = [sweep_chunk(y[i : i + SWEEP_TARGETS]) for i in range(0, max(len(y), 1), SWEEP_TARGETS)]
        return tuple(np.concatenate(p) for p in zip(*parts))

    def sweep_chunk(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        key = np.floor((y - glo) / cell).astype(int)
        on_grid = np.nonzero(np.all((key >= 0) & (key < shape), axis=1))[0]
        flat = np.ravel_multi_index(key[on_grid].T, shape)
        start = np.searchsorted(bucket_key, flat, side="left")
        count = np.searchsorted(bucket_key, flat, side="right") - start
        check_points(int(count.sum()), f"the degree sweep of {len(y)} targets", "candidate simplices",
                     SWEEP_CANDIDATES)
        tgt = np.repeat(on_grid, count)
        cand = bucket_sim[np.repeat(start - np.cumsum(count) + count, count) + np.arange(tgt.size)]
        near = ~np.any((y[tgt] < box_lo[cand]) | (y[tgt] > box_hi[cand]), axis=1)
        tgt, cand = tgt[near], cand[near]
        lam_rest = np.einsum("nij,nj->ni", inv[cand], y[tgt] - sims[cand, 0])
        lam_min = np.minimum(1.0 - lam_rest.sum(axis=1), lam_rest.min(axis=1))
        total = np.bincount(tgt, weights=signs[cand] * (lam_min >= tol), minlength=len(y))
        on_face = np.bincount(tgt, weights=(lam_min >= -tol) & (lam_min < tol), minlength=len(y)) > 0
        return np.where(on_face, 0, total).astype(int), on_face

    degrees, unresolved = sweep(targets)
    retry = np.nonzero(unresolved)[0]
    degrees[retry], unresolved[retry] = sweep(targets[retry] + PERTURB_SIZE * _PERTURB_DIR[:d])
    return degrees, unresolved


def degree_pl(pl: PLApprox, y: np.ndarray) -> int:
    """Simplex-sum degree at one target y; raises DegreeError when y stays on a face image."""
    degrees, unresolved = degrees_pl_batch(pl, np.asarray(y, dtype=float)[None])
    if unresolved[0]:
        raise DegreeError("non-regular value: target on a simplex face image")
    return int(degrees[0])


def verify_pl(pl: PLApprox, epsilon: float) -> PLVerdicts:
    """Verify the interpolant is a small-distortion homeomorphism candidate.

    lipschitz_ok: every per-simplex constant <= (1+2*epsilon)+1e-9 with
    orientation +1.  injective_ok: degree exactly +1 at a deterministic
    sweep of image targets (values of the map on an offset interior
    lattice at a third of the triangulation pitch), and no fold: signs +1
    and -1 not both present.  The surjectivity spot-check requires degree
    >= 1 at the same targets.  Unresolved (non-regular) targets fail the
    verdicts when they exceed 0.1%.  The fold rule is exact when no sign is
    0: the facet-adjacency graph is connected, so both signs meet across a
    facet, where the two images overlap in an open set; sign-0 simplices
    can make it stricter, on maps that collapse a simplex and so are not
    injective either.
    """
    bound = 1.0 + 2.0 * epsilon + 1e-9
    lipschitz_ok = bool(np.all(pl.constants <= bound) and np.all(pl.orientations == 1))

    tri = pl.tri
    pitch = tri.pitch / 3.0
    margin = 2.0 * tri.pitch
    lo = tri.origin + margin
    hi = tri.covered_hi() - margin
    offset = pitch / math.pi
    axes = [np.arange(lo[k] + offset, hi[k], pitch) for k in range(tri.dim)]
    if any(len(a) == 0 for a in axes):
        raise GeometryError("triangulation too coarse for a verification sweep")
    grid = np.meshgrid(*axes, indexing="ij")
    sources = np.stack([g.ravel() for g in grid], axis=-1)
    targets = pl.evaluate(sources)

    degrees, unresolved = degrees_pl_batch(pl, targets)
    n_targets = targets.shape[0]
    n_unres = int(unresolved.sum())
    ok_frac = n_unres <= 0.001 * n_targets
    resolved = degrees[~unresolved]
    injective_ok = bool(ok_frac and np.all(resolved == 1) and not pl.orientations.max() > 0 > pl.orientations.min())
    surjective_ok = bool(ok_frac and np.all(resolved >= 1))
    return PLVerdicts(
        lipschitz_ok=lipschitz_ok,
        injective_ok=injective_ok,
        surjective_spotcheck_ok=surjective_ok,
        n_targets=n_targets,
        n_unresolved=n_unres,
        max_simplex_constant=float(pl.constants.max()),
    )


def complexity_count(tri: Triangulation, box: Cube) -> int:
    """Number of simplices whose cell meets the box interior."""
    lo, hi = box.lo(), box.hi()
    total = 1
    for k in range(tri.dim):
        a0 = int(math.floor((lo[k] - tri.origin[k]) / tri.pitch + 1e-12))
        a1 = int(math.ceil((hi[k] - tri.origin[k]) / tri.pitch - 1e-12))
        a0 = max(a0, 0)
        a1 = min(a1, tri.cells[k])
        total *= max(0, a1 - a0)
    return total * math.factorial(tri.dim)
