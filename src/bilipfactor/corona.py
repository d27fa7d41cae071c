"""Empirical coronization of a sampled map and the multi-level decomposition.

A coronization splits the dyadic cubes of [0,1]^d (down to a finite depth)
into good and bad cubes plus coherent stopping-time regions, where each
region carries a single affine surrogate fit that approximates the map on
every member cube.  All measure arithmetic is exact over dyadic rationals:
cube sides are powers of two, so masses, Carleson sums and the multi-level
good-set volumes are integer sums on the label arrays, in units of a power
of two, turned into Fractions only at the end (no floating-point drift and
no rational box geometry).

Sampling: every fit and every child check looks at the map on the pitch-h
lattice of a cube's 2Q window clipped to [0,1]^d.  A level's cubes are one
(k, d) coordinate array, grouped once by clip class (per axis, the window
is cut at 0, at 1 or neither), which fixes the window's shape.  When
h = 2^-p the map is evaluated once on the pitch-h lattice of [0,1]^d, and a
class's windows at a level L < p are one strided view of it, indexed by the
cubes, point for point box_lattice's; other windows are sampled on their
own and stacked.  Each stacked fit is bit for bit its window's own solve.
A level's regions grow together from the fit stacks' residuals |fit - f|:
below level p a child check is a block maximum of its top's, equal bit for
bit to the sup on the child's own window (a max does not round).  The
multi-level R and Q cubes are selected on the label arrays, one stacked
mask pass per cube level.

Storage: one int64 label array per level, labels[L] of shape (2^L,)*d,
holding -1 for a bad cube and the region index for a good one, and the
regions as columns of one row each: top [level, *coords], fit and residual;
the multi-level R and Q cubes are int64 rows [level, *coords] too.  These
are the library's only form of a dyadic cube: the build writes them, the
checker, Carleson sums, multi-level decomposition and report read them, and
Coronization.good and .bad are the rows of the good and bad cubes.  One
label per cube makes good/bad overlap, overlapping regions and cubes beyond
the depth unrepresentable; the checker still finds cubes left unassigned,
tops without their region's label, and members outside their top, cut off
from it, or with their children split between regions.

Carleson sums are exact int64 counts in units of the finest cube volume
2^-(d depth), summed over 2^d blocks level by level and turned into
Fractions only for the final ratios; a pyramid whose largest sum,
(depth+1) 2^(d depth) units, could overflow int64 (always the case past
d depth = 62) is refused by build_coronization before any array is built,
as is a negative depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .geometry_core import (
    AffineMapData,
    Cube,
    GeometryError,
    bilip_constants,
    box_lattice,
    check_points,
    row_norms,
)
from .map_engine import MapExpr, affine_fit_samples, estimate_distortion

_UNASSIGNED = -2  # build-time label of a cube not yet classified
FIT_POINTS = 1 << 15  # window points per stacked affine fit, as kernels' pair blocks


@dataclass(eq=False)
class Coronization:
    """labels[L], of shape (2^L,)*d, holds -1 for each bad level-L cube and
    the index of the region of each good one.  Region i, a coherent cube family
    under its top tops[i], has one affine surrogate x @ lin[i] + shift[i]
    (matrix lin[i].T); residual[i] is its top's own fit residual."""

    labels: list[np.ndarray]
    tops: np.ndarray  # (n, 1+d) int64 rows [level, *coords]
    lin: np.ndarray  # (n, d, d)
    shift: np.ndarray  # (n, d)
    residual: np.ndarray  # (n,)
    params: dict = field(default_factory=dict)

    @property
    def depth(self) -> int:
        return len(self.labels) - 1

    def _rows(self, keep) -> np.ndarray:
        """(k, 1+d) int64 rows [level, *coords] of the cubes whose label passes keep,
        level by level in C order."""
        rows = [np.empty((0, 1 + self.labels[0].ndim), np.int64)]
        for level, lab in enumerate(self.labels):
            at = np.argwhere(keep(lab))
            rows.append(np.column_stack([np.full(len(at), level, np.int64), at]))
        return np.concatenate(rows)

    @property
    def good(self) -> np.ndarray:
        """Rows of the cubes labelled with a region index."""
        return self._rows(lambda lab: (lab >= 0) & (lab < len(self.tops)))

    @property
    def bad(self) -> np.ndarray:
        """Rows of the cubes labelled -1."""
        return self._rows(lambda lab: lab == -1)


def _fit_window(level: int, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sampling boxes (lo, hi), each (k, d), of the level cubes at coords (k, d): 2Q
    clipped to the unit cube."""
    side = 2.0**-level
    centers = (coords + 0.5) * side
    return np.maximum(centers - side, 0.0), np.minimum(centers + side, 1.0)


def _box_windows(f: MapExpr, level: int, coords: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Each window's box_lattice at pitch h and f on it, one evaluate per window, stacked."""
    pts = [box_lattice(lo, hi, h) for lo, hi in zip(*_fit_window(level, coords))]
    return np.stack(pts), np.stack([f.evaluate(x) for x in pts])


def _sup_error(lin: np.ndarray, shift: np.ndarray, pts: np.ndarray, imgs: np.ndarray) -> float:
    """max |pts @ lin + shift - imgs|: the operands AffineMapData.apply multiplies for matrix lin.T."""
    return float(np.max(row_norms(pts @ lin + shift - imgs)))


def region_fit_error(fit: AffineMapData, f: MapExpr, q: np.ndarray | tuple[int, ...], h: float) -> float:
    """sup over the lattice of 2Q intersected with [0,1]^d of |fit - f|, for the
    dyadic cube Q of the row q = [level, *coords]."""
    level, *coords = q
    pts, imgs = _box_windows(f, int(level), np.array([coords]), h)
    return _sup_error(fit.matrix.T, fit.shift, pts[0], imgs[0])


def _lattice_exponent(h: float) -> int | None:
    """p with h == 2**-p for an integer p >= 0, else None."""
    mant, exp = math.frexp(h)
    return 1 - exp if mant == 0.5 and exp <= 1 else None


class _WindowSamples:
    """f on the lattice of each cube's clipped 2Q window, at pitch h.

    When h = 2^-p, f is evaluated once on the pitch-h lattice of [0,1]^d.
    The window of a level-L cube has its corners at multiples of 2^-(L+1),
    so for L < p it is a box of that lattice holding the same points, in
    the same order, as box_lattice gives for it.  The windows of one clip
    class start 2^(p-L) pitches apart on each axis, so they are one strided
    view of the lattice (and of its images), indexed by the cubes: one copy
    each, C-contiguous and apart from the lattice.  Any other window is
    sampled on its own.
    """

    def __init__(self, f: MapExpr, dim: int, h: float):
        self.f, self.dim, self.h = f, dim, h
        self.p = _lattice_exponent(h)
        if self.p is not None:
            self.pts = box_lattice(np.zeros(dim), np.ones(dim), h).reshape((2**self.p + 1,) * dim + (dim,))
            self.imgs = f.evaluate(self.pts.reshape(-1, dim)).reshape(self.pts.shape)

    def __call__(self, level: int, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Points and images on the windows of the level cubes at coords (k, d), which share
        a clip class: (k,) + window shape + (d,) for lattice boxes, else (k, n, d)."""
        if self.p is None or level >= self.p:
            return _box_windows(self.f, level, coords, self.h)
        step, axes = 1 << (self.p - level - 1), tuple(range(self.dim))
        lo = np.maximum(2 * coords - 1, 0) * step
        shape = tuple((np.minimum(2 * coords[0] + 3, 2 << level) * step + 1 - lo[0]).tolist())
        base = lo.min(axis=0)
        corner = tuple(slice(b, None) for b in base.tolist())
        stride = (slice(None, None, 2 * step),) * self.dim
        at = tuple(((lo - base) // (2 * step)).T)
        views = (sliding_window_view(a[corner], shape, axis=axes)[stride] for a in (self.pts, self.imgs))
        return tuple(np.moveaxis(v, self.dim, -1)[at] for v in views)


def _children(a: np.ndarray, dim: int) -> np.ndarray:
    """Entries of level-(L+1) arrays (the trailing dim axes of a) grouped under
    their level-L parents: shape a.shape[:-dim] + (2^L,)*dim + (2^dim,)."""
    m, n = a.ndim - dim, a.shape[-1] // 2
    blocks = a.reshape(a.shape[:m] + (n, 2) * dim)
    blocks = blocks.transpose(*range(m), *range(m, m + 2 * dim, 2), *range(m + 1, m + 2 * dim, 2))
    return blocks.reshape(a.shape[:m] + (n,) * dim + (2**dim,))


def _window_maxima(field: np.ndarray, top: int, corner, level: int, p: int) -> np.ndarray:
    """Max of field (the error field, at h = 2^-p, of the window of the level-`top`
    cube at corner, or a stack of fields of windows of its clip class, on the
    trailing axes) over the window of every level-`level` cube under it,
    top < level < p.

    Each such window is a slice of the top's: per axis, a cube c covers the
    half-cells max(2c-1, 0) ... min(2c+3, 2^(level+1)) of 2^(p-level-1)
    lattice pitches each.  The windows of neighbours overlap, so one
    reduceat per axis takes the max over [start, stop) pairs and keeps
    every other row; out[..., rel] belongs to the cube at the corner + rel.
    """
    n = 1 << (level - top)
    step = 1 << (p - level - 1)
    end = 1 << (level + 1)
    out = field
    for axis, cq in enumerate(corner, start=field.ndim - len(corner)):
        c = np.arange(cq * n, (cq + 1) * n)
        origin = max(2 * cq - 1, 0) << (p - top - 1)
        start = np.maximum(2 * c - 1, 0) * step - origin
        stop = np.minimum(2 * c + 3, end) * step + 1 - origin
        bounds = np.stack([start, stop], axis=-1).ravel()
        if bounds[-1] == out.shape[axis]:  # the last window reaches the end: reduceat's default
            bounds = bounds[:-1]
        out = np.maximum.reduceat(out, bounds, axis=axis)
        out = out[(slice(None),) * axis + (slice(None, None, 2),)]
    return out


def _grow_level(labels: list[np.ndarray], top: int, coords: np.ndarray, ids: np.ndarray, lin: np.ndarray,
                shift: np.ndarray, fields: list[tuple[np.ndarray, np.ndarray]], sample: _WindowSamples,
                theta: float) -> None:
    """Grow the regions opened among the level-`top` cubes at coords together,
    one level at a time; ids holds each cube's label (-1 for a bad cube), lin
    and shift its fit, and fields the (good cube indices, error fields) chunks
    of _level_fits.

    A frontier cube's children all join when each passes
    sup |fit - f| <= theta diam on its window; joined children are the next
    frontier.  The tops' subtrees are disjoint and unassigned, so one (k,) +
    (n,)*d mask holds the frontiers.  Below level p child errors are block
    maxima of the tops' error fields, a chunk (one clip class) at a time,
    skipping a chunk whose tops have all stopped growing; from p on they are
    _sup_error on each child of the frontier, stopping at a cube's first
    failing child.
    """
    good = ids >= 0
    if not good.any():
        return
    dim, depth, tops, first = sample.dim, len(labels) - 1, coords[good], int(ids[good][0])
    lin, shift = lin[good], shift[good]
    frontier = np.ones((len(tops),) + (1,) * dim, dtype=bool)
    for level in range(top + 1, depth + 1):
        n = 1 << (level - top)
        limit = theta * (2.0**-level * math.sqrt(dim))
        passed = np.zeros((len(tops),) + (n,) * dim, dtype=bool)
        if fields and level < sample.p:
            for sel, field in fields:
                rows = ids[sel] - first
                if frontier[rows].any():  # else nothing reads these tops' passes
                    passed[rows] = _window_maxima(field, top, coords[sel[0]], level, sample.p) <= limit
        else:
            for j, *x in np.argwhere(frontier).tolist():
                for off in np.ndindex((2,) * dim):
                    rel = tuple(2 * a + b for a, b in zip(x, off))
                    pts, imgs = sample(level, tops[j:j + 1] * n + rel)
                    if not _sup_error(lin[j], shift[j], pts[0], imgs[0]) <= limit:
                        break
                    passed[(j, *rel)] = True
        frontier &= _children(passed, dim).all(axis=-1)
        if not frontier.any():
            return
        for axis in range(1, dim + 1):
            frontier = frontier.repeat(2, axis=axis)
        j, *rel = np.nonzero(frontier)
        labels[level][tuple(tops[j].T * n + rel)] = first + j


def _level_fits(f: MapExpr, level: int, coords: np.ndarray, sample: _WindowSamples, theta: float,
                l_est: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list]:
    """(lin, shift, residual, bad, fields) of the level cubes at coords (k, d).

    The cubes are grouped once by clip class (per axis: the window cut at 0,
    at 1, or neither), which fixes the window's shape.  A class is fitted in
    chunks of at most FIT_POINTS points (or one window; the first chunk is
    one window, whose size sets the rest), one sample call each.  Where the
    children's windows are lattice boxes too, fields keeps each chunk's good
    cubes' indices and |fit - f| shaped as their windows.  Centre images are
    f.evaluate_each, each m(center) as if alone: a Blend rounds some rows
    differently in a batch or lattice."""
    k, dim, side = len(coords), sample.dim, 2.0**-level
    lin, shift, res, rank = np.empty((k, dim, dim)), np.empty((k, dim)), np.empty(k), np.empty(k, int)
    fields = []
    clip = ((coords == 0) + 2 * (coords == (1 << level) - 1)) @ (4 ** np.arange(dim))
    order = np.argsort(clip, kind="stable")
    for todo in np.split(order, np.flatnonzero(np.diff(clip[order])) + 1):
        size = 1
        while len(todo):
            sel, todo = todo[:size], todo[size:]
            pts, imgs = sample(level, coords[sel])
            centers = (coords[sel] + 0.5) * side
            lin[sel], shift[sel], err, rank[sel] = affine_fit_samples(
                pts.reshape(len(sel), -1, dim), imgs.reshape(len(sel), -1, dim), centers, f.evaluate_each(centers))
            res[sel] = err.max(axis=1) / (side * math.sqrt(dim))
            if sample.p is not None and level + 1 < sample.p:
                fields.append((sel, err.reshape(pts.shape[:-1])))
            size = max(1, FIT_POINTS // err.shape[1])
    finite = np.isfinite(lin).all(axis=(1, 2)) & np.isfinite(shift).all(axis=1)
    bad = (rank < dim + 1) | ~finite | (res > theta)
    lips = bilip_constants(lin[~bad].transpose(0, 2, 1))
    bad[~bad] = np.isnan(lips) | (lips > 2.0 * l_est)
    return lin, shift, res, bad, [(sel[~bad[sel]], err[~bad[sel]]) for sel, err in fields if not bad[sel].all()]


def build_coronization(
    f: MapExpr,
    dim: int,
    depth: int,
    theta: float,
    h: float,
    force_top_bad: bool = False,
) -> Coronization:
    """Greedy top-down coronization of [0,1]^dim for a sampled map.

    A cube whose own affine fit misses theta (relative sup error over 2Q)
    or whose fit distortion exceeds twice the measured distortion of f is
    bad.  A passing cube opens a region that keeps descending while the
    REGION TOP's fit stays within theta * diam(Q) on every child; children
    join all-or-none, which makes regions coherent by construction.  Levels
    are visited top-down; a level's unassigned cubes, one (k, d) coordinate
    array, are fitted in one pass (_level_fits); its good ones open regions
    in C order, grown together one level at a time (_grow_level), with child
    errors taken from each top's fit residual field where the windows are
    lattice boxes.
    """
    if depth < 0:
        raise GeometryError(f"coronization depth must be non-negative, got {depth}")
    if dim * depth + (depth + 1).bit_length() > 63:
        raise GeometryError(
            f"depth {depth} in {dim}-D: exact subtree sums would overflow int64"
        )
    check_points(sum(1 << (dim * level) for level in range(depth + 1)), f"depth {depth} in {dim}-D", "label cells")
    check_points(math.prod([float(np.ceil(1.0 / h - 1e-12)) + 1.0] * dim), f"h {h}", "lattice points")
    smallest = 2.0**-depth
    if (math.floor(smallest / h) + 1) ** dim < dim + 1:
        raise GeometryError("resolution too coarse: fewer than d+1 samples per smallest cube")
    probe = Cube(tuple([0.5] * dim), 1.0)
    l_est = estimate_distortion(f, probe, max(h, 1.0 / 32.0)).L_lo

    sample = _WindowSamples(f, dim, h)
    labels = [
        np.full((1 << level,) * dim, _UNASSIGNED, dtype=np.int64) for level in range(depth + 1)
    ]
    columns = []  # per level, the (tops, lin, shift, residual) rows of the regions it opens
    n_regions = 0

    if force_top_bad:
        labels[0].fill(-1)
    for level in range(depth + 1):
        # Regions opened here label only deeper cubes, so this level's unassigned
        # cubes are all fitted first and labelled at once: -1, or the region each opens.
        coords = np.argwhere(labels[level] == _UNASSIGNED)
        lin, shift, res, bad, fields = _level_fits(f, level, coords, sample, theta, l_est)
        ids = np.where(bad, -1, n_regions + np.cumsum(~bad) - 1)
        labels[level][tuple(coords.T)] = ids
        new = coords[~bad]
        columns.append((np.column_stack([np.full(len(new), level), new]), lin[~bad], shift[~bad], res[~bad]))
        n_regions += len(new)
        _grow_level(labels, level, coords, ids, lin, shift, fields, sample, theta)
        del fields  # this level's error fields, dropped before the next level is fitted

    tops, lin, shift, residual = (np.concatenate(c) for c in zip(*columns))
    return Coronization(labels, tops, lin, shift, residual,
                        {"theta": theta, "h": h, "l_estimate": l_est, "force_top_bad": force_top_bad, "dim": dim})


def check_coronization(c: Coronization) -> list[str]:
    """Structural invariant check; returns a list of violations (empty = pass).

    Every cube has one label, so good and bad cannot overlap and regions
    cannot overlap or miss a good cube.  What is left to find: a label that
    is neither -1 nor a region index (a cube left unassigned), a region top
    that does not carry its region's label, and members outside their top,
    with a gap up to it, or with some but not all children in the region;
    the region faults are listed by region, then level and C order.
    """
    lab, tops, dim, depth = c.labels, c.tops, c.labels[0].ndim, c.depth
    issues: list[str] = []
    if any(np.any((a < -1) | (a >= len(tops))) for a in lab):
        issues.append("good + bad do not cover all dyadic cubes to depth")
    found: list[tuple[int, int, int, int, str]] = []
    member_tops = np.zeros(len(tops), dtype=bool)
    for level in range(depth + 1):
        idx = np.nonzero((lab[level] >= 0) & (lab[level] < len(tops)))
        ids = lab[level][idx]
        xs, top_coords = np.stack(idx, axis=-1), tops[ids, 1:]
        shift = level - tops[ids, 0]
        is_top = (shift == 0) & np.all(xs == top_coords, axis=1)
        member_tops[ids[is_top]] = True
        outside = (shift < 0) | np.any(xs >> np.maximum(shift, 0)[:, None] != top_coords, axis=1)
        if level == 0:
            gap = ~is_top
        else:
            gap = ~is_top & (lab[level - 1][tuple((xs >> 1).T)] != ids)
        split = np.zeros_like(gap)
        if level < depth:
            kids_in = np.sum(_children(lab[level + 1], dim)[idx] == ids[:, None], axis=1)
            split = (kids_in > 0) & (kids_in < 2**dim)
        for kind, mask in enumerate((outside, gap, split)):
            for n in np.flatnonzero(mask):
                if kind == 2:
                    text = f"children split at DyadicCube(level={level}, coords={tuple(xs[n].tolist())})"
                else:
                    text = ("member outside the top", "gap between member and top")[kind]
                found.append((int(ids[n]), level, int(n), kind, text))
    found += [(i, -1, 0, 0, "top not a member") for i in np.flatnonzero(~member_tops).tolist()]
    return issues + [f"region {i}: {text}" for i, *_, text in sorted(found)]


def _packing(marks: list[np.ndarray]) -> Fraction:
    """max over dyadic R of sum_{marked Q in R} |Q| / |R|, exactly.

    Subtree sums are int64 per-level arrays in units of the finest cube
    volume 2^-(dim depth), built bottom-up by 2^dim block sums.
    """
    dim, depth = marks[0].ndim, len(marks) - 1
    best = Fraction(0)
    mass = None
    for level in range(depth, -1, -1):
        unit = 1 << (dim * (depth - level))  # |Q| of a level cube, in finest volumes
        own = marks[level].astype(np.int64) * unit
        if mass is not None:
            own += _children(mass, dim).sum(axis=-1)
        mass = own
        best = max(best, Fraction(int(mass.max()), unit))
    return best


def carleson_constant(c: Coronization) -> tuple[Fraction, Fraction]:
    """Exact Carleson packing constants via subtree sums.

    c_bad     = max over dyadic R of sum_{Q bad, Q in R} |Q| / |R|
    c_tops    = max over dyadic R of sum_{tops Q(S) in R} |Q(S)| / |R|
    """
    tops = [np.zeros(lab.shape, dtype=bool) for lab in c.labels]
    for level, _, coords in _by_level(c.tops):
        tops[level][tuple(coords.T)] = True
    return _packing([lab == -1 for lab in c.labels]), _packing(tops)


@dataclass(eq=False)
class DecompositionLevel:
    """One level as (k, 1+d) int64 rows [level, *coords]: its R cubes, their Q
    cubes (by R, then level, then C order) and owner_rows[i], the previous
    level's Q that owns R i; b_volumes[i] is the exact |B| of the good set
    B = lam R minus R i's Q cubes, from the label arrays in integers
    (_good_sets)."""

    r_rows: np.ndarray
    q_rows: np.ndarray
    owner_rows: np.ndarray
    b_volumes: list[Fraction]


@dataclass(eq=False)
class MultiLevelDecomposition:
    alpha: Fraction
    n_bound: int  # level budget from the packing inequalities
    k_param: int
    zeta_log2: int  # zeta = 2 ** -zeta_log2
    lam: Fraction  # 1 - 2 ** -k_param
    carleson: Fraction
    levels: list[DecompositionLevel]
    good_measure: Fraction


def _level_budget(packing: Fraction, alpha: Fraction) -> tuple[int, int, int]:
    """The least K >= 1, N >= 1, zeta_log2 > K with C 2^-K, C/N, C/(zeta_log2 - K) < alpha/3
    for C = packing: 2^K, N and zeta_log2 - K are the least integers above x = 3C/alpha."""
    x = 3 * packing // alpha
    k_param = max(1, x.bit_length())
    return k_param, x + 1, k_param + x + 1


def _blocks(a: np.ndarray, level: int, corners: np.ndarray) -> np.ndarray:
    """The subtrees, in a (one level's label array), of the level-`level` cubes
    whose coords are the rows of corners: shape (k,) + (n,)*d, n = a.shape[0] >> level."""
    dim, n = a.ndim, a.shape[0] >> level
    view = a.reshape((1 << level, n) * dim).transpose(*range(0, 2 * dim, 2), *range(1, 2 * dim, 2))
    return view[tuple(corners.T)]


def _by_level(rows: np.ndarray) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """(level, row indices, coords (k, d)) for each dyadic level among the rows [level, *coords]."""
    levels = rows[:, 0]
    return [(lv, np.flatnonzero(levels == lv), rows[levels == lv, 1:]) for lv in sorted(set(levels.tolist()))]


def _ordered(marks: list[tuple[np.ndarray, int, np.ndarray, np.ndarray]], dim: int,
             depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows [level, *coords] of the cubes marked in (owner indices, level, owner coords,
    (k,) + (n,)*d mask) blocks and their owner indices, by owner, then level, then C order."""
    rows = [(np.empty(0, np.int64), np.empty(0, np.int64), np.empty((0, dim), np.int64))]
    for sel, level, corners, mask in marks:
        at = np.argwhere(mask)
        rows.append((sel[at[:, 0]], np.full(len(at), level), corners[at[:, 0]] * mask.shape[-1] + at[:, 1:]))
    owner, levels, coords = (np.concatenate(x) for x in zip(*rows))
    order = np.argsort(owner * (depth + 1) + levels, kind="stable")
    return np.column_stack([levels[order], coords[order]]), owner[order]


def _good_sets(lab: list[np.ndarray], r_rows: np.ndarray,
               k_param: int) -> tuple[np.ndarray, list[Fraction], Fraction]:
    """The Q rows of one decomposition level, and the exact volume of each R's good set and their sum.

    R's Q cubes are the members of its region under it whose first child is
    not, listed by R, then level, then C order.  The R cubes of one dyadic
    level rl are taken together: at each level L their subtrees are one
    (k,) + (2^(L-rl),)*d block view of lab[L], so one mask per L marks the Q
    cubes of all of them.  ORed down to level depth, these masks are each R's
    holes, their exact union, with no disjointness assumed.  In units of 2^-e,
    e = max(depth, rl + K + 1), lam R spans [delta, side - delta] on each axis,
    delta = 2^(e-rl-K-1), and a depth cell overlaps it by one integer per axis,
    the same weights w for every R of level rl: |B| is |lam R| less the hole
    cells' weight products, summed per rl over one denominator.  K <= rl, as
    an R lies at least K levels below its owner, so e - rl <= depth + 1 and
    every sum is below 2^(d (depth+1)), within the build's int64 guard.
    """
    depth, dim = len(lab) - 1, lab[0].ndim
    marks = []
    volumes: list[Fraction] = [Fraction(0)] * len(r_rows)
    total = Fraction(0)
    for rl, sel, corners in _by_level(r_rows):
        ids = lab[rl][tuple(corners.T)].reshape((-1,) + (1,) * dim)
        hole = np.zeros((len(sel),) + (1,) * dim, dtype=bool)  # at level L, from L = rl down
        for level in range(rl, depth):
            first_child = _blocks(lab[level + 1], rl, corners)[(slice(None),) + (slice(None, None, 2),) * dim]
            mins = (_blocks(lab[level], rl, corners) == ids) & (first_child != ids)
            marks.append((sel, level, corners, mins))
            hole |= mins
            for axis in range(1, dim + 1):
                hole = hole.repeat(2, axis=axis)
        e = max(depth, rl + k_param + 1)
        side, delta, cell = 1 << (e - rl), 1 << (e - rl - k_param - 1), 1 << (e - depth)
        lo = np.arange(1 << (depth - rl), dtype=np.int64) * cell
        w = np.maximum(np.minimum(lo + cell, side - delta) - np.maximum(lo, delta), 0)
        mass = hole.astype(np.int64)
        for _ in range(dim):
            mass = mass @ w
        held = [(side - 2 * delta) ** dim - m for m in mass.tolist()]
        for j, v in zip(sel.tolist(), held):
            volumes[j] = Fraction(v, 1 << (dim * e))
        total += Fraction(sum(held), 1 << (dim * e))
    return _ordered(marks, dim, depth)[0], volumes, total


def multilevel_decomposition(c: Coronization, alpha: float | Fraction) -> MultiLevelDecomposition:
    """Nested R/Q cube levels whose shrunken good sets fill all but alpha.

    Parameters K, N, zeta are the least solutions (_level_budget) of the
    three packing inequalities C 2^-K < alpha/3, C/N < alpha/3,
    C/(log2(1/zeta) - K) < alpha/3 with C the measured Carleson constant; an
    alpha that rounds to 0 at denominator 10^9 is refused.  Per level, the R
    cubes are the maximal good cubes in the size window [zeta l(Q), 2^-K l(Q)]
    strictly inside each previous-level Q, by Q, then level, then C order;
    the Q cubes are the stopped minimal cubes of the R's regions; the good
    sets are lam R minus the Q's.  Both come from the label arrays, one
    stacked mask pass per level of the owning cubes (the Q's of _good_sets,
    its holes and exact B volumes, summed in integers); no boxes are built.
    The exact good measure may fall short of 1 - alpha at this depth: that is
    a verdict for the caller to compare, not an error.
    """
    alpha = Fraction(alpha).limit_denominator(10**9)
    if alpha <= 0:
        raise GeometryError("alpha must be positive at denominator 10^9")
    lab, dim = c.labels, c.labels[0].ndim
    if lab[0].flat[0] != -1:
        raise GeometryError("multilevel decomposition expects the top cube forced bad")

    c_bad, c_tops = carleson_constant(c)
    packing = max(c_bad, c_tops, Fraction(1))
    k_param, n_bound, zeta_log2 = _level_budget(packing, alpha)

    levels: list[DecompositionLevel] = []
    q_prev = np.zeros((1, 1 + dim), dtype=np.int64)
    good_measure = Fraction(0)
    for _ in range(n_bound):
        marks = []  # the R cubes: good, K ... zeta_log2 levels under a Q, with no good ancestor there
        for ql, sel, corners in _by_level(q_prev):
            taken = np.zeros((len(sel),) + (1,) * dim, dtype=bool)  # the cubes under a found R
            for level in range(ql + k_param, min(ql + zeta_log2, c.depth) + 1):
                hit = _blocks(lab[level], ql, corners) >= 0
                for axis in range(1, dim + 1):
                    taken = taken.repeat(hit.shape[-1] // taken.shape[-1], axis=axis)
                hit &= ~taken
                marks.append((sel, level, corners, hit))
                taken |= hit
        r_rows, owner = _ordered(marks, dim, c.depth)
        if not len(r_rows):
            break
        q_rows, b_volumes, measure = _good_sets(lab, r_rows, k_param)
        good_measure += measure
        levels.append(DecompositionLevel(r_rows, q_rows, q_prev[owner], b_volumes))
        q_prev = q_rows
        if not len(q_prev):
            break

    return MultiLevelDecomposition(
        alpha=alpha,
        n_bound=n_bound,
        k_param=k_param,
        zeta_log2=zeta_log2,
        lam=1 - Fraction(1, 2**k_param),
        carleson=packing,
        levels=levels,
        good_measure=good_measure,
    )
