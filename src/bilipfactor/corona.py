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
lattice of a cube's 2Q window clipped to [0,1]^d.  When h = 2^-p the map is
evaluated once on the pitch-h lattice of [0,1]^d, and the window of every
cube of level L < p (its corners are multiples of 2^-(L+1)) is a slice of
it, point for point the lattice box_lattice would build.  Windows of deeper
cubes, and all windows when h is not a power of two, are sampled on their
own.  The fits of a level are one stacked least-squares solve per window
shape, each bit for bit the solve of its window alone.  A level's regions
grow together, level by level, each from its fit's residual |fit - f| on
its top's window: below level p every child check is a block maximum of
that field, equal bit for bit to the sup on the child's own slice (a max
does not round).

Storage: one int64 label array per level, labels[L] of shape (2^L,)*d,
holding -1 for a bad cube and the region index for a good one.  The build
writes it, and the checker, Carleson sums, multi-level decomposition and
report read it directly; the cube sets good, bad, a region's members and
region_index() are views computed from it.  One label per cube makes
good/bad overlap, overlapping regions and cubes beyond the depth
unrepresentable; the checker still finds cubes left unassigned, tops
without their region's label, and members outside their top, cut off from
it, or with their children split between regions.

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

from .geometry_core import (
    AffineMapData,
    Cube,
    DyadicCube,
    GeometryError,
    bilip_constants,
    box_lattice,
)
from .map_engine import MapExpr, affine_fit_samples, estimate_distortion

_UNASSIGNED = -2  # build-time label of a cube not yet classified
FIT_POINTS = 1 << 15  # window points per stacked affine fit, as kernels' pair blocks


@dataclass(eq=False)
class StoppingRegion:
    """Coherent cube family under a unique top, with one affine surrogate."""

    top: DyadicCube
    fit: AffineMapData
    residual: float  # top's own fit residual at build resolution


@dataclass(eq=False)
class Coronization:
    """labels[L], of shape (2^L,)*d, holds -1 for each bad level-L cube and
    the index into regions of each good one."""

    labels: list[np.ndarray]
    regions: list[StoppingRegion]
    params: dict = field(default_factory=dict)

    @property
    def depth(self) -> int:
        return len(self.labels) - 1

    def _labelled(self, keep) -> dict[DyadicCube, int]:
        """Cube -> label for every cube whose label passes keep, level by level in C order."""
        out: dict[DyadicCube, int] = {}
        for level, lab in enumerate(self.labels):
            idx = np.argwhere(keep(lab))
            for x, i in zip(idx.tolist(), lab[tuple(idx.T)].tolist()):
                out[DyadicCube(level, tuple(x))] = i
        return out

    @property
    def good(self) -> set[DyadicCube]:
        return set(self.region_index())

    @property
    def bad(self) -> set[DyadicCube]:
        return set(self._labelled(lambda lab: lab == -1))

    def members(self, i: int) -> set[DyadicCube]:
        return set(self._labelled(lambda lab: lab == i))

    def region_index(self) -> dict[DyadicCube, int]:
        return self._labelled(lambda lab: (lab >= 0) & (lab < len(self.regions)))


def _fit_window(q: DyadicCube) -> tuple[np.ndarray, np.ndarray]:
    """Sampling box for a cube's fit: 2Q clipped to the unit cube."""
    c = q.to_cube()
    lo = np.maximum(np.asarray(c.center) - c.side, 0.0)
    hi = np.minimum(np.asarray(c.center) + c.side, 1.0)
    return lo, hi


def _sample_window(f: MapExpr, q: DyadicCube, h: float) -> tuple[np.ndarray, np.ndarray]:
    lo, hi = _fit_window(q)
    pts = box_lattice(lo, hi, h)
    return pts, f.evaluate(pts)


def _point_errors(fit: AffineMapData, pts: np.ndarray, imgs: np.ndarray) -> np.ndarray:
    return np.linalg.norm(fit.apply(pts) - imgs, axis=1)


def _sup_error(fit: AffineMapData, pts: np.ndarray, imgs: np.ndarray) -> float:
    return float(np.max(_point_errors(fit, pts, imgs)))


def region_fit_error(fit: AffineMapData, f: MapExpr, q: DyadicCube, h: float) -> float:
    """sup over the lattice of 2Q intersected with [0,1]^d of |fit - f|."""
    return _sup_error(fit, *_sample_window(f, q, h))


def _lattice_exponent(h: float) -> int | None:
    """p with h == 2**-p for an integer p >= 0, else None."""
    mant, exp = math.frexp(h)
    return 1 - exp if mant == 0.5 and exp <= 1 else None


class _WindowSamples:
    """f on the lattice of each cube's clipped 2Q window, at pitch h.

    When h = 2^-p, f is evaluated once on the pitch-h lattice of [0,1]^d.
    The window of a level-L cube has its corners at multiples of 2^-(L+1),
    so for L < p it is a slice of that lattice holding the same points, in
    the same order, as box_lattice gives for it.  Any other window is
    sampled on its own.
    """

    def __init__(self, f: MapExpr, dim: int, h: float):
        self.f, self.dim, self.h = f, dim, h
        self.p = _lattice_exponent(h)
        if self.p is not None:
            axis = np.linspace(0.0, 1.0, 2**self.p + 1)
            self.pts = np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), axis=-1)
            self.imgs = f.evaluate(self.pts.reshape(-1, dim)).reshape(self.pts.shape)

    def window(self, q: DyadicCube) -> tuple[slice, ...] | None:
        """q's window as a slice of the lattice, or None if it is sampled on its own."""
        if self.p is None or q.level >= self.p:
            return None
        step = 2 ** (self.p - q.level - 1)  # lattice pitches per half side of q
        end = 2 ** (q.level + 1)
        return tuple(
            slice(max(2 * c - 1, 0) * step, min(2 * c + 3, end) * step + 1) for c in q.coords
        )

    def __call__(self, q: DyadicCube) -> tuple[np.ndarray, np.ndarray]:
        win = self.window(q)
        if win is None:
            return _sample_window(self.f, q, self.h)
        return self.pts[win].reshape(-1, self.dim), self.imgs[win].reshape(-1, self.dim)

    def field_shape(self, q: DyadicCube) -> list[int] | None:
        """The shape of q's window if some child's window is a slice of it, else None."""
        win = self.window(q)
        return None if win is None or q.level + 1 == self.p else [s.stop - s.start for s in win]

    def field(self, fit: AffineMapData, q: DyadicCube) -> np.ndarray | None:
        """|fit - f| at each point of q's window, shaped by field_shape.  The
        points and the expression are those _sup_error sees for q."""
        shape = self.field_shape(q)
        return None if shape is None else _point_errors(fit, *self(q)).reshape(shape)


def _children(a: np.ndarray, dim: int) -> np.ndarray:
    """Entries of level-(L+1) arrays (the trailing dim axes of a) grouped under
    their level-L parents: shape a.shape[:-dim] + (2^L,)*dim + (2^dim,)."""
    m, n = a.ndim - dim, a.shape[-1] // 2
    blocks = a.reshape(a.shape[:m] + (n, 2) * dim)
    blocks = blocks.transpose(*range(m), *range(m, m + 2 * dim, 2), *range(m + 1, m + 2 * dim, 2))
    return blocks.reshape(a.shape[:m] + (n,) * dim + (2**dim,))


def _window_maxima(field: np.ndarray, top: DyadicCube, level: int, p: int) -> np.ndarray:
    """Max of field (the error field of top's window at h = 2^-p, or a stack of
    fields of windows clipped as top's is, on the trailing axes) over the window
    of every level-`level` cube under top, top.level < level < p.

    Each such window is a slice of top's: per axis, a cube c covers the
    half-cells max(2c-1, 0) ... min(2c+3, 2^(level+1)) of 2^(p-level-1)
    lattice pitches each.  The windows of neighbours overlap, so one
    reduceat per axis takes the max over [start, stop) pairs and keeps
    every other row; out[..., rel] belongs to the cube at top's corner + rel.
    """
    n = 1 << (level - top.level)
    step = 1 << (p - level - 1)
    end = 1 << (level + 1)
    out = field
    for axis, cq in enumerate(top.coords, start=field.ndim - top.dim):
        c = np.arange(cq * n, (cq + 1) * n)
        origin = max(2 * cq - 1, 0) << (p - top.level - 1)
        start = np.maximum(2 * c - 1, 0) * step - origin
        stop = np.minimum(2 * c + 3, end) * step + 1 - origin
        bounds = np.stack([start, stop], axis=-1).ravel()
        if bounds[-1] == out.shape[axis]:  # the last window reaches the end: reduceat's default
            bounds = bounds[:-1]
        out = np.maximum.reduceat(out, bounds, axis=axis)
        out = out[(slice(None),) * axis + (slice(None, None, 2),)]
    return out


def _grow_level(labels: list[np.ndarray], regions: list[StoppingRegion], first: int,
                errors: list[np.ndarray], sample: _WindowSamples, theta: float) -> None:
    """Label the tops of regions[first:], all of one level, and grow those
    regions together, one level at a time.

    A frontier cube's children all join when each passes
    sup |fit - f| <= theta diam on its window; joined children are the next
    frontier.  The tops' subtrees are disjoint and unassigned, so one (k,) +
    (n,)*d mask holds the frontiers.  Below level p child errors are block
    maxima of the tops' error fields (errors[j], or None where no child's
    window is a slice), stacked by how the windows are clipped; from p on
    they are _sup_error on each child of the frontier, stopping at a cube's
    first failing child.
    """
    new, dim, depth = regions[first:], sample.dim, len(labels) - 1
    if not new:
        return
    top = new[0].top.level
    coords = np.array([s.top.coords for s in new])
    labels[top][tuple(coords.T)] = np.arange(first, len(regions))
    fields = []
    if top < depth and errors[0] is not None:
        stacks: dict[tuple, list[int]] = {}
        for j, s in enumerate(new):
            stacks.setdefault(tuple((c == 0, c + 1 == 1 << top) for c in s.top.coords), []).append(j)
        for sel in stacks.values():
            fields.append((sel, new[sel[0]].top, np.stack([errors[j] for j in sel])))
    frontier = np.ones((len(new),) + (1,) * dim, dtype=bool)
    for level in range(top + 1, depth + 1):
        n = 1 << (level - top)
        limit = theta * (2.0**-level * math.sqrt(dim))
        passed = np.zeros((len(new),) + (n,) * dim, dtype=bool)
        if fields and level < sample.p:
            for sel, q, field in fields:
                passed[sel] = _window_maxima(field, q, level, sample.p) <= limit
        else:
            for j, *x in np.argwhere(frontier).tolist():
                corner = [c * n for c in new[j].top.coords]
                for kid in DyadicCube(level - 1, tuple(c // 2 + r for c, r in zip(corner, x))).children():
                    if not _sup_error(new[j].fit, *sample(kid)) <= limit:
                        break
                    passed[(j, *(c - o for c, o in zip(kid.coords, corner)))] = True
        frontier &= _children(passed, dim).all(axis=-1)
        if not frontier.any():
            return
        for axis in range(1, dim + 1):
            frontier = frontier.repeat(2, axis=axis)
        j, *rel = np.nonzero(frontier)
        labels[level][tuple(coords[j].T * n + rel)] = first + j


def _level_fits(f: MapExpr, cubes: list[DyadicCube], sample: _WindowSamples, theta: float,
                l_est: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, dict]:
    """(lin, shift, residual, bad, errors) of each cube of one level, fitted in stacks of one
    window shape and at most FIT_POINTS points (or one window); errors[i] is sample.field
    of cube i where that is not None.  Centre images are f.evaluate_each, each m(center) as
    if alone: a Blend rounds some rows differently in a batch or lattice."""
    k, dim = len(cubes), sample.dim
    lin, shift, res, rank = np.empty((k, dim, dim)), np.empty((k, dim)), np.empty(k), np.empty(k, int)
    errors: dict[int, np.ndarray] = {}

    def solve(group: list[tuple[int, np.ndarray, np.ndarray]]) -> None:
        sel, pts, imgs = (list(x) for x in zip(*group))
        centers = np.array([cubes[i].to_cube().center for i in sel])
        lin[sel], shift[sel], err, rank[sel] = affine_fit_samples(
            np.stack(pts), np.stack(imgs), centers, f.evaluate_each(centers))
        res[sel] = err.max(axis=1) / cubes[sel[0]].to_cube().diam
        for i, e in zip(sel, err):
            if (shape := sample.field_shape(cubes[i])) is not None:
                errors[i] = e.reshape(shape)

    groups: dict[tuple[int, ...], list] = {}
    for i, q in enumerate(cubes):
        pts, imgs = sample(q)
        groups.setdefault(pts.shape, []).append((i, pts, imgs))
        if (len(groups[pts.shape]) + 1) * len(pts) > FIT_POINTS:
            solve(groups.pop(pts.shape))
    for group in groups.values():
        solve(group)
    finite = np.isfinite(lin).all(axis=(1, 2)) & np.isfinite(shift).all(axis=1)
    bad = (rank < dim + 1) | ~finite | (res > theta)
    lips = bilip_constants(lin[~bad].transpose(0, 2, 1))
    bad[~bad] = np.isnan(lips) | (lips > 2.0 * l_est)
    return lin, shift, res, bad, errors


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
    are visited top-down; a level's unassigned cubes are fitted in one pass
    (_level_fits); its good ones open regions in C order, grown together one
    level at a time (_grow_level), with child errors taken from each top's
    fit residual field where the windows are lattice slices.
    """
    if depth < 0:
        raise GeometryError(f"coronization depth must be non-negative, got {depth}")
    if dim * depth + (depth + 1).bit_length() > 63:
        raise GeometryError(
            f"depth {depth} in {dim}-D: exact subtree sums would overflow int64"
        )
    smallest = 2.0**-depth
    if (math.floor(smallest / h) + 1) ** dim < dim + 1:
        raise GeometryError("resolution too coarse: fewer than d+1 samples per smallest cube")
    probe = Cube(tuple([0.5] * dim), 1.0)
    l_est = estimate_distortion(f, probe, max(h, 1.0 / 32.0)).L_lo

    sample = _WindowSamples(f, dim, h)
    labels = [
        np.full((1 << level,) * dim, _UNASSIGNED, dtype=np.int64) for level in range(depth + 1)
    ]
    regions: list[StoppingRegion] = []

    if force_top_bad:
        labels[0].fill(-1)
    for level in range(depth + 1):
        # Regions opened here label only deeper cubes, so this level's unassigned
        # cubes are all fitted first, marked bad, and relabelled as each good one opens.
        cubes = [DyadicCube(level, tuple(x)) for x in np.argwhere(labels[level] == _UNASSIGNED).tolist()]
        lin, shift, res, bad, errors = _level_fits(f, cubes, sample, theta, l_est)
        labels[level][labels[level] == _UNASSIGNED] = -1
        good, first = np.flatnonzero(~bad).tolist(), len(regions)
        regions += [StoppingRegion(cubes[i], AffineMapData(lin[i].T, shift[i]), float(res[i])) for i in good]
        _grow_level(labels, regions, first, [errors.get(i) for i in good], sample, theta)
        del errors  # this level's error fields, dropped before the next level is fitted

    return Coronization(
        labels=labels,
        regions=regions,
        params={"theta": theta, "h": h, "l_estimate": l_est,
                "force_top_bad": force_top_bad, "dim": dim},
    )


def _member_faults(tops: list[DyadicCube], lab: list[np.ndarray]) -> dict[int, list[str]]:
    """Per region label: members outside the top, members whose parent is
    not a member, members with some but not all children in the region."""
    dim, depth = lab[0].ndim, len(lab) - 1
    top_level = np.array([q.level for q in tops], dtype=np.int64)
    top_coords = np.array([q.coords for q in tops], dtype=np.int64).reshape(-1, dim)
    found: list[tuple[int, int, int, int, str]] = []
    for level in range(depth + 1):
        idx = np.nonzero((lab[level] >= 0) & (lab[level] < len(tops)))
        ids = lab[level][idx]
        xs = np.stack(idx, axis=-1)
        shift = level - top_level[ids]
        is_top = (shift == 0) & np.all(xs == top_coords[ids], axis=1)
        outside = (shift < 0) | np.any(xs >> np.maximum(shift, 0)[:, None] != top_coords[ids], axis=1)
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
                    m = DyadicCube(level, tuple(int(x) for x in xs[n]))
                    text = f"children split at {m}"
                else:
                    text = ("member outside the top", "gap between member and top")[kind]
                found.append((int(ids[n]), level, int(n), kind, text))
    faults: dict[int, list[str]] = {}
    for i, *_, text in sorted(found):
        faults.setdefault(i, []).append(text)
    return faults


def check_coronization(c: Coronization) -> list[str]:
    """Structural invariant check; returns a list of violations (empty = pass).

    Every cube has one label, so good and bad cannot overlap and regions
    cannot overlap or miss a good cube.  What is left to find: a label that
    is neither -1 nor a region index (a cube left unassigned), a region top
    that does not carry its region's label, and members outside their top,
    with a gap up to it, or with some but not all children in the region.
    """
    issues: list[str] = []
    if any(np.any((lab < -1) | (lab >= len(c.regions))) for lab in c.labels):
        issues.append("good + bad do not cover all dyadic cubes to depth")
    faults = _member_faults([s.top for s in c.regions], c.labels)
    for i, s in enumerate(c.regions):
        if s.top.level > c.depth or c.labels[s.top.level][s.top.coords] != i:
            issues.append(f"region {i}: top not a member")
        issues.extend(f"region {i}: {text}" for text in faults.get(i, []))
    return issues


def verify_region_fits(c: Coronization, f: MapExpr) -> int:
    """Re-check every member's fit error at half the build pitch; returns warning count."""
    theta = c.params["theta"]
    h = c.params["h"] / 2.0
    warnings = 0
    for q, i in c.region_index().items():
        if region_fit_error(c.regions[i].fit, f, q, h) > theta * q.to_cube().diam:
            warnings += 1
    return warnings


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
    for s in c.regions:
        tops[s.top.level][s.top.coords] = True
    return _packing([lab == -1 for lab in c.labels]), _packing(tops)


@dataclass(eq=False)
class DecompositionLevel:
    """One level: its R cubes, their Q cubes (by R, then level, then C order),
    and b_volumes[i], the exact |B| of the good set B = lam R minus the Q cubes
    of r_cubes[i], computed from the label arrays in integers (_good_sets)."""

    r_cubes: list[DyadicCube]
    q_cubes: list[DyadicCube]
    owner: dict[DyadicCube, DyadicCube]  # R -> owning Q of the previous level
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


def _good_sets(lab: list[np.ndarray], r_cubes: list[DyadicCube],
               k_param: int) -> tuple[list[DyadicCube], list[Fraction]]:
    """The Q cubes of one decomposition level and the exact volume of each R's good set.

    R's Q cubes are the members of its region under it whose first child is
    not, listed by R, then level, then C order.  The R cubes of one dyadic
    level rl are taken together: at each level L their subtrees are one
    (k,) + (2^(L-rl),)*d block view of lab[L], so one mask per L marks the Q
    cubes of all of them.  ORed down to level depth, these masks are each R's
    holes, their exact union, with no disjointness assumed.  In units of 2^-e,
    e = max(depth, rl + K + 1), lam R spans [delta, side - delta] on each axis,
    delta = 2^(e-rl-K-1), and a depth cell overlaps it by one integer per axis,
    the same weights w for every R of level rl: |B| is |lam R| less the hole
    cells' weight products.  K <= rl, since an R lies at least K levels below
    its owner, so e - rl <= depth + 1 and every sum is below 2^(d (depth+1)),
    which build_coronization's guard keeps within int64.
    """
    depth, dim = len(lab) - 1, lab[0].ndim
    rows = [(np.empty(0, np.int64), np.empty(0, np.int64), np.empty((0, dim), np.int64))]
    volumes: list[Fraction] = [Fraction(0)] * len(r_cubes)
    by_level: dict[int, list[int]] = {}
    for j, r in enumerate(r_cubes):
        by_level.setdefault(r.level, []).append(j)
    for rl, sel in by_level.items():
        corners = np.array([r_cubes[j].coords for j in sel])
        ids = lab[rl][tuple(corners.T)].reshape((-1,) + (1,) * dim)
        hole = np.zeros((len(sel),) + (1,) * dim, dtype=bool)  # at level L, from L = rl down
        for level in range(rl, depth):
            first_child = _blocks(lab[level + 1], rl, corners)[(slice(None),) + (slice(None, None, 2),) * dim]
            mins = (_blocks(lab[level], rl, corners) == ids) & (first_child != ids)
            found = np.argwhere(mins)
            rows.append((np.asarray(sel)[found[:, 0]], np.full(len(found), level),
                         corners[found[:, 0]] * mins.shape[-1] + found[:, 1:]))
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
        for j, m in zip(sel, mass.tolist()):
            volumes[j] = Fraction((side - 2 * delta) ** dim - m, 1 << (dim * e))
    r_index, levels, coords = (np.concatenate(x) for x in zip(*rows))
    order = np.argsort(r_index * (depth + 1) + levels, kind="stable")
    q_cubes = [DyadicCube(level, tuple(x)) for level, x in zip(levels[order].tolist(), coords[order].tolist())]
    return q_cubes, volumes


def multilevel_decomposition(c: Coronization, alpha: float | Fraction) -> MultiLevelDecomposition:
    """Nested R/Q cube levels whose shrunken good sets fill all but alpha.

    Parameters K, N, zeta are the least solutions (_level_budget) of the
    three packing inequalities C 2^-K < alpha/3, C/N < alpha/3,
    C/(log2(1/zeta) - K) < alpha/3 with C the measured Carleson constant; an
    alpha that rounds to 0 at denominator 10^9 is refused.  Per level, the R
    cubes are the maximal good cubes in the size window [zeta l(Q), 2^-K l(Q)]
    strictly inside each previous-level Q; the Q cubes are the stopped
    minimal cubes of the R's regions; the good sets are lam R minus the Q's.
    The Q cubes, the holes and the exact B volumes come from the label arrays
    in integers, one stacked mask pass per level (_good_sets); no rational
    boxes are built.
    The exact good measure may fall short of 1 - alpha at this depth: that is
    a verdict for the caller to compare, not an error.
    """
    alpha = Fraction(alpha).limit_denominator(10**9)
    if alpha <= 0:
        raise GeometryError("alpha must be positive at denominator 10^9")
    lab = c.labels
    dim = lab[0].ndim
    root = DyadicCube(0, tuple([0] * dim))
    if lab[0].flat[0] != -1:
        raise GeometryError("multilevel decomposition expects the top cube forced bad")

    c_bad, c_tops = carleson_constant(c)
    packing = max(c_bad, c_tops, Fraction(1))
    k_param, n_bound, zeta_log2 = _level_budget(packing, alpha)
    lam = 1 - Fraction(1, 2**k_param)

    def maximal_good_in_window(q_prev: DyadicCube) -> list[DyadicCube]:
        """Good cubes at levels q_prev.level + K ... + log2(1/zeta) under
        q_prev with no good ancestor in that window, by (level, coords)."""
        found: list[DyadicCube] = []
        taken = np.zeros((1,) * dim, dtype=bool)  # cubes under a found cube
        for level in range(q_prev.level + k_param, min(q_prev.level + zeta_log2, c.depth) + 1):
            n = 1 << (level - q_prev.level)
            corner = [x * n for x in q_prev.coords]
            sub = lab[level][tuple(slice(x, x + n) for x in corner)]
            grow = n // taken.shape[0]
            for axis in range(dim):
                taken = taken.repeat(grow, axis=axis)
            hit = (sub >= 0) & ~taken
            found += [DyadicCube(level, tuple(x + o for x, o in zip(corner, rel)))
                      for rel in np.argwhere(hit).tolist()]
            taken |= hit
        return found

    levels: list[DecompositionLevel] = []
    q_prev = [root]
    good_measure = Fraction(0)
    for _ in range(n_bound):
        r_cubes: list[DyadicCube] = []
        owner: dict[DyadicCube, DyadicCube] = {}
        for qp in q_prev:
            for r in maximal_good_in_window(qp):
                r_cubes.append(r)
                owner[r] = qp
        if not r_cubes:
            break
        q_cubes, b_volumes = _good_sets(lab, r_cubes, k_param)
        good_measure += sum(b_volumes)
        levels.append(DecompositionLevel(r_cubes, q_cubes, owner, b_volumes))
        q_prev = q_cubes
        if not q_prev:
            break

    return MultiLevelDecomposition(
        alpha=alpha,
        n_bound=n_bound,
        k_param=k_param,
        zeta_log2=zeta_log2,
        lam=lam,
        carleson=packing,
        levels=levels,
        good_measure=good_measure,
    )


@dataclass(eq=False)
class SecondarySubdivision:
    parent: Cube
    level: int
    p: int
    pitch: float
    cubes: list[Cube]  # shrunken grid cubes, corner-anchored in their cells
    separation: float
    collar_fraction_bound: float
    covered_fraction: float


def secondary_subdivision(parent: Cube, k: int, c4: float, p: int) -> SecondarySubdivision:
    """Shrunken grid cubes on pitch c4 l(parent) / p^(k-1) meeting the parent.

    Each emitted cube is its grid cell scaled by (1 - 1/p) toward the
    cell's lower corner; anchoring at the corner makes consecutive levels
    nest exactly (a finer cube is inside or interior-disjoint from every
    coarser one).  Same-level cubes are separated by pitch / p.
    """
    if p < 2:
        raise GeometryError("subdivision parameter p must be at least 2")
    if not (c4 > 0):
        raise GeometryError("c4 must be positive")
    d = parent.dim
    pitch = c4 * parent.side / p ** (k - 1)
    shrink = 1.0 - 1.0 / p
    lo = parent.lo()
    n_cells = int(math.ceil(parent.side / pitch - 1e-12))
    cubes: list[Cube] = []
    idx_ranges = [range(n_cells)] * d
    import itertools as _it

    inside = 0
    for idx in _it.product(*idx_ranges):
        cell_lo = lo + pitch * np.asarray(idx, dtype=float)
        side = shrink * pitch
        cubes.append(Cube(tuple(cell_lo + side / 2.0), side))
        if np.all(cell_lo + pitch <= parent.hi() + 1e-12):
            inside += 1
    covered = inside * (shrink * pitch) ** d / parent.side**d
    return SecondarySubdivision(
        parent=parent,
        level=k,
        p=p,
        pitch=pitch,
        cubes=cubes,
        separation=pitch / p,
        collar_fraction_bound=3.0 * d / p,
        covered_fraction=covered,
    )
