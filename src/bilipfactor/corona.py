"""Empirical coronization of a sampled map and the multi-level decomposition.

A coronization splits the dyadic cubes of [0,1]^d (down to a finite depth)
into good and bad cubes plus coherent stopping-time regions, where each
region carries a single affine surrogate fit that approximates the map on
every member cube.  All measure arithmetic is exact over dyadic rationals:
cube sides are powers of two, so masses, Carleson sums and the multi-level
good-set measure are computed with Fractions (no floating-point drift).

Sampling: every fit and every child check looks at the map on the pitch-h
lattice of a cube's 2Q window clipped to [0,1]^d.  When h = 2^-p the map is
evaluated once on the pitch-h lattice of [0,1]^d, and the window of every
cube of level L < p (its corners are multiples of 2^-(L+1)) is a slice of
it, point for point the lattice box_lattice would build; so all windows
are slices when 2^(depth+1) h divides 1.  Windows of deeper cubes, and all
windows when h is not a power of two, are sampled on their own.

Carleson sums and the invariant check work on one array per level, built
from the coronization's sets.  Subtree sums are exact int64 counts in units
of the finest cube volume 2^-(d depth), summed over 2^d blocks level by
level and turned into Fractions only for the final ratios; a pyramid whose
largest sum, (depth+1) 2^(d depth) units, could overflow int64 (always the
case past d depth = 62) raises GeometryError before any array is built.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .geometry_core import (
    AffineMapData,
    Cube,
    DyadicCube,
    GeometryError,
    bilip_constant,
    box_lattice,
    unit_cube_dyadics,
)
from .map_engine import MapExpr, affine_fit_samples, estimate_distortion


@dataclass(eq=False)
class StoppingRegion:
    """Coherent cube family under a unique top, with one affine surrogate."""

    top: DyadicCube
    members: set[DyadicCube]
    fit: AffineMapData
    residual: float  # top's own fit residual at build resolution


@dataclass(eq=False)
class Coronization:
    depth: int
    good: set[DyadicCube]
    bad: set[DyadicCube]
    regions: list[StoppingRegion]
    params: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return next(iter(self.good | self.bad)).dim

    def region_index(self) -> dict[DyadicCube, int]:
        out: dict[DyadicCube, int] = {}
        for i, s in enumerate(self.regions):
            for q in s.members:
                out[q] = i
        return out


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


def _sup_error(fit: AffineMapData, pts: np.ndarray, imgs: np.ndarray) -> float:
    return float(np.max(np.linalg.norm(fit.apply(pts) - imgs, axis=1)))


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

    def __call__(self, q: DyadicCube) -> tuple[np.ndarray, np.ndarray]:
        if self.p is None or q.level >= self.p:
            return _sample_window(self.f, q, self.h)
        step = 2 ** (self.p - q.level - 1)  # lattice pitches per half side of q
        end = 2 ** (q.level + 1)
        win = tuple(
            slice(max(2 * c - 1, 0) * step, min(2 * c + 3, end) * step + 1) for c in q.coords
        )
        return self.pts[win].reshape(-1, self.dim), self.imgs[win].reshape(-1, self.dim)


def build_coronization(
    f: MapExpr,
    dim: int,
    depth: int,
    eta: float,
    theta: float,
    h: float,
    force_top_bad: bool = False,
) -> Coronization:
    """Greedy top-down coronization of [0,1]^dim for a sampled map.

    A cube whose own affine fit misses theta (relative sup error over 2Q)
    or whose fit distortion exceeds twice the measured distortion of f is
    bad.  A passing cube opens a region that keeps descending while the
    REGION TOP's fit stays within theta * diam(Q) on every child; children
    join all-or-none, which makes regions coherent by construction.
    """
    smallest = 2.0**-depth
    if (math.floor(smallest / h) + 1) ** dim < dim + 1:
        raise GeometryError("resolution too coarse: fewer than d+1 samples per smallest cube")
    probe = Cube(tuple([0.5] * dim), 1.0)
    l_est = estimate_distortion(f, probe, max(h, 1.0 / 32.0)).L_lo

    sample = _WindowSamples(f, dim, h)
    root_dim = math.sqrt(dim)
    assigned: dict[DyadicCube, int] = {}  # -1 = bad, else region index
    regions: list[StoppingRegion] = []

    for level in range(depth + 1):
        for q in sorted(unit_cube_dyadics(dim, level), key=lambda c: c.coords):
            if q in assigned:
                continue
            if force_top_bad and level == 0:
                assigned[q] = -1
                continue
            bad = False
            try:
                fit, res = affine_fit_samples(f, q.to_cube(), *sample(q))
                if res > theta or bilip_constant(fit) > 2.0 * l_est:
                    bad = True
            except GeometryError:
                bad = True
            if bad:
                assigned[q] = -1
                continue
            # Open a region and grow it downward under the top's fit.
            idx = len(regions)
            members = {q}
            assigned[q] = idx
            frontier = [q]
            while frontier:
                p = frontier.pop(0)
                if p.level == depth:
                    continue
                kids = p.children()
                if all(
                    _sup_error(fit, *sample(c)) <= theta * (c.side * root_dim) for c in kids
                ):
                    for c in kids:
                        members.add(c)
                        assigned[c] = idx
                    frontier.extend(kids)
            regions.append(StoppingRegion(top=q, members=members, fit=fit, residual=res))

    good = {q for q, i in assigned.items() if i >= 0}
    bad_set = {q for q, i in assigned.items() if i < 0}
    return Coronization(
        depth=depth,
        good=good,
        bad=bad_set,
        regions=regions,
        params={"eta": eta, "theta": theta, "h": h, "l_estimate": l_est,
                "force_top_bad": force_top_bad, "dim": dim},
    )


def _dim(c: Coronization) -> int:
    return c.params["dim"] if "dim" in c.params else c.dim


def _level_labels(
    labelled: Iterable[tuple[DyadicCube, int]], dim: int, depth: int
) -> list[np.ndarray]:
    """One array of shape (2^L,)*dim per level L <= depth: each listed cube's
    label at its coords, -1 elsewhere.

    A cube listed twice keeps its first label.  Cubes off the pyramid
    (deeper than depth, of another dimension, or with coords outside
    [0, 2^L)) are left out.  Raises GeometryError, before allocating, when
    a subtree sum in units of the finest cube volume, at most
    (depth+1) 2^(dim depth), could overflow int64 (so dim * depth <= 62).
    """
    if dim * depth + (depth + 1).bit_length() > 63:
        raise GeometryError(
            f"depth {depth} in {dim}-D: exact subtree sums would overflow int64"
        )
    coords: list[list[tuple[int, ...]]] = [[] for _ in range(depth + 1)]
    labels: list[list[int]] = [[] for _ in range(depth + 1)]
    for q, i in labelled:
        if q.level <= depth and len(q.coords) == dim:
            coords[q.level].append(q.coords)
            labels[q.level].append(i)
    out = []
    for level in range(depth + 1):
        lab = np.full((1 << level,) * dim, -1, dtype=np.int64)
        if coords[level]:
            idx = np.asarray(coords[level], dtype=np.int64)
            ok = np.all((idx >= 0) & (idx < 1 << level), axis=1)
            flat = np.ravel_multi_index(tuple(idx[ok].T), lab.shape)
            flat, first = np.unique(flat, return_index=True)
            lab.flat[flat] = np.asarray(labels[level], dtype=np.int64)[ok][first]
        out.append(lab)
    return out


def _children(a: np.ndarray, dim: int) -> np.ndarray:
    """Entries of a level-(L+1) array grouped under their level-L parents:
    shape (2^L,)*dim + (2^dim,)."""
    n = a.shape[0] // 2
    blocks = a.reshape((n, 2) * dim).transpose(*range(0, 2 * dim, 2), *range(1, 2 * dim, 2))
    return blocks.reshape((n,) * dim + (2**dim,))


def _member_faults(
    tops: list[DyadicCube], lab: list[np.ndarray], dim: int, depth: int
) -> dict[int, list[str]]:
    """Per region label: members outside the top, members whose parent is
    not a member, members with some but not all children in the region."""
    top_level = np.array([q.level if q.dim == dim else depth + 1 for q in tops], dtype=np.int64)
    top_coords = np.array(
        [q.coords if q.dim == dim else (0,) * dim for q in tops], dtype=np.int64
    ).reshape(-1, dim)
    found: list[tuple[int, int, int, int, str]] = []
    for level in range(depth + 1):
        idx = np.nonzero(lab[level] >= 0)
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

    The member checks run on per-level arrays of region labels.  A region
    that shares cubes with an earlier one is checked again on arrays of its
    own members alone, so every region is judged by its own member set.
    Members off the pyramid get no member checks; the cover or partition
    check reports them.
    """
    issues: list[str] = []
    dim, depth = _dim(c), c.depth
    if c.good & c.bad:
        issues.append("good and bad overlap")
    union = c.good | c.bad
    covered = _level_labels(((q, 0) for q in union), dim, depth)
    total = sum(1 << (dim * level) for level in range(depth + 1))
    if len(union) != total or sum(int(np.count_nonzero(a >= 0)) for a in covered) != total:
        issues.append("good + bad do not cover all dyadic cubes to depth")
    lab = _level_labels(
        ((m, i) for i, s in enumerate(c.regions) for m in s.members), dim, depth
    )
    faults = _member_faults([s.top for s in c.regions], lab, dim, depth)
    seen: set[DyadicCube] = set()
    for i, s in enumerate(c.regions):
        if s.top not in s.members:
            issues.append(f"region {i}: top not a member")
        own = faults.get(i, [])
        if seen & s.members:
            issues.append(f"region {i}: overlaps another region")
            alone = _level_labels(((m, 0) for m in s.members), dim, depth)
            own = _member_faults([s.top], alone, dim, depth).get(0, [])
        seen |= s.members
        issues.extend(f"region {i}: {text}" for text in own)
    if seen != c.good:
        issues.append("regions do not partition the good cubes")
    return issues


def verify_region_fits(c: Coronization, f: MapExpr, finer: float = 2.0) -> int:
    """Re-check every member's fit error on a finer lattice; returns warning count."""
    theta = c.params["theta"]
    h = c.params["h"] / finer
    warnings = 0
    for s in c.regions:
        for q in s.members:
            if region_fit_error(s.fit, f, q, h) > theta * q.to_cube().diam:
                warnings += 1
    return warnings


def _packing(marks: list[np.ndarray], dim: int, depth: int) -> Fraction:
    """max over dyadic R of sum_{marked Q in R} |Q| / |R|, exactly.

    Subtree sums are int64 per-level arrays in units of the finest cube
    volume 2^-(dim depth), built bottom-up by 2^dim block sums.
    """
    best = Fraction(0)
    mass = None
    for level in range(depth, -1, -1):
        unit = 1 << (dim * (depth - level))  # |Q| of a level cube, in finest volumes
        own = (marks[level] >= 0).astype(np.int64) * unit
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
    dim, depth = _dim(c), c.depth
    bad = _level_labels(((q, 0) for q in c.bad), dim, depth)
    tops = _level_labels(((s.top, 0) for s in c.regions), dim, depth)
    return _packing(bad, dim, depth), _packing(tops, dim, depth)


Box = tuple[tuple[Fraction, ...], tuple[Fraction, ...]]


def _dyadic_box(q: DyadicCube) -> Box:
    return q.lo_exact(), q.hi_exact()


def _shrunken_box(q: DyadicCube, lam: Fraction) -> Box:
    lo, hi = _dyadic_box(q)
    half_loss = (1 - lam) * q.side_exact / 2
    return (
        tuple(a + half_loss for a in lo),
        tuple(b - half_loss for b in hi),
    )


def _box_volume(b: Box) -> Fraction:
    v = Fraction(1)
    for a, bb in zip(b[0], b[1]):
        v *= max(Fraction(0), bb - a)
    return v


def _clip_box(b: Box, outer: Box) -> Box | None:
    lo = tuple(max(a, oa) for a, oa in zip(b[0], outer[0]))
    hi = tuple(min(bb, ob) for bb, ob in zip(b[1], outer[1]))
    if any(l >= h for l, h in zip(lo, hi)):
        return None
    return lo, hi


def box_union_volume(boxes: list[Box]) -> Fraction:
    """Exact volume of a union of axis boxes with rational corners."""
    boxes = [b for b in boxes if _box_volume(b) > 0]
    if not boxes:
        return Fraction(0)
    d = len(boxes[0][0])
    denom = 1
    for lo, hi in boxes:
        for v in (*lo, *hi):
            denom = denom * v.denominator // math.gcd(denom, v.denominator)
    scaled = [
        (tuple(int(v * denom) for v in lo), tuple(int(v * denom) for v in hi))
        for lo, hi in boxes
    ]
    axes = []
    for k in range(d):
        coords = sorted({b[0][k] for b in scaled} | {b[1][k] for b in scaled})
        axes.append(coords)
    widths = [np.diff(np.asarray(ax, dtype=np.int64)) for ax in axes]
    shape = tuple(len(w) for w in widths)
    covered = np.zeros(shape, dtype=bool)
    for lo, hi in scaled:
        sel = tuple(
            slice(
                int(np.searchsorted(axes[k], lo[k])),
                int(np.searchsorted(axes[k], hi[k])),
            )
            for k in range(d)
        )
        covered[sel] = True
    total = 0
    if d == 2:
        for i in range(shape[0]):
            row = covered[i]
            total += int(widths[0][i]) * int(np.dot(row, widths[1]))
    else:
        for i in range(shape[0]):
            for j in range(shape[1]):
                run = covered[i, j]
                total += int(widths[0][i]) * int(widths[1][j]) * int(np.dot(run, widths[2]))
    return Fraction(total, denom**d)


@dataclass(eq=False)
class GoodSet:
    """lam * R with the level's minimal cubes removed (a cube with holes)."""

    r_cube: DyadicCube
    outer: Box
    holes: list[Box]
    volume: Fraction


@dataclass(eq=False)
class DecompositionLevel:
    r_cubes: list[DyadicCube]
    q_cubes: list[DyadicCube]
    owner: dict[DyadicCube, DyadicCube]  # R -> owning Q of the previous level
    b_sets: list[GoodSet]


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

    @property
    def zeta(self) -> Fraction:
        return Fraction(1, 2**self.zeta_log2)


def multilevel_decomposition(c: Coronization, alpha: float | Fraction) -> MultiLevelDecomposition:
    """Nested R/Q cube levels whose shrunken good sets fill all but alpha.

    Parameters K, N, zeta come from the three packing inequalities
    C 2^-K < alpha/3, C/N < alpha/3, C/(log2(1/zeta) - K) < alpha/3 with C
    the measured Carleson constant.  Per level, the R cubes are the maximal
    good cubes in the size window [zeta l(Q), 2^-K l(Q)] strictly inside
    each previous-level Q; the Q cubes are the stopped minimal cubes of the
    R's regions; the good sets are lam R minus the Q's.  Fails when the
    exact good measure cannot reach 1 - alpha at this depth.
    """
    alpha = Fraction(alpha).limit_denominator(10**9)
    dim = _dim(c)
    root = DyadicCube(0, tuple([0] * dim))
    if root not in c.bad:
        raise GeometryError("multilevel decomposition expects the top cube forced bad")

    c_bad, c_tops = carleson_constant(c)
    packing = max(c_bad, c_tops, Fraction(1))
    k_param = 1
    while packing * Fraction(1, 2**k_param) >= alpha / 3:
        k_param += 1
    n_bound = 1
    while packing / n_bound >= alpha / 3:
        n_bound += 1
    zeta_log2 = k_param + 1
    while packing / (zeta_log2 - k_param) >= alpha / 3:
        zeta_log2 += 1
    lam = 1 - Fraction(1, 2**k_param)

    region_of = c.region_index()
    minimal_by_region: list[list[DyadicCube]] = []
    for s in c.regions:
        mins = [
            m
            for m in s.members
            if m.level < c.depth and m.children()[0] not in s.members
        ]
        minimal_by_region.append(sorted(mins, key=lambda q: (q.level, q.coords)))

    def maximal_good_in_window(q_prev: DyadicCube) -> list[DyadicCube]:
        lo_level = q_prev.level + k_param
        hi_level = min(q_prev.level + zeta_log2, c.depth)
        found: list[DyadicCube] = []
        stack = q_prev.children()
        while stack:
            cube = stack.pop()
            if cube.level >= lo_level and cube in c.good:
                found.append(cube)
                continue
            if cube.level < hi_level:
                stack.extend(cube.children())
        return sorted(found, key=lambda q: (q.level, q.coords))

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
        q_cubes: list[DyadicCube] = []
        b_sets: list[GoodSet] = []
        for r in r_cubes:
            mins = [m for m in minimal_by_region[region_of[r]] if r.contains_dyadic(m)]
            q_cubes.extend(mins)
            outer = _shrunken_box(r, lam)
            holes = []
            for m in mins:
                clipped = _clip_box(_dyadic_box(m), outer)
                if clipped is not None:
                    holes.append(clipped)
            vol = _box_volume(outer) - box_union_volume(holes)
            b_sets.append(GoodSet(r_cube=r, outer=outer, holes=holes, volume=vol))
            good_measure += vol
        levels.append(DecompositionLevel(r_cubes, q_cubes, owner, b_sets))
        q_prev = q_cubes
        if not q_prev:
            break

    if good_measure < 1 - alpha:
        raise GeometryError(
            f"good measure {float(good_measure):.4f} below 1 - alpha: increase depth or alpha"
        )
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
