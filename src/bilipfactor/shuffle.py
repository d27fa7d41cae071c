"""Rearranging disjoint enlarged cubes inside a bi-Lipschitz image of a square
by a certified sequence of small-distortion moves (planar case).

The plan stage picks intermediate targets and collision-free paths (straight
segments in the source square, mapped forward, with detours routed along
obstacle boundaries).  The execute stage emits four runs of certified
factors per cube: shrink to a tiny core, translate along the path to the
intermediate point, translate to the final center, and grow into the target
cube.  Every factor is the identity outside the working region, and the
composite restricts to an axis-preserving similarity on each source cube.
The result keeps each builder call's BlendRun; check_shuffle and the SVG
stages walk the sample points through all runs once, keeping the images
at the prefixes they inspect.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .degree import winding_sum
from .factorization import factor_shrink, factor_translation_along_path
from .geometry_core import TOLERANCES, Cube, GeometryError, box_lattice, resample_polyline, row_norms
from .map_engine import (
    AffineMapData,
    BlendRun,
    MapExpr,
    affine_part,
    estimate_distortion,
)


# check_shuffle tests disjointness at every (T // N_PREFIXES)-th prefix and at the end.
N_PREFIXES = 48


class PlanError(ValueError):
    pass


@dataclass(eq=False)
class ShufflePlan:
    base_side: float
    pairs: list[tuple[Cube, Cube]]
    mu: float
    l_bound: float  # distortion of psi clamped to >= 2
    c1_const: float
    c2_const: float
    zs: list[np.ndarray]
    gammas: list[np.ndarray]  # polylines x_j -> z_j (empty for trivial moves)
    zetas: list[np.ndarray]  # polylines z_j -> y_j
    clearance: float
    boundary: np.ndarray  # sampled image of the square boundary
    trivial: bool = False


@dataclass(eq=False)
class ShuffleResult:
    plan: ShufflePlan
    runs: list[BlendRun]  # one per builder call, in application order
    bounds: list[np.ndarray]  # bounds[k][i] is the sampled bound of runs[k][i]
    similarities: list[AffineMapData]
    stage_offsets: list[int]  # factor index at the start of each of the 4 stages
    count_ceiling: int

    @property
    def T(self) -> int:
        return sum(len(run) for run in self.runs)

    def max_certified(self) -> float:
        return max((float(b.max()) for b in self.bounds if b.size), default=1.0)

    def walk(self, pts: np.ndarray, stops: list[int]) -> np.ndarray:
        """Images of pts after each prefix of stops, counted in factors over all runs."""
        cur = np.array(pts, dtype=float)
        out = np.empty((len(stops),) + cur.shape)
        j = base = 0
        for run in self.runs:
            end = base + len(run)
            hi = bisect_right(stops, end, lo=j)
            imgs = run.walk(cur, [s - base for s in stops[j:hi]] + [len(run)])
            out[j:hi] = imgs[:-1]
            cur, j, base = imgs[-1], hi, end
        out[j:] = cur
        return out


def _psi_inverse(psi: MapExpr, base_side: float, target: np.ndarray) -> np.ndarray:
    aff = affine_part(psi, 2)
    if aff is not None:
        return aff.inverse().apply(target[None, :])[0]
    # Coarse grid argmin, then Gauss-Newton with finite differences.
    pts = box_lattice(np.zeros(2), np.full(2, base_side), base_side / 63)
    best = pts[np.argmin(row_norms(psi.evaluate(pts) - target))]
    u = best.astype(float)
    eps = base_side * 1e-7
    for _ in range(60):
        f0 = psi(u) - target
        if np.linalg.norm(f0) < 1e-12 * base_side:
            break
        jac = np.stack(
            [(psi(u + eps * e) - psi(u - eps * e)) / (2 * eps) for e in np.eye(2)], axis=1
        )
        u = u - np.linalg.solve(jac, f0)
        u = np.clip(u, 0.0, base_side)
    return u


def _point_in_omega(boundary: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Winding test of the sampled region boundary around each point (inside within 1e-12 of it).
    Points go 4 at a time, so that a (4, 2049) temporary stays below glibc's mmap threshold:
    all the checker's points at once left the heap 2.5 MB larger for the run."""
    out = np.empty(len(pts), dtype=bool)
    for i in range(0, len(pts), 4):
        dx, dy = (boundary[:, k] - pts[i : i + 4, k, None] for k in (0, 1))
        near = np.min(np.sqrt(dx * dx + dy * dy), axis=1) < 1e-12
        out[i : i + 4] = near | (np.round(np.abs(winding_sum(dx, dy)) / (2.0 * math.pi)) >= 1)
    return out


def _perimeter_position(rect: Cube, p: np.ndarray) -> float:
    lo, hi = rect.lo(), rect.hi()
    s = rect.side
    x, y = p
    if abs(y - lo[1]) <= abs(y - hi[1]) and abs(y - lo[1]) <= min(abs(x - lo[0]), abs(x - hi[0])):
        return x - lo[0]
    if abs(x - hi[0]) <= min(abs(y - lo[1]), abs(y - hi[1])):
        return s + (y - lo[1])
    if abs(y - hi[1]) <= abs(x - lo[0]):
        return 2 * s + (hi[0] - x)
    return 3 * s + (hi[1] - y)


def _perimeter_point(rect: Cube, t: float) -> np.ndarray:
    lo, hi = rect.lo(), rect.hi()
    s = rect.side
    t = t % (4 * s)
    if t < s:
        return np.array([lo[0] + t, lo[1]])
    if t < 2 * s:
        return np.array([hi[0], lo[1] + (t - s)])
    if t < 3 * s:
        return np.array([hi[0] - (t - 2 * s), hi[1]])
    return np.array([lo[0], hi[1] - (t - 3 * s)])


def _boundary_route(rect: Cube, a: np.ndarray, b: np.ndarray) -> list[np.ndarray]:
    """Shortest perimeter path from a to b along the rect boundary (cw on ties)."""
    s = rect.side
    ta = _perimeter_position(rect, a)
    tb = _perimeter_position(rect, b)
    fwd = (tb - ta) % (4 * s)
    bwd = (ta - tb) % (4 * s)
    pts = [a]
    if fwd < bwd - 1e-15:
        direction, dist = 1.0, fwd
    else:
        direction, dist = -1.0, bwd  # clockwise on ties
    # Corner parameters between ta and ta + direction * dist.
    corners = sorted({0.0, s, 2 * s, 3 * s})
    walked = []
    for c in corners:
        delta = ((c - ta) * direction) % (4 * s)
        if 1e-15 < delta < dist - 1e-15:
            walked.append(delta)
    for delta in sorted(walked):
        pts.append(_perimeter_point(rect, ta + direction * delta))
    pts.append(b)
    return pts


def _crossings(path: np.ndarray, rect: Cube) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slab clip of each segment of the polyline: (hit, t0, t1), where [t0, t1] is
    its parameter interval inside the open rect and hit says that interval is
    longer than 1e-12 (along an axis the segment does not move on, it only has
    to lie strictly between the two faces)."""
    lo, hi = rect.lo(), rect.hi()
    p = path[:-1]
    d = path[1:] - p
    t0, t1 = np.zeros(p.shape[0]), np.ones(p.shape[0])
    inside = np.ones(p.shape[0], dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(2):
            flat = np.abs(d[:, k]) < 1e-300
            inside &= ~(flat & ((p[:, k] <= lo[k]) | (p[:, k] >= hi[k])))
            ta = (lo[k] - p[:, k]) / d[:, k]
            tb = (hi[k] - p[:, k]) / d[:, k]
            # A tie keeps the earlier bound (+0.0 over -0.0), as Python's min and max do.
            enter, leave = np.where(tb < ta, tb, ta), np.where(tb > ta, tb, ta)
            t0 = np.where(~flat & (enter > t0), enter, t0)
            t1 = np.where(~flat & (leave < t1), leave, t1)
    return inside & ~(t1 - t0 <= 1e-12), t0, t1


def detour_around(path: np.ndarray, rect: Cube) -> np.ndarray:
    """Reroute the parts of a polyline crossing the rect interior along its boundary; both ends lie outside it."""
    for name, pt in (("start", path[0]), ("end", path[-1])):
        if np.all((pt > rect.lo()) & (pt < rect.hi())):
            raise GeometryError(f"path {name} {pt.tolist()} lies inside the rect to detour around")
    out = [path[:1]]
    last = path[0]  # the last point of out
    while True:
        hit, t0, _ = _crossings(path, rect)
        hits = np.flatnonzero(hit)
        if not hits.size:
            out.append(path[1:])
            return np.concatenate(out)
        i = int(hits[0])
        out.append(path[1 : i + 1])
        if i:
            last = path[i]
        p, q = path[i], path[i + 1]
        a = p + t0[i] * (q - p)
        # Exit where the first segment from a on leaves the interior, or at its
        # start if it does not enter (the obstacle may span segments).
        rest = np.vstack([a[None, :], path[i + 1 :]])
        inside, _, t1 = _crossings(rest, rect)
        leaving = np.flatnonzero(~inside | (t1 < 1.0 - 1e-12))
        if leaving.size:
            k = int(leaving[0])
            b = rest[k] + t1[k] * (rest[k + 1] - rest[k]) if inside[k] else rest[k]
        else:
            k = rest.shape[0] - 2
            b = path[-1]
        route = ([a] if t0[i] > 1e-12 else []) + _boundary_route(rect, a, b)[1:-1]
        if route:
            out.append(np.asarray(route))
            last = route[-1]
        if np.linalg.norm(last - b) > 1e-15:
            out.append(b[None, :])
            last = b
        path = np.vstack([b[None, :], path[i + k + 1 :]])


def _dedupe(path: np.ndarray) -> np.ndarray:
    """Drop each point within 1e-14 of the last point kept before it."""
    gaps = np.diff(path, axis=0)
    # sqrt of vecdot has the bits of np.linalg.norm of each row alone.
    near = np.flatnonzero(~(np.sqrt(np.vecdot(gaps, gaps)) > 1e-14)) + 1
    keep = np.ones(path.shape[0], dtype=bool)
    done = 0  # rows 0..done are decided
    for r in near.tolist():
        if r <= done:
            continue
        last = r - 1  # kept, as is every row after done up to r
        while r < path.shape[0] and not np.linalg.norm(path[r] - path[last]) > 1e-14:
            keep[r] = False
            r += 1
        done = r
    return path[keep]


# Rows of a held at once by _min_distance and _closer_than.
_MIN_DISTANCE_ROWS = 64


def _min_distance(a: np.ndarray, b: np.ndarray) -> float:
    """min |a_i - b_j| over all pairs of planar points, a few rows of a at a time.

    The minimum is taken over squared distances and rooted once; sqrt is
    monotone and correctly rounded, so this equals the minimum of the norms.
    """
    best = math.inf
    bx, by = b[:, 0].copy(), b[:, 1].copy()
    rows = _MIN_DISTANCE_ROWS
    for k in range(0, a.shape[0], rows):
        dx = np.subtract.outer(a[k : k + rows, 0], bx)
        dy = np.subtract.outer(a[k : k + rows, 1], by)
        dx *= dx
        dy *= dy
        dx += dy
        best = min(best, float(dx.min()))
    return math.sqrt(best)


def _closer_than(a: np.ndarray, b: np.ndarray, r: float) -> bool:
    """Whether _min_distance(a, b) < r, from the points of b near each chunk of a.

    A point of b outside a chunk's bounding box grown by 2r is more than r
    from every point of the chunk, rounding of the box included, so only
    the points inside it go through _min_distance.
    """
    rows = _MIN_DISTANCE_ROWS
    for k in range(0, a.shape[0], rows):
        chunk = a[k : k + rows]
        lo = chunk.min(axis=0) - 2.0 * r
        hi = chunk.max(axis=0) + 2.0 * r
        near = b[np.all((b >= lo) & (b <= hi), axis=1)]
        if near.shape[0] and _min_distance(chunk, near) < r:
            return True
    return False


def plan_shuffle(
    omega: tuple[MapExpr, float],
    pairs: list[tuple[Cube, Cube]],
    mu: float,
    c1_bound: float,
) -> ShufflePlan:
    """Validate the rearrangement hypotheses and pick targets and paths.

    Hypotheses: every source/target cube has side at least l / C1, and the
    mu-enlarged cubes are pairwise disjoint inside the region.  The
    intermediate point z_j is the target center when unobstructed,
    otherwise a grid-searched point of (S_j / 2) inside the obstructing
    cube but off its core.  Paths are forward images of straight segments
    with detours routed around parked cores, validated against the
    clearance bound l * min(1 / (C1 L)^2, (mu - 1) / C1).
    """
    psi, side = omega
    if not 1.0 < mu < math.inf:  # NaN fails too
        raise PlanError(f"mu must be a finite number above 1, got {mu}")
    if not 0.0 < c1_bound < math.inf:
        raise PlanError(f"C1 must be finite and positive, got {c1_bound}")
    if not pairs:
        raise PlanError("no cube pairs given")
    if pairs[0][0].dim != 2:
        raise PlanError("shuffling is planar only")

    base = Cube((side / 2.0, side / 2.0), side)
    l_meas = estimate_distortion(psi, base, side / 64.0).L_lo
    l_bound = max(2.0, l_meas)
    sqd = math.sqrt(2.0)
    ell = side
    try:  # c1_bound**2 overflows or underflows to 0 for extreme C1
        c1 = 1.0 / (4.0 * sqd * l_bound * c1_bound)
        c2 = min(
            c1 / (3.0 * sqd * c1_bound * l_bound),
            1.0 / (2.0 * sqd * c1_bound**2 * l_bound**2),
            (mu - 1.0) / (2.0 * sqd * c1_bound),
        )
        clearance = ell * min(1.0 / (c1_bound**2 * l_bound**2), (mu - 1.0) / c1_bound)
    except ArithmeticError as e:
        raise PlanError(f"C1 = {c1_bound} puts the plan constants out of range") from e
    for name, value in (("c1", c1), ("c2", c2), ("clearance", clearance)):
        if not 0.0 < value < math.inf:
            raise PlanError(f"C1 = {c1_bound} gives {name} = {value}, which is not finite and positive")

    ring = base.vertices()[[0, 1, 3, 2, 0]]
    boundary = psi.evaluate(resample_polyline(ring, 2048))

    for group in (0, 1):
        cubes = [p[group] for p in pairs]
        for j, c in enumerate(cubes):
            if c.side < ell / c1_bound - 1e-12:
                raise PlanError(f"cube {j} smaller than l / C1")
            big = c.dilate(mu)
            probe = np.vstack([big.vertices(), [big.center]])
            if not np.all(_point_in_omega(boundary, probe)):
                raise PlanError(f"enlarged cube {j} not inside the region")
        for i in range(len(cubes)):
            for j in range(i + 1, len(cubes)):
                if cubes[i].dilate(mu).overlaps(cubes[j].dilate(mu), tol=1e-12):
                    raise PlanError("enlarged cubes overlap")

    trivial = all(
        np.allclose(r.center, s.center) and abs(r.side - s.side) < 1e-15 for r, s in pairs
    )
    if trivial:
        return ShufflePlan(
            side, list(pairs), mu, l_bound, c1, c2,
            zs=[np.asarray(s.center) for _, s in pairs],
            gammas=[np.empty((0, 2))] * len(pairs),
            zetas=[np.empty((0, 2))] * len(pairs),
            clearance=clearance, boundary=boundary, trivial=True,
        )

    rs = [p[0] for p in pairs]
    ss = [p[1] for p in pairs]
    zs: list[np.ndarray] = []
    for j, (r, s) in enumerate(pairs):
        y = np.asarray(s.center)
        holder = next((k for k, rk in enumerate(rs) if rk.contains(y[None, :])[0]), None)
        if holder is None:
            zs.append(y)
            continue
        rk = rs[holder]
        core = rk.dilate(c1 * ell / rk.side)  # C(x_k, c1 l)
        half = s.dilate(0.5)
        n = 33
        cand_axes = [np.linspace(half.lo()[k], half.hi()[k], n) for k in range(2)]
        gx, gy = np.meshgrid(*cand_axes, indexing="ij")
        cand = np.stack([gx.ravel(), gy.ravel()], axis=-1)
        ok = rk.contains(cand) & ~core.contains(cand, tol=1e-12)
        if not np.any(ok):
            ok = ~core.contains(cand, tol=1e-12)
        if not np.any(ok):
            raise PlanError(f"hypotheses too tight at resolution for pair {j}")
        zs.append(cand[np.argmax(ok)])

    t_cubes = [Cube(tuple(z), c1 * ell) for z in zs]
    cores = [r.dilate(c1 * ell / r.side) for r in rs]
    finals = [Cube(tuple(s.center), c1 * ell) for s in ss]

    gammas: list[np.ndarray] = []
    zetas: list[np.ndarray] = []
    for j, (r, s) in enumerate(pairs):
        x = np.asarray(r.center)
        z = zs[j]
        y = np.asarray(s.center)
        for start, end, obstacles, store in (
            (x, z, [cores[k] for k in range(len(rs)) if k != j] + [t_cubes[k] for k in range(j)], gammas),
            (z, y, [t_cubes[k] for k in range(j + 1, len(rs))] + [finals[k] for k in range(j)], zetas),
        ):
            if np.linalg.norm(end - start) < 1e-15:
                store.append(np.empty((0, 2)))
                continue
            u0 = _psi_inverse(psi, side, start)
            u1 = _psi_inverse(psi, side, end)
            seg = np.linspace(0.0, 1.0, 257)[:, None]
            raw = psi.evaluate(u0 + seg * (u1 - u0))
            raw[0], raw[-1] = start, end
            path = _dedupe(raw)
            for obs in obstacles:
                path = _dedupe(detour_around(path, obs))
            samples = resample_polyline(path, 1024)
            if _closer_than(samples, boundary, clearance - 1e-9):
                raise PlanError(f"path {j} violates the boundary clearance bound")
            for obs in obstacles:
                if np.any(obs.dilate(1.0 - 1e-9).contains(samples, tol=-1e-12)):
                    raise PlanError(f"path {j} still crosses an obstacle core")
            store.append(path)

    return ShufflePlan(
        side, list(pairs), mu, l_bound, c1, c2,
        zs=zs, gammas=gammas, zetas=zetas, clearance=clearance,
        boundary=boundary, trivial=False,
    )


def execute_shuffle(plan: ShufflePlan, epsilon: float) -> ShuffleResult:
    """Emit the certified factor runs realizing the planned rearrangement.

    Stage 1 shrinks each source cube to the core size c2 l inside mu R_j;
    stages 2 and 3 carry the cores along the planned paths; stage 4 grows
    each core into its target cube inside mu S_j.  Factors are concatenated
    cube by cube (disjoint supports), each certified at or below
    1 + epsilon.  All stages share one dict of swept bounds.
    """
    sims = [
        AffineMapData(
            (s.side / r.side) * np.eye(2),
            np.asarray(s.center) - (s.side / r.side) * np.asarray(r.center),
        )
        for r, s in plan.pairs
    ]
    if plan.trivial:
        return ShuffleResult(plan, [], [], sims, [0, 0, 0, 0], 0)

    core_side = plan.c2_const * plan.base_side
    cache: dict = {}
    seqs = []
    offsets = [0]
    for r, _ in plan.pairs:
        seqs.append(factor_shrink(r, plan.mu, core_side / r.side, epsilon, cache))

    offsets.append(sum(fs.T for fs in seqs))
    for j, (r, _) in enumerate(plan.pairs):
        if plan.gammas[j].shape[0] == 0:
            continue
        seqs.append(factor_translation_along_path(Cube(r.center, core_side), plan.gammas[j], epsilon, cache))

    offsets.append(sum(fs.T for fs in seqs))
    for j in range(len(plan.pairs)):
        if plan.zetas[j].shape[0] == 0:
            continue
        core = Cube(tuple(plan.zs[j]), core_side)
        seqs.append(factor_translation_along_path(core, plan.zetas[j], epsilon, cache))

    offsets.append(sum(fs.T for fs in seqs))
    for _, s in plan.pairs:
        seqs.append(factor_shrink(Cube(s.center, core_side), plan.mu * s.side / core_side,
                                  s.side / core_side, epsilon, cache))

    # Parameter-only ceiling: worst-case path length d L^2 diam(Omega) per run.
    sqd = math.sqrt(2.0)
    delta = 0.95 * (epsilon / (1.0 + epsilon)) * 1.5 * core_side
    max_path = 2.0 * plan.l_bound**2 * sqd * plan.l_bound * sqd * plan.base_side
    n_translate = math.ceil(max_path / delta) + 1
    ratio = sqd * plan.l_bound * plan.base_side / core_side
    n_scale = math.ceil(math.log(ratio) / math.log1p(0.99 * epsilon / ((1 + epsilon) * 8.0))) + 1
    ceiling = len(plan.pairs) * (2 * n_scale + 2 * n_translate)

    return ShuffleResult(
        plan, [fs.factors for fs in seqs], [fs.L_lo for fs in seqs], sims, offsets, ceiling
    )


def check_shuffle(result: ShuffleResult) -> dict:
    """Re-verify the rearrangement contracts; returns a report dict.

    Checks vertex-exact similarity on every source cube, identity outside
    the region on an exterior lattice, per-factor certificates, and
    pairwise disjointness of the moving cubes at sampled prefix
    compositions.
    """
    plan = result.plan
    report: dict = {"T": result.T, "max_certified": result.max_certified()}

    probes = np.vstack([r.vertices() for r, _ in plan.pairs])
    n_per = 4

    lo = plan.boundary.min(axis=0)
    hi = plan.boundary.max(axis=0)
    pad = 0.25 * float(np.max(hi - lo))
    ring = resample_polyline(
        np.array(
            [
                [lo[0] - pad, lo[1] - pad],
                [hi[0] + pad, lo[1] - pad],
                [hi[0] + pad, hi[1] + pad],
                [lo[0] - pad, hi[1] + pad],
                [lo[0] - pad, lo[1] - pad],
            ]
        ),
        41,
    )
    outside = ring[~_point_in_omega(plan.boundary, ring)]

    # Moving-core sample points for the disjointness sweep.
    cores = np.vstack([np.vstack([[r.center], r.dilate(0.5).vertices()]) for r, _ in plan.pairs])
    n_core = 5

    # One merged point set walked through the factors in a single pass,
    # with images kept at every stride-th prefix and at the end.
    merged = np.vstack([probes, outside, cores])
    s1 = len(probes)
    s2 = s1 + len(outside)
    stride = max(1, result.T // N_PREFIXES)
    stops = sorted(set(range(stride, result.T + 1, stride)) | ({result.T} if result.T else set()))
    prefixes = result.walk(merged, stops)
    boxes = prefixes[:, s2:].reshape(len(stops), len(plan.pairs), n_core, 2)
    box_lo, box_hi = boxes.min(axis=2), boxes.max(axis=2)
    # overlap[s, a, b]: at stop s the boxes of cores a and b overlap.
    overlap = np.all((box_lo[:, :, None] < box_hi[:, None, :]) & (box_lo[:, None, :] < box_hi[:, :, None]), axis=3)
    a, b = np.triu_indices(len(plan.pairs), 1)
    disjoint_ok = not overlap[:, a, b].any()

    final = prefixes[-1] if stops else merged
    out_images = final[s1:s2]
    want = np.vstack([sim.apply(probes[j * n_per : (j + 1) * n_per]) for j, sim in enumerate(result.similarities)])
    residual = float(np.max(row_norms(want - final[:s1])))
    report["similarity_residual"] = residual
    report["similarity_ok"] = residual <= TOLERANCES["similarity_residual"]
    dev = float(np.max(row_norms(out_images - outside))) if len(outside) else 0.0
    report["outside_identity_dev"] = dev
    report["outside_ok"] = dev <= TOLERANCES["support_identity"]
    report["disjoint_ok"] = disjoint_ok
    report["count_ceiling"] = result.count_ceiling
    report["count_ok"] = result.T <= result.count_ceiling
    return report
