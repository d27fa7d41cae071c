from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bilipfactor
from bilipfactor.geometry_core import Cube, resample_polyline
from bilipfactor.map_engine import Identity, LogSpiral, compose_sequence
from bilipfactor.shuffle import (
    PlanError,
    _boundary_route,
    _closer_than,
    _crossings,
    _dedupe,
    _min_distance,
    _point_in_omega,
    _psi_inverse,
    check_shuffle,
    detour_around,
    execute_shuffle,
    plan_shuffle,
)

# Module tests use the identity chart (larger core size, fewer factors);
# the scaled-chart instance runs in the acceptance suite.
OMEGA4 = (Identity(), 4.0)


def reference_check_shuffle(result, n_prefixes: int = 48) -> dict:
    """check_shuffle as a per-factor loop: one Blend.evaluate per factor."""
    plan = result.plan
    factors = [f for run in result.runs for f in run]
    bounds = [l_lo for b in result.bounds for l_lo in b.tolist()]
    report: dict = {"T": len(factors), "max_certified": max(bounds, default=1.0)}
    probes = np.vstack([r.vertices() for r, _ in plan.pairs])
    n_per = 4
    lo = plan.boundary.min(axis=0)
    hi = plan.boundary.max(axis=0)
    pad = 0.25 * float(np.max(hi - lo))
    ring = resample_polyline(
        np.array([[lo[0] - pad, lo[1] - pad], [hi[0] + pad, lo[1] - pad], [hi[0] + pad, hi[1] + pad],
                  [lo[0] - pad, hi[1] + pad], [lo[0] - pad, lo[1] - pad]]),
        41,
    )
    outside = ring[~_point_in_omega(plan.boundary, ring)]
    cores = np.vstack([np.vstack([[r.center], r.dilate(0.5).vertices()]) for r, _ in plan.pairs])
    n_core = 5
    merged = np.vstack([probes, outside, cores])
    s1 = len(probes)
    s2 = s1 + len(outside)
    stride = max(1, len(factors) // max(1, n_prefixes))
    disjoint_ok = True
    for i, f in enumerate(factors):
        merged = f.evaluate(merged)
        if (i + 1) % stride == 0 or i == len(factors) - 1:
            boxes = []
            for j in range(len(plan.pairs)):
                pts = merged[s2 + j * n_core : s2 + (j + 1) * n_core]
                boxes.append((pts.min(axis=0), pts.max(axis=0)))
            for a in range(len(boxes)):
                for b in range(a + 1, len(boxes)):
                    alo, ahi = boxes[a]
                    blo, bhi = boxes[b]
                    if np.all(alo < bhi) and np.all(blo < ahi):
                        disjoint_ok = False
    images = merged[:s1]
    out_images = merged[s1:s2]
    residual = 0.0
    for j, sim in enumerate(result.similarities):
        want = sim.apply(probes[j * n_per : (j + 1) * n_per])
        got = images[j * n_per : (j + 1) * n_per]
        residual = max(residual, float(np.max(np.linalg.norm(want - got, axis=1))))
    report["similarity_residual"] = residual
    report["similarity_ok"] = residual <= 1e-9
    dev = float(np.max(np.linalg.norm(out_images - outside, axis=1))) if len(outside) else 0.0
    report["outside_identity_dev"] = dev
    report["outside_ok"] = dev <= 1e-12
    report["disjoint_ok"] = disjoint_ok
    report["count_ceiling"] = result.count_ceiling
    report["count_ok"] = len(factors) <= result.count_ceiling
    return report


class TestPlan:
    def test_trivial_plan(self):
        pairs = [(Cube((1.0, 1.0), 0.5), Cube((1.0, 1.0), 0.5))]
        plan = plan_shuffle(OMEGA4, pairs, mu=1.5, c1_bound=8.0)
        assert plan.trivial
        assert all(g.shape[0] == 0 for g in plan.gammas)

    def test_swap_plan_valid(self):
        pairs = [
            (Cube((1.0, 1.0), 0.5), Cube((3.0, 1.0), 0.5)),
            (Cube((3.0, 3.0), 0.5), Cube((1.0, 3.0), 0.5)),
        ]
        plan = plan_shuffle(OMEGA4, pairs, mu=1.5, c1_bound=8.0)
        assert not plan.trivial
        assert np.allclose(plan.zs[0], [3.0, 1.0])  # unobstructed: z = y
        # Paths keep the proof clearance from the region boundary.
        for g in plan.gammas:
            if g.shape[0]:
                d = np.min(
                    np.linalg.norm(g[:, None, :] - plan.boundary[None, :, :], axis=2)
                )
                assert d >= plan.clearance - 1e-9

    def test_crossing_swap_picks_offset_target(self):
        pairs = [
            (Cube((1.0, 1.0), 0.6), Cube((2.6, 2.6), 0.6)),
            (Cube((2.6, 2.6), 0.6), Cube((1.0, 1.0), 0.6)),
        ]
        plan = plan_shuffle(OMEGA4, pairs, mu=1.4, c1_bound=8.0)
        # y_1 sits inside R_2: z_1 must differ from y_1 yet stay in S_1 / 2.
        assert not np.allclose(plan.zs[0], [2.6, 2.6])
        half = pairs[0][1].dilate(0.5)
        assert half.contains(plan.zs[0][None, :])[0]

    def test_min_distance_equals_dense_minimum(self, rng):
        a = rng.uniform(0.0, 4.0, size=(300, 2))
        b = rng.uniform(0.0, 4.0, size=(700, 2))
        dense = float(np.min(np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)))
        assert _min_distance(a, b) == dense

    def test_hypothesis_violations(self):
        small = [(Cube((1.0, 1.0), 0.2), Cube((3.0, 1.0), 0.2))]
        with pytest.raises(PlanError, match="smaller"):
            plan_shuffle(OMEGA4, small, mu=1.5, c1_bound=8.0)
        outside = [(Cube((0.2, 0.2), 0.5), Cube((3.0, 1.0), 0.5))]
        with pytest.raises(PlanError, match="inside"):
            plan_shuffle(OMEGA4, outside, mu=2.5, c1_bound=8.0)
        touching = [
            (Cube((1.0, 1.0), 0.5), Cube((3.0, 1.0), 0.5)),
            (Cube((1.6, 1.0), 0.5), Cube((1.0, 3.0), 0.5)),
        ]
        with pytest.raises(PlanError, match="overlap"):
            plan_shuffle(OMEGA4, touching, mu=1.5, c1_bound=8.0)


def _segment_rect_interval(p: np.ndarray, q: np.ndarray, rect: Cube) -> tuple[float, float] | None:
    """Parameter interval of the open segment inside the rect interior (scalar slab clip)."""
    lo, hi = rect.lo(), rect.hi()
    d = q - p
    t0, t1 = 0.0, 1.0
    for k in range(2):
        if abs(d[k]) < 1e-300:
            if p[k] <= lo[k] or p[k] >= hi[k]:
                return None
        else:
            ta = (lo[k] - p[k]) / d[k]
            tb = (hi[k] - p[k]) / d[k]
            ta, tb = min(ta, tb), max(ta, tb)
            t0, t1 = max(t0, ta), min(t1, tb)
    if t1 - t0 <= 1e-12:
        return None
    return t0, t1


def reference_detour_around(path: np.ndarray, rect: Cube, max_detours: int = 1000) -> np.ndarray:
    """detour_around as a per-segment loop of _segment_rect_interval calls."""
    out = [path[0]]
    i = 0
    n = len(path)
    while i < n - 1:
        p, q = path[i], path[i + 1]
        iv = _segment_rect_interval(p, q, rect)
        if iv is None:
            out.append(q)
            i += 1
            continue
        max_detours -= 1
        assert max_detours >= 0, "the loop does not end on this input"
        t0, t1 = iv
        a = p + t0 * (q - p)
        j = i
        b = None
        first = True
        while j < n - 1:
            pj, qj = (a, path[j + 1]) if first else (path[j], path[j + 1])
            iv2 = _segment_rect_interval(pj, qj, rect)
            if iv2 is None:  # leaves through the segment's first vertex
                b = pj
                break
            _, te = iv2
            if te < 1.0 - 1e-12:
                b = pj + te * (qj - pj)
                break
            first = False
            j += 1
        if b is None:
            b = path[-1]
            j = n - 2
        if t0 > 1e-12:
            out.append(a)
        out.extend(_boundary_route(rect, a, b)[1:])
        path = np.vstack([out[-1][None, :], path[j + 1 :]])
        n = len(path)
        i = 0
        out.pop()
        if len(out) == 0 or np.linalg.norm(out[-1] - path[0]) > 1e-15:
            out.append(path[0])
    return np.asarray(out)


def reference_dedupe(path: np.ndarray) -> np.ndarray:
    keep = [0]
    for i in range(1, len(path)):
        if np.linalg.norm(path[i] - path[keep[-1]]) > 1e-14:
            keep.append(i)
    return path[keep]


def random_detour_case(gen: np.random.Generator) -> tuple[np.ndarray, Cube]:
    """A polyline and a rect on a dyadic grid, so that vertices sit on the rect's
    edges and corners and many segments are axis-parallel, with some vertices
    off the grid; the end points lie outside the open rect."""
    rect = Cube(tuple(gen.integers(-8, 9, size=2) / 8.0), gen.integers(2, 17) / 8.0)
    lo, hi = rect.lo(), rect.hi()
    n = int(gen.integers(2, 12))
    grid = lo + gen.integers(-8, int(8 * rect.side) + 9, size=(n, 2)) / 8.0
    path = np.where(gen.random((n, 1)) < 0.8, grid, gen.uniform(lo - 1.0, hi + 1.0, size=(n, 2)))
    if gen.random() < 0.3:  # a run of vertices inside the rect
        a = int(gen.integers(1, n))
        path[a : a + 3] = gen.uniform(lo, hi, size=(len(path[a : a + 3]), 2))
    corners = rect.vertices()
    pick = gen.random(n) < 0.15
    path[pick] = corners[gen.integers(0, 4, size=int(pick.sum()))]
    flat = gen.random(n - 1) < 0.3  # copy one coordinate of the previous vertex
    for i in np.flatnonzero(flat):
        path[i + 1, i % 2] = path[i, i % 2]
    for end in (0, n - 1):
        while np.all((path[end] > lo) & (path[end] < hi)):
            path[end] = gen.uniform(lo - 1.0, hi + 1.0)
    return path, rect


def near_duplicate_path(gen: np.random.Generator) -> np.ndarray:
    """A random polyline with chains of points within about 1e-14 of each other."""
    rows = []
    for p in gen.uniform(-2.0, 2.0, size=(int(gen.integers(1, 30)), 2)):
        rows.append(p)
        for _ in range(int(gen.integers(0, 5)) if gen.random() < 0.5 else 0):
            step = gen.choice([0.0, 2e-15, 6e-15, 9e-15, 1.1e-14, 3e-14])
            rows.append(rows[-1] + step * gen.uniform(-1.0, 1.0, size=2))
    return np.array(rows)


class TestArrayPlanHelpers:
    def test_closer_than_equals_dense_minimum(self, rng):
        for na, nb, scale in ((300, 700, 4.0), (64, 1, 1.0), (1, 2049, 1.0), (1024, 2049, 0.05)):
            a = rng.uniform(0.0, scale, size=(na, 2))
            b = rng.uniform(0.0, 1.0, size=(nb, 2))
            m = _min_distance(a, b)
            assert _min_distance(a, b) == float(np.min(np.linalg.norm(a[:, None] - b[None], axis=2)))
            assert not _closer_than(a, b, m)
            assert _closer_than(a, b, float(np.nextafter(m, np.inf)))
        a = rng.uniform(0.0, 1.0, size=(100, 2))
        b = np.vstack([rng.uniform(2.0, 3.0, size=(50, 2)), a[77:78]])
        assert _min_distance(a, b) == 0.0
        assert not _closer_than(a, b, 0.0)
        assert _closer_than(a, b, float(np.nextafter(0.0, 1.0)))

    def test_closer_than_on_plan_samples(self):
        pairs = [(Cube((1.0, 1.0), 0.5), Cube((3.0, 1.0), 0.5)),
                 (Cube((3.0, 3.0), 0.5), Cube((1.0, 3.0), 0.5))]
        plan = plan_shuffle(OMEGA4, pairs, mu=1.5, c1_bound=8.0)
        paths = [g for g in plan.gammas + plan.zetas if g.shape[0]]
        assert len(paths) >= 2
        for g in paths:
            samples = resample_polyline(g, 1024)
            m = _min_distance(samples, plan.boundary)
            assert m >= plan.clearance - 1e-9
            assert not _closer_than(samples, plan.boundary, m)
            assert _closer_than(samples, plan.boundary, float(np.nextafter(m, np.inf)))

    def test_crossings_equal_segment_intervals(self):
        gen = np.random.default_rng(4101)
        for _ in range(400):
            path, rect = random_detour_case(gen)
            want = [_segment_rect_interval(p, q, rect) for p, q in zip(path[:-1], path[1:])]
            hit, t0, t1 = _crossings(path, rect)
            assert hit.tolist() == [iv is not None for iv in want]
            got = np.column_stack([t0, t1])[hit]
            assert got.tobytes() == np.array([iv for iv in want if iv is not None]).reshape(-1, 2).tobytes()

    def test_detour_equals_segment_loop(self):
        gen = np.random.default_rng(4102)
        crossed = spanned = 0
        for _ in range(400):
            path, rect = random_detour_case(gen)
            want = reference_detour_around(path, rect)
            got = detour_around(path, rect)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            inside = np.all((path > rect.lo()) & (path < rect.hi()), axis=1)
            crossed += bool(_crossings(path, rect)[0].any())
            spanned += bool(np.any(inside[1:] & inside[:-1]))
        assert crossed > 100 and spanned > 20  # detours, some over several segments

    def test_detour_at_edges_and_corners(self):
        rect = Cube((0.0, 0.0), 2.0)
        cases = [
            [[-2.0, -1.0], [2.0, -1.0]],  # along an edge
            [[-1.0, -2.0], [-1.0, 2.0]],  # along the other edge
            [[-2.0, -2.0], [2.0, 2.0]],  # through two corners
            [[-2.0, 0.0], [-1.0, 1.0], [1.0, 1.0], [2.0, 0.0]],  # corner to corner along an edge
            [[-2.0, 0.5], [0.0, 0.5], [0.5, 0.0], [0.0, -0.5], [-2.0, -0.5]],  # in and out on one side
            [[-2.0, 0.0], [-0.5, 0.0], [0.5, 0.25], [0.25, -0.5], [2.0, 0.0]],  # spans three segments
            [[0.0, -2.0], [0.0, -1.0], [0.0, 1.0], [0.0, 2.0]],  # axis-parallel, touching both edges
            [[-1.0, -1.0], [1.0, 1.0]],  # corner to corner through the interior
        ]
        for path in cases:
            path = np.array(path)
            want = reference_detour_around(path, rect)
            assert detour_around(path, rect).tobytes() == want.tobytes()

    def test_dedupe_equals_scalar_loop(self):
        gen = np.random.default_rng(4103)
        dropped = 0
        for _ in range(300):
            path = near_duplicate_path(gen)
            want = reference_dedupe(path)
            got = _dedupe(path)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            dropped += len(path) - len(want)
        assert dropped > 100
        chain = np.array([[0.0, 0.0], [8e-15, 0.0], [1.6e-14, 0.0], [2.4e-14, 0.0], [1.0, 0.0]])
        assert _dedupe(chain).tobytes() == chain[[0, 2, 4]].tobytes()
        # Gaps at the threshold: with an FMA ddot (OpenBLAS), the norm of a
        # row alone and a row-wise sum of squares fall on either side of 1e-14.
        for gap in ([6.510583682916479e-16, 9.978783643364427e-15], [3.527194882787934e-15, 9.357291074816184e-15]):
            edge = np.array([[0.0, 0.0], gap, [1.0, 0.0]])
            assert _dedupe(edge).tobytes() == reference_dedupe(edge).tobytes()


class TestDetour:
    def test_segment_through_rect(self):
        path = np.array([[0.0, 0.0], [4.0, 0.0]])
        out = detour_around(path, Cube((2.0, 0.0), 1.0))
        # Rerouted path avoids the open interior and stays connected.
        assert np.allclose(out[0], [0.0, 0.0]) and np.allclose(out[-1], [4.0, 0.0])
        inner = Cube((2.0, 0.0), 0.999)
        samples = np.vstack(
            [np.linspace(a, b, 50) for a, b in zip(out[:-1], out[1:])]
        )
        assert not np.any(inner.contains(samples, tol=-1e-9))

    def test_exit_through_a_boundary_vertex(self):
        # The path leaves the rect at the vertex (0, 1) of its top edge; the
        # rest of the path is kept after the detour.
        path = np.array([[-2.0, 0.0], [0.0, 1.0], [0.5, 2.0], [5.0, 2.0], [5.0, -3.0]])
        rect = Cube((0.0, 0.0), 2.0)
        out = detour_around(path, rect)
        want = np.array([[-2.0, 0.0], [-1.0, 0.5], [-1.0, 1.0], [0.0, 1.0], [0.5, 2.0], [5.0, 2.0], [5.0, -3.0]])
        assert out.tobytes() == want.tobytes()
        assert not _crossings(out, rect)[0].any()
        assert out.tobytes() == reference_detour_around(path, rect).tobytes()

    def test_clear_segment_untouched(self):
        path = np.array([[0.0, 0.0], [4.0, 0.0]])
        out = detour_around(path, Cube((2.0, 3.0), 1.0))
        assert np.allclose(out, path)

    @pytest.mark.parametrize("path,name", [
        ([[-2.0, 0.0], [0.0, 0.0]], "end"),
        ([[0.5, 0.5], [-2.0, 0.0]], "start"),
        ([[0.0, 0.0], [0.5, 0.0]], "start"),  # both inside: the start is named
    ], ids=["end", "start", "both"])
    def test_end_point_inside_the_rect_is_refused(self, path, name):
        # In a child with a timeout: a path ending inside the rect used to loop for ever.
        code = (
            "import json, sys, numpy as np; from bilipfactor.geometry_core import Cube, GeometryError\n"
            "from bilipfactor.shuffle import detour_around\n"
            "try:\n    detour_around(np.array(json.loads(sys.argv[1])), Cube((0.0, 0.0), 2.0))\n"
            "except GeometryError as e:\n    print(e)"
        )
        src = str(Path(bilipfactor.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", code, json.dumps(path)], env=env, check=True, timeout=60,
                              capture_output=True, text=True)
        point = path[0] if name == "start" else path[-1]
        assert done.stdout.strip() == f"path {name} {point} lies inside the rect to detour around"


class TestExecute:
    def test_trivial_execution(self):
        pairs = [(Cube((1.0, 1.0), 0.5), Cube((1.0, 1.0), 0.5))]
        plan = plan_shuffle(OMEGA4, pairs, mu=1.5, c1_bound=8.0)
        res = execute_shuffle(plan, 0.25)
        assert res.T == 0

    def test_single_cube_translation(self):
        pairs = [(Cube((1.0, 1.0), 0.5), Cube((2.5, 1.0), 0.5))]
        plan = plan_shuffle(OMEGA4, pairs, mu=1.5, c1_bound=8.0)
        res = execute_shuffle(plan, 0.25)
        rep = check_shuffle(res)
        assert rep["similarity_ok"] and rep["outside_ok"] and rep["disjoint_ok"]
        assert res.max_certified() <= 1.25 + 1e-12
        # Same-size source and target: the restriction is a pure translation.
        sim = res.similarities[0]
        assert np.abs(sim.matrix - np.eye(2)).max() < 1e-12
        comp = compose_sequence(res.runs)  # the runs' composite, first run first
        vertices = pairs[0][0].vertices()
        assert np.abs(comp.evaluate(vertices) - (vertices + [1.5, 0.0])).max() <= 1e-9

    def test_two_cube_swap(self):
        pairs = [
            (Cube((1.0, 1.0), 0.5), Cube((3.0, 1.0), 0.5)),
            (Cube((3.0, 3.0), 0.5), Cube((1.0, 3.0), 0.5)),
        ]
        plan = plan_shuffle(OMEGA4, pairs, mu=1.5, c1_bound=8.0)
        res = execute_shuffle(plan, 0.25)
        rep = check_shuffle(res)
        assert rep["similarity_ok"] and rep["outside_ok"] and rep["disjoint_ok"]
        assert rep["count_ok"]
        assert res.max_certified() <= 1.25 + 1e-12

    def test_count_ceiling_shared_across_positions(self):
        # Two instances with identical parameters but different cube layouts
        # stay below the same parameter-only factor-count ceiling.
        layouts = [
            [(Cube((1.0, 1.0), 0.5), Cube((3.0, 1.0), 0.5)),
             (Cube((3.0, 3.0), 0.5), Cube((1.0, 3.0), 0.5))],
            [(Cube((1.0, 3.0), 0.5), Cube((3.0, 3.0), 0.5)),
             (Cube((3.0, 1.0), 0.5), Cube((1.0, 1.0), 0.5))],
        ]
        ceilings = set()
        for pairs in layouts:
            plan = plan_shuffle(OMEGA4, pairs, mu=1.5, c1_bound=8.0)
            res = execute_shuffle(plan, 0.25)
            assert res.T <= res.count_ceiling
            ceilings.add(res.count_ceiling)
        assert len(ceilings) == 1


class TestCurvedChart:
    # A log-spiral chart has no affine part, so the plan inverts it by a grid
    # argmin and Gauss-Newton steps.
    PSI = LogSpiral(0.05)

    @pytest.mark.parametrize("u0", [(1e-3, 2e-3), (0.3, 3.6), (1.0, 1.5), (2.6, 1.5), (3.9, 0.2)])
    def test_psi_inverse_lands_on_target(self, u0):
        target = self.PSI(np.array(u0))
        u = _psi_inverse(self.PSI, 4.0, target)
        assert np.linalg.norm(self.PSI(u) - target) <= 1e-9 * 4.0

    def test_single_cube_translation(self):
        pairs = [(Cube((1.0, 1.5), 0.5), Cube((2.6, 1.5), 0.5))]
        res = execute_shuffle(plan_shuffle((self.PSI, 4.0), pairs, mu=1.5, c1_bound=8.0), 0.25)
        rep = check_shuffle(res)
        assert res.T > 0
        assert all(v for k, v in rep.items() if k.endswith("_ok"))


class TestCheckReference:
    @pytest.mark.parametrize(
        "pairs,mu",
        [
            pytest.param([(Cube((1.0, 1.0), 0.5), Cube((3.0, 1.0), 0.5)),
                          (Cube((3.0, 3.0), 0.5), Cube((1.0, 3.0), 0.5))], 1.5, id="swap"),
            pytest.param([(Cube((1.0, 1.0), 0.6), Cube((2.6, 2.6), 0.6)),
                          (Cube((2.6, 2.6), 0.6), Cube((1.0, 1.0), 0.6))], 1.4, id="crossing-swap"),
            pytest.param([(Cube((0.8, 0.8), 0.5), Cube((2.0, 2.0), 0.5)),
                          (Cube((2.0, 2.0), 0.5), Cube((3.2, 3.2), 0.5)),
                          (Cube((3.2, 3.2), 0.5), Cube((0.8, 0.8), 0.5))], 1.5, id="three-cube-rotation"),
        ],
    )
    def test_report_equals_per_factor_loop(self, pairs, mu):
        res = execute_shuffle(plan_shuffle(OMEGA4, pairs, mu=mu, c1_bound=8.0), 0.25)
        assert res.T == sum(len(run) for run in res.runs) > 0
        assert check_shuffle(res) == reference_check_shuffle(res)
