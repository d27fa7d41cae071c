from __future__ import annotations

import numpy as np
import pytest

from bilipfactor.degree import resample_polyline
from bilipfactor.geometry_core import Cube
from bilipfactor.map_engine import Identity, Scaling
from bilipfactor.shuffle import (
    PlanError,
    _min_distance,
    _point_in_omega,
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
    bounds = [c.L_lo for certs in result.certificates for c in certs]
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

    def test_clear_segment_untouched(self):
        path = np.array([[0.0, 0.0], [4.0, 0.0]])
        out = detour_around(path, Cube((2.0, 3.0), 1.0))
        assert np.allclose(out, path)


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
        comp = res.composite()
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
