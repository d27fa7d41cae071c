from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from bilipfactor.corona import (
    Coronization,
    StoppingRegion,
    _fit_window,
    _WindowSamples,
    box_union_volume,
    build_coronization,
    carleson_constant,
    check_coronization,
    multilevel_decomposition,
    region_fit_error,
    secondary_subdivision,
    verify_region_fits,
)
from bilipfactor.geometry_core import (
    AffineMapData,
    Cube,
    DyadicCube,
    GeometryError,
    bilip_constant,
    box_lattice,
    rotation_3d,
    unit_cube_dyadics,
)
from bilipfactor.map_engine import (
    Affine,
    Blend,
    Identity,
    LogSpiral,
    almost_affine_fit,
    estimate_distortion,
)

from conftest import smooth_test_maps

AFFINE = Affine(AffineMapData(np.array([[1.2, 0.1], [0.0, 0.9]]), np.array([0.1, 0.2])))


def brute_force_carleson(c: Coronization) -> tuple[Fraction, Fraction]:
    """Direct enumeration oracle (no subtree DP)."""
    dim = c.params["dim"]
    tops = {s.top for s in c.regions}
    all_cubes = [q for lv in range(c.depth + 1) for q in unit_cube_dyadics(dim, lv)]
    c_bad = Fraction(0)
    c_tops = Fraction(0)
    for r in all_cubes:
        bad_mass = sum((q.volume for q in c.bad if r.contains_dyadic(q)), Fraction(0))
        top_mass = sum((q.volume for q in tops if r.contains_dyadic(q)), Fraction(0))
        c_bad = max(c_bad, bad_mass / r.volume)
        c_tops = max(c_tops, top_mass / r.volume)
    return c_bad, c_tops


def reference_coronization(f, dim, depth, theta, h) -> Coronization:
    """The per-window greedy loop: every fit and every child check samples
    its own clipped 2Q window through box_lattice."""
    l_est = estimate_distortion(f, Cube((0.5,) * dim, 1.0), max(h, 1.0 / 32.0)).L_lo
    unit = (np.zeros(dim), np.ones(dim))
    assigned: dict[DyadicCube, int] = {}
    regions: list[StoppingRegion] = []
    for level in range(depth + 1):
        for q in unit_cube_dyadics(dim, level):
            if q in assigned:
                continue
            try:
                fit, res = almost_affine_fit(f, q.to_cube(), h, clip=unit)
                bad = res > theta or bilip_constant(fit) > 2.0 * l_est
            except GeometryError:
                bad = True
            if bad:
                assigned[q] = -1
                continue
            idx = len(regions)
            members = {q}
            assigned[q] = idx
            frontier = [q]
            while frontier:
                p = frontier.pop(0)
                if p.level == depth:
                    continue
                kids = p.children()
                if all(region_fit_error(fit, f, c, h) <= theta * c.to_cube().diam for c in kids):
                    members.update(kids)
                    assigned.update(dict.fromkeys(kids, idx))
                    frontier.extend(kids)
            regions.append(StoppingRegion(top=q, members=members, fit=fit, residual=res))
    return Coronization(
        depth=depth,
        good={q for q, i in assigned.items() if i >= 0},
        bad={q for q, i in assigned.items() if i < 0},
        regions=regions,
        params={"dim": dim},
    )


def reference_check(c: Coronization) -> list[str]:
    """Set-based invariant check: one pass over every member of every region."""
    issues: list[str] = []
    dim = c.params["dim"]
    all_cubes = {q for lv in range(c.depth + 1) for q in unit_cube_dyadics(dim, lv)}
    if c.good & c.bad:
        issues.append("good and bad overlap")
    if (c.good | c.bad) != all_cubes:
        issues.append("good + bad do not cover all dyadic cubes to depth")
    seen: set[DyadicCube] = set()
    for i, s in enumerate(c.regions):
        if s.top not in s.members:
            issues.append(f"region {i}: top not a member")
        if seen & s.members:
            issues.append(f"region {i}: overlaps another region")
        seen |= s.members
        for m in s.members:
            if m != s.top:
                if not s.top.contains_dyadic(m):
                    issues.append(f"region {i}: member outside the top")
                if m.parent() not in s.members:
                    issues.append(f"region {i}: gap between member and top")
            if m.level < c.depth:
                kids_in = [k in s.members for k in m.children()]
                if any(kids_in) and not all(kids_in):
                    issues.append(f"region {i}: children split at {m}")
    if seen != c.good:
        issues.append("regions do not partition the good cubes")
    return issues


def blend_3d(theta: float = 0.03) -> Blend:
    rot = rotation_3d(np.array([1.0, 2.0, 2.0]), theta)
    return Blend(Affine(AffineMapData(rot, np.zeros(3))), Cube((0.4, 0.5, 0.6), 0.3), 2.0)


class TestDenseSampling:
    @pytest.mark.parametrize(
        "f, dim, depth, theta, h",
        [
            (LogSpiral(0.3), 2, 5, 0.05, 1 / 64),  # every window sliced
            (LogSpiral(0.3), 2, 6, 0.05, 1 / 64),  # finest-level windows sampled directly
            (LogSpiral(0.3), 2, 4, 0.05, 0.02),  # non-dyadic pitch: every window sampled
            (blend_3d(), 3, 2, 0.02, 1 / 8),
        ],
        ids=["sliced", "mixed", "non-dyadic", "3d"],
    )
    def test_equals_per_window_loop(self, f, dim, depth, theta, h):
        c = build_coronization(f, dim, depth, eta=0.1, theta=theta, h=h)
        ref = reference_coronization(f, dim, depth, theta, h)
        assert c.good == ref.good and c.bad == ref.bad
        assert len(c.regions) == len(ref.regions) > 1
        for s, r in zip(c.regions, ref.regions):
            assert s.top == r.top and s.members == r.members
            assert s.fit.matrix.tobytes() == r.fit.matrix.tobytes()
            assert s.fit.shift.tobytes() == r.fit.shift.tobytes()
            assert s.residual == r.residual

    @pytest.mark.parametrize("h", [2.0**-7, 2.0**-8])
    def test_sliced_windows_are_box_lattices(self, h):
        sample = _WindowSamples(Identity(), 2, h)
        assert sample.p == -math.log2(h)
        for level in range(7):
            for q in unit_cube_dyadics(2, level):
                pts, imgs = sample(q)
                assert pts.tobytes() == box_lattice(*_fit_window(q), h).tobytes()
                assert imgs.tobytes() == pts.tobytes()


class TestBuild:
    def test_affine_single_region(self):
        c = build_coronization(AFFINE, 2, 4, eta=0.1, theta=0.05, h=1 / 64)
        assert len(c.bad) == 0
        assert len(c.regions) == 1
        assert c.regions[0].top == DyadicCube(0, (0, 0))
        assert check_coronization(c) == []

    def test_logspiral_invariants(self):
        c = build_coronization(LogSpiral(0.3), 2, 6, eta=0.1, theta=0.05, h=1 / 128)
        assert check_coronization(c) == []
        c_bad, c_tops = carleson_constant(c)
        assert c_bad < math.inf and c_tops < math.inf

    def test_theta_sweep_region_count_non_decreasing(self):
        counts = []
        for theta in (0.2, 0.1, 0.05):
            c = build_coronization(LogSpiral(0.3), 2, 4, eta=0.1, theta=theta, h=1 / 64)
            counts.append(len(c.regions))
        assert counts[0] <= counts[1] <= counts[2]

    def test_resolution_too_coarse(self):
        with pytest.raises(GeometryError, match="resolution"):
            build_coronization(AFFINE, 2, 6, eta=0.1, theta=0.05, h=1 / 16)

    def test_region_fit_reverification(self):
        c = build_coronization(LogSpiral(0.2), 2, 4, eta=0.1, theta=0.05, h=1 / 64)
        warnings = verify_region_fits(c, LogSpiral(0.2))
        # Warnings are allowed but counted; a smooth map at this scale has few.
        assert warnings <= len(c.good) // 10


class TestCarleson:
    def test_affine_exact_values(self):
        c = build_coronization(AFFINE, 2, 4, eta=0.1, theta=0.05, h=1 / 64)
        c_bad, c_tops = carleson_constant(c)
        assert c_bad == 0
        assert c_tops == 1

    def test_all_bad_geometric_sum(self):
        dim, depth = 2, 3
        cubes = {q for lv in range(depth + 1) for q in unit_cube_dyadics(dim, lv)}
        c = Coronization(depth=depth, good=set(), bad=cubes, regions=[],
                         params={"dim": dim, "theta": 0.05, "h": 1 / 32, "eta": 0.1})
        c_bad, _ = carleson_constant(c)
        assert c_bad == depth + 1

    def test_subtree_equals_brute_force(self):
        for depth in (3, 4, 5):
            c = build_coronization(LogSpiral(0.35), 2, depth, eta=0.1, theta=0.04, h=1 / 64)
            assert carleson_constant(c) == brute_force_carleson(c)

    def test_3d_equals_brute_force(self):
        c = build_coronization(blend_3d(), 3, 2, eta=0.1, theta=0.01, h=1 / 8)
        assert c.bad and len(c.regions) > 1
        assert carleson_constant(c) == brute_force_carleson(c)

    def test_random_3d_sets_equal_brute_force(self):
        gen = np.random.default_rng(7)
        cubes = [q for lv in range(4) for q in unit_cube_dyadics(3, lv)]
        for _ in range(3):
            pick = gen.random(len(cubes))
            bad = {q for q, u in zip(cubes, pick) if u < 0.15}
            tops = [q for q, u in zip(cubes, pick) if 0.15 <= u < 0.3]
            c = Coronization(
                depth=3, good=set(tops), bad=bad,
                regions=[StoppingRegion(top=q, members={q}, fit=None, residual=0.0) for q in tops],
                params={"dim": 3},
            )
            assert carleson_constant(c) == brute_force_carleson(c)

    def test_int64_guard(self):
        c = Coronization(depth=32, good=set(), bad={DyadicCube(0, (0, 0))}, regions=[],
                         params={"dim": 2})
        with pytest.raises(GeometryError, match="int64"):
            carleson_constant(c)

    def test_logspiral_regression(self):
        c = build_coronization(LogSpiral(0.2), 2, 6, eta=0.1, theta=0.05, h=1 / 128)
        c_bad, c_tops = carleson_constant(c)
        assert 0 < float(c_bad) < 20
        assert 1 <= float(c_tops) < 20


class TestCheck:
    def test_empty_hand_built_reports_issues(self):
        c = Coronization(depth=2, good=set(), bad=set(), regions=[], params={"dim": 2})
        assert check_coronization(c) == ["good + bad do not cover all dyadic cubes to depth"]
        assert carleson_constant(c) == (0, 0)

    def test_same_issues_as_set_based_check(self):
        base = build_coronization(LogSpiral(0.2), 2, 4, eta=0.1, theta=0.05, h=1 / 64)
        assert check_coronization(base) == reference_check(base) == []
        big = max(base.regions, key=lambda s: len(s.members))
        deep = max(big.members, key=lambda q: (q.level, q.coords))
        inner = next(m for m in big.members if m != big.top and m.level < base.depth
                     and m.children()[0] in big.members)
        other = next(s for s in base.regions if s is not big)

        def variant(good=None, bad=None, regions=None):
            return Coronization(base.depth, base.good if good is None else good,
                                base.bad if bad is None else bad,
                                base.regions if regions is None else regions, {"dim": 2})

        def with_members(s, members):
            rs = [StoppingRegion(r.top, set(members), r.fit, r.residual) if r is s else r
                  for r in base.regions]
            return variant(regions=rs)

        cases = [
            variant(bad=base.bad | {deep}),  # good and bad overlap
            variant(good=base.good - {deep}),  # a cube neither good nor bad
            variant(good=base.good | {DyadicCube(base.depth + 1, (0, 0))}),  # beyond depth
            with_members(big, big.members - {inner}),  # a gap and a split
            with_members(big, big.members - {big.top}),  # top not a member
            with_members(big, big.members | {other.top}),  # outside the top, overlap
        ]
        for c in cases:
            issues = check_coronization(c)
            assert issues
            assert sorted(issues) == sorted(reference_check(c))


class TestBoxUnion:
    def test_disjoint_boxes(self):
        f = Fraction
        boxes = [((f(0), f(0)), (f(1, 2), f(1, 2))), ((f(1, 2), f(1, 2)), (f(1), f(1)))]
        assert box_union_volume(boxes) == f(1, 2)

    def test_overlapping_boxes(self):
        f = Fraction
        boxes = [((f(0), f(0)), (f(3, 4), f(3, 4))), ((f(1, 4), f(1, 4)), (f(1), f(1)))]
        # inclusion-exclusion: 9/16 + 9/16 - 1/4
        assert box_union_volume(boxes) == f(9, 16) + f(9, 16) - f(1, 4)

    def test_3d(self):
        f = Fraction
        boxes = [((f(0), f(0), f(0)), (f(1, 2), f(1), f(1)))]
        assert box_union_volume(boxes) == f(1, 2)


class TestMultilevel:
    def test_affine_single_level(self):
        c = build_coronization(AFFINE, 2, 5, eta=0.1, theta=0.05, h=1 / 64, force_top_bad=True)
        ml = multilevel_decomposition(c, 0.25)
        assert len(ml.levels) == 1
        assert ml.good_measure == ml.lam**2
        assert ml.good_measure >= Fraction(3, 4)

    def test_requires_forced_top(self):
        c = build_coronization(AFFINE, 2, 4, eta=0.1, theta=0.05, h=1 / 64)
        with pytest.raises(GeometryError, match="top cube"):
            multilevel_decomposition(c, 0.5)

    def test_logspiral_invariants(self):
        c = build_coronization(LogSpiral(0.2), 2, 7, eta=0.1, theta=0.05, h=1 / 128,
                               force_top_bad=True)
        ml = multilevel_decomposition(c, 0.5)
        assert ml.good_measure >= Fraction(1, 2)
        region_of = c.region_index()
        for n, level in enumerate(ml.levels):
            for r in level.r_cubes:
                qp = level.owner[r]
                # (ii) strictly inside the owning previous-level cube
                assert qp.contains_dyadic(r) and r != qp
                # (iii) side window, exact dyadic comparison
                assert r.level >= qp.level + ml.k_param
                assert r.level <= qp.level + ml.zeta_log2
            r_list = level.r_cubes
            for q in level.q_cubes:
                owners = [r for r in r_list if r.contains_dyadic(q)]
                # (i) inside some R of the same region
                assert len(owners) == 1
                assert region_of[owners[0]] == region_of[q]

    def test_alpha_sweep_parameters_non_decreasing(self):
        c = build_coronization(LogSpiral(0.1), 2, 6, eta=0.1, theta=0.05, h=1 / 64,
                               force_top_bad=True)
        ml_coarse = multilevel_decomposition(c, 0.5)
        ml_fine = multilevel_decomposition(c, 0.25)
        assert ml_fine.k_param >= ml_coarse.k_param
        assert ml_fine.n_bound >= ml_coarse.n_bound

    def test_good_sets_disjoint_and_measure_additive(self):
        c = build_coronization(LogSpiral(0.15), 2, 6, eta=0.1, theta=0.05, h=1 / 64,
                               force_top_bad=True)
        ml = multilevel_decomposition(c, 0.5)
        boxes = [b.outer for lv in ml.levels for b in lv.b_sets]
        union = box_union_volume([b for b in boxes])
        total = sum((b.volume for lv in ml.levels for b in lv.b_sets), Fraction(0))
        # B sets live in disjoint shrunken R cubes minus holes: the union of
        # their outers bounds the summed measure from above.
        assert total <= union

    def test_two_level_recursion(self):
        # A gentle spiral stops regions progressively near the origin, so the
        # level-1 good sets have holes and the construction recurses into them.
        c = build_coronization(LogSpiral(0.05), 2, 8, eta=0.1, theta=0.05, h=1 / 256,
                               force_top_bad=True)
        ml = multilevel_decomposition(c, 0.6)
        assert len(ml.levels) == 2
        assert len(ml.levels[1].r_cubes) > 0
        region_of = c.region_index()
        level2 = ml.levels[1]
        q1 = set(ml.levels[0].q_cubes)
        for r in level2.r_cubes:
            qp = level2.owner[r]
            assert qp in q1
            assert qp.contains_dyadic(r) and r != qp
            assert qp.level + ml.k_param <= r.level <= qp.level + ml.zeta_log2
            assert region_of[r] >= 0
        assert ml.good_measure >= Fraction(2, 5)

    def test_smooth_map_sample(self):
        # A slice of the smooth catalog at both alphas (full 20 in acceptance).
        for m in smooth_test_maps()[:4]:
            c = build_coronization(m, 2, 5, eta=0.1, theta=0.05, h=1 / 64, force_top_bad=True)
            for alpha in (0.5, 0.25):
                ml = multilevel_decomposition(c, alpha)
                assert ml.good_measure >= 1 - Fraction(alpha).limit_denominator(100)


class TestSecondarySubdivision:
    def test_pitch_and_size_example(self):
        parent = Cube((0.5, 0.5), 1.0)
        sub = secondary_subdivision(parent, 1, c4=1 / 8, p=4)
        assert sub.pitch == pytest.approx(1 / 8)
        assert all(c.side == pytest.approx((1 / 8) * (3 / 4)) for c in sub.cubes)
        assert sub.separation == pytest.approx(1 / 32)

    def test_collar_bound_values(self):
        parent = Cube((0.5, 0.5), 1.0)
        assert secondary_subdivision(parent, 1, 1 / 8, 4).collar_fraction_bound == pytest.approx(1.5)
        sub = secondary_subdivision(parent, 1, 1 / 8, 64)
        assert sub.collar_fraction_bound == pytest.approx(6 / 64)
        assert sub.covered_fraction >= 1 - sub.collar_fraction_bound - 0.05

    def test_nesting_two_levels(self):
        parent = Cube((0.5, 0.5), 1.0)
        lvl1 = secondary_subdivision(parent, 1, 1 / 8, 4)
        lvl2 = secondary_subdivision(parent, 2, 1 / 8, 4)
        for c2 in lvl2.cubes[:200]:
            for c1 in lvl1.cubes:
                inside = np.all(c2.lo() >= c1.lo() - 1e-12) and np.all(c2.hi() <= c1.hi() + 1e-12)
                disjoint = not c1.overlaps(c2, tol=1e-12)
                assert inside or disjoint

    def test_separation_invariant(self):
        parent = Cube((0.0, 0.0), 2.0)
        sub = secondary_subdivision(parent, 1, 1 / 4, 8)
        cubes = sub.cubes
        for i in range(min(len(cubes), 30)):
            for j in range(i + 1, min(len(cubes), 30)):
                lo_i, hi_i = cubes[i].lo(), cubes[i].hi()
                lo_j, hi_j = cubes[j].lo(), cubes[j].hi()
                gap = np.max(np.maximum(lo_j - hi_i, lo_i - hi_j))
                assert gap >= sub.separation - 1e-12
