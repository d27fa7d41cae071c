from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from bilipfactor import cli, corona
from bilipfactor.corona import (
    Coronization,
    _fit_window,
    _level_fits,
    _sup_error,
    _window_maxima,
    _WindowSamples,
    build_coronization,
    carleson_constant,
    check_coronization,
    multilevel_decomposition,
    region_fit_error,
)
from bilipfactor.geometry_core import (
    AffineMapData,
    Cube,
    GeometryError,
    bilip_constant,
    box_lattice,
    rotation_3d,
    unit_cube_dyadics,
)
from bilipfactor.jsonio import map_to_json
from bilipfactor.map_engine import (
    Affine,
    Blend,
    Identity,
    LogSpiral,
    MapExpr,
    affine_fit_samples,
    almost_affine_fit,
    estimate_distortion,
)

from conftest import (
    DyadicCube,
    bad,
    dyadic_level,
    good,
    members,
    owner,
    q_cubes,
    r_cubes,
    region_index,
    smooth_test_maps,
    tops_of,
)
from test_geometry_core import reference_bilip

AFFINE = Affine(AffineMapData(np.array([[1.2, 0.1], [0.0, 0.9]]), np.array([0.1, 0.2])))


@dataclass(eq=False)
class SetRegion:
    top: DyadicCube
    members: set[DyadicCube]
    fit: AffineMapData
    residual: float


@dataclass(eq=False)
class SetCoronization:
    good: set[DyadicCube]
    bad: set[DyadicCube]
    regions: list[SetRegion]


def labelled(dim: int, depth: int, labels: dict[DyadicCube, int], tops: list[DyadicCube]) -> Coronization:
    """A hand-built coronization: the given cube labels, -2 (unassigned) elsewhere,
    and one region with a zero fit per given top."""
    arrays = [np.full((1 << lv,) * dim, -2, dtype=np.int64) for lv in range(depth + 1)]
    for q, i in labels.items():
        arrays[q.level][q.coords] = i
    n = len(tops)
    rows = np.array([(q.level, *q.coords) for q in tops], dtype=np.int64).reshape(n, 1 + dim)
    return Coronization(arrays, rows, np.zeros((n, dim, dim)), np.zeros((n, dim)), np.zeros(n), {"dim": dim})


def brute_force_carleson(c: Coronization) -> tuple[Fraction, Fraction]:
    """Direct enumeration oracle (no subtree DP)."""
    dim = c.labels[0].ndim
    tops = set(tops_of(c))
    all_cubes = [q for lv in range(c.depth + 1) for q in dyadic_level(dim, lv)]
    bad_cubes = bad(c)
    c_bad = Fraction(0)
    c_tops = Fraction(0)
    for r in all_cubes:
        bad_mass = sum((q.volume for q in bad_cubes if r.contains_dyadic(q)), Fraction(0))
        top_mass = sum((q.volume for q in tops if r.contains_dyadic(q)), Fraction(0))
        c_bad = max(c_bad, bad_mass / r.volume)
        c_tops = max(c_tops, top_mass / r.volume)
    return c_bad, c_tops


def reference_fit(m, q: Cube, pts: np.ndarray, imgs: np.ndarray) -> tuple[AffineMapData, float]:
    """One window's fit as affine_fit_samples computed it before fits were stacked."""
    design = np.hstack([pts, np.ones((pts.shape[0], 1))])
    sol, _, rank, _ = np.linalg.lstsq(design, imgs, rcond=None)
    if rank < q.dim + 1:
        raise GeometryError("rank deficient sample matrix in affine fit")
    a = AffineMapData(sol[:-1].T, sol[-1])
    center = np.asarray(q.center)
    a = AffineMapData(a.matrix, a.shift + m(center) - a.apply(center))
    residual = float(np.max(np.linalg.norm(imgs - a.apply(pts), axis=1))) / q.diam
    return a, residual


def reference_coronization(f, dim, depth, theta, h) -> SetCoronization:
    """The per-window greedy loop: every fit and every child check samples
    its own clipped 2Q window through box_lattice."""
    l_est = estimate_distortion(f, Cube((0.5,) * dim, 1.0), max(h, 1.0 / 32.0)).L_lo
    unit = (np.zeros(dim), np.ones(dim))
    assigned: dict[DyadicCube, int] = {}
    regions: list[SetRegion] = []
    for level in range(depth + 1):
        for q in dyadic_level(dim, level):
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
                if all(region_fit_error(fit, f, c.row, h) <= theta * c.to_cube().diam for c in kids):
                    members.update(kids)
                    assigned.update(dict.fromkeys(kids, idx))
                    frontier.extend(kids)
            regions.append(SetRegion(top=q, members=members, fit=fit, residual=res))
    return SetCoronization(
        good={q for q, i in assigned.items() if i >= 0},
        bad={q for q, i in assigned.items() if i < 0},
        regions=regions,
    )


def reference_check(c: Coronization) -> list[str]:
    """Set-based invariant check on the cube-set views: one pass over every
    member of every region."""
    issues: list[str] = []
    dim = c.labels[0].ndim
    all_cubes = {q for lv in range(c.depth + 1) for q in dyadic_level(dim, lv)}
    good_cubes, bad_cubes = good(c), bad(c)
    if good_cubes & bad_cubes:
        issues.append("good and bad overlap")
    if (good_cubes | bad_cubes) != all_cubes:
        issues.append("good + bad do not cover all dyadic cubes to depth")
    seen: set[DyadicCube] = set()
    for i, top in enumerate(tops_of(c)):
        family = members(c, i)
        if top not in family:
            issues.append(f"region {i}: top not a member")
        if seen & family:
            issues.append(f"region {i}: overlaps another region")
        seen |= family
        for m in family:
            if m != top:
                if not top.contains_dyadic(m):
                    issues.append(f"region {i}: member outside the top")
                if m.parent() not in family:
                    issues.append(f"region {i}: gap between member and top")
            if m.level < c.depth:
                kids_in = [k in family for k in m.children()]
                if any(kids_in) and not all(kids_in):
                    issues.append(f"region {i}: children split at {m}")
    if seen != good_cubes:
        issues.append("regions do not partition the good cubes")
    return issues


def blend_3d(theta: float = 0.03) -> Blend:
    rot = rotation_3d(np.array([1.0, 2.0, 2.0]), theta)
    return Blend(Affine(AffineMapData(rot, np.zeros(3))), Cube((0.4, 0.5, 0.6), 0.3), 2.0)


def window(sample, q: DyadicCube) -> tuple[np.ndarray, np.ndarray]:
    """q's window points and images, (n, d) each, from a one-cube sample call."""
    return tuple(a.reshape(-1, q.dim) for a in sample(q.level, np.array([q.coords])))


def window_field(sample, fit: AffineMapData, q: DyadicCube) -> np.ndarray | None:
    """|fit - f| at each point of q's window, shaped as its lattice box, or None when no
    child's window is a lattice box.  The points and the expression are those
    _sup_error sees for q."""
    if sample.p is None or q.level + 1 >= sample.p:
        return None
    pts, imgs = sample(q.level, np.array([q.coords]))
    return np.linalg.norm(fit.apply(pts.reshape(-1, q.dim)) - imgs.reshape(-1, q.dim), axis=1).reshape(pts.shape[1:-1])


class TestDenseSampling:
    @pytest.mark.parametrize(
        "f, dim, depth, theta, h",
        [
            (LogSpiral(0.3), 2, 5, 0.05, 1 / 64),  # every window sliced
            (LogSpiral(0.3), 2, 6, 0.05, 1 / 64),  # finest-level windows sampled directly
            (LogSpiral(0.3), 2, 4, 0.05, 0.02),  # non-dyadic pitch: every window sampled
            (blend_3d(), 3, 2, 0.02, 1 / 8),
            (LogSpiral(0.05), 2, 6, 0.05, 1 / 128),  # regions grow 3+ levels on one error field
            (blend_3d(), 3, 3, 0.02, 1 / 16),
            (blend_3d(), 3, 3, 0.02, 1 / 8),  # a Blend at level p: box_lattice fits, one child at a time
        ],
        ids=["sliced", "mixed", "non-dyadic", "3d", "deep-regions", "3d-depth3", "3d-level-p"],
    )
    def test_equals_per_window_loop(self, f, dim, depth, theta, h):
        c = build_coronization(f, dim, depth, theta=theta, h=h)
        ref = reference_coronization(f, dim, depth, theta, h)
        assert good(c) == ref.good and bad(c) == ref.bad
        assert len(c.tops) == len(ref.regions) > 1
        for i, (top, r) in enumerate(zip(tops_of(c), ref.regions)):
            assert top == r.top and members(c, i) == r.members
            assert c.lin[i].T.tobytes() == r.fit.matrix.tobytes()
            assert c.shift[i].tobytes() == r.fit.shift.tobytes()
            assert c.residual[i] == r.residual

    @pytest.mark.parametrize("dim, h", [(2, 2.0**-7), (2, 2.0**-8), (3, 2.0**-4)],
                             ids=["0.0078125", "0.00390625", "3d-0.0625"])
    def test_sliced_windows_are_box_lattices(self, dim, h):
        # Every clip class's windows, gathered as one stack, are box_lattice's window by window.
        sample = _WindowSamples(Identity(), dim, h)
        assert sample.p == -math.log2(h)
        for level in range(min(7, sample.p)):
            classes: dict[tuple, list[list[int]]] = {}
            for x in np.argwhere(np.ones((1 << level,) * dim, dtype=bool)).tolist():
                classes.setdefault(tuple((c == 0, c + 1 == 1 << level) for c in x), []).append(x)
            assert len(classes) == min(level + 1, 3) ** dim
            for group in classes.values():
                pts, imgs = sample(level, np.array(group))
                assert len(pts) == len(group)
                for x, a, b in zip(group, pts, imgs):
                    lo, hi = _fit_window(level, np.array([x]))
                    assert a.reshape(-1, dim).tobytes() == box_lattice(lo[0], hi[0], h).tobytes()
                    assert b.tobytes() == a.tobytes()

    @pytest.mark.parametrize("f, dim, h", [(LogSpiral(0.3), 2, 2.0**-8), (blend_3d(), 3, 2.0**-4)],
                             ids=["2d-h256", "3d-h16"])
    def test_windows_are_contiguous_copies(self, f, dim, h):
        # Each clip class's windows are read through a strided view of the
        # lattice; what a sample call returns must be its own C-contiguous
        # arrays, so a fit cannot write into the lattice and _level_fits'
        # reshape to (k, n, d) does not copy.
        sample = _WindowSamples(f, dim, h)
        for level in range(sample.p):
            coords = np.argwhere(np.ones((1 << level,) * dim, dtype=bool))
            clip = ((coords == 0) + 2 * (coords == (1 << level) - 1)) @ (4 ** np.arange(dim))
            for c in np.unique(clip):
                for a in sample(level, coords[clip == c]):
                    assert a.flags.c_contiguous
                    assert not np.shares_memory(a, sample.pts) and not np.shares_memory(a, sample.imgs)
                    assert np.shares_memory(a.reshape(len(a), -1, dim), a)

    @pytest.mark.parametrize(
        "f, dim, h",
        [(LogSpiral(0.3), 2, 2.0**-7), (LogSpiral(0.3), 2, 2.0**-8), (blend_3d(), 3, 1 / 16)],
        ids=["2d-h128", "2d-h256", "3d-h16"],
    )
    def test_window_maxima_equal_sup_error(self, f, dim, h):
        # The growth loop reads each descendant's child-check error off one
        # error field of the top's window; a matmul's rounding could depend
        # on the array's shape, so every block max must equal _sup_error on
        # the descendant's own slice exactly.
        sample = _WindowSamples(f, dim, h)
        tops = [DyadicCube(0, (0,) * dim), DyadicCube(2, (1, 2, 1)[:dim]), DyadicCube(2, (3,) * dim)]
        for q in tops:
            fit, _ = reference_fit(f, q.to_cube(), *window(sample, q))
            field = window_field(sample, fit, q)
            for level in range(q.level + 1, sample.p):
                maxima = _window_maxima(field, q.level, q.coords, level, sample.p)
                n = 1 << (level - q.level)
                assert maxima.shape == (n,) * dim
                for rel in np.ndindex(maxima.shape):
                    c = DyadicCube(level, tuple(x * n + r for x, r in zip(q.coords, rel)))
                    assert maxima[rel] == _sup_error(fit.matrix.T, fit.shift, *window(sample, c))

    @pytest.mark.parametrize(
        "f, dim, depth, theta, h",
        [
            (LogSpiral(0.3), 2, 5, 0.05, 1 / 64),
            (LogSpiral(0.3), 2, 6, 0.05, 1 / 64),
            (blend_3d(), 3, 2, 0.02, 1 / 8),
            (LogSpiral(0.05), 2, 6, 0.05, 1 / 128),
            (blend_3d(), 3, 3, 0.02, 1 / 16),
        ],
        ids=["sliced", "mixed", "3d", "deep-regions", "3d-depth3"],
    )
    def test_kept_fields_equal_window_field(self, monkeypatch, f, dim, depth, theta, h):
        # Growth reads each top's error field off the per-point residual of
        # its stacked fit; every field it keeps must carry the bits of
        # |fit - f| on the top's window alone, and a top whose children are
        # all sampled on their own keeps none.
        grown = []
        grow = corona._grow_level

        def spy(labels, top, coords, ids, lin, shift, fields, sample, theta):
            kept = {i: field[n] for sel, field in fields for n, i in enumerate(sel.tolist())}
            grown.extend((DyadicCube(top, tuple(coords[i].tolist())), AffineMapData(lin[i].T, shift[i]), kept.get(i),
                          sample) for i in np.flatnonzero(ids >= 0).tolist())
            grow(labels, top, coords, ids, lin, shift, fields, sample, theta)

        monkeypatch.setattr(corona, "_grow_level", spy)
        c = build_coronization(f, dim, depth, theta=theta, h=h)
        assert [q for q, *_ in grown] == tops_of(c)
        checked = 0
        for q, fit, err, sample in grown:
            field = window_field(sample, fit, q)
            if field is None:
                assert err is None
            else:
                assert err.shape == field.shape and np.array_equal(err.view(np.int64), field.view(np.int64))
                checked += 1
        assert checked > 0


def fit_mismatches(f, cubes, sample, lin, shift) -> int:
    """Cubes whose stacked matrix or shift differs in any bit from reference_fit's."""
    count = 0
    for q, a, b in zip(cubes, lin, shift):
        fit, _ = reference_fit(f, q.to_cube(), *window(sample, q))
        count += not (np.array_equal(a.T.view(np.int64), fit.matrix.view(np.int64))
                      and np.array_equal(b.view(np.int64), fit.shift.view(np.int64)))
    return count


def stacked_windows(f, cubes, sample):
    """One stack of the windows, centres and centre images of cubes, which share a window shape."""
    pts, imgs = (np.stack(a) for a in zip(*(window(sample, q) for q in cubes)))
    centers = np.array([q.to_cube().center for q in cubes])
    return pts, imgs, centers, np.array([f(c) for c in centers])


class TestStackedFit:
    @pytest.mark.parametrize(
        "f, dim, depth, h, theta, fit_points",
        [
            (LogSpiral(0.3), 2, 6, 2.0**-5, 0.05, None),  # levels 0-4 sliced, 5-6 sampled
            (LogSpiral(0.3), 2, 6, 2.0**-5, 0.05, 256),  # many stacks per level; level 0 alone
            (blend_3d(), 3, 3, 1 / 16, 0.01, None),
            (LogSpiral(0.3), 2, 4, 0.02, 0.05, None),  # non-dyadic pitch: every window sampled
        ],
        ids=["2d", "2d-small-stacks", "3d", "non-dyadic"],
    )
    def test_equals_per_window_fit(self, monkeypatch, f, dim, depth, h, theta, fit_points):
        # Every cube of every level, fitted as part of a stack, must carry the
        # bits of its own one-window fit, and the same verdict.
        if fit_points is not None:
            monkeypatch.setattr(corona, "FIT_POINTS", fit_points)
        l_est = estimate_distortion(f, Cube((0.5,) * dim, 1.0), max(h, 1.0 / 32.0)).L_lo
        windows = _WindowSamples(f, dim, h)
        seen: dict[DyadicCube, tuple[np.ndarray, np.ndarray]] = {}

        def sample(level, coords):  # each window sampled once, for the stack and the reference
            cubes = [DyadicCube(level, tuple(x)) for x in coords.tolist()]
            for q in cubes:
                if q not in seen:
                    seen[q] = windows(level, np.array([q.coords]))
            return tuple(np.concatenate(a) for a in zip(*(seen[q] for q in cubes)))

        sample.dim, sample.p = dim, windows.p
        verdicts = set()
        for level in range(depth + 1):
            cubes = dyadic_level(dim, level)
            lin, shift, res, bad, _ = _level_fits(f, level, unit_cube_dyadics(dim, level), sample, theta, l_est)
            ref = [reference_fit(f, q.to_cube(), *(a.reshape(-1, dim) for a in seen.pop(q))) for q in cubes]
            assert np.array_equal(lin.transpose(0, 2, 1).view(np.int64),
                                  np.array([a.matrix for a, _ in ref]).view(np.int64))
            assert np.array_equal(shift.view(np.int64), np.array([a.shift for a, _ in ref]).view(np.int64))
            assert np.array_equal(res.view(np.int64), np.array([r for _, r in ref]).view(np.int64))
            ref_bad = []
            for a, r in ref:
                try:
                    ref_bad.append(r > theta or reference_bilip(a.matrix) > 2.0 * l_est)
                except GeometryError:
                    ref_bad.append(True)
            assert bad.tolist() == ref_bad
            verdicts |= set(ref_bad)
        assert verdicts == {False, True}

    @pytest.mark.parametrize("f, dim, depth, h", [(LogSpiral(0.3), 2, 4, 2.0**-5), (blend_3d(), 3, 2, 1 / 16)],
                             ids=["2d", "3d"])
    def test_single_window_fit(self, f, dim, depth, h):
        # almost_affine_fit is the one-window stack: the same bits as reference_fit.
        unit, sample = (np.zeros(dim), np.ones(dim)), _WindowSamples(f, dim, h)
        for q in (q for level in range(depth + 1) for q in dyadic_level(dim, level)):
            fit, res = almost_affine_fit(f, q.to_cube(), h, clip=unit)
            ref, want = reference_fit(f, q.to_cube(), *window(sample, q))
            assert fit.matrix.tobytes() == ref.matrix.tobytes() and fit.shift.tobytes() == ref.shift.tobytes()
            assert res == want

    def test_non_finite_and_singular_fits_are_bad(self):
        # A NaN centre image gives a NaN shift with a finite residual test
        # (NaN > theta is false); a collapsing map gives a singular matrix.
        class NanAtQuarter(MapExpr):
            def evaluate(self, pts):
                out = np.array(pts, dtype=float)
                out[np.all(out == 0.25, axis=-1)] = np.nan
                return out

        q = np.array([[0, 0]])  # level 1: centre (0.25, 0.25), not on its window's pitch-0.02 lattice
        *_, bad, _ = _level_fits(NanAtQuarter(), 1, q, _WindowSamples(NanAtQuarter(), 2, 0.02), 1.0, 10.0)
        assert bad.tolist() == [True]
        collapse = Affine(AffineMapData(np.array([[1.0, 0.0], [0.0, 0.0]]), np.zeros(2)))
        *_, bad, _ = _level_fits(collapse, 1, unit_cube_dyadics(2, 1), _WindowSamples(collapse, 2, 0.02), 1.0, 10.0)
        assert bad.tolist() == [True] * 4

    def test_einsum_anchor_is_caught(self):
        # The anchor's bits depend on how c @ M is computed; an einsum rounds
        # differently on some level-5 cubes, and the bit check must see it.
        f, sample = LogSpiral(0.3), _WindowSamples(LogSpiral(0.3), 2, 2.0**-7)
        cubes = [q for q in dyadic_level(2, 5) if 0 < min(q.coords) and max(q.coords) < 31]
        pts, imgs, centers, center_imgs = stacked_windows(f, cubes, sample)
        lin, shift, _, _ = affine_fit_samples(pts, imgs, centers, center_imgs)
        assert fit_mismatches(f, cubes, sample, lin, shift) == 0
        design = np.concatenate([pts, np.ones(pts.shape[:2] + (1,))], axis=2)
        sol = np.stack([np.linalg.lstsq(a, b, rcond=None)[0] for a, b in zip(design, imgs)])
        mutant = sol[:, -1] + center_imgs - (np.einsum("kd,kde->ke", centers, sol[:, :-1]) + sol[:, -1])
        assert fit_mismatches(f, cubes, sample, lin, mutant) > 0

    def test_lattice_centre_images_are_caught(self):
        # For a level < p cube the centre is a lattice point, but on blend_3d()
        # its lattice image differs in the last bit from m(center) on some cubes.
        f = blend_3d()
        sample = _WindowSamples(f, 3, 1 / 16)
        mismatches = 0
        for level in range(sample.p):
            for q in dyadic_level(3, level):
                pts, imgs, centers, _ = stacked_windows(f, [q], sample)
                at = tuple((2 * c + 1) << (sample.p - level - 1) for c in q.coords)
                assert np.array_equal(sample.pts[at], centers[0])
                lin, shift, _, _ = affine_fit_samples(pts, imgs, centers, sample.imgs[at][None])
                mismatches += fit_mismatches(f, [q], sample, lin, shift)
        assert mismatches > 0


def verify_region_fits(c: Coronization, f: MapExpr) -> int:
    """Re-check every member's fit error at half the build pitch; returns warning count."""
    theta = c.params["theta"]
    h = c.params["h"] / 2.0
    warnings = 0
    for q, i in region_index(c).items():
        if region_fit_error(AffineMapData(c.lin[i].T, c.shift[i]), f, q.row, h) > theta * q.to_cube().diam:
            warnings += 1
    return warnings


class TestBuild:
    def test_affine_single_region(self):
        c = build_coronization(AFFINE, 2, 4, theta=0.05, h=1 / 64)
        assert len(c.bad) == 0
        assert tops_of(c) == [DyadicCube(0, (0, 0))]
        assert check_coronization(c) == []

    def test_logspiral_invariants(self):
        c = build_coronization(LogSpiral(0.3), 2, 6, theta=0.05, h=1 / 128)
        assert check_coronization(c) == []
        c_bad, c_tops = carleson_constant(c)
        assert c_bad < math.inf and c_tops < math.inf

    def test_theta_sweep_region_count_non_decreasing(self):
        counts = []
        for theta in (0.2, 0.1, 0.05):
            c = build_coronization(LogSpiral(0.3), 2, 4, theta=theta, h=1 / 64)
            counts.append(len(c.tops))
        assert counts[0] <= counts[1] <= counts[2]

    def test_resolution_too_coarse(self):
        with pytest.raises(GeometryError, match="resolution"):
            build_coronization(AFFINE, 2, 6, theta=0.05, h=1 / 16)

    @pytest.mark.parametrize(
        "f, dim, depth, theta, h",
        [(AFFINE, 2, 4, 0.05, 1 / 64), (LogSpiral(0.3), 2, 5, 0.05, 1 / 64), (blend_3d(), 3, 2, 0.01, 1 / 8)],
        ids=["affine", "2d", "3d"],
    )
    def test_good_bad_rows_are_label_argwhere(self, f, dim, depth, theta, h):
        # good and bad are the [level, *coords] rows of np.argwhere over each
        # level's labels, level by level; together they count every cube once.
        c = build_coronization(f, dim, depth, theta=theta, h=h)
        for rows, keep in ((c.good, lambda lab: lab >= 0), (c.bad, lambda lab: lab == -1)):
            assert rows.dtype == np.int64 and rows.shape[1] == 1 + dim
            assert np.all(np.diff(rows[:, 0]) >= 0)
            for level, lab in enumerate(c.labels):
                assert np.array_equal(rows[rows[:, 0] == level, 1:], np.argwhere(keep(lab)))
        assert len(c.good) + len(c.bad) == sum(2 ** (dim * level) for level in range(depth + 1))
        if f is AFFINE:
            assert c.bad.shape == (0, 1 + dim)
        else:
            assert len(c.bad) and len(c.tops) > 1

    def test_region_fit_reverification(self):
        c = build_coronization(LogSpiral(0.2), 2, 4, theta=0.05, h=1 / 64)
        warnings = verify_region_fits(c, LogSpiral(0.2))
        # Warnings are allowed but counted; a smooth map at this scale has few.
        assert warnings <= len(c.good) // 10


class TestCarleson:
    def test_affine_exact_values(self):
        c = build_coronization(AFFINE, 2, 4, theta=0.05, h=1 / 64)
        c_bad, c_tops = carleson_constant(c)
        assert c_bad == 0
        assert c_tops == 1

    def test_all_bad_geometric_sum(self):
        dim, depth = 2, 3
        c = labelled(dim, depth, {q: -1 for lv in range(depth + 1) for q in dyadic_level(dim, lv)}, [])
        c_bad, _ = carleson_constant(c)
        assert c_bad == depth + 1

    def test_subtree_equals_brute_force(self):
        for depth in (3, 4, 5):
            c = build_coronization(LogSpiral(0.35), 2, depth, theta=0.04, h=1 / 64)
            assert carleson_constant(c) == brute_force_carleson(c)

    def test_3d_equals_brute_force(self):
        c = build_coronization(blend_3d(), 3, 2, theta=0.01, h=1 / 8)
        assert len(c.bad) and len(c.tops) > 1
        assert carleson_constant(c) == brute_force_carleson(c)

    def test_random_3d_sets_equal_brute_force(self):
        gen = np.random.default_rng(7)
        cubes = [q for lv in range(4) for q in dyadic_level(3, lv)]
        for _ in range(3):
            pick = gen.random(len(cubes))
            bad = {q: -1 for q, u in zip(cubes, pick) if u < 0.15}
            tops = [q for q, u in zip(cubes, pick) if 0.15 <= u < 0.3]
            c = labelled(3, 3, {**bad, **{q: i for i, q in enumerate(tops)}}, tops)
            assert carleson_constant(c) == brute_force_carleson(c)

    def test_int64_guard(self):
        # Refused before any label array is allocated: 4^32 entries at level 32.
        with pytest.raises(GeometryError, match="int64"):
            build_coronization(AFFINE, 2, 32, theta=0.05, h=1 / 64)
        with pytest.raises(GeometryError, match="int64"):
            build_coronization(blend_3d(), 3, 21, theta=0.05, h=1 / 8)

    def test_negative_depth_refused(self):
        with pytest.raises(GeometryError, match="depth must be non-negative"):
            build_coronization(AFFINE, 2, -1, theta=0.05, h=1 / 64)

    def test_logspiral_regression(self):
        c = build_coronization(LogSpiral(0.2), 2, 6, theta=0.05, h=1 / 128)
        c_bad, c_tops = carleson_constant(c)
        assert 0 < float(c_bad) < 20
        assert 1 <= float(c_tops) < 20


class TestCheck:
    def test_empty_hand_built_reports_issues(self):
        c = labelled(2, 2, {}, [])
        assert check_coronization(c) == ["good + bad do not cover all dyadic cubes to depth"]
        assert carleson_constant(c) == (0, 0)

    def test_same_issues_as_set_based_check(self):
        # Overlapping good/bad, overlapping regions and cubes beyond the depth
        # cannot be written as per-level labels; every other fault can.
        base = build_coronization(LogSpiral(0.2), 2, 4, theta=0.05, h=1 / 64)
        assert check_coronization(base) == reference_check(base) == []
        tops = tops_of(base)
        b = max(range(len(tops)), key=lambda i: len(members(base, i)))
        big, family = tops[b], sorted(members(base, b), key=lambda q: q.row)
        deep = family[-1]
        inner = next(m for m in family if m != big and m.level < base.depth
                     and m.children()[0] in family)
        other = next(t for t in tops if not big.contains_dyadic(t))

        def relabel(q, i):
            labels = [lab.copy() for lab in base.labels]
            labels[q.level][q.coords] = i
            return Coronization(labels, base.tops, base.lin, base.shift, base.residual, base.params)

        cases = [
            (relabel(deep, -2), "do not cover"),  # a cube neither good nor bad
            (relabel(inner, -1), "gap between member and top"),  # and a split
            (relabel(big, -1), "top not a member"),
            (relabel(other, b), "member outside the top"),
        ]
        for c, needle in cases:
            issues = check_coronization(c)
            assert any(needle in text for text in issues)
            assert sorted(issues) == sorted(reference_check(c))


def plain(o):
    """o with every Fraction as the report writes it."""
    if isinstance(o, Fraction):
        return {"numerator": str(o.numerator), "denominator": str(o.denominator), "value": float(o)}
    if isinstance(o, dict):
        return {k: plain(v) for k, v in o.items()}
    if isinstance(o, (list, tuple)):
        return [plain(v) for v in o]
    return o


def assert_report_dumps(out, result) -> None:
    """report.json is json.dumps(indent=2, sort_keys=True) of its envelope
    with the given result."""
    text = (out / "report.json").read_text()
    envelope = {k: v for k, v in json.loads(text).items() if k != "result"}
    assert text == json.dumps({**envelope, "result": plain(result)}, indent=2, sort_keys=True) + "\n"


class TestReport:
    @pytest.mark.parametrize("f, dim, depth, theta, h", [(LogSpiral(0.2), 2, 4, 0.05, 1 / 64),
                                                         (blend_3d(), 3, 3, 0.02, 1 / 8)], ids=["2d", "3d"])
    def test_cli_corona_bytes_equal_plain_report(self, tmp_path, f, dim, depth, theta, h):
        inp = tmp_path / "in.json"
        inp.write_text(json.dumps({"map": map_to_json(f), "depth": depth, "dim": dim}))
        out = tmp_path / "out"
        assert cli.main(["corona", "--input", str(inp), "--out", str(out), "--h", str(h), "--theta", str(theta)]) == 0
        ref = reference_coronization(f, dim, depth, theta, h)
        c = build_coronization(f, dim, depth, theta=theta, h=h)
        c_bad, c_tops = carleson_constant(c)

        def coords(cubes, level):
            return sorted(list(q.coords) for q in cubes if q.level == level)

        levels = {str(lv): {"good": coords(ref.good, lv), "bad": coords(ref.bad, lv)} for lv in range(depth + 1)}
        # Empty lists: level 0 of the 2-D case has no good cube, levels 0-2 of the 3-D case no bad one.
        empty = [kind for lv in levels.values() for kind in ("good", "bad") if not lv[kind]]
        assert empty == (["good"] if dim == 2 else ["bad"] * 3)
        assert_report_dumps(out, {
            "depth": depth,
            "dim": dim,
            "params": c.params,
            "counts": {"good": len(ref.good), "bad": len(ref.bad), "regions": len(ref.regions)},
            "carleson": {"bad": c_bad, "tops": c_tops},
            "invariant_issues": [],
            "levels": levels,
            "regions": [
                {"top": {"level": s.top.level, "coords": list(s.top.coords)}, "members": len(s.members),
                 "fit": {"matrix": s.fit.matrix.tolist(), "b": s.fit.shift.tolist()}, "residual": s.residual}
                for s in ref.regions
            ],
        })

    def test_cli_multilevel_bytes_equal_plain_report(self, tmp_path):
        inp = tmp_path / "in.json"
        inp.write_text(json.dumps({"map": {"type": "logspiral", "k": 0.15}, "depth": 6}))
        out = tmp_path / "out"
        argv = ["--input", str(inp), "--out", str(out), "--h", str(1 / 64), "--theta", "0.05", "--alpha", "0.5"]
        assert cli.main(["multilevel", *argv]) == 0
        c = build_coronization(LogSpiral(0.15), 2, 6, theta=0.05, h=1 / 64, force_top_bad=True)
        ml = multilevel_decomposition(c, 0.5)
        assert any(len(lv.q_rows) for lv in ml.levels)
        assert_report_dumps(out, {
            "depth": 6,
            "dim": 2,
            "params": {"alpha": 0.5, "K": ml.k_param, "N_bound": ml.n_bound, "zeta_log2": ml.zeta_log2,
                       "lambda": ml.lam, "carleson": ml.carleson},
            "levels": [
                {"R": [[level, x] for level, *x in lv.r_rows.tolist()],
                 "Q": [[level, x] for level, *x in lv.q_rows.tolist()],
                 "B_volumes": lv.b_volumes}
                for lv in ml.levels
            ],
            "good_measure": ml.good_measure,
            "good_measure_ok": ml.good_measure >= 1 - ml.alpha,
        })

    def test_cli_levels_counts_members_match_set_reference(self, tmp_path):
        inp = tmp_path / "in.json"
        inp.write_text(json.dumps({"map": {"type": "logspiral", "k": 0.2}, "depth": 4}))
        out = tmp_path / "out"
        assert cli.main(["corona", "--input", str(inp), "--out", str(out), "--h", str(1 / 64)]) == 0
        rep = json.loads((out / "report.json").read_text())["result"]
        ref = reference_coronization(LogSpiral(0.2), 2, 4, 0.05, 1 / 64)
        assert ref.bad and len(ref.regions) > 1

        def coords(cubes, level):
            return sorted(list(q.coords) for q in cubes if q.level == level)

        assert rep["levels"] == {
            str(lv): {"good": coords(ref.good, lv), "bad": coords(ref.bad, lv)} for lv in range(5)
        }
        assert rep["counts"] == {"good": len(ref.good), "bad": len(ref.bad), "regions": len(ref.regions)}
        assert [(r["top"], r["members"]) for r in rep["regions"]] == [
            ({"level": s.top.level, "coords": list(s.top.coords)}, len(s.members)) for s in ref.regions
        ]
        # JSON floats round-trip, so every written fit and residual keeps its bits.
        for r, s in zip(rep["regions"], ref.regions, strict=True):
            assert r["fit"] == {"matrix": s.fit.matrix.tolist(), "b": s.fit.shift.tolist()}
            assert r["residual"] == s.residual

    def test_cli_multilevel_matches_decomposition(self, tmp_path):
        inp = tmp_path / "in.json"
        inp.write_text(json.dumps({"map": {"type": "logspiral", "k": 0.15}, "depth": 6}))
        out = tmp_path / "out"
        argv = ["--input", str(inp), "--out", str(out), "--h", str(1 / 64), "--theta", "0.05", "--alpha", "0.5"]
        assert cli.main(["multilevel", *argv]) == 0
        rep = json.loads((out / "report.json").read_text())["result"]
        c = build_coronization(LogSpiral(0.15), 2, 6, theta=0.05, h=1 / 64, force_top_bad=True)
        ml = multilevel_decomposition(c, 0.5)
        assert len(rep["levels"]) == len(ml.levels) > 0 and any(len(lv.q_rows) for lv in ml.levels)
        for got, lv in zip(rep["levels"], ml.levels):
            assert got["R"] == [[level, x] for level, *x in lv.r_rows.tolist()]
            assert got["Q"] == [[level, x] for level, *x in lv.q_rows.tolist()]
            assert [Fraction(int(v["numerator"]), int(v["denominator"])) for v in got["B_volumes"]] == lv.b_volumes

    def test_cli_builds_no_cubes_or_fits(self, tmp_path, monkeypatch):
        # Regions and R/Q cubes stay arrays from the build to the report: no
        # fit object is made on the way.
        made = []
        post_init = AffineMapData.__post_init__

        def counted(self):
            made.append(type(self).__name__)
            post_init(self)

        monkeypatch.setattr(AffineMapData, "__post_init__", counted)
        inp = tmp_path / "in.json"
        inp.write_text(json.dumps({"map": {"type": "logspiral", "k": 0.15}, "depth": 6}))
        for sub in ("corona", "multilevel"):
            out = tmp_path / sub
            assert cli.main([sub, "--input", str(inp), "--out", str(out), "--h", str(1 / 64)]) == 0
            assert (out / "report.json").exists()
        assert made == []
        AffineMapData.identity(2)
        assert made == ["AffineMapData"]


Box = tuple[tuple[Fraction, ...], tuple[Fraction, ...]]


def _box_volume(b: Box) -> Fraction:
    v = Fraction(1)
    for a, bb in zip(b[0], b[1]):
        v *= max(Fraction(0), bb - a)
    return v


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


def minimal_under(c: Coronization, r: DyadicCube) -> list[DyadicCube]:
    """Members of r's region under r whose first child is not, by (level, coords):
    the per-R reference for a level's Q cubes."""
    lab, dim = c.labels, c.labels[0].ndim

    def under(level: int) -> tuple[tuple[int, ...], np.ndarray]:
        n = 1 << (level - r.level)
        corner = tuple(x * n for x in r.coords)
        return corner, lab[level][tuple(slice(x, x + n) for x in corner)]

    i = lab[r.level][r.coords]
    mins: list[DyadicCube] = []
    for level in range(r.level, c.depth):
        corner, sub = under(level)
        first_child = under(level + 1)[1][(slice(None, None, 2),) * dim]
        mins += [DyadicCube(level, tuple(x + o for x, o in zip(corner, rel)))
                 for rel in np.argwhere((sub == i) & (first_child != i)).tolist()]
    return mins


def reference_good_sets(c: Coronization, ml) -> list[tuple[list[DyadicCube], list[Fraction]]]:
    """Per level of ml: the Q list from minimal_under, and each R's |B| as
    |lam R| minus box_union_volume of its Q boxes clipped to lam R, in Fractions."""
    out = []
    for lv in ml.levels:
        qs, volumes = [], []
        for r in r_cubes(lv):
            mins = minimal_under(c, r)
            qs += mins
            side = Fraction(1, 2**r.level)
            loss = (1 - ml.lam) * side / 2
            outer = (tuple(x * side + loss for x in r.coords), tuple((x + 1) * side - loss for x in r.coords))
            holes = []
            for m in mins:
                ms = Fraction(1, 2**m.level)
                lo = tuple(max(x * ms, o) for x, o in zip(m.coords, outer[0]))
                hi = tuple(min((x + 1) * ms, o) for x, o in zip(m.coords, outer[1]))
                if all(a < b for a, b in zip(lo, hi)):
                    holes.append((lo, hi))
            volumes.append(_box_volume(outer) - box_union_volume(holes))
        out.append((qs, volumes))
    return out


def assert_good_sets_equal_reference(c: Coronization, ml) -> None:
    for lv, (qs, volumes) in zip(ml.levels, reference_good_sets(c, ml), strict=True):
        assert q_cubes(lv) == qs
        assert lv.b_volumes == volumes


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
        c = build_coronization(AFFINE, 2, 5, theta=0.05, h=1 / 64, force_top_bad=True)
        ml = multilevel_decomposition(c, 0.25)
        assert len(ml.levels) == 1
        assert ml.good_measure == ml.lam**2
        assert ml.good_measure >= Fraction(3, 4)

    def test_requires_forced_top(self):
        c = build_coronization(AFFINE, 2, 4, theta=0.05, h=1 / 64)
        with pytest.raises(GeometryError, match="top cube"):
            multilevel_decomposition(c, 0.5)

    def test_logspiral_invariants(self):
        c = build_coronization(LogSpiral(0.2), 2, 7, theta=0.05, h=1 / 128,
                               force_top_bad=True)
        ml = multilevel_decomposition(c, 0.5)
        assert ml.good_measure >= Fraction(1, 2)
        region_of = region_index(c)
        for n, level in enumerate(ml.levels):
            for r, qp in owner(level).items():
                # (ii) strictly inside the owning previous-level cube
                assert qp.contains_dyadic(r) and r != qp
                # (iii) side window, exact dyadic comparison
                assert r.level >= qp.level + ml.k_param
                assert r.level <= qp.level + ml.zeta_log2
            r_list = r_cubes(level)
            for q in q_cubes(level):
                owners = [r for r in r_list if r.contains_dyadic(q)]
                # (i) inside some R of the same region
                assert len(owners) == 1
                assert region_of[owners[0]] == region_of[q]

    def test_alpha_sweep_parameters_non_decreasing(self):
        c = build_coronization(LogSpiral(0.1), 2, 6, theta=0.05, h=1 / 64,
                               force_top_bad=True)
        ml_coarse = multilevel_decomposition(c, 0.5)
        ml_fine = multilevel_decomposition(c, 0.25)
        assert ml_fine.k_param >= ml_coarse.k_param
        assert ml_fine.n_bound >= ml_coarse.n_bound

    def test_good_sets_equal_box_oracle(self):
        # Every B volume equals |lam R| less the box-union oracle, and every Q
        # list the per-R reference: on the slice test_smooth_map_sample uses
        # (affine maps, so no R has holes) and on a spiral whose good sets have them.
        for m, depth in [(m, 5) for m in smooth_test_maps()[:4]] + [(LogSpiral(0.15), 6)]:
            c = build_coronization(m, 2, depth, theta=0.05, h=1 / 64, force_top_bad=True)
            for alpha in (0.5, 0.25):
                ml = multilevel_decomposition(c, alpha)
                assert ml.levels
                assert_good_sets_equal_reference(c, ml)

    @pytest.mark.parametrize("theta, n_r, n_q", [(0.02, 3714, 0), (0.05, 512, 75)])
    def test_3d_good_sets_equal_box_oracle(self, theta, n_r, n_q):
        # At theta 0.02 every R is a whole region; at 0.05 the good sets have holes.
        c = build_coronization(blend_3d(), 3, 4, theta=theta, h=1 / 16, force_top_bad=True)
        ml = multilevel_decomposition(c, 0.9)
        assert sum(len(lv.r_rows) for lv in ml.levels) == n_r
        assert sum(len(lv.q_rows) for lv in ml.levels) == n_q
        assert_good_sets_equal_reference(c, ml)
        assert ml.good_measure == sum(v for lv in ml.levels for v in lv.b_volumes)

    def test_two_level_recursion(self):
        # A gentle spiral stops regions progressively near the origin, so the
        # level-1 good sets have holes and the construction recurses into them.
        c = build_coronization(LogSpiral(0.05), 2, 8, theta=0.05, h=1 / 256,
                               force_top_bad=True)
        ml = multilevel_decomposition(c, 0.6)
        assert len(ml.levels) == 2
        assert len(ml.levels[1].r_rows) > 0
        region_of = region_index(c)
        level2 = ml.levels[1]
        q1 = set(q_cubes(ml.levels[0]))
        for r, qp in owner(level2).items():
            assert qp in q1
            assert qp.contains_dyadic(r) and r != qp
            assert qp.level + ml.k_param <= r.level <= qp.level + ml.zeta_log2
            assert region_of[r] >= 0
        assert ml.good_measure >= Fraction(2, 5)
        assert_good_sets_equal_reference(c, ml)

    @pytest.mark.parametrize("packing", [Fraction(1), Fraction(3, 2), Fraction(7, 3), Fraction(2),
                                         Fraction(5), Fraction(100, 7), Fraction(64, 3)])
    def test_level_budget_equals_search(self, packing):
        # The closed forms are the least solutions the inequalities' linear
        # searches find, also where 3C/alpha is an integer or a power of two.
        for alpha in [Fraction(3, 4), Fraction(1, 2), Fraction(3, 8), Fraction(1, 3), Fraction(1, 4),
                      Fraction(3, 10), Fraction(1, 10), Fraction(3, 64), Fraction(1, 100), Fraction(3, 1000)]:
            k_param = 1
            while packing * Fraction(1, 2**k_param) >= alpha / 3:
                k_param += 1
            n_bound = 1
            while packing / n_bound >= alpha / 3:
                n_bound += 1
            zeta_log2 = k_param + 1
            while packing / (zeta_log2 - k_param) >= alpha / 3:
                zeta_log2 += 1
            assert corona._level_budget(packing, alpha) == (k_param, n_bound, zeta_log2)

    def test_small_alpha(self):
        c = build_coronization(LogSpiral(0.1), 2, 4, theta=0.05, h=1 / 64, force_top_bad=True)
        ml = multilevel_decomposition(c, 1e-5)
        x = 3 * ml.carleson // ml.alpha
        assert (ml.k_param, ml.n_bound, ml.zeta_log2) == (x.bit_length(), x + 1, x.bit_length() + x + 1)
        assert ml.levels == []  # the first R window starts below the depth
        with pytest.raises(GeometryError, match="alpha must be positive"):
            multilevel_decomposition(c, 1e-12)

    def test_smooth_map_sample(self):
        # A slice of the smooth catalog at both alphas (full 20 in acceptance).
        for m in smooth_test_maps()[:4]:
            c = build_coronization(m, 2, 5, theta=0.05, h=1 / 64, force_top_bad=True)
            for alpha in (0.5, 0.25):
                ml = multilevel_decomposition(c, alpha)
                assert ml.good_measure >= 1 - Fraction(alpha).limit_denominator(100)
