from __future__ import annotations

import itertools
import math
import warnings

import numpy as np
import pytest

from bilipfactor import pl_approx
from bilipfactor.geometry_core import AffineMapData, Cube, GeometryError, rotation_2d, rotation_3d
from bilipfactor.map_engine import (
    Affine,
    DomainError,
    Identity,
    LogSpiral,
    MapExpr,
    estimate_distortion,
    sup_distance,
)
from bilipfactor.pl_approx import (
    FACE_TOL,
    PERTURB_SIZE,
    PLApprox,
    _PERTURB_DIR,
    complexity_count,
    degrees_pl_batch,
    freudenthal,
    pl_interpolate,
    verify_pl,
)

from conftest import random_orientation_preserving

UNIT2 = Cube((0.5, 0.5), 1.0)


class TestFreudenthal:
    def test_cell_counts(self):
        assert freudenthal(2, 1.0, (np.zeros(2), np.ones(2))).n_simplices == 2
        assert freudenthal(3, 1.0, (np.zeros(3), np.ones(3))).n_simplices == 6

    @pytest.mark.parametrize("pitch", [0.0, 1e-320, -0.1, math.nan, math.inf])
    def test_bad_pitch_refused(self, pitch):
        # Refused with the triangulation's own error, before any cell count is
        # rounded: no overflow warning, OverflowError or ValueError.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError, match="triangulation pitch must be positive"):
                freudenthal(2, pitch, Cube((0.5, 0.5), 1.0))

    @pytest.mark.parametrize("corner", ["lo", "hi"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_box_refused(self, corner, value):
        # A box corner that is not finite is named as the fault, not the pitch.
        box = {"lo": np.zeros(2), "hi": np.ones(2)}
        box[corner][0] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError, match=r"box must have finite corners, got lo \[.*\] and hi"):
                freudenthal(2, 0.1, (box["lo"], box["hi"]))

    def test_offsets_partition_cell(self):
        # The d! simplices tile the unit cell: their volumes sum to 1.
        for d in (2, 3):
            tri = freudenthal(d, 1.0, (np.zeros(d), np.ones(d)))
            offs = tri.simplex_vertex_offsets().astype(float)
            total = 0.0
            for s in offs:
                total += abs(np.linalg.det(s[1:] - s[0])) / math.factorial(d)
            assert total == pytest.approx(1.0)


class TestInterpolate:
    def test_affine_is_exact(self, rng):
        am = AffineMapData(random_orientation_preserving(rng, 2, 2.0), rng.normal(size=2))
        pl = pl_interpolate(Affine(am), freudenthal(2, 0.25, UNIT2))
        assert np.abs(pl.matrices - am.matrix).max() < 1e-12
        pts = rng.uniform(0.05, 0.95, size=(100, 2))
        assert np.abs(pl.as_map().evaluate(pts) - am.apply(pts)).max() < 1e-12

    def test_rotation_unit_constants(self):
        rot = Affine(AffineMapData(rotation_2d(0.6), np.zeros(2)))
        pl = pl_interpolate(rot, freudenthal(2, 0.1, UNIT2))
        assert pl.constants.max() == pytest.approx(1.0, abs=1e-12)
        assert np.all(pl.orientations == 1)

    def test_rotation_3d(self):
        rot = Affine(AffineMapData(rotation_3d([1.0, 1.0, 0.0], 0.4), np.zeros(3)))
        pl = pl_interpolate(rot, freudenthal(3, 0.25, Cube((0.5, 0.5, 0.5), 1.0)))
        assert pl.constants.max() == pytest.approx(1.0, abs=1e-12)
        assert np.all(pl.orientations == 1)

    def test_logspiral_sup_bound(self):
        eta = 0.1
        box = Cube((1.0, 1.0), 1.0)  # [0.5, 1.5]^2
        tri = freudenthal(2, eta / (4 * math.sqrt(2)), box)
        pl = pl_interpolate(LogSpiral(0.05), tri)
        err = sup_distance(pl.as_map(), LogSpiral(0.05), box, tri.pitch / 2)
        assert err <= eta

    def test_outside_triangulation_is_domain_error(self):
        g = pl_interpolate(Identity(), freudenthal(2, 0.25, UNIT2)).as_map()
        with pytest.raises(DomainError, match="outside its triangulation"):
            g(np.array([1.5, 0.5]))

    def test_continuity_across_faces(self, rng):
        pl = pl_interpolate(LogSpiral(0.2), freudenthal(2, 0.2, Cube((1.5, 0.5), 1.0)))
        g = pl.as_map()
        # Points on interior cell edges evaluate consistently from both sides.
        for x in np.linspace(1.05, 1.95, 7):
            p = np.array([x, 0.5])
            left = g(p - np.array([1e-12, 0.0]))
            right = g(p + np.array([1e-12, 0.0]))
            assert np.linalg.norm(left - right) < 1e-9


class TestVerify:
    def test_rotation_all_verdicts(self):
        rot = Affine(AffineMapData(rotation_2d(0.4), np.zeros(2)))
        pl = pl_interpolate(rot, freudenthal(2, 0.05, UNIT2))
        v = verify_pl(pl, 0.05)
        assert v.lipschitz_ok and v.injective_ok and v.surjective_spotcheck_ok
        assert v.n_unresolved <= 0.001 * v.n_targets

    def test_logspiral_all_verdicts(self):
        eta = 0.1
        tri = freudenthal(2, eta / (4 * math.sqrt(2)), Cube((1.0, 1.0), 1.0))
        pl = pl_interpolate(LogSpiral(0.05), tri)
        v = verify_pl(pl, 0.2)
        assert v.lipschitz_ok and v.injective_ok and v.surjective_spotcheck_ok

    def test_fold_fails(self):
        class Fold(MapExpr):
            def evaluate(self, pts):
                out = np.array(pts, copy=True)
                out[..., 0] = np.abs(out[..., 0])
                return out

        pl = pl_interpolate(Fold(), freudenthal(2, 0.125, Cube((0.0, 0.0), 2.0)))
        v = verify_pl(pl, 0.2)
        assert (not v.lipschitz_ok) or (not v.injective_ok)
        assert pl.orientations.min() == -1

    def test_global_lipschitz_matches_per_simplex(self):
        # Sampled global estimate stays within the per-simplex bound.
        eps = 0.05
        tri = freudenthal(2, 0.05, UNIT2)
        pl = pl_interpolate(LogSpiral(0.03), tri)
        assert np.all(pl.constants <= 1 + 2 * eps + 1e-9)
        cert = estimate_distortion(pl.as_map(), Cube((0.5, 0.5), 0.9), 0.05)
        assert cert.L_lo <= 1 + 2 * eps + 1e-6


class TestComplexity:
    def test_counts(self):
        assert complexity_count(freudenthal(2, 0.25, UNIT2), UNIT2) == 32
        unit3 = Cube((0.5, 0.5, 0.5), 1.0)
        assert complexity_count(freudenthal(3, 0.5, unit3), unit3) == 48

    def test_halving_eta_scales_by_two_to_d(self):
        for d in (2, 3):
            box = Cube((0.5,) * d, 1.0)
            counts = []
            for eta in (0.4, 0.2, 0.1):
                tri = freudenthal(d, eta / (4 * math.sqrt(d)), box)
                counts.append(complexity_count(tri, box))
            for a, b in zip(counts, counts[1:]):
                assert 0.8 * 2**d <= b / a <= 1.25 * 2**d


class TestPolarizationBound:
    def test_vertex_bilip_data_gives_small_affine_constant(self, rng):
        # For random maps that are (1+eps)-bi-Lipschitz on simplex vertices,
        # the interpolated affine piece is (1+2 eps)-bi-Lipschitz.
        eps = 0.05
        ok = 0
        trials = 0
        for _ in range(200):
            mat = random_orientation_preserving(rng, 2, 1.0 + eps)
            shift = rng.normal(size=2)
            pl = pl_interpolate(
                Affine(AffineMapData(mat, shift)), freudenthal(2, 1.0, (np.zeros(2), np.ones(2)))
            )
            trials += 1
            ok += int(np.all(pl.constants <= 1 + 2 * eps + 1e-12))
        assert ok == trials


def reference_degrees_pl_batch(pl: PLApprox, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The per-target loop degrees_pl_batch replaced, kept as its oracle."""
    sims, signs = pl.image_simplices()
    d = pl.tri.dim
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    m = targets.shape[0]
    degrees = np.zeros(m, dtype=int)
    unresolved = np.zeros(m, dtype=bool)

    lo = sims.min(axis=1)
    hi = sims.max(axis=1)
    scale = np.maximum(np.max(hi - lo, axis=1), 1e-300)
    v0 = sims[:, 0, :]
    edges = np.transpose(sims[:, 1:, :] - sims[:, :1, :], (0, 2, 1))  # (n, d, d)
    inv = np.linalg.inv(edges + np.where(np.abs(np.linalg.det(edges))[:, None, None] < 1e-300, np.eye(d), 0.0))
    degenerate_sim = np.abs(np.linalg.det(edges)) < 1e-300

    # Bucket simplices by image bounding box on a grid of the mean bbox size.
    cell = float(np.mean(hi - lo)) or 1.0
    glo = lo.min(axis=0)
    key_lo = np.floor((lo - glo) / cell).astype(int)
    key_hi = np.floor((hi - glo) / cell).astype(int)
    buckets: dict[tuple, list[int]] = {}
    for i in range(sims.shape[0]):
        ranges = [range(key_lo[i, k], key_hi[i, k] + 1) for k in range(d)]
        for key in itertools.product(*ranges):
            buckets.setdefault(key, []).append(i)

    tol = FACE_TOL
    for t in range(m):
        y = targets[t]
        for attempt in range(2):
            yy = y if attempt == 0 else y + PERTURB_SIZE * _PERTURB_DIR[:d]
            key = tuple(np.floor((yy - glo) / cell).astype(int))
            cand = buckets.get(key, [])
            total = 0
            regular = True
            for i in cand:
                if degenerate_sim[i]:
                    continue
                if np.any(yy < lo[i] - tol * scale[i]) or np.any(yy > hi[i] + tol * scale[i]):
                    continue
                lam_rest = inv[i] @ (yy - v0[i])
                lam0 = 1.0 - lam_rest.sum()
                lam_min = min(lam0, lam_rest.min())
                if lam_min >= tol:
                    total += int(signs[i])
                elif lam_min >= -tol:
                    regular = False
                    break
            if regular:
                degrees[t] = total
                break
        else:
            unresolved[t] = True
    return degrees, unresolved


def _sweep_targets(pl: PLApprox) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(verify_pl's targets, vertex images and edge midpoints, points off the bucket grid).

    The last group holds points far from every image box, and points a hair
    below the lowest image vertex on each axis: those lie inside an image box
    widened by the face tolerance, but their bucket key is off the grid, and
    an off-grid key has no candidates.
    """
    tri = pl.tri
    pitch = tri.pitch / 3.0
    lo = tri.origin + 2.0 * tri.pitch
    hi = tri.covered_hi() - 2.0 * tri.pitch
    axes = [np.arange(lo[k] + pitch / math.pi, hi[k], pitch) for k in range(tri.dim)]
    sources = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
    sims, _ = pl.image_simplices()
    verts = pl.vertex_images.reshape(-1, tri.dim)
    i, j = np.triu_indices(tri.dim + 1, k=1)
    mids = np.unique(0.5 * (sims[:, i] + sims[:, j]).reshape(-1, tri.dim), axis=0)
    far_lo, far_hi = sims.min(axis=(0, 1)), sims.max(axis=(0, 1))
    below = verts[np.argmin(verts, axis=0)] - 1e-14 * np.eye(tri.dim)
    outside = np.concatenate([[far_lo - 0.5, far_hi + 0.5, far_hi + 1e6, far_lo - 1e6 * tri.pitch], below])
    return pl.as_map().evaluate(sources), np.concatenate([verts, mids]), outside


# name -> (map, triangulation pitch, covered box); the 2-D maps are criterion 04's plus a faster spiral.
_ORACLE_CASES = {
    "rotation": (Affine(AffineMapData(rotation_2d(0.3), np.zeros(2))), 0.05, Cube((1.0, 1.0), 1.0)),
    "shear": (
        Affine(AffineMapData(np.array([[1.0, 1.02 - 1.0 / 1.02], [0.0, 1.0]]), np.zeros(2))),
        0.05,
        Cube((1.0, 1.0), 1.0),
    ),
    "logspiral-0.05": (LogSpiral(0.05), 0.05, Cube((1.0, 1.0), 1.0)),
    "logspiral-0.5": (LogSpiral(0.5), 0.05, Cube((1.0, 1.0), 1.0)),
    "rotation-3d": (
        Affine(AffineMapData(rotation_3d([1.0, 2.0, 0.5], 0.4), np.zeros(3))),
        0.2,
        Cube((0.5, 0.5, 0.5), 1.0),
    ),
}


class TestDegreeSweep:
    @pytest.mark.parametrize("name", list(_ORACLE_CASES))
    def test_matches_reference_loop(self, name):
        f, pitch, box = _ORACLE_CASES[name]
        pl = pl_interpolate(f, freudenthal(box.dim, pitch, box))
        sweep, on_faces, outside = _sweep_targets(pl)
        degrees, unresolved = degrees_pl_batch(pl, np.concatenate([sweep, on_faces, outside]))
        ref_degrees, ref_unresolved = reference_degrees_pl_batch(pl, np.concatenate([sweep, on_faces, outside]))
        assert np.array_equal(degrees, ref_degrees)
        assert np.array_equal(unresolved, ref_unresolved)
        # The first pass flags every target on a face, so a degree there comes from the retry.
        assert np.any(degrees[len(sweep) : -len(outside)] == 1)
        assert np.all(degrees[-len(outside) :] == 0) and not np.any(unresolved[-len(outside) :])

    @pytest.mark.parametrize("per_pass", [1, 97])
    def test_passes_equal_one_pass(self, per_pass, monkeypatch):
        f, pitch, box = _ORACLE_CASES["logspiral-0.05"]
        pl = pl_interpolate(f, freudenthal(box.dim, pitch, box))
        targets = np.concatenate(_sweep_targets(pl))
        whole = degrees_pl_batch(pl, targets)
        assert len(targets) < pl_approx.SWEEP_TARGETS
        monkeypatch.setattr(pl_approx, "SWEEP_TARGETS", per_pass)
        for got, want in zip(degrees_pl_batch(pl, targets), whole):
            assert np.array_equal(got, want)

    def test_unresolved_after_retry_matches_reference(self):
        # The shear sends the triangulation's e1 edges along the tie-break
        # direction, so a vertex-image target stays on a face after the retry.
        pl = pl_interpolate(Affine(AffineMapData(np.array([[1.0, 0.0], [1.0 / math.pi, 1.0]]), np.zeros(2))),
                            freudenthal(2, 0.1, UNIT2))
        targets = np.concatenate(_sweep_targets(pl))
        degrees, unresolved = degrees_pl_batch(pl, targets)
        ref_degrees, ref_unresolved = reference_degrees_pl_batch(pl, targets)
        assert unresolved.any()
        assert np.array_equal(unresolved, ref_unresolved)
        assert np.array_equal(degrees, ref_degrees)


def reference_fold(pl: PLApprox) -> bool:
    """The pairwise image-overlap search verify_pl's fold rule replaced, kept as its oracle.

    True when a simplex of sign -1 and one of sign +1 have overlapping
    images: a separating-axis test on triangles in 2-D (open overlap, an
    absolute slack of 1e-15), bounding boxes alone in 3-D.
    """
    signs = pl.orientations
    pos = np.nonzero(signs > 0)[0]
    neg = np.nonzero(signs < 0)[0]
    if len(pos) == 0 or len(neg) == 0:
        return False
    sims, _ = pl.image_simplices()
    lo = sims.min(axis=1)
    hi = sims.max(axis=1)
    for i in neg:
        cand = pos[np.all(lo[pos] <= hi[i], axis=1) & np.all(hi[pos] >= lo[i], axis=1)]
        for j in cand:
            if pl.tri.dim != 2 or _triangles_overlap(sims[i], sims[j]):
                return True
    return False


def _triangles_overlap(t1: np.ndarray, t2: np.ndarray) -> bool:
    # Separating axis test over the 6 edge normals; open overlap.
    for tri_a, tri_b in ((t1, t2), (t2, t1)):
        for k in range(3):
            edge = tri_a[(k + 1) % 3] - tri_a[k]
            normal = np.array([-edge[1], edge[0]])
            a = tri_a @ normal
            b = tri_b @ normal
            if a.max() <= b.min() + 1e-15 or b.max() <= a.min() + 1e-15:
                return False
    return True


class _Pointwise(MapExpr):
    """x -> fn(x - 1/2) on the rows of pts."""

    def __init__(self, fn):
        self.fn = fn

    def evaluate(self, pts):
        return self.fn(np.atleast_2d(np.asarray(pts, dtype=float)) - 0.5)


def _first_axis(g):
    def fn(u):
        out = u.copy()
        out[:, 0] = g(u[:, 0])
        return out
    return fn


def _swirl(u):
    # A turn by 3 exp(-|u|^2 / 0.02) about the centre: a homeomorphism whose
    # interpolant flips triangles at pitches 0.1 and 0.05, too coarse for the twist.
    angle = 3.0 * np.exp(-np.sum(u * u, axis=1) / 0.02)
    c, s = np.cos(angle), np.sin(angle)
    return np.column_stack([c * u[:, 0] - s * u[:, 1], s * u[:, 0] + c * u[:, 1]])


_FOLD_MAPS = {
    "fold": _Pointwise(_first_axis(np.abs)),
    "soft-fold": _Pointwise(_first_axis(lambda x: np.sqrt(x * x + 0.01))),
    "cubic": _Pointwise(_first_axis(lambda x: x**3 - 0.05 * x)),
    "swirl": _Pointwise(_swirl),
}


class TestFoldRule:
    """verify_pl's fold rule (orientation signs holding both +1 and -1) against the overlap search."""

    @staticmethod
    def check(pl: PLApprox) -> bool:
        folded = bool(pl.orientations.max() > 0 > pl.orientations.min())
        assert folded == reference_fold(pl)
        assert not np.any(pl.orientations == 0)
        targets = _sweep_targets(pl)[0]
        degrees, unresolved = degrees_pl_batch(pl, targets)
        degree_ok = unresolved.sum() <= 0.001 * len(targets) and np.all(degrees[~unresolved] == 1)
        assert verify_pl(pl, 0.2).injective_ok == (degree_ok and not folded)
        return folded

    @pytest.mark.parametrize("pitch", [0.1, 0.05, 0.02])
    def test_rule_equals_overlap_search_2d(self, pitch):
        tri = freudenthal(2, pitch, UNIT2)
        folded = {name: self.check(pl_interpolate(f, tri)) for name, f in _FOLD_MAPS.items()}
        assert folded == {"fold": True, "soft-fold": True, "cubic": True, "swirl": pitch > 0.02}

    @pytest.mark.parametrize("name", ["fold", "cubic"])
    def test_rule_equals_overlap_search_3d(self, name):
        tri = freudenthal(3, 0.1, Cube((0.5, 0.5, 0.5), 1.0))
        assert self.check(pl_interpolate(_FOLD_MAPS[name], tri))

    def test_reflection_is_no_fold(self, monkeypatch):
        # All signs -1: no fold, and injective_ok fails through the -1 degrees
        # alone, so with the degrees negated it passes.
        pl = pl_interpolate(Affine(AffineMapData(np.diag([-1.0, 1.0]), np.zeros(2))), freudenthal(2, 0.05, UNIT2))
        assert np.all(pl.orientations == -1)
        assert not self.check(pl)
        degrees, unresolved = degrees_pl_batch(pl, _sweep_targets(pl)[0])
        assert not unresolved.any() and np.all(degrees == -1)
        v = verify_pl(pl, 0.2)
        assert not v.injective_ok and not v.surjective_spotcheck_ok

        def negated(pl, targets):
            degrees, unresolved = degrees_pl_batch(pl, targets)
            return -degrees, unresolved

        monkeypatch.setattr(pl_approx, "degrees_pl_batch", negated)
        assert verify_pl(pl, 0.2).injective_ok
