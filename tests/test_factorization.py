from __future__ import annotations

import json
import math

import numpy as np
import pytest

from bilipfactor import cli, factorization, kernels, map_engine
from bilipfactor.factorization import (
    MAX_RETRIES,
    TRANSLATION_BLEND_LAM,
    FactorCertificationError,
    FactorSequence,
    Piecewise,
    cert_pitch,
    check_factor_sequence,
    factor_diagonal,
    factor_linear_in_cube,
    factor_linear_outside_cube,
    factor_rotation,
    factor_shrink,
    factor_translation_along_path,
    glue_identity_outside,
)
from bilipfactor.geometry_core import (
    AffineMapData,
    Cube,
    GeometryError,
    bilip_constant,
    cube_lattice,
    resample_polyline,
    rotation_2d,
    rotation_3d,
    svd,
)
from bilipfactor.map_engine import (
    Affine,
    Blend,
    BlendRun,
    CertificationError,
    Identity,
    Translation,
    blend_weight,
    estimate_distortion,
)
from bilipfactor.jsonio import cube_to_json, factor_sequence_to_json, map_to_json

from conftest import random_orientation_preserving


def oracle_rotation_steps(theta: float, alpha: float) -> int:
    """Scalar search: minimal N with 2 sin(theta / 2N) < alpha."""
    theta = abs(theta)
    if theta == 0:
        return 0
    n = 1
    while 2.0 * math.sin(theta / (2.0 * n)) >= alpha:
        n += 1
    return n


def oracle_diagonal_steps(l_bound: float, alpha: float) -> int:
    """Scalar search: minimal n with L^(1/n) < 1 + alpha."""
    n = 1
    while l_bound ** (1.0 / n) >= 1.0 + alpha:
        n += 1
    return n


class TestDiagonal:
    def test_identity_vector(self):
        assert factor_diagonal([1.0, 1.0], 0.3, 2.0) == []

    def test_example_counts(self):
        steps = factor_diagonal([2.0, 0.5], 0.1, 2.0)
        assert len(steps) == 2 * oracle_diagonal_steps(2.0, 0.1) == 16
        worst = max(np.abs(np.linalg.svd(m - np.eye(2), compute_uv=False)).max() for m in steps)
        assert worst == pytest.approx(2 ** (1 / 8) - 1, abs=1e-12)
        assert worst < 0.1

        assert len(factor_diagonal([4.0, 1.0], 0.5, 4.0)) == 2 * oracle_diagonal_steps(4.0, 0.5) == 8

    def test_partial_products_within_band(self, rng):
        for _ in range(20):
            l_bound = rng.uniform(1.2, 4.0)
            sigma = np.exp(rng.uniform(-np.log(l_bound), np.log(l_bound), size=2))
            partial = np.eye(2)
            for m in factor_diagonal(sigma, 0.2, l_bound):
                partial = m @ partial
                diag = np.diag(partial)
                assert np.all(diag <= l_bound + 1e-12)
                assert np.all(diag >= 1.0 / l_bound - 1e-12)
            assert np.abs(partial - np.diag(sigma)).max() <= 1e-12

    def test_sigma_outside_band_rejected(self):
        with pytest.raises(GeometryError):
            factor_diagonal([3.0, 1.0], 0.1, 2.0)

    def test_step_ceiling(self):
        # log 2 / log1p(1e-12), about 6.9e11 steps per axis, is refused before any list is built.
        with pytest.raises(GeometryError, match=r"^alpha 1e-12 needs 6.931e\+11 steps, more than the 1000000 allowed"):
            factor_diagonal([2.0, 0.5], 1e-12, 2.0)


class TestRotation:
    def test_identity(self):
        assert factor_rotation(np.eye(2), 0.2) == []

    def test_2d_quarter_turn(self):
        steps = factor_rotation(rotation_2d(math.pi / 2), 0.1)
        assert len(steps) == oracle_rotation_steps(math.pi / 2, 0.1) == 16
        prod = np.eye(2)
        for m in steps:
            assert np.linalg.svd(m - np.eye(2), compute_uv=False).max() < 0.1
            prod = m @ prod
        assert np.abs(prod - rotation_2d(math.pi / 2)).max() <= 1e-10

    def test_3d_half_turn(self):
        r = rotation_3d([0.0, 0.0, 1.0], math.pi)
        steps = factor_rotation(r, 0.5)
        assert len(steps) == oracle_rotation_steps(math.pi, 0.5) == 7
        prod = np.eye(3)
        for m in steps:
            prod = m @ prod
        assert np.abs(prod - r).max() <= 1e-10

    def test_random_3d_products(self, rng):
        for _ in range(20):
            axis = rng.normal(size=3)
            r = rotation_3d(axis / np.linalg.norm(axis), rng.uniform(-math.pi, math.pi))
            prod = np.eye(3)
            for m in factor_rotation(r, 0.3):
                assert np.linalg.svd(m - np.eye(3), compute_uv=False).max() < 0.3
                prod = m @ prod
            assert np.abs(prod - r).max() <= 1e-10

    def test_rejections(self):
        with pytest.raises(GeometryError, match="orthogonal"):
            factor_rotation(np.diag([2.0, 0.5]), 0.1)
        with pytest.raises(GeometryError, match="orientation"):
            factor_rotation(np.diag([1.0, -1.0]), 0.1)

    @pytest.mark.parametrize("alpha", [0.0, -0.1, math.nan])
    def test_alpha_must_be_positive(self, alpha):
        # Refused before any step count: at 0 the count divides by zero, and
        # below 0 its search for a step norm under alpha never ends.
        with pytest.raises(GeometryError, match=f"^alpha must be positive, got {alpha}$"):
            factor_rotation(rotation_2d(1.0), alpha)

    def test_step_ceiling(self):
        # 1e12 steps are refused before the list is built.
        with pytest.raises(GeometryError, match=r"^alpha 1e-12 needs 1e\+12 steps, more than the 1000000 allowed"):
            factor_rotation(rotation_2d(1.0), 1e-12)

    def test_subnormal_alpha_needs_inf_steps(self):
        # asin(alpha / 2) rounds to 0: a zero step angle is infinitely many
        # steps, refused, not a ZeroDivisionError.
        with pytest.raises(GeometryError, match=r"^alpha 5e-324 needs inf steps, more than the 1000000 allowed"):
            factor_rotation(rotation_2d(0.5), 5e-324)


class TestFactorLinearInCube:
    def test_identity(self):
        fs = factor_linear_in_cube(np.eye(2), Cube((0.0, 0.0), 2.0), 2.0, 0.25)
        assert fs.T == 0

    def test_subnormal_epsilon_needs_inf_steps(self):
        # A diagonal-only map reaches the diagonal count first; its log1p(alpha) rounds to 0.
        with pytest.raises(GeometryError, match=r"^epsilon 5e-324 needs inf steps, more than the 1000000 allowed"):
            factor_linear_in_cube(np.diag([2.0, 0.5]), Cube((0.0, 0.0), 2.0), 2.0, 5e-324)

    def test_diagonal_example(self):
        q = Cube((0.0, 0.0), 2.0)
        fs = factor_linear_in_cube(np.diag([2.0, 0.5]), q, 2.0, 0.25)
        rep = check_factor_sequence(fs, 0.25)
        assert rep["agreement_ok"] and rep["certificates_ok"] and rep["support_ok"]
        # Compose-and-compare oracle on the cube lattice.
        assert rep["agreement_sup"] <= 1e-9 * q.diam
        # Count decomposes as the diagonal chain (no rotations needed).
        alpha = fs.meta["alpha"]
        assert fs.T == 2 * oracle_diagonal_steps(2.0, alpha)

    def test_rotation_times_diagonal_count_formula(self):
        q = Cube((0.0, 0.0), 2.0)
        a = rotation_2d(math.pi / 2) @ np.diag([2.0, 1.0])
        fs = factor_linear_in_cube(a, q, 2.0, 0.25)
        alpha = fs.meta["alpha"]
        dec = svd(a)
        expected = (
            oracle_rotation_steps(math.atan2(dec.v_t[1, 0], dec.v_t[0, 0]), alpha)
            + 2 * oracle_diagonal_steps(bilip_constant(a), alpha)
            + oracle_rotation_steps(math.atan2(dec.u[1, 0], dec.u[0, 0]), alpha)
        )
        assert fs.T == expected
        rep = check_factor_sequence(fs, 0.25)
        assert rep["agreement_ok"] and rep["certificates_ok"] and rep["support_ok"]

    def test_3d_map(self, rng):
        a = random_orientation_preserving(rng, 3, 2.0)
        fs = factor_linear_in_cube(a, Cube((0.0, 0.0, 0.0), 1.0), 2.0, 0.3)
        rep = check_factor_sequence(fs, 0.3)
        assert rep["agreement_ok"] and rep["certificates_ok"] and rep["support_ok"]

    def test_orientation_reversing_rejected(self):
        with pytest.raises(GeometryError):
            factor_linear_in_cube(np.diag([1.0, -1.0]), Cube((0.0, 0.0), 1.0), 2.0, 0.25)

    @pytest.mark.parametrize("builder", [factor_linear_in_cube, factor_linear_outside_cube])
    @pytest.mark.parametrize("diag, center", [([1.5, 0.8], (0.0, 0.0, 0.0)), ([1.5, 0.8, 1.2], (0.0, 0.0))])
    def test_dimension_mismatch_rejected(self, builder, diag, center):
        with pytest.raises(GeometryError, match="map and cube dimensions differ"):
            builder(np.diag(diag), Cube(center, 2.0), 2.0, 0.25)

    @pytest.mark.parametrize("d, l_bound, epsilon", [(2, 1.8, 0.25), (2, 2.5, 0.3), (3, 1.5, 0.25),
                                                     (3, 2.0, 0.3), (2, 6.0, 0.08)])
    def test_sides_equal_the_per_step_loop(self, d, l_bound, epsilon):
        # The sides come from one stacked product over the partial products;
        # the oracle is the loop that took one product per step.
        gen = np.random.default_rng([3000, d, int(10 * l_bound)])
        a = random_orientation_preserving(gen, d, l_bound)
        q = Cube((0.0,) * d, 2.0)
        fs = factor_linear_in_cube(a, q, 2.0, epsilon)
        steps = fs.meta["linear_steps"]
        assert fs.T == len(steps) >= (500 if epsilon < 0.1 else 1)
        # The chain holds all three kinds: rotation, diagonal, rotation.
        diagonal = [not np.any(s - np.diag(np.diag(s))) for s in steps]
        assert not diagonal[0] and any(diagonal) and not diagonal[-1]
        margin = min(1.1, math.sqrt(2.0))
        verts = q.vertices()
        sides = np.empty(len(steps))
        partial = np.eye(d)
        for idx, step in enumerate(steps):
            sides[idx] = margin * (2.0 * float(np.max(np.abs(verts @ partial.T))))
            partial = step @ partial
        assert fs.factors.sides.tobytes() == sides.tobytes()

    def test_count_monotone_in_epsilon(self, rng):
        q = Cube((0.0, 0.0), 1.0)
        for _ in range(10):
            a = random_orientation_preserving(rng, 2, 2.5)
            t_coarse = factor_linear_in_cube(a, q, 2.0, 0.3).T
            t_fine = factor_linear_in_cube(a, q, 2.0, 0.15).T
            assert t_fine >= t_coarse


class TestCertificateCache:
    @pytest.mark.parametrize(
        "a,side",
        [
            (np.diag([2.0, 0.5]), 2.0),
            (rotation_2d(2.0) @ np.diag([1.7, 0.8]) @ rotation_2d(-0.6), 1.0),
            (rotation_3d(np.array([0.0, 0.6, 0.8]), 1.9) @ np.diag([1.5, 1.0, 0.7]), 1.0),
        ],
    )
    def test_canonical_matches_direct_sweep(self, a, side):
        d = a.shape[0]
        fs = factor_linear_in_cube(a, Cube((0.0,) * d, side), 2.0, 0.25)
        assert fs.T > 0
        for f, l_lo in zip(fs.factors, fs.L_lo):
            want = certificate_json(f, l_lo)
            direct = estimate_distortion(f, f.cube.dilate(f.lam), want["h"])
            assert direct.pair_count == want["pair_count"]
            assert abs(direct.L_lo - l_lo) <= 1e-12 * direct.L_lo

    def test_identical_rotation_steps_swept_once(self, monkeypatch):
        sweeps = []

        def counting(xs, ys):
            sweeps.extend(range(ys.shape[0]))  # one image set per swept key
            return stacked(xs, ys)

        stacked = kernels.pairwise_distortions
        monkeypatch.setattr(kernels, "pairwise_distortions", counting)
        fs = factor_linear_in_cube(rotation_2d(2.5), Cube((0.0, 0.0), 1.0), 2.0, 0.25)
        distinct = {step.tobytes() for step in fs.meta["linear_steps"]}
        assert 0 < len(sweeps) <= len(distinct) < fs.T

    def test_shared_cache_reuses_certificates(self):
        cache: dict = {}
        q = Cube((0.3, 0.2), 0.5)
        first = factor_shrink(q, 3.0, 0.3, 0.25, cache)
        swept = list(cache.items())
        again = factor_shrink(q, 3.0, 0.3, 0.25, cache)
        assert list(cache.items()) == swept
        assert again.L_lo.tolist() == first.L_lo.tolist()


def scan_certify(cache: dict, run: BlendRun, keys: list, bound: float):
    """_certify as a scan over per-factor key tuples that sweeps one key at a
    time with estimate_distortion: returns None or the (index, L_lo) of the
    first factor above bound, and updates cache as _certify does."""
    firsts: dict = {}
    for i, key in enumerate(keys):
        firsts.setdefault(key, i)
    for key, first in firsts.items():
        l_lo = cache.get(key)
        if l_lo is None:
            region = run[first].cube.dilate(run[first].lam)
            l_lo = cache[key] = estimate_distortion(run[first], region, cert_pitch(region.side, region.dim)).L_lo
        if l_lo > bound:
            return first, l_lo
    return None


def certify_both(cache: dict, run: BlendRun, rows: np.ndarray, bound: float, prefix: tuple = ()):
    """_certify on cache and scan_certify, with the keys prefix + tuple(rows[i]),
    on a copy of it; both must end alike, down to the sign of a zero in a
    key.  Returns _certify's failure, or the type of the error both raised."""
    keys = [prefix + tuple(row) for row in rows.tolist()]
    twin = dict(cache)
    try:
        bounds, fail = factorization._certify(run, prefix, rows, bound, cache)
    except (map_engine.DomainError, CertificationError) as e:
        with pytest.raises(type(e), match=str(e)):
            scan_certify(twin, run, keys, bound)
        fail = type(e)
    else:
        assert fail == scan_certify(twin, run, keys, bound)
        if bounds is not None:
            assert list(bounds) == [twin[k] for k in keys]
    assert repr(list(cache.items())) == repr(list(twin.items()))
    return fail


def int_rows(keys) -> np.ndarray:
    """One-column key rows holding keys."""
    return np.array(keys, dtype=np.int64).reshape(-1, 1)


def keyed(keys) -> list[tuple]:
    """The dict keys int_rows(keys) gives under an empty prefix."""
    return [(k,) for k in keys]


def hand_run(kind: str, inners: list) -> BlendRun:
    """Factors on blend cubes C(c_i, 1), c_i = (i/4, 0), lam 2: translations by
    inners[i], or the linear maps inners[i] about c_i."""
    n = len(inners)
    centers = np.stack([np.arange(n) / 4.0, np.zeros(n)], axis=1)
    inners = np.array(inners, dtype=float).reshape((n, 2) if kind == "translation" else (n, 2, 2))
    if kind == "translation":
        return BlendRun(kind, centers, np.ones(n), np.full(n, 2.0), inners)
    shifts = centers - np.matmul(inners, centers[:, :, None])[:, :, 0]
    return BlendRun(kind, centers, np.ones(n), np.full(n, 2.0), shifts, inners)


def hand_rows(run: BlendRun) -> np.ndarray:
    """Key rows of a hand_run as the builders make them: rounded translation
    vectors (factor_translation_along_path), or matrix bits (factor_linear_in_cube)."""
    if run.kind == "translation":
        return np.round(run.shifts, 12)
    return np.ascontiguousarray(run.matrices).reshape(len(run), 4).view(np.int64)


BOUND = 1.25


class TestStackedSweep:
    """The stacked sweep of _certify against a scan one key at a time."""

    @staticmethod
    def assert_sweeps_match_estimate(fs, keys: list, conjugate: bool = False):
        """Each key's first factor, the one it was swept on, has estimate_distortion's
        bound bit for bit, and every factor under the key shares it."""
        run = fs.factors
        firsts: dict = {}
        for i, key in enumerate(keys):
            firsts.setdefault(key, i)
        assert [fs.L_lo[firsts[key]] for key in keys] == list(fs.L_lo)
        for first in firsts.values():
            f = run[first]
            if conjugate:
                f = Blend(f.inner, Cube((0.0,) * f.cube.dim, 1.0), f.lam)
            region = f.cube.dilate(f.lam)
            direct = estimate_distortion(f, region, cert_pitch(region.side, region.dim))
            cert = certificate_json(run[first], fs.L_lo[first])
            assert (cert["L_lo"], cert["pair_count"]) == (direct.L_lo, direct.pair_count)
            assert cert["method"] == direct.method == "sampled-pairs"
            assert conjugate or cert["h"] == direct.h
        return [fs.L_lo[first] for first in firsts.values()]

    @pytest.mark.parametrize("d", [2, 3])
    def test_linear_equals_estimate_on_conjugates(self, d):
        rng = np.random.default_rng(7100 + d)
        for _ in range(4):
            a = random_orientation_preserving(rng, d, rng.uniform(1.3, 2.5))
            fs = factor_linear_in_cube(a, Cube((0.0,) * d, rng.uniform(0.3, 3.0)), rng.uniform(1.5, 3.0),
                                       rng.uniform(0.15, 0.4))
            assert fs.T > 0
            self.assert_sweeps_match_estimate(fs, [step.tobytes() for step in fs.meta["linear_steps"]],
                                              conjugate=True)

    @pytest.mark.parametrize("d", [2, 3])
    def test_shrink_equals_estimate(self, d):
        rng = np.random.default_rng(7200 + d)
        for _ in range(4):
            c = rng.uniform(0.2, 2.5)
            q = Cube(tuple(rng.uniform(-3.0, 3.0, size=d)), rng.uniform(0.1, 2.0))
            cache: dict = {}
            fs = factor_shrink(q, max(1.0, c) * rng.uniform(1.5, 3.0), c, rng.uniform(0.15, 0.4), cache)
            run = fs.factors
            keys = [(round(s, 14), round(l_i, 12)) for s, l_i in zip(run.sides.tolist(), run.lams.tolist())]
            assert fs.T > 0
            # every key swept by this run, in first-occurrence order
            assert list(cache.values()) == self.assert_sweeps_match_estimate(fs, keys)

    @pytest.mark.parametrize("d", [2, 3])
    def test_translate_equals_estimate(self, d):
        rng = np.random.default_rng(7300 + d)
        for _ in range(4):
            q = Cube(tuple(rng.uniform(-2.0, 2.0, size=d)), rng.uniform(0.2, 0.8))
            legs = rng.normal(size=(int(rng.integers(1, 4)), d)) * rng.uniform(0.3, 1.0)
            path = np.asarray(q.center) + np.concatenate([np.zeros((1, d)), np.cumsum(legs, axis=0)])
            cache: dict = {}
            fs = factor_translation_along_path(q, path, rng.uniform(0.15, 0.4), cache)
            keys = list(map(tuple, np.round(fs.factors.shifts / q.side, 12).tolist()))
            assert fs.T > 0
            assert list(cache.values()) == self.assert_sweeps_match_estimate(fs, keys)

    def test_shared_lattices_handed_over_as_one_source(self, monkeypatch):
        """The lattices of this shrink run are equal bit for bit (their supports' sides
        are not), so its stack reaches the kernel as one source set; a translation run's
        centres all differ, so its stack goes whole.  Bounds stay estimate_distortion's."""
        real, calls = kernels.pairwise_distortions, []

        def spy(xs, ys):
            calls.append((xs.shape[0], ys.shape[0]))
            return real(xs, ys)

        monkeypatch.setattr(kernels, "pairwise_distortions", spy)
        q = Cube((0.5, 0.5), 0.25)
        fs = factor_shrink(q, 2.0, 0.5, 0.25, {})
        shrink_calls = calls[:]
        run = fs.factors
        assert len(set((run.lams * run.sides).tolist())) > 1
        keys = [(round(s, 14), round(l_i, 12)) for s, l_i in zip(run.sides.tolist(), run.lams.tolist())]
        swept = self.assert_sweeps_match_estimate(fs, keys)
        assert all(nx == 1 for nx, _ in shrink_calls) and max(ny for _, ny in shrink_calls) > 1
        assert sum(ny for _, ny in shrink_calls) == len(swept)
        del calls[:]
        path = np.array([[0.5, 0.5], [1.6, 0.8], [1.2, 1.9]])
        fs = factor_translation_along_path(q, path, 0.25, {})
        translate_calls = calls[:]
        keys = list(map(tuple, np.round(fs.factors.shifts / q.side, 12).tolist()))
        swept = self.assert_sweeps_match_estimate(fs, keys)
        assert all(nx == ny for nx, ny in translate_calls) and max(ny for _, ny in translate_calls) > 1
        assert sum(ny for _, ny in translate_calls) == len(swept)

    def test_first_key_above_bound_is_decisive(self):
        # Keys pair up factors 2k, 2k + 1; key 8 (first at factor 16) moves
        # far enough to exceed the bound, and 30 factors take two blocks.
        keys = [i // 2 for i in range(30)]
        shifts = [(0.3 if k == 8 else 0.02 * (1 + k % 3), 0.0) for k in keys]
        run = hand_run("translation", shifts)
        cache: dict = {}
        fail = certify_both(cache, run, int_rows(keys), BOUND)
        assert fail[0] == 16 and fail[1] > BOUND
        assert list(cache) == keyed(range(9))
        # A retry meets the failing key cached, behind keys it has not swept.
        assert certify_both(cache, run[10:], int_rows(keys[10:]), BOUND) == (6, fail[1])
        assert list(cache) == keyed(range(9))
        fresh = [100, 101, 8, 102, 103]
        assert certify_both(cache, run[np.array([0, 2, 16, 4, 6])], int_rows(fresh), BOUND) == (2, fail[1])
        assert list(cache) == keyed(list(range(9)) + [100, 101])

    def test_cached_and_new_keys_interleave(self):
        keys = [i % 13 for i in range(40)]
        run = hand_run("translation", [(0.01 * (1 + k % 5), 0.02) for k in keys])
        cache: dict = {}
        assert certify_both(cache, run[:7], int_rows(keys[:7]), BOUND) is None
        assert certify_both(cache, run, int_rows(keys), BOUND) is None
        assert list(cache) == keyed(list(range(7)) + list(range(7, 13)))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("offender", [3, 5])
    def test_non_finite_sweep_raises_only_before_the_decisive_key(self, offender):
        shifts = [(0.03, 0.0)] * 12
        shifts[4] = (0.4, 0.0)
        shifts[offender] = (np.inf, 0.0)
        cache: dict = {}
        fail = certify_both(cache, hand_run("translation", shifts), int_rows(range(12)), BOUND)
        if offender < 4:
            assert fail is map_engine.DomainError
            assert list(cache) == keyed([0, 1, 2])
        else:
            assert fail[0] == 4 and list(cache) == keyed([0, 1, 2, 3, 4])

    @pytest.mark.parametrize("offender", [3, 5])
    def test_coincident_sweep_raises_only_before_the_decisive_key(self, offender):
        mats = [1.02 * np.eye(2)] * 12
        mats[4] = np.diag([1.3, 1.0])
        mats[offender] = np.zeros((2, 2))
        cache: dict = {}
        fail = certify_both(cache, hand_run("affine", mats), int_rows(range(12)), BOUND)
        if offender < 4:
            assert fail is CertificationError
            assert list(cache) == keyed([0, 1, 2])
        else:
            assert fail[0] == 4 and list(cache) == keyed([0, 1, 2, 3, 4])


TRANSLATE_PREFIX = ("translate", 2, 1.0, 2.0)
LINEAR_PREFIX = ("linear", 2, 2.0)


def random_inners(rng: np.random.Generator, kind: str, n: int) -> list:
    """n translation vectors or linear maps drawn from a few shapes: repeats
    next to each other and apart, copies off by 1e-15 (beyond the 12 rounded
    digits of a translation row), zeros of either sign, now and then one far
    enough to exceed BOUND, and NaN translations (a linear factor with NaN
    entries cannot be built)."""
    if kind == "translation":
        shapes = [np.array([0.02, 0.0]), np.array([0.0, -0.03]), np.array([0.01, 0.015]), np.array([0.3, 0.0])]
    else:
        shapes = [np.diag([1.02, 1.0]), np.array([[1.0, 0.01], [0.0, 0.99]]), np.diag([1.3, 1.0])]
    weights = np.r_[np.full(len(shapes) - 1, 10.0), 1.0]
    out, j = [], 0
    for _ in range(n):
        if rng.random() < 0.5:  # else repeat the last shape
            j = rng.choice(len(shapes), p=weights / weights.sum())
        v = shapes[j].copy()
        u = rng.random()
        if u < 0.15:
            v = np.where(v == 0.0, -0.0, v)
        elif u < 0.3:
            v.flat[0] += 1e-15
        elif u < 0.33 and kind == "translation":
            v[0] = np.nan
        out.append(v)
    return out


class TestKeyRows:
    """_certify's distinct rows against scan_certify over per-factor key tuples."""

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("kind,prefix", [("translation", TRANSLATE_PREFIX), ("affine", LINEAR_PREFIX)])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_tuple_scan(self, kind, prefix, seed):
        rng = np.random.default_rng(7400 + seed)
        run = hand_run(kind, random_inners(rng, kind, int(rng.integers(1, 48))))
        cache: dict = {}
        cut = int(rng.integers(0, len(run) + 1))
        outcomes = []
        for part in (run[:cut], run, run[cut:]):  # a fresh dict, then one partly filled
            outcomes.append(certify_both(cache, part, hand_rows(part), BOUND, prefix))
        assert outcomes[1] == certify_both({}, run, hand_rows(run), BOUND, prefix)

    @pytest.mark.parametrize("kind,prefix", [("translation", TRANSLATE_PREFIX), ("affine", LINEAR_PREFIX)])
    def test_empty_run(self, kind, prefix):
        run = hand_run(kind, [])
        cache = {prefix + (0,): 1.5}
        assert certify_both(cache, run, hand_rows(run), BOUND, prefix) is None
        assert cache == {prefix + (0,): 1.5}

    def test_repeats_next_to_each_other_and_apart(self):
        shifts = [(0.02, 0.0), (0.02, 0.0), (0.01, 0.015), (0.02, 0.0), (0.01, 0.015), (0.01, 0.015)]
        run = hand_run("translation", shifts)
        cache: dict = {}
        assert certify_both(cache, run, hand_rows(run), BOUND, TRANSLATE_PREFIX) is None
        assert list(cache) == [TRANSLATE_PREFIX + (0.02, 0.0), TRANSLATE_PREFIX + (0.01, 0.015)]

    def test_rows_equal_after_rounding_share_a_key(self):
        run = hand_run("translation", [(0.02, 0.01), (0.02 + 1e-15, 0.01), (0.02 + 1e-11, 0.01)])
        cache: dict = {}
        assert certify_both(cache, run, hand_rows(run), BOUND, TRANSLATE_PREFIX) is None
        assert list(cache) == [TRANSLATE_PREFIX + (0.02, 0.01), TRANSLATE_PREFIX + (0.02000000001, 0.01)]

    def test_signed_zeros(self):
        # Float rows compare by value, so +-0.0 share a key; matrix bits do not.
        run = hand_run("translation", [(0.0, 0.02), (-0.0, 0.02), (0.0, 0.02)])
        cache: dict = {}
        assert certify_both(cache, run, hand_rows(run), BOUND, TRANSLATE_PREFIX) is None
        assert repr(list(cache)) == repr([TRANSLATE_PREFIX + (0.0, 0.02)])
        mats = [np.diag([1.02, 1.0]), np.array([[1.02, -0.0], [0.0, 1.0]]), np.diag([1.02, 1.0])]
        run = hand_run("affine", mats)
        cache = {}
        assert certify_both(cache, run, hand_rows(run), BOUND, LINEAR_PREFIX) is None
        assert len(cache) == 2 and len(set(cache.values())) == 1

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nan_rows_raise_at_the_first(self):
        # NaN rows never share a key, as NaN tuples do not.
        good, bad = (0.02, 0.0), (np.nan, 0.0)
        run = hand_run("translation", [good, good, bad, good, bad])
        cache: dict = {}
        assert certify_both(cache, run, hand_rows(run), BOUND, TRANSLATE_PREFIX) is map_engine.DomainError
        assert len(cache) == 1
        # Behind a factor above the bound, the NaN rows are never reached.
        run = hand_run("translation", [good, (0.3, 0.0), bad, bad])
        cache = {}
        fail = certify_both(cache, run, hand_rows(run), BOUND, TRANSLATE_PREFIX)
        assert fail[0] == 1 and len(cache) == 2

    @staticmethod
    def grouping_cases() -> dict:
        rng = np.random.default_rng(7480)
        shapes = np.array([[0.0, 0.02], [-0.0, 0.02], [0.0, -0.0], [np.nan, 0.02], [0.01, np.nan], [0.01, 0.015]])
        mats = np.array([np.diag([1.02, 1.0]), [[1.02, -0.0], [0.0, 1.0]], [[1.0, 0.01], [0.0, 0.99]]])
        # Steps of a path whose length per step falls between two 12-digit roundings by turns.
        x = 0.0123456789015 + np.where(np.arange(10**4) % 2, 4e-13, -4e-13) + rng.uniform(-5e-14, 5e-14, 10**4)
        translate = np.round(np.column_stack([x, np.full(10**4, 0.5) - x]), 12)
        return {
            "float-signed-zeros-nan": shapes[rng.integers(0, len(shapes), 300)],
            "matrix-bits": mats[rng.integers(0, len(mats), 300)].reshape(300, 4).view(np.int64),
            "translate-neighbours": translate,
            "no-rows": np.empty((0, 2)),
        }

    @pytest.mark.parametrize("case", ["float-signed-zeros-nan", "matrix-bits", "translate-neighbours", "no-rows"])
    def test_groups_equal_np_unique(self, case):
        rows = self.grouping_cases()[case]
        firsts, inverse = factorization._key_groups(rows)
        _, want_firsts, want_inverse = np.unique(rows, axis=0, return_index=True, return_inverse=True)
        assert sorted(firsts.tolist()) == sorted(want_firsts.tolist())
        # Each row's group named by its first index: the same partition.
        assert firsts[inverse].tolist() == want_firsts[want_inverse.ravel()].tolist()
        if case == "translate-neighbours":
            heads = np.flatnonzero((rows[1:] != rows[:-1]).any(axis=1)).size + 1
            assert len(firsts) == 2 and heads > len(rows) // 2  # neighbours alternate, not in runs


class TestFactorLinearOutside:
    def test_contracts(self):
        q = Cube((0.0, 0.0), 1.0)
        factors, certs, inner = factor_linear_outside_cube(np.diag([1.5, 0.8]), q, 2.0, 0.3)
        assert all(c.L_lo <= 1.3 + 1e-12 for c in certs)
        l_bound = bilip_constant(np.diag([1.5, 0.8]))
        assert inner.side >= q.side / (2.0 * l_bound * math.sqrt(2)) - 1e-12
        pts = inner.dilate(0.95).vertices()
        for f in factors:
            assert np.abs(f.evaluate(pts) - pts).max() <= 1e-12


class TestShrink:
    def test_trivial(self):
        assert factor_shrink(Cube((0.0, 0.0), 1.0), 2.0, 1.0, 0.2).T == 0

    def test_halving(self):
        q = Cube((0.0, 0.0), 1.0)
        fs = factor_shrink(q, 2.0, 0.5, 0.2)
        rep = check_factor_sequence(fs, 0.2)
        assert rep["agreement_ok"] and rep["certificates_ok"] and rep["support_ok"]
        # Count formula: per-step scale >= 1/(1+cap).
        step = fs.meta["step_scale"]
        assert step >= 1.0 / (1.0 + 0.2)
        assert fs.T == fs.meta["steps"]
        # Vertex images are exact.
        comp = fs.factors
        assert np.abs(comp.evaluate(q.vertices()) - 0.5 * q.vertices()).max() <= 1e-12

    def test_off_center_and_growth(self):
        q = Cube((2.0, -1.0), 0.2)
        fs = factor_shrink(q, 4.0, 3.0, 0.25)
        rep = check_factor_sequence(fs, 0.25)
        assert rep["agreement_ok"] and rep["certificates_ok"] and rep["support_ok"]
        comp = fs.factors
        center = np.array(q.center)
        want = center + 3.0 * (q.vertices() - center)
        assert np.abs(comp.evaluate(q.vertices()) - want).max() <= 1e-11

    def test_support_budget_rejected(self):
        with pytest.raises(GeometryError):
            factor_shrink(Cube((0.0, 0.0), 1.0), 1.5, 2.0, 0.2)

    def test_subnormal_epsilon_needs_inf_steps(self):
        # log1p(cap) rounds to 0: infinitely many steps, refused.
        with pytest.raises(GeometryError, match=r"^epsilon 5e-324 needs inf steps, more than the 1000000 allowed"):
            factor_shrink(Cube((0.0, 0.0), 1.0), 2.0, 0.5, 5e-324)


class TestTranslationAlongPath:
    def test_empty_move(self):
        q = Cube((0.0, 0.0), 0.5)
        assert factor_translation_along_path(q, np.array([[0.0, 0.0]]), 0.2).T == 0

    def test_straight_path(self):
        q = Cube((0.0, 0.0), 0.5)
        fs = factor_translation_along_path(q, np.array([[0.0, 0.0], [3.0, 0.0]]), 0.2)
        rep = check_factor_sequence(fs, 0.2)
        assert rep["agreement_ok"] and rep["certificates_ok"]
        comp = fs.factors
        assert np.abs(comp(np.array([0.0, 0.0])) - [3.0, 0.0]).max() <= 1e-12
        # Factors are the identity far from the path.
        far = np.array([[0.0, 5.0], [1.5, -4.0], [-3.0, 0.0], [6.0, 2.0]])
        for f in fs.factors:
            assert np.abs(f.evaluate(far) - far).max() == 0.0

    def test_l_shaped_path_support(self):
        q = Cube((0.0, 0.0), 0.5)
        path = np.array([[0.0, 0.0], [1.5, 0.0], [1.5, 1.0]])
        fs = factor_translation_along_path(q, path, 0.2)
        comp = fs.factors
        assert np.abs(comp(np.array([0.0, 0.0])) - [1.5, 1.0]).max() <= 1e-12
        # Identity at lattice points at distance >= 2 diam(q) from the path.
        grid, _ = cube_lattice(Cube((0.75, 0.5), 6.0), 0.5)
        samples = np.vstack([np.linspace(p, q_, 20) for p, q_ in zip(path[:-1], path[1:])])
        dmin = np.min(np.linalg.norm(grid[:, None, :] - samples[None, :, :], axis=2), axis=1)
        far = grid[dmin >= 2.0 * q.diam + 1e-9]
        for f in fs.factors:
            assert np.abs(f.evaluate(far) - far).max() == 0.0

    def test_pure_translation_on_cube(self):
        q = Cube((1.0, 1.0), 0.25)
        path = np.array([[1.0, 1.0], [2.0, 1.5]])
        fs = factor_translation_along_path(q, path, 0.25)
        pts = q.dilate(0.999).vertices()
        comp = fs.factors
        assert np.abs(comp.evaluate(pts) - (pts + np.array([1.0, 0.5]))).max() <= 1e-11

    RETRY_PATH = np.array([[0.0, 0.0], [1.5, 0.0], [1.5, 1.0], [0.25, 1.75]])

    @staticmethod
    def patch_sweeps(monkeypatch, ratio: float, first_only: bool) -> list:
        """Sweeps read ratio (the first sweep only, or every sweep); returns the call log."""
        real = kernels.pairwise_distortions
        calls = []

        def patched(xs, ys):
            calls.append(ys.shape[0])
            ratios, min_imgs = real(xs, ys)
            if first_only and len(calls) > 1:
                return ratios, min_imgs
            return np.full_like(ratios, ratio), min_imgs

        monkeypatch.setattr(kernels, "pairwise_distortions", patched)
        return calls

    def test_retry_halves_the_step(self, monkeypatch):
        q = Cube((0.0, 0.0), 0.5)
        delta0 = factor_translation_along_path(q, self.RETRY_PATH, 0.2).meta["delta"]
        calls = self.patch_sweeps(monkeypatch, 1.5, first_only=True)
        fs = factor_translation_along_path(q, self.RETRY_PATH, 0.2)
        assert len(calls) > 1
        assert fs.meta["delta"] == delta0 / 2
        nodes = reference_translation_nodes(self.RETRY_PATH, fs.meta["delta"])
        assert fs.T == fs.meta["steps"] == nodes.shape[0] - 1
        assert fs.factors.centers.tobytes() == nodes[:-1].tobytes()
        assert fs.factors.shifts.tobytes() == np.diff(nodes, axis=0).tobytes()
        assert fs.max_certified() <= 1.2 + 1e-12

    def test_every_retry_fails(self, monkeypatch):
        calls = self.patch_sweeps(monkeypatch, 1.5, first_only=False)
        with pytest.raises(FactorCertificationError, match=r"^factor 0 certified at 1\.500000 > target 1\.200000") as e:
            factor_translation_along_path(Cube((0.0, 0.0), 0.5), self.RETRY_PATH, 0.2)
        assert (e.value.index, e.value.bound) == (0, 1.5)
        assert len(calls) == MAX_RETRIES + 1


class TestGlue:
    def _rotation_blend_piece(self, center, theta):
        c = np.asarray(center)
        rot = rotation_2d(theta)
        return Blend(Affine(AffineMapData(rot, c - rot @ c)), Cube(tuple(c), 0.35), 2.0)

    def test_single_identity_piece(self):
        g, rep = glue_identity_outside([(Cube((0.0, 0.0), 1.0), Identity())], 0.25)
        pts = np.random.default_rng(0).uniform(-2, 2, size=(50, 2))
        assert np.abs(g.evaluate(pts) - pts).max() == 0.0

    def test_two_rotation_blends(self):
        p1 = self._rotation_blend_piece((0.0, 0.0), 0.35)
        p2 = self._rotation_blend_piece((2.0, 0.0), -0.3)
        g, rep = glue_identity_outside(
            [(Cube((0.0, 0.0), 1.0), p1), (Cube((2.0, 0.0), 1.0), p2)], 0.05
        )
        assert rep.glued.L_lo <= max(rep.piece_bounds) ** 2 + 1e-6

    def test_boundary_violation_rejected(self):
        bad = Translation((0.2, 0.0))
        with pytest.raises(GeometryError, match="identity on boundary"):
            glue_identity_outside([(Cube((0.0, 0.0), 1.0), bad)], 0.25)

    def test_overlap_rejected(self):
        with pytest.raises(GeometryError, match="overlapping"):
            glue_identity_outside(
                [(Cube((0.0, 0.0), 1.0), Identity()), (Cube((0.5, 0.0), 1.0), Identity())], 0.25
            )


class TestPiecewise:
    def test_dispatch(self):
        pw = Piecewise(((Cube((0.0, 0.0), 1.0), Translation((0.0, 0.0))),))
        pts = np.array([[0.1, 0.1], [3.0, 3.0]])
        assert np.abs(pw.evaluate(pts) - pts).max() == 0.0


# Reference factors: each blend builder's factors as one Blend object per
# factor, built step by step from the meta the builder reports.


def reference_linear_factors(q: Cube, c_support: float, fs) -> list[Blend]:
    d = q.dim
    margin = min(1.1, math.sqrt(c_support))
    lam = c_support / margin
    partial = np.eye(d)
    out = []
    for step in fs.meta["linear_steps"]:
        s_i = 2.0 * float(np.max(np.abs(q.vertices() @ partial.T)))
        out.append(Blend(Affine(AffineMapData(step, np.zeros(d))), Cube(q.center, margin * s_i), lam))
        partial = step @ partial
    return out


def reference_shrink_factors(q: Cube, lam: float, c: float, fs) -> list[Blend]:
    d = q.dim
    n, step = fs.meta["steps"], fs.meta["step_scale"]
    margin = min(1.2, (lam / max(1.0, c)) ** 0.25)
    center = np.asarray(q.center)
    out = []
    for i in range(n):
        r_prev = c ** (i / n)
        inner = Affine(AffineMapData(step * np.eye(d), (1.0 - step) * center))
        out.append(Blend(inner, q.dilate(margin * r_prev), lam / (margin * r_prev)))
    return out


def reference_translation_nodes(path: np.ndarray, delta: float) -> np.ndarray:
    """The builder's nodes at step delta: ceil(length / delta) equal arc-length steps."""
    total = float(np.linalg.norm(np.diff(path, axis=0), axis=1).sum())
    return resample_polyline(path, math.ceil(total / delta - 1e-12) + 1)


def reference_translation_factors(q: Cube, path: np.ndarray, fs) -> list[Blend]:
    nodes = reference_translation_nodes(path, fs.meta["delta"])
    lam = TRANSLATION_BLEND_LAM / 1.5
    return [
        Blend(Translation(tuple(nodes[j + 1] - nodes[j])), Cube(tuple(nodes[j]), 1.5 * q.side), lam)
        for j in range(len(nodes) - 1)
    ]


def certificate_json(f: Blend, l_lo: float) -> dict:
    """A blend factor's certificate as a report writes it: the sampled
    bound l_lo of a pairwise sweep over f's support cube at cert_pitch."""
    region = f.cube.dilate(f.lam)
    n = factorization.CERT_POINTS[region.dim] ** region.dim
    return {
        "region": cube_to_json(region),
        "h": cert_pitch(region.side, region.dim),
        "L_lo": l_lo,
        "method": "sampled-pairs",
        "pair_count": n * (n - 1) // 2,
    }


def reference_support_dev(fs) -> float:
    """support_identity_dev as a per-factor loop with its early break."""
    shell, _ = cube_lattice(fs.support.dilate(1.5), fs.support.side / 8)
    outside = shell[~fs.support.contains(shell, tol=1e-12)]
    worst = 0.0
    for f in list(fs.factors):
        worst = max(worst, float(np.max(np.linalg.norm(f.evaluate(outside) - outside, axis=1))))
        if worst > 1e-12:
            break
    return worst


def _mixed_points(run, rng, n: int = 12) -> np.ndarray:
    """n points each with w == 1, 0 < w < 1 and w == 0 under the first factor."""
    first = run[0]
    half = first.cube.side / 2.0
    u = rng.uniform(-1.0, 1.0, size=(3 * n, first.cube.dim))
    u /= np.max(np.abs(u), axis=1, keepdims=True)  # sup-norm unit directions
    radii = np.concatenate([
        rng.uniform(0.1, 0.9, n) * half,
        rng.uniform(1.05, 0.95 * first.lam, n) * half,
        rng.uniform(1.05, 1.5, n) * first.lam * half,
    ])
    pts = np.asarray(first.cube.center) + radii[:, None] * u
    w = blend_weight(pts, first.cube, first.lam)
    assert np.all(w[:n] == 1.0) and np.all((w[n:-n] > 0.0) & (w[n:-n] < 1.0)) and np.all(w[-n:] == 0.0)
    return pts


LINEAR_CASE = (rotation_2d(0.9) @ np.diag([1.8, 0.7]), Cube((0.0, 0.0), 1.0), 2.0, 0.25)
SHRINK_CASE = (Cube((0.3, -0.2), 0.5), 3.0, 0.3, 0.25)
GROW_CASE = (Cube((2.0, -1.0), 0.2), 4.0, 3.0, 0.25)
PATH = np.array([[0.1, 0.2], [1.3, 0.5], [1.1, 1.7]])
TRANSLATE_CASE = (Cube((0.1, 0.2), 0.5), PATH, 0.25)


def _runs():
    a, q, c_support, eps = LINEAR_CASE
    lin = factor_linear_in_cube(a, q, c_support, eps)
    yield "linear", lin, reference_linear_factors(q, c_support, lin)
    for name, (q, lam, c, eps) in (("shrink", SHRINK_CASE), ("grow", GROW_CASE)):
        fs = factor_shrink(q, lam, c, eps)
        yield name, fs, reference_shrink_factors(q, lam, c, fs)
    q, path, eps = TRANSLATE_CASE
    fs = factor_translation_along_path(q, path, eps)
    yield "translate", fs, reference_translation_factors(q, path, fs)
    a3 = rotation_3d(np.array([0.0, 0.6, 0.8]), 0.7) @ np.diag([1.4, 1.0, 0.8])
    q3 = Cube((0.0, 0.0, 0.0), 1.0)
    fs = factor_linear_in_cube(a3, q3, 2.0, 0.3)
    yield "linear3", fs, reference_linear_factors(q3, 2.0, fs)


RUNS = {name: (fs, ref) for name, fs, ref in _runs()}


class TestBlendRun:
    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_factors_match_reference_builder(self, name):
        fs, ref = RUNS[name]
        run = fs.factors
        assert len(run) == fs.T == len(ref) > 0
        for got, want in zip(run, ref):
            assert got.cube.center == want.cube.center
            assert got.cube.side == want.cube.side
            assert got.lam == want.lam
            assert type(got.inner) is type(want.inner)
            if isinstance(want.inner, Translation):
                assert np.asarray(got.inner.v).tobytes() == np.asarray(want.inner.v).tobytes()
            else:
                assert got.inner.map.matrix.tobytes() == want.inner.map.matrix.tobytes()
                assert got.inner.map.shift.tobytes() == want.inner.map.shift.tobytes()
        assert run[len(run) - 1].cube == run[-1].cube

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_walk_equals_per_factor_loop(self, name, rng):
        fs, _ = RUNS[name]
        run = fs.factors
        pts = np.vstack([_mixed_points(run, rng), fs.region.vertices(), fs.region.dilate(0.3).vertices()])
        prefixes = run.walk(pts, range(len(run) + 1))
        cur = pts.copy()
        assert prefixes[0].tobytes() == cur.tobytes()
        for i, f in enumerate(list(run)):
            cur = f.evaluate(cur)
            assert prefixes[i + 1].tobytes() == cur.tobytes(), f"prefix {i + 1}"
        assert run.evaluate(pts).tobytes() == cur.tobytes()
        # Sparse, repeated and empty stops give the same images.
        stops = [0, 3, 3, len(run) // 2, len(run)]
        assert run.walk(pts, stops).tobytes() == prefixes[stops].tobytes()
        assert run.walk(pts, []).shape == (0,) + pts.shape

    def test_signed_zeros_match_per_factor_loop(self):
        # A jump over w == 1 steps adds the steps in order; 0 * x + (x + v)
        # keeps the sign of a zero sum, so the bytes agree with the factors.
        steps = np.array([[-0.0, 0.25], [-0.0, -0.25], [0.5, -0.0], [-0.5, 0.0]])
        run = BlendRun("translation", np.zeros((4, 2)), np.full(4, 4.0), np.full(4, 2.0), steps)
        pts = np.array([[-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [0.5, -0.25]])
        prefixes = run.walk(pts, range(1, 5))
        cur = pts.copy()
        for i, f in enumerate(list(run)):
            cur = f.evaluate(cur)
            assert prefixes[i].tobytes() == cur.tobytes()
        assert np.any((prefixes == 0.0) & np.signbit(prefixes))  # a -0.0 was carried

    def test_negative_zero_image_runs_exactly(self, monkeypatch):
        # Where w == 1 Blend.evaluate writes 0 * x + inner(x): an image -0.0
        # at x >= +0 becomes +0.0 there, so the walker runs such a step
        # exactly.  OpenBLAS and NumPy's own loops start a dot product from
        # +0.0, so M @ x is never -0.0 with them; a gemm that starts from
        # the first product gives -0.0 when every product is -0.0, and the
        # second half emulates one, in BlendRun._product (the one product the
        # walk's paths and exact steps take) and in the factors' Affine maps.
        mats = np.array([[[-0.5, -0.0], [0.0, 1.0]], [[1.0, 0.0], [-0.0, 0.0]], [[-0.0, -0.0], [0.5, 1.0]]])
        shifts = np.array([[-0.0, 0.25], [0.125, -0.0], [-0.0, -0.0]])
        run = BlendRun("affine", np.zeros((6, 2)), np.full(6, 4.0), np.full(6, 2.0),
                       np.tile(shifts, (2, 1)), np.tile(mats, (2, 1, 1)))
        pts = np.array([[0.0, 0.0], [0.0, 0.5], [0.25, 0.0], [0.5, 0.25]])
        assert np.all(blend_weight(pts, run[0].cube, run[0].lam) == 1.0)
        prefixes = run.walk(pts, range(len(run) + 1))
        cur = pts.copy()
        for i, f in enumerate(list(run)):
            cur = f.evaluate(cur)
            assert prefixes[i + 1].tobytes() == cur.tobytes(), f"prefix {i + 1}"

        calls = []

        def first_product(self, x, i, out):  # coordinate rows x (d, m)
            calls.append(i)
            m = self.matrices[i]
            y = m[:, :1] * x[:1]
            for c in range(1, x.shape[0]):
                y = y + m[:, c : c + 1] * x[c : c + 1]
            out[...] = y
            return out

        def first_product_apply(self, x):  # rows x (m, d), as Affine.evaluate takes them
            y = x[:, :1] * self.matrix[:, 0]
            for c in range(1, x.shape[1]):
                y = y + x[:, c : c + 1] * self.matrix[:, c]
            return y + self.shift

        monkeypatch.setattr(BlendRun, "_product", first_product)
        monkeypatch.setattr(AffineMapData, "apply", first_product_apply)
        image = run._inner(pts.T.copy(), 0, np.empty((2, 4)))
        assert np.any((image == 0.0) & np.signbit(image))  # a -0.0 at x = +0.0
        assert image.T.tobytes() == run[0].inner.evaluate(pts).tobytes()
        calls.clear()
        prefixes = run.walk(pts, range(len(run) + 1))
        assert sorted(set(calls)) == list(range(len(run)))  # the emulated product reached the walker
        cur = pts.copy()
        for i, f in enumerate(list(run)):
            cur = f.evaluate(cur)  # one factor as Blend.evaluate applies it
            assert prefixes[i + 1].tobytes() == cur.tobytes(), f"prefix {i + 1}"

    @pytest.mark.parametrize("d", [2, 3])
    def test_inner_product_equals_affine_rows(self, d):
        # The walker multiplies coordinate rows, M @ X; the factors multiply
        # rows, x @ M.T.  Its images are the factors' bit for bit only if the
        # two products agree on every batch size.
        gen = np.random.default_rng(2300 + d)
        n = 5000
        mats = np.stack([random_orientation_preserving(gen, d, 1.01), gen.normal(size=(d, d))])
        run = BlendRun("affine", np.zeros((2, d)), np.ones(2), np.full(2, 2.0), gen.normal(size=(2, d)), mats)
        pts = gen.uniform(-3.0, 3.0, size=(n, d))
        for i in range(2):
            inner = run[i].inner
            for m in range(1, n + 1):
                x = pts[-m:]
                got = run._inner(np.array(x.T, order="C"), i, np.empty((d, m)))
                assert got.T.tobytes() == inner.evaluate(x).tobytes(), f"factor {i}, {m} points"

    def test_small_blocks_on_the_check_lattice(self):
        # check_factor_sequence walks a 3-D run on 17^3 points, where a block
        # holds fewer steps than _WALK_MIN_BLOCK.
        fs, _ = RUNS["linear3"]
        run = fs.factors
        pts, _ = cube_lattice(fs.region, fs.region.side / 16)
        assert pts.shape[0] == 4913
        assert map_engine._WALK_ELEMS // pts.shape[0] < map_engine._WALK_MIN_BLOCK
        prefixes = run.walk(pts, range(len(run) + 1))
        cur = pts.copy()
        for i, f in enumerate(list(run)):
            cur = f.evaluate(cur)
            assert prefixes[i + 1].tobytes() == cur.tobytes(), f"prefix {i + 1}"
        stops = [0, 1, 1, 14, 14, 15, len(run) // 2, len(run) - 1, len(run), len(run)]
        assert run.walk(pts, stops).tobytes() == prefixes[stops].tobytes()

    @pytest.mark.parametrize("elems", [map_engine._WALK_ELEMS, 96])
    @pytest.mark.parametrize("kind", ["translation", "affine"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_walk_buffer_with_changing_moving_sets(self, d, kind, elems, monkeypatch):
        # Groups of steps on cubes of different sizes, so the moving points
        # (w == 1) of one block are more or fewer than those of the last, and
        # every block's path is a view of the walk's one buffer; a few points
        # sit where 0 < w < 1 and make steps run exactly.
        monkeypatch.setattr(map_engine, "_WALK_ELEMS", elems)
        gen = np.random.default_rng(4104 + d)
        groups = [(0.9, 9), (0.3, 7), (1.6, 13), (0.3, 2), (0.9, 20)]  # (side, steps)
        sides = np.concatenate([np.full(steps, side) for side, steps in groups])
        n = sides.shape[0]
        centers = np.zeros((n, d))
        shifts = gen.uniform(-4e-4, 4e-4, size=(n, d))
        mats = None
        if kind == "affine":
            mats = np.stack([random_orientation_preserving(gen, d, 1.0005) for _ in range(n)])
        run = BlendRun(kind, centers, sides, np.full(n, 1.5), shifts, mats)
        # Sup-norm radii: inside every cube, inside the two larger ones (w == 0
        # on the smallest), inside the largest alone, outside all, and 0 < w < 1
        # on the middle one.
        radii = [(0.0, 0.1, 5), (0.25, 0.4, 9), (0.7, 0.75, 11), (1.3, 3.0, 7), (0.55, 0.56, 2)]
        u = gen.uniform(-1.0, 1.0, size=(34, d))
        u /= np.max(np.abs(u), axis=1, keepdims=True)
        pts = u * np.concatenate([gen.uniform(a, b, size=m) for a, b, m in radii])[:, None]
        cur = pts.copy()
        prefixes = [cur]
        for f in run:
            cur = f.evaluate(cur)
            prefixes.append(cur)
        prefixes = np.array(prefixes)
        assert prefixes.tobytes() == run.walk(pts, range(n + 1)).tobytes()
        stops = [0, 0, 5, 9, 9, 16, 29, 29, 31, n]
        first = run.walk(pts, stops)
        assert first.tobytes() == prefixes[stops].tobytes()
        # Nothing a walk returns is shared with another walk's result.
        again = run.walk(pts, stops)
        first[:] = np.nan
        assert again.tobytes() == prefixes[stops].tobytes()
        assert run.evaluate(pts).tobytes() == prefixes[-1].tobytes()

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_sequence_json_matches_per_factor_objects(self, name, tmp_path):
        # A run's factors and certificates are rows leaves, which only the
        # report writer encodes: its bytes are compared with json.dumps of
        # the per-factor objects.
        fs, _ = RUNS[name]
        want = {
            "target": map_to_json(fs.target),
            "factors": [map_to_json(f) for f in fs.factors],
            "region": cube_to_json(fs.region),
            "support": cube_to_json(fs.support),
            "certificates": [certificate_json(f, l_lo) for f, l_lo in zip(fs.factors, fs.L_lo.tolist())],
            "T": fs.T,
        }
        path = tmp_path / "sequence.json"
        cli.write_json_atomic(path, factor_sequence_to_json(fs))
        assert path.read_text() == json.dumps(want, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_certificates_per_factor(self, name):
        fs, _ = RUNS[name]
        assert fs.L_lo.shape == (fs.T,)
        assert fs.max_certified() == max(fs.L_lo.tolist())

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_support_identity_dev_matches_per_factor_loop(self, name):
        fs, _ = RUNS[name]
        assert check_factor_sequence(fs)["support_identity_dev"] == reference_support_dev(fs) == 0.0
        # A support far too small: factors move shell points, and the loop
        # stops at the first one that moves them by more than 1e-12.
        small = FactorSequence(fs.factors, fs.target, fs.region, fs.region.dilate(0.5), fs.L_lo)
        dev = check_factor_sequence(small)["support_identity_dev"]
        assert dev == reference_support_dev(small)
        assert dev > 1e-12

    def test_long_sequence_report_carries_summary_and_first_certificates(self, tmp_path):
        # T = 2106 > MAX_FACTOR_JSON: the report holds a certificate summary
        # and the first 8 certificates in place of the sequence.
        q, path = Cube((0.0, 0.0), 0.01), [[0.0, 0.0], [3.0, 0.0], [3.0, 2.0]]
        inp = tmp_path / "t.json"
        inp.write_text(json.dumps({"cube": cube_to_json(q), "path": path}))
        assert cli.main(["factor-translate", "--input", str(inp), "--out", str(tmp_path / "o")]) == 0
        text = (tmp_path / "o" / "report.json").read_text()
        report = json.loads(text)
        result = report["result"]
        run = factor_translation_along_path(q, np.array(path), 0.25).factors
        keys = [tuple(row) for row in np.round(run.shifts / q.side, 12).tolist()]
        cache: dict = {}
        assert scan_certify(cache, run, keys, math.inf) is None
        bounds = [cache[key] for key in keys]
        assert result["T"] == len(run) == 2106 > cli.MAX_FACTOR_JSON
        assert "sequence" not in result
        assert result["certificates_summary"] == {"count": len(run), "max_L_lo": result["max_certified"]}
        assert result["max_certified"] == max(bounds)
        report["result"]["certificates"] = [certificate_json(run[i], bounds[i]) for i in range(8)]
        assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"


def _loop_prefixes(run, pts) -> np.ndarray:
    """Images of pts after every prefix, one Blend.evaluate per factor."""
    cur = pts.copy()
    out = [cur]
    for f in list(run):
        cur = f.evaluate(cur)
        out.append(cur)
    return np.array(out)


def _first_product(self, x, i, out):
    """BlendRun._product with a gemm that starts from the first product (coordinate rows x (d, m))."""
    m = self.matrices[i]
    y = m[:, :1] * x[:1]
    for c in range(1, x.shape[0]):
        y = y + m[:, c : c + 1] * x[c : c + 1]
    out[...] = y
    return out


def _first_product_apply(self, x):
    """AffineMapData.apply with the same gemm (rows x (m, d))."""
    y = x[:, :1] * self.matrix[:, 0]
    for c in range(1, x.shape[1]):
        y = y + x[:, c : c + 1] * self.matrix[:, c]
    return y + self.shift


class TestBlockTests:
    """The walker's exact block tests against the per-factor loop, bit for bit."""

    @staticmethod
    def _record(monkeypatch, name):
        """Log (the arguments after x, the result) of each BlendRun.<name> call."""
        calls = []
        inner = getattr(BlendRun, name)

        def wrapper(self, x, *args):
            got = inner(self, x, *args)
            calls.append((args, got))
            return got

        monkeypatch.setattr(BlendRun, name, wrapper)
        return calls

    @pytest.mark.parametrize("kind", ["translation", "affine"])
    def test_corner_radius_point_ends_the_block(self, kind, monkeypatch):
        # Every point has w == 1 until p, the largest x, leaves the inner cube
        # at step 5 of a 12-step block (after a longer fifth shift); no other
        # point ever has w < 1.
        n = 12
        mats = np.tile(np.diag([1.0, 0.999]), (n, 1, 1)) if kind == "affine" else None
        shifts = np.tile([0.0, -0.01], (n, 1))
        shifts[:5, 0] = [0.02, 0.02, 0.02, 0.02, 0.05]
        run = BlendRun(kind, np.zeros((n, 2)), np.ones(n), np.full(n, 2.0), shifts, mats)
        g = np.linspace(-0.35, 0.35, 5)
        pts = np.vstack([np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2), [[0.41, 0.05]]])
        want = _loop_prefixes(run, pts)
        w = np.array([blend_weight(want[i], run[i].cube, run[i].lam) for i in range(n)])
        assert np.all(w[:5, -1] == 1.0) and np.all(w[5:, -1] < 1.0) and np.all(w[:, :-1] == 1.0)
        blocks = self._record(monkeypatch, "_walk_block")
        assert run.walk(pts, [n]).tobytes() == want[-1:].tobytes()
        assert blocks[0][0][:2] == (0, n) and blocks[0][1] == 5  # the block ends mid-way, at p's step
        assert run.walk(pts, range(n + 1)).tobytes() == want.tobytes()

    def test_still_points_one_ulp_from_the_union_box(self, monkeypatch):
        # Factor 0 is far from every point.  The union box of the factors has
        # its x bounds from factor 4 (upper) and factor 2 (lower), each edge
        # c +- lam * side / 2 rounded inward, so a point on the rounded edge
        # (one ulp inside the outward-rounded box) has 0 < w there and moves
        # in y; a point one ulp outside the box never moves.
        def inward(sign, side):
            """A centre whose edge c + sign * lam * side / 2 rounds inward: the
            point on the rounded edge is at sup distance < lam * side / 2."""
            reach = 1.5 * (side / 2.0)
            for k in range(100):
                c = sign * (1.0 + 0.01 * k)
                edge = c + sign * reach
                if sign * (edge - c) < reach:
                    return c, edge
            raise AssertionError("no inward-rounded edge")

        (c_hi, e_hi), (c_lo, e_lo) = inward(1, 0.7), inward(-1, 0.5)
        centers = np.array([[0.0, 8.0], [0.0, 0.0], [c_lo, 0.0], [0.05, 0.0], [c_hi, 0.0],
                            [-0.05, 0.0], [0.0, 0.0], [0.1, 0.0]])
        sides = np.array([0.4, 0.4, 0.5, 0.3, 0.7, 0.3, 0.2, 0.4])
        n = len(sides)
        run = BlendRun("translation", centers, sides, np.full(n, 1.5), np.tile([0.0, 1.0], (n, 1)))
        hi, lo = np.nextafter(e_hi, math.inf), np.nextafter(e_lo, -math.inf)  # the box's x bounds
        pts = np.array([[e_hi, 0.0], [np.nextafter(hi, math.inf), 0.0], [e_lo, 0.0],
                        [np.nextafter(lo, -math.inf), 0.0], [0.0, -3.0]])
        assert run._near(np.array(pts.T), slice(0, n)).tolist() == [0, 2]
        want = _loop_prefixes(run, pts)
        assert np.all(blend_weight(pts, run[0].cube, run[0].lam) == 0.0)
        moved = want[-1, :, 1] != pts[:, 1]
        assert moved.tolist() == [True, False, True, False, False]
        assert run.walk(pts, [n]).tobytes() == want[-1:].tobytes()
        assert run.walk(pts, range(n + 1)).tobytes() == want.tobytes()
        touched = [i for i, f in enumerate(run) if np.any(blend_weight(pts, f.cube, f.lam) > 0.0)]
        assert touched == [2, 4]
        assert run.touching(pts).tolist() == touched
        # Within a chunk of one step each the same points take the ratios.
        monkeypatch.setattr(map_engine, "_RATIO_ELEMS", 1)
        monkeypatch.setattr(map_engine, "_WALK_ELEMS", pts.shape[0])
        assert run.walk(pts, range(n + 1)).tobytes() == want.tobytes()
        assert run.touching(pts).tolist() == touched

    def test_positive_zero_shifts_take_no_exact_step(self, monkeypatch):
        # The first-product gemm gives M @ x == -0.0, but every shift is +0.0
        # and -0.0 + 0.0 == +0.0, so no image holds a -0.0 and the walk jumps.
        mats = np.array([[[-0.5, -0.0], [0.0, 1.0]], [[1.0, 0.0], [-0.0, 0.0]], [[-0.0, -0.0], [0.5, 1.0]]])
        run = BlendRun("affine", np.zeros((6, 2)), np.full(6, 4.0), np.full(6, 2.0),
                       np.zeros((6, 2)), np.tile(mats, (2, 1, 1)))
        pts = np.array([[0.0, 0.0], [0.0, 0.5], [0.25, 0.0], [0.5, 0.25]])
        monkeypatch.setattr(BlendRun, "_product", _first_product)
        monkeypatch.setattr(AffineMapData, "apply", _first_product_apply)
        product = _first_product_apply(AffineMapData(mats[0], np.full(2, -0.0)), pts)  # x + -0.0 == x
        assert np.any((product == 0.0) & np.signbit(product))
        want = _loop_prefixes(run, pts)
        steps = self._record(monkeypatch, "_step")
        assert run.walk(pts, range(len(run) + 1)).tobytes() == want.tobytes()
        assert steps == []

    def test_nan_point_takes_the_per_point_ratios(self, monkeypatch):
        # With a gemm that rounds each product (an FMA would carry the exact
        # second product and give inf), factor 0 sends p to (inf - inf, .) =
        # NaN and q to (inf, .): at step 1 q has w == 0 and p a NaN w, so
        # step 1 runs exactly.  The per-axis extremes would be NaN there and
        # see no point leave the cube.
        monkeypatch.setattr(BlendRun, "_product", _first_product)
        monkeypatch.setattr(AffineMapData, "apply", _first_product_apply)
        mats = np.array([[[1e308, 1e308], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]])
        shifts = np.array([[0.0, 0.0], [0.0, 0.5], [0.0, 0.5]])
        run = BlendRun("affine", np.zeros((3, 2)), np.full(3, 8.0), np.full(3, 2.0), shifts, mats)
        pts = np.array([[2.0, -2.0], [2.0, 2.0], [1e-310, 0.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            want = _loop_prefixes(run, pts)
            assert np.isnan(want[1, 0, 0]) and want[1, 1, 0] == math.inf
            blocks = self._record(monkeypatch, "_walk_block")
            assert run.walk(pts, [len(run)]).tobytes() == want[-1:].tobytes()
            assert blocks[0][0][:2] == (0, len(run)) and blocks[0][1] == 1
            assert run.walk(pts, range(len(run) + 1)).tobytes() == want.tobytes()

    # Steps whose products give -0.0 at points on the axes under the
    # first-product gemm: a -0.0 row times x > 0 and a negative entry times
    # +0.0, or +0.0 times x < 0 (the quarter turn, at x on the negative axis).
    _SIGNED_ZERO_MATS = np.array([[[-0.999, -0.0], [-0.0, -1.001]], [[-0.5, -0.0], [0.0, 1.0]],
                                  [[1.0, 0.0], [-0.0, 0.0]], [[-0.0, -0.0], [0.5, 1.0]],
                                  [[0.0, -1.0], [1.0, 0.0]]])
    _AXIS_POINTS = np.array([[0.0, 0.0], [0.0, 0.5], [0.25, 0.0], [-0.25, 0.0], [0.0, -0.5],
                             [0.5, 0.25], [10.0, 0.0], [0.0, 9.0]])

    @pytest.mark.parametrize("gemm", ["blas", "first-product"])
    def test_positive_zero_shift_blocks_add_zero_once(self, gemm, monkeypatch):
        # With every shift +0.0 a block multiplies alone and adds +0.0 to its
        # path once; the images must be those of the per-factor loop at every
        # prefix, which never holds a -0.0, whichever sign M @ x gives a zero.
        n = 60
        mats = np.resize(self._SIGNED_ZERO_MATS, (n, 2, 2))
        run = BlendRun("affine", np.zeros((n, 2)), np.full(n, 4.0), np.full(n, 2.0), np.zeros((n, 2)), mats)
        pts = self._AXIS_POINTS
        if gemm == "first-product":
            monkeypatch.setattr(BlendRun, "_product", _first_product)
            monkeypatch.setattr(AffineMapData, "apply", _first_product_apply)
        want = _loop_prefixes(run, pts)
        assert not np.any((want == 0.0) & np.signbit(want))
        negative_zero = self._negative_zero_products(monkeypatch)
        steps = self._record(monkeypatch, "_step")
        assert run.walk(pts, range(n + 1)).tobytes() == want.tobytes()
        assert run.walk(pts, [0, 7, 16, 33, 33, n]).tobytes() == want[[0, 7, 16, 33, 33, n]].tobytes()
        assert steps == []
        assert any(negative_zero) == (gemm == "first-product")  # the paths held -0.0 before the add

    @staticmethod
    def _negative_zero_products(monkeypatch):
        """Log, for each BlendRun._product call, whether its result held a -0.0."""
        seen = []
        product = BlendRun._product

        def wrapper(self, x, i, out):
            got = product(self, x, i, out)
            seen.append(bool(np.any((got == 0.0) & np.signbit(got))))
            return got

        monkeypatch.setattr(BlendRun, "_product", wrapper)
        return seen

    @pytest.mark.parametrize("gemm", ["blas", "first-product"])
    def test_zero_and_nonzero_shift_blocks_alternate(self, gemm, monkeypatch):
        # Groups of +0.0, nonzero and -0.0 shifts whose lengths are not the
        # block sizes, so blocks hold steps of both kinds and end between them;
        # the first block holds +0.0 and -0.0 shifts alone, on quarter turns
        # that carry points on the negative x axis to -0.0 images.
        kinds = [[0.0, 0.0], [-0.0, -0.0], [0.0, 0.0], [0.001, 0.0], [0.0, 0.0], [-0.0, -0.0], [0.0, 0.0],
                 [0.0, -0.001], [-0.0, 0.0]]
        lengths = [5, 6, 5, 5, 21, 9, 3, 17, 11]
        shifts = np.concatenate([np.tile(v, (k, 1)) for v, k in zip(kinds, lengths)])
        n = len(shifts)
        mats = np.resize(self._SIGNED_ZERO_MATS, (n, 2, 2))
        mats[:16] = self._SIGNED_ZERO_MATS[-1]
        run = BlendRun("affine", np.zeros((n, 2)), np.full(n, 4.0), np.full(n, 2.0), shifts, mats)
        pts = self._AXIS_POINTS
        if gemm == "first-product":
            monkeypatch.setattr(BlendRun, "_product", _first_product)
            monkeypatch.setattr(AffineMapData, "apply", _first_product_apply)
        want = _loop_prefixes(run, pts)
        assert np.any((want[:17] == 0.0) & np.signbit(want[:17])) == (gemm == "first-product")
        negative_zero = self._negative_zero_products(monkeypatch)
        blocks = self._record(monkeypatch, "_walk_block")
        assert run.walk(pts, range(n + 1)).tobytes() == want.tobytes()
        assert run.walk(pts, [n]).tobytes() == want[-1:].tobytes()
        zero = ~shifts.view(np.int64).any(axis=1)
        mixed = [(k, e) for (k, span, _), e in blocks if e and 0 < zero[k : k + e].sum() < e]
        assert mixed  # some block ran +0.0 and other shifts together
        assert any(negative_zero) == (gemm == "first-product")
