from __future__ import annotations

import functools
import math
import re

import numpy as np
import pytest

from bilipfactor import kernels


def reference_pairwise(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    """Plain double loop over the pairs i < j, accumulating coordinates in order."""
    n, d = xs.shape
    best2 = 1.0
    min_img2 = math.inf
    for i in range(n - 1):
        for j in range(i + 1, n):
            dx2 = 0.0
            dy2 = 0.0
            for k in range(d):
                diff = float(xs[j, k] - xs[i, k])
                dx2 += diff * diff
                diff = float(ys[j, k] - ys[i, k])
                dy2 += diff * diff
            if dx2 == 0.0:
                continue
            min_img2 = min(min_img2, dy2)
            if dy2 == 0.0:
                continue
            ratio2 = dy2 / dx2
            if ratio2 < 1.0:
                ratio2 = 1.0 / ratio2
            best2 = max(best2, ratio2)
    if min_img2 == math.inf:
        min_img2 = 0.0
    return math.sqrt(best2), math.sqrt(min_img2)


def sample(n: int, d: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-1.0, 1.0, size=(n, d))
    ys = xs + 0.2 * np.sin(3.0 * xs[:, ::-1])
    return xs, ys


# 300 points hold 44,850 pairs, more than the 2^15-pair stacks the certificate
# sweeps hand the kernel (kernels._BLOCK_PAIRS), and some 300-value rows make
# a row tile of their own (kernels._INNER_PAIRS values at most).  162 points in
# 3-D and 4-D are the shapes of sphere.spherical_distortion's lifted sweeps:
# 161 samples and infinity, lifted from the plane or from 3-space.
CASES = [(81, 2), (125, 3), (300, 2), (300, 3), (162, 3), (162, 4)]


@pytest.mark.parametrize("n,d", CASES)
def test_matches_double_loop(n, d):
    xs, ys = sample(n, d, seed=n + d)
    assert kernels.pairwise_distortion(xs, ys) == reference_pairwise(xs, ys)


@pytest.mark.parametrize("n,d", CASES)
def test_duplicated_sources_are_skipped(n, d):
    xs, ys = sample(n, d, seed=7 * n + d)
    # The duplicate of point 2 is sent far away: counting that pair would make the ratio infinite.
    xs[n - 3] = xs[2]
    ys[n - 3] = ys[2] + 5.0
    ratio, min_img = kernels.pairwise_distortion(xs, ys)
    assert math.isfinite(ratio)
    assert (ratio, min_img) == reference_pairwise(xs, ys)


@pytest.mark.parametrize("n,d", CASES)
def test_duplicated_images_give_zero_min(n, d):
    xs, ys = sample(n, d, seed=11 * n + d)
    ys[n - 1] = ys[1]
    ratio, min_img = kernels.pairwise_distortion(xs, ys)
    assert min_img == 0.0
    assert (ratio, min_img) == reference_pairwise(xs, ys)


def test_fewer_than_two_points():
    for n in (0, 1):
        assert kernels.pairwise_distortion(np.zeros((n, 2)), np.zeros((n, 2))) == (1.0, 0.0)


def test_wrapper_returns_a_float_pair():
    xs, ys = sample(81, 2, seed=3)
    ratio, min_img = kernels.pairwise_distortions(xs[None], ys[None])
    got = kernels.pairwise_distortion(xs, ys)
    assert type(got) is tuple and [type(v) for v in got] == [float, float]
    assert got == (ratio[0], min_img[0]) == reference_pairwise(xs, ys)


POOL = 7  # distinct point sets per shape; stack entry i is set (3 i) % POOL, so neighbours differ


@functools.lru_cache(maxsize=None)
def pooled(n: int, d: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Pool set j: duplicated sources (j = 1), a coincident image pair (j = 2),
    every source coincident (j = 3), or plain."""
    xs, ys = sample(n, d, seed=1000 * n + 10 * d + j)
    if j == 1:
        xs[n - 3] = xs[2]
        ys[n - 3] = ys[2] + 5.0
    elif j == 2:
        ys[n - 1] = ys[1]
    elif j == 3:
        xs[:] = xs[0]
    return xs, ys


@functools.lru_cache(maxsize=None)
def pooled_reference(n: int, d: int, j: int) -> tuple[float, float]:
    return reference_pairwise(*pooled(n, d, j))


@pytest.mark.parametrize("block", [kernels._BLOCK_PAIRS, kernels._INNER_PAIRS, 1000, 1])
@pytest.mark.parametrize("k", [1, 7, 40])
@pytest.mark.parametrize("n,d", [(81, 2), (125, 3), (300, 2)])
def test_stack_matches_double_loop_per_set(n, d, k, block, monkeypatch):
    # The kernel's tile bound is set to the sweeps' stack size, to its own
    # default, to 1000 values and to 1.  A tile holds rows of a run of sets
    # against the columns after its first row: at the stack size whole
    # stacks of 81- and 125-point sets fit a few tiles; at the default and
    # at 1000, tiles take fewer rows or split a stack of 40 (300-point rows
    # hold 299 values); at 1 every tile is a single row of a single set.
    monkeypatch.setattr(kernels, "_INNER_PAIRS", block)
    sets = [(3 * i) % POOL for i in range(k)]
    xs = np.stack([pooled(n, d, j)[0] for j in sets])
    ys = np.stack([pooled(n, d, j)[1] for j in sets])
    ratio, min_img = kernels.pairwise_distortions(xs, ys)
    assert ratio.shape == min_img.shape == (k,)
    got = list(zip(ratio.tolist(), min_img.tolist()))
    assert got == [pooled_reference(n, d, j) for j in sets]
    if k > 3:
        assert got[1] == (1.0, 0.0)  # set 3: no pair of distinct sources
        assert got[3][1] == 0.0  # set 2: coincident images


def test_empty_and_single_point_stacks():
    for n in (0, 1):
        ratio, min_img = kernels.pairwise_distortions(np.zeros((3, n, 2)), np.zeros((3, n, 2)))
        assert ratio.tolist() == [1.0] * 3 and min_img.tolist() == [0.0] * 3
    for n in (0, 1, 2, 81):  # no set: two empty arrays, whatever the set size
        ratio, min_img = kernels.pairwise_distortions(np.zeros((0, n, 2)), np.zeros((0, n, 2)))
        assert ratio.shape == min_img.shape == (0,)


SHARED_POOL = 5  # image sets of a shared source; stack entry i is image set (3 i) % SHARED_POOL


@functools.lru_cache(maxsize=None)
def shared_source(n: int, d: int, kind: str) -> np.ndarray:
    """A plain source, one with point n - 3 a duplicate of point 2, or one point n times."""
    xs = sample(n, d, seed=2000 * n + d)[0]
    if kind == "duplicate":
        xs[n - 3] = xs[2]
    elif kind == "coincident":
        xs[:] = xs[0]
    return xs


@functools.lru_cache(maxsize=None)
def shared_images(n: int, d: int, j: int) -> np.ndarray:
    """Image set j of the plain shared source; set 2 has a coincident image pair."""
    xs = shared_source(n, d, "plain")
    ys = xs + 0.05 * (j + 1) * np.sin(3.0 * xs[:, ::-1] + j)
    if j == 2:
        ys[n - 1] = ys[1]
    return ys


@functools.lru_cache(maxsize=None)
def shared_reference(n: int, d: int, kind: str, j: int) -> tuple[float, float]:
    return reference_pairwise(shared_source(n, d, kind), shared_images(n, d, j))


def shared_stack(n: int, d: int, k: int) -> tuple[list[int], np.ndarray]:
    sets = [(3 * i) % SHARED_POOL for i in range(k)]
    return sets, np.stack([shared_images(n, d, j) for j in sets])


@pytest.mark.parametrize("block", [kernels._BLOCK_PAIRS, kernels._INNER_PAIRS, 1000, 1])
@pytest.mark.parametrize("k", [1, 7, 40])
@pytest.mark.parametrize("n,d", [(81, 2), (125, 3), (300, 2)])
def test_shared_source_matches_double_loop_per_set(n, d, k, block, monkeypatch):
    # One source set (1, n, d) against k image sets, at the tile bounds of
    # test_stack_matches_double_loop_per_set.  Image set 2's coincident pair
    # sends its tiles through the masked fallback; the duplicated source
    # sends the tiles of the pair (2, n - 3), and the coincident source every
    # tile, through it for all the sets of the tile.
    monkeypatch.setattr(kernels, "_INNER_PAIRS", block)
    sets, ys = shared_stack(n, d, k)
    for kind in ("plain", "duplicate", "coincident"):
        ratio, min_img = kernels.pairwise_distortions(shared_source(n, d, kind)[None], ys)
        assert ratio.shape == min_img.shape == (k,)
        got = list(zip(ratio.tolist(), min_img.tolist()))
        assert got == [shared_reference(n, d, kind, j) for j in sets]
        if kind == "coincident":
            assert set(got) == {(1.0, 0.0)}
        else:
            assert all(math.isfinite(r) for r in ratio.tolist())
            assert [m == 0.0 for m in min_img.tolist()] == [j == 2 for j in sets]


def test_fallback_only_for_tiles_that_need_it(monkeypatch):
    """The masked formula runs on exactly the tiles with a zero or a NaN off the diagonal."""
    n, d, k = 81, 2, 7
    _, ys = shared_stack(n, d, k)
    plain = np.delete(ys, [i for i in range(k) if (3 * i) % SHARED_POOL == 2], axis=0)
    masked, tiles, fallbacks = kernels._masked, [], []
    real_squared = kernels._squared_distances

    def squared(ct, s, i0, i1):
        out = real_squared(ct, s, i0, i1)
        tiles.append(out.shape)
        return out

    def spy(dx2, dy2):
        fallbacks.append(dy2.shape)
        return masked(dx2, dy2)

    monkeypatch.setattr(kernels, "_squared_distances", squared)
    monkeypatch.setattr(kernels, "_masked", spy)
    # a stacked source: two _squared_distances calls a tile, source first
    kernels.pairwise_distortions(np.broadcast_to(shared_source(n, d, "plain"), plain.shape), plain)
    stacked_tiles = tiles[1::2]
    assert fallbacks == []
    del tiles[:]
    kernels.pairwise_distortions(shared_source(n, d, "plain")[None], ys)
    assert 0 < len(fallbacks) < len(tiles)
    del tiles[:], fallbacks[:]
    kernels.pairwise_distortions(shared_source(n, d, "coincident")[None], plain)
    assert fallbacks == stacked_tiles
    fallbacks.clear()
    kernels.pairwise_distortions(shared_source(n, d, "duplicate")[None], plain)
    assert 0 < len(fallbacks) < len(stacked_tiles)


@pytest.mark.parametrize("xs_shape,ys_shape", [
    ((2, 5, 2), (3, 5, 2)),  # neither one source set nor one per image set
    ((3, 6, 2), (3, 5, 2)),  # set sizes differ
    ((1, 5, 3), (3, 5, 2)),  # dimensions differ
    ((5, 2), (3, 5, 2)),  # a set, not a stack
    ((3, 5, 2), (5, 2)),
])
def test_mismatched_shapes_refused(xs_shape, ys_shape):
    with pytest.raises(ValueError, match=re.escape(f"{xs_shape}") + ".*" + re.escape(f"{ys_shape}")):
        kernels.pairwise_distortions(np.zeros(xs_shape), np.zeros(ys_shape))
