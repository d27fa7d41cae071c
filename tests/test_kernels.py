from __future__ import annotations

import functools
import math

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


# 300 points hold 44,850 pairs, more than one 2^15-pair block.
CASES = [(81, 2), (125, 3), (300, 2), (300, 3)]


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


@pytest.mark.parametrize("block", [kernels._BLOCK_PAIRS, 1000])
@pytest.mark.parametrize("k", [1, 7, 40])
@pytest.mark.parametrize("n,d", [(81, 2), (125, 3), (300, 2)])
def test_stack_matches_double_loop_per_set(n, d, k, block, monkeypatch):
    # (300, 2) sets hold 44,850 pairs, so blocks end inside a set; stacks of
    # 81 or 125 points put several sets in a block, and a block of 1000
    # pairs ends inside every set and at set boundaries.
    monkeypatch.setattr(kernels, "_BLOCK_PAIRS", block)
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
