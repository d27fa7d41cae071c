from __future__ import annotations

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
