"""The all-pairs ratio sweep behind every sampled distortion certificate.

One NumPy gather kernel: the pairs (i, j), i < j, are taken in blocks of
whole rows holding at most _BLOCK_PAIRS pairs (or a single longer row), so
the index arrays and the differences of one block stay small while each
block is swept in a few vectorised passes.
"""

from __future__ import annotations

import numpy as np

# No compiled kernel exists; kept as a constant for callers that record
# which kernel ran.
HAVE_COMPILED = False

_BLOCK_PAIRS = 1 << 15


def pairwise_distortion(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    """Return (max pair ratio, min image distance over distinct sources).

    The ratio for a pair is max(|y_i-y_j|/|x_i-x_j|, |x_i-x_j|/|y_i-y_j|);
    pairs with coincident sources are skipped.  A coincident image pair
    yields min_image_distance == 0.0 (the caller decides how to fail).
    """
    xt = np.ascontiguousarray(np.transpose(xs), dtype=float)
    yt = np.ascontiguousarray(np.transpose(ys), dtype=float)
    n = xt.shape[1]
    best2 = 1.0
    min_img2 = np.inf
    row_pairs = np.arange(n - 1, 0, -1)  # row i holds the pairs (i, i+1..n-1)
    row_end = np.cumsum(row_pairs)
    i0 = 0
    while i0 < n - 1:
        done = row_end[i0 - 1] if i0 else 0
        i1 = max(i0 + 1, int(np.searchsorted(row_end, done + _BLOCK_PAIRS, side="right")))
        counts = row_pairs[i0:i1]
        ii = np.repeat(np.arange(i0, i1), counts)
        # Pair k of the block is (i, i + 1 + offset of k within row i).
        row_start = np.repeat(row_end[i0:i1] - counts - done, counts)
        jj = ii + 1 + np.arange(ii.shape[0]) - row_start
        # Adding squared differences axis by axis, in order, keeps each sum
        # bit-equal to a plain per-pair loop.
        dx2 = sum((c[jj] - c[ii]) ** 2 for c in xt)
        dy2 = sum((c[jj] - c[ii]) ** 2 for c in yt)
        i0 = i1
        keep = dx2 > 0.0
        if not np.any(keep):
            continue
        dx2 = dx2[keep]
        dy2 = dy2[keep]
        min_img2 = min(min_img2, dy2.min())
        pos = dy2 > 0.0
        if np.any(pos):
            r2 = dy2[pos] / dx2[pos]
            np.maximum(r2, 1.0 / r2, out=r2)
            best2 = max(best2, r2.max())
    if not np.isfinite(min_img2):
        min_img2 = 0.0
    return float(np.sqrt(best2)), float(np.sqrt(min_img2))
