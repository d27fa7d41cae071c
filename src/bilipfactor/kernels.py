"""The all-pairs ratio sweep behind every sampled distortion certificate.

One NumPy gather kernel over a stack of k point sets of the same size: the
pairs (i, j), i < j, of set 0, then of set 1, ..., are taken in blocks of
whole rows holding at most _BLOCK_PAIRS pairs (or a single longer row), so
the index arrays and the differences of one block stay small while each
block is swept in a few vectorised passes.  A block may end inside a set or
hold the rows of several; each set's extremes are reduced on its own.
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
    ratio, min_img = pairwise_distortions(np.asarray(xs)[None], np.asarray(ys)[None])
    return float(ratio[0]), float(min_img[0])


def pairwise_distortions(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """pairwise_distortion of each set: xs, ys (k, n, d) -> ratios, min image distances (k,)."""
    k, n, d = xs.shape
    best2, min_img2 = np.ones(k), np.full(k, np.inf)
    xt = np.ascontiguousarray(np.reshape(xs, (k * n, d)).T, dtype=float)
    yt = np.ascontiguousarray(np.reshape(ys, (k * n, d)).T, dtype=float)
    # Row r is row i = r % (n-1) of set r // (n-1): the pairs of its point i with i+1..n-1.
    rows = max(0, k * (n - 1))
    row_set, row_i = np.divmod(np.arange(rows), max(1, n - 1))
    row_pairs = n - 1 - row_i
    row_end = np.cumsum(row_pairs)
    row_pt = row_set * n + row_i  # point i of the row's set, in the stacked points
    i0 = 0
    while i0 < rows:
        done = row_end[i0 - 1] if i0 else 0
        i1 = max(i0 + 1, int(np.searchsorted(row_end, done + _BLOCK_PAIRS, side="right")))
        counts = row_pairs[i0:i1]
        row_start = row_end[i0:i1] - counts - done
        ii = np.repeat(row_pt[i0:i1], counts)
        # Pair p of the block is (i, i + 1 + offset of p within row i).
        jj = ii + 1 + np.arange(ii.shape[0]) - np.repeat(row_start, counts)
        # Adding squared differences axis by axis, in order, keeps each sum
        # bit-equal to a plain per-pair loop.
        dx2 = sum((c[jj] - c[ii]) ** 2 for c in xt)
        dy2 = sum((c[jj] - c[ii]) ** 2 for c in yt)
        keep = dx2 > 0.0
        r2 = np.divide(dy2, dx2, out=np.ones_like(dy2), where=keep & (dy2 > 0.0))
        np.maximum(r2, 1.0 / r2, out=r2)
        # The block's sets and the offset of each set's first row in the block.
        sets = row_set[i0:i1]
        first = np.flatnonzero(np.diff(sets, prepend=-1))
        s = sets[first]
        best2[s] = np.maximum(best2[s], np.maximum.reduceat(r2, row_start[first]))
        min_img2[s] = np.minimum(min_img2[s], np.minimum.reduceat(np.where(keep, dy2, np.inf), row_start[first]))
        i0 = i1
    min_img2[~np.isfinite(min_img2)] = 0.0
    return np.sqrt(best2), np.sqrt(min_img2)
