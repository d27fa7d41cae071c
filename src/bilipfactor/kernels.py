"""The all-pairs ratio sweep behind every sampled distortion certificate.

One NumPy row-tile kernel over a stack of k point sets of the same size: rows
[i0, i1) of a run of sets are swept against columns (i0, n) as one broadcast
difference per coordinate, a tile of at most _INNER_PAIRS values (or a single
longer row of one set), and each set's extremes are reduced over its part of
the tile.  The tile's lower triangle repeats pairs and holds the diagonal;
max and min are exact, so a repeat changes nothing, and a diagonal entry has
coincident sources, which are skipped.  Tiles of 64 KB stay below glibc's
default mmap threshold, so they reuse heap memory instead of faulting in
fresh pages on every tile.
"""

from __future__ import annotations

import numpy as np

# No compiled kernel exists; kept as a constant for callers that record
# which kernel ran.
HAVE_COMPILED = False

# Pairs of the lattice stacks that callers hand to one call (factorization._sweeps).
_BLOCK_PAIRS = 1 << 15
# Pairs of one block of the kernel: 2^13 float64 or int64 values are 64 KB.
_INNER_PAIRS = 1 << 13


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
    k, n = xs.shape[:2]
    best2, min_img2 = np.ones(k), np.full(k, np.inf)
    xt = np.ascontiguousarray(np.moveaxis(xs, 2, 0), dtype=float)  # (d, k, n)
    yt = np.ascontiguousarray(np.moveaxis(ys, 2, 0), dtype=float)
    i0 = 0
    while i0 < n - 1:
        cols = n - 1 - i0
        per = max(1, min(k, _INNER_PAIRS // cols))  # sets of a tile; at least 1 when k == 0
        i1 = min(n - 1, i0 + max(1, _INNER_PAIRS // (per * cols)))
        for s0 in range(0, k, per):
            s = slice(s0, s0 + per)
            dx2, dy2 = _squared_distances(xt, s, i0, i1), _squared_distances(yt, s, i0, i1)
            keep = dx2 > 0.0
            r2 = np.divide(dy2, dx2, out=np.ones_like(dy2), where=keep & (dy2 > 0.0))
            # max(r2, 1 / r2) of every pair: a correctly rounded reciprocal is monotone.
            best2[s] = np.maximum(best2[s], np.maximum(r2.max(axis=1), 1.0 / r2.min(axis=1)))
            min_img2[s] = np.minimum(min_img2[s], np.min(dy2, axis=1, where=keep, initial=np.inf))
        i0 = i1
    min_img2[~np.isfinite(min_img2)] = 0.0
    return np.sqrt(best2), np.sqrt(min_img2)


def _squared_distances(ct: np.ndarray, s: slice, i0: int, i1: int) -> np.ndarray:
    """|p_i - p_j|^2 of rows i in [i0, i1) and columns j in (i0, n) of sets s of ct (d, k, n),
    one row per set; squares are added axis by axis, in order, as a plain per-pair loop does."""
    out = None
    for c in ct:
        t = c[s, i0:i1, None] - c[s, None, i0 + 1 :]
        t *= t
        out = t if out is None else np.add(out, t, out=out)
    return out.reshape(out.shape[0], -1)
