"""The all-pairs ratio sweep behind every sampled distortion certificate.

One NumPy row-tile kernel over a stack of k image sets of the same size and
their sources, one source set per image set or one shared by all: rows
[i0, i1) of a run of sets are swept against columns (i0, n) as one broadcast
difference per coordinate, a tile of at most _INNER_PAIRS values (or a single
longer row of one set), and each set's extremes are reduced over its part of
the tile.  A shared source's squared distances are taken once per row band.
The tile's lower triangle repeats pairs; max and min are exact, so a repeat
changes nothing.  Its diagonal, at flat r (cols + 1) - 1 of row r, gets image
distance +inf and ratio 1, so plain reductions leave it out.  A tile with a
zero or a NaN off the diagonal (coincident sources or images) takes the
masked formula instead (_masked), which skips coincident sources: every
result has the bits of a plain double loop over the pairs.  Tiles of 64 KB
stay below glibc's default mmap threshold, so they reuse heap memory instead
of faulting in fresh pages on every tile.
"""

from __future__ import annotations

import numpy as np

# No compiled kernel exists; kept as a constant for callers that record
# which kernel ran.
HAVE_COMPILED = False

# Pairs of the lattice stacks that callers hand to one call (factorization._sweeps).
_BLOCK_PAIRS = 1 << 15
# Values of one tile of the kernel: 2^13 float64 values are 64 KB.
_INNER_PAIRS = 1 << 13


def pairwise_distortion(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    """Return (max pair ratio, min image distance over distinct sources).

    The ratio for a pair is max(|y_i-y_j|/|x_i-x_j|, |x_i-x_j|/|y_i-y_j|);
    pairs with coincident sources are skipped.  A coincident image pair
    yields min_image_distance == 0.0 (the caller decides how to fail).
    A pair whose source and image squared distances both overflow has ratio
    inf/inf, so its set's ratio is NaN; a set whose image distances all
    overflow reads min image distance 0.0.  So a caller tests for NaN first.
    """
    ratio, min_img = pairwise_distortions(np.asarray(xs)[None], np.asarray(ys)[None])
    return float(ratio[0]), float(min_img[0])


def pairwise_distortions(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """pairwise_distortion of each set: xs (k or 1, n, d), ys (k, n, d) -> ratios, min image distances (k,).

    An xs of one set is the source of each of the k image sets.  Other
    shapes raise ValueError.
    """
    if ys.ndim != 3 or xs.shape[1:] != ys.shape[1:] or xs.shape[0] not in (1, ys.shape[0]):
        raise ValueError(f"source stack of shape {xs.shape} does not fit image stack of shape {ys.shape}: "
                         "want (k, n, d) or (1, n, d) against (k, n, d)")
    k, n = ys.shape[:2]
    shared = xs.shape[0] == 1
    best2, min_img2 = np.ones(k), np.full(k, np.inf)
    xt = np.ascontiguousarray(np.moveaxis(xs, 2, 0), dtype=float)  # (d, 1 or k, n)
    yt = np.ascontiguousarray(np.moveaxis(ys, 2, 0), dtype=float)
    i0 = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while k and i0 < n - 1:
            cols = n - 1 - i0
            per = max(1, min(k, _INNER_PAIRS // cols))  # sets of a tile
            i1 = min(n - 1, i0 + max(1, _INNER_PAIRS // (per * cols)))
            band = _squared_distances(xt, slice(0, 1), i0, i1) if shared else None
            for s0 in range(0, k, per):
                s = slice(s0, s0 + per)
                dx2 = band if shared else _squared_distances(xt, s, i0, i1)
                dy2 = _squared_distances(yt, s, i0, i1)
                # Row r of the tile holds the diagonal pair (i0 + r, i0 + r) at flat r (cols + 1) - 1.
                dy2[:, cols :: cols + 1] = np.inf
                r2 = dy2 / dx2
                r2[:, cols :: cols + 1] = 1.0
                hi, lo, img = r2.max(axis=1), r2.min(axis=1), dy2.min(axis=1)
                # A dx2 of 0 or NaN off the diagonal makes hi inf or NaN; a dy2 of 0 or NaN shows in img.
                if not (np.isfinite(hi).all() and (img > 0.0).all()):
                    hi, lo, img = _masked(dx2, dy2)
                # max(r2, 1 / r2) of every pair: a correctly rounded reciprocal is monotone.
                best2[s] = np.maximum(best2[s], np.maximum(hi, 1.0 / lo))
                min_img2[s] = np.minimum(min_img2[s], img)
            i0 = i1
    min_img2[~np.isfinite(min_img2)] = 0.0
    return np.sqrt(best2), np.sqrt(min_img2)


def _masked(dx2: np.ndarray, dy2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's max r2, min r2 and min dy2 over its pairs of distinct sources, where a
    coincident image pair counts as r2 = 1: the exact fallback for a tile with a zero or a
    NaN off its diagonal.  A diagonal dx2 is 0 (or NaN), so keep leaves it out."""
    keep = dx2 > 0.0
    r2 = np.divide(dy2, dx2, out=np.ones_like(dy2), where=keep & (dy2 > 0.0))
    return r2.max(axis=1), r2.min(axis=1), np.min(dy2, axis=1, where=keep, initial=np.inf)


def _squared_distances(ct: np.ndarray, s: slice, i0: int, i1: int) -> np.ndarray:
    """|p_i - p_j|^2 of rows i in [i0, i1) and columns j in (i0, n) of sets s of ct (d, k, n),
    one row per set; squares are added axis by axis, in order, as a plain per-pair loop does."""
    out = None
    for c in ct:
        t = c[s, i0:i1, None] - c[s, None, i0 + 1 :]
        t *= t
        out = t if out is None else np.add(out, t, out=out)
    return out.reshape(out.shape[0], -1)
