"""Kernels shared by the mixture and the clustering baseline.

Seeded k-means (the mixture's init refinement and GEORGE's clustering), its
squared-distance kernel, and principal components with a fixed sign.

k-means keeps the bits of the plain numpy expressions it is written against
(``((values - c) ** 2).sum(axis=1)``, ``rng.choice(n, p=...)``, a per-cluster
mean) with fewer, cheaper numpy calls. It relies on three facts of numpy:

- ``sum(axis=1)`` adds a row shorter than 8 entries left to right (longer
  rows of a C-ordered array are summed pairwise), so a short row's sum is a
  left-to-right loop over its columns;
- ``bincount`` with weights adds each bin's weights in row order, whether
  the bins are (cluster, column) cells or one column's clusters;
- ``Generator.choice(n, p=p)`` draws ``cdf = p.cumsum(); cdf /= cdf[-1]``
  and ``cdf.searchsorted(rng.random(), side="right")``, which is written out
  here so that the draw is this module's own.
"""

from __future__ import annotations

import numpy as np

from .errors import TooFewPoints

# numpy adds a row shorter than this left to right (see the module docstring).
_SHORT_ROW = 8
# Below this width one bincount per column beats one over (cluster, column)
# cells: at n = 400-2500 and k = 6-13 it is 1.3-3x faster for d <= 4, even
# at d = 6 and slower from d = 8 (1.6x slower at d = 32).
_COLUMN_SUMS_BELOW = 6


def _row_sq_distances(
    values: np.ndarray, center: np.ndarray, scratch: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """``((values - center) ** 2).sum(axis=1)`` into ``out``, bit for bit.

    ``scratch`` is a float buffer shaped like ``values`` that the caller
    reuses across centers.
    """
    np.subtract(values, center, out=scratch)
    np.square(scratch, out=scratch)
    if scratch.shape[1] >= _SHORT_ROW:
        return scratch.sum(axis=1, out=out)
    out[:] = scratch[:, 0]
    for j in range(1, scratch.shape[1]):
        out += scratch[:, j]
    return out


def kmeans_pp_init(values: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Greedy distance-squared seeding of k centers.

    Each center after the first is row i with probability proportional to
    its squared distance from the nearest center so far, drawn by inverse
    CDF from one ``rng.random()``; once every row sits on a center the draw
    is ``rng.integers(n)``.
    """
    n = values.shape[0]
    centers = np.empty((k, values.shape[1]))
    scratch = np.empty_like(values, dtype=np.float64)
    closest = np.empty(n)
    step = np.empty(n)
    centers[0] = values[rng.integers(n)]
    _row_sq_distances(values, centers[0], scratch, closest)
    for j in range(1, k):
        total = closest.sum()
        if total <= 0:
            centers[j] = values[rng.integers(n)]
        elif total < np.inf:
            cdf = (closest / total).cumsum()
            cdf /= cdf[-1]
            centers[j] = values[cdf.searchsorted(rng.random(), side="right")]
        else:  # an overflowed or NaN distance; rng.choice raised ValueError here
            raise ValueError(f"k-means++ squared distances sum to {total}")
        np.minimum(closest, _row_sq_distances(values, centers[j], scratch, step), out=closest)
    return centers


def _expanded_sq_distances(
    values: np.ndarray, centers: np.ndarray, values_sq: np.ndarray
) -> np.ndarray:
    """|x|^2 - 2 x.c + |c|^2 with ``values_sq`` broadcast to (n, k).

    Each in-place step rounds as the out-of-place expression does
    (a + (-2 g) is a - 2 g exactly), so the bits do not depend on which is
    used.
    """
    dist = values @ centers.T
    dist *= -2.0
    dist += values_sq
    dist += (centers**2).sum(axis=1)
    return dist


def sq_distances(
    values: np.ndarray, centers: np.ndarray, values_sq: np.ndarray | None = None
) -> np.ndarray:
    """(n, k) squared Euclidean distances from each row to each center.

    Expanded quadratic |x|^2 - 2 x.c + |c|^2 with one matrix product, so
    entries differ from the direct sum of (x - c)^2 by rounding and may dip
    below 0 by as much. ``values_sq`` holds the rows' |x|^2 when the caller
    reuses them across many sets of centers.
    """
    if values_sq is None:
        values_sq = (values**2).sum(axis=1)
    return _expanded_sq_distances(values, centers, values_sq[:, None])


def update_centers(values: np.ndarray, assign: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """One Lloyd update of the (k, d) centers behind ``dist``'s k columns.

    A center moves to the mean of its members. Every sum is a weighted
    ``bincount``, which adds each bin's entries in row order, as
    ``values[assign == j].mean(axis=0)`` adds them when d >= 2, so the two
    agree bit for bit there (at d = 1 numpy's mean sums pairwise). Narrow
    rows take one ``bincount`` per column over the clusters; wide ones one
    over (cluster, column) cells. Both add in the same order, so the choice
    between them changes the speed, never the bits. A center without
    members moves to the point farthest from its assigned center.
    """
    k = dist.shape[1]
    d = values.shape[1]
    counts = np.bincount(assign, minlength=k)
    if d < _COLUMN_SUMS_BELOW:
        sums = np.empty((k, d))
        for j in range(d):
            sums[:, j] = np.bincount(assign, weights=values[:, j], minlength=k)
    else:
        cells = (assign[:, None] * d + np.arange(d)).ravel()
        sums = np.bincount(cells, weights=values.ravel(), minlength=k * d).reshape(k, d)
    centers = sums / np.maximum(counts, 1)[:, None]
    empty = counts == 0
    if empty.any():
        centers[empty] = values[dist.min(axis=1).argmax()]
    return centers


def pca_basis(values: np.ndarray, out_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Row mean and the top ``out_dim`` principal directions of ``values``.

    At most min(d, n - 1) directions (but at least one) are returned. Signs
    follow a deterministic convention: each direction's largest-magnitude
    entry is positive. Both arrays are read-only.
    """
    mean = values.mean(axis=0)
    n, d = values.shape
    out_dim = max(1, min(out_dim, d, n - 1))
    centered = values - mean
    # Reference LAPACK's and OpenBLAS's gesdd factor a tall matrix through
    # QR themselves, so the SVD of R has the same vt without forming the
    # n x d U. They take that QR only above about 11d/6 rows; below 2d the
    # direct SVD keeps the bits. Other LAPACKs (MKL, Accelerate) need not
    # take that route, so there the two paths may differ in the last bits.
    factor = np.linalg.qr(centered, mode="r") if n >= 2 * d else centered
    _, _, vt = np.linalg.svd(factor, full_matrices=False)
    basis = vt[:out_dim]
    anchors = np.argmax(np.abs(basis), axis=1)
    signs = np.sign(basis[np.arange(basis.shape[0]), anchors])
    signs[signs == 0] = 1.0
    basis = basis * signs[:, None]
    mean.setflags(write=False)
    basis.setflags(write=False)
    return mean, basis


def kmeans(
    values: np.ndarray,
    k: int,
    rng: np.random.Generator,
    restarts: int = 10,
    max_iter: int = 50,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Seeded Lloyd iterations; returns the best (centers, assignments, inertia).

    Assignments are the argmin of ``sq_distances``, so ties on those
    rounded distances go to the lower center index; ``update_centers`` moves
    the centers, re-seeding an emptied cluster. The rows' |x|^2 are tiled
    to (n, k) once per call: adding a tiled array is cheaper than
    broadcasting a column, and gives the same bits.
    """
    if k < 1:
        raise ValueError(f"kmeans needs at least 1 cluster, got k={k}")
    if restarts < 1:
        raise ValueError(f"kmeans needs at least 1 restart, got restarts={restarts}")
    n = values.shape[0]
    if k > n:
        raise TooFewPoints(f"{k} clusters requested for {n} points")
    values_sq = np.tile((values**2).sum(axis=1)[:, None], (1, k))
    rows = np.arange(n)
    best: tuple[np.ndarray, np.ndarray, float] | None = None
    for _ in range(restarts):
        centers = kmeans_pp_init(values, k, rng)
        assign = np.full(n, -1, dtype=np.int64)
        for _ in range(max_iter):
            dist = _expanded_sq_distances(values, centers, values_sq)
            new_assign = dist.argmin(axis=1)
            centers = update_centers(values, new_assign, dist)
            if (new_assign == assign).all():
                break
            assign = new_assign
        dist = _expanded_sq_distances(values, centers, values_sq)
        assign = dist.argmin(axis=1)
        inertia = float(dist[rows, assign].sum())
        if best is None or inertia < best[2]:
            best = (centers, assign, inertia)
    return best
