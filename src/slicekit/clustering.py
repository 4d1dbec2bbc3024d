"""Kernels shared by the mixture and the clustering baseline.

Seeded k-means (the mixture's init refinement and GEORGE's clustering), its
squared-distance kernel, and principal components with a fixed sign.
"""

from __future__ import annotations

import numpy as np

from .errors import TooFewPoints


def kmeans_pp_init(values: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Greedy distance-squared seeding of k centers."""
    n = values.shape[0]
    centers = np.empty((k, values.shape[1]))
    centers[0] = values[rng.integers(n)]
    closest = ((values - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total <= 0:
            centers[j] = values[rng.integers(n)]
        else:
            centers[j] = values[rng.choice(n, p=closest / total)]
        closest = np.minimum(closest, ((values - centers[j]) ** 2).sum(axis=1))
    return centers


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
    return values_sq[:, None] - 2.0 * (values @ centers.T) + (centers**2).sum(axis=1)[None, :]


def update_centers(values: np.ndarray, assign: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """One Lloyd update of the (k, d) centers behind ``dist``'s k columns.

    A center moves to the mean of its members. One weighted ``bincount``
    over (cluster, column) cells adds each cell's entries in row order, as
    ``values[assign == j].mean(axis=0)`` adds them when d >= 2, so the two
    agree bit for bit there (at d = 1 numpy's mean sums pairwise). A center
    without members moves to the point farthest from its assigned center.
    """
    k = dist.shape[1]
    d = values.shape[1]
    counts = np.bincount(assign, minlength=k)
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
    the centers, re-seeding an emptied cluster.
    """
    n = values.shape[0]
    if k > n:
        raise TooFewPoints(f"{k} clusters requested for {n} points")
    values_sq = (values**2).sum(axis=1)
    best: tuple[np.ndarray, np.ndarray, float] | None = None
    for _ in range(restarts):
        centers = kmeans_pp_init(values, k, rng)
        assign = np.full(n, -1, dtype=np.int64)
        for _ in range(max_iter):
            dist = sq_distances(values, centers, values_sq)
            new_assign = dist.argmin(axis=1)
            centers = update_centers(values, new_assign, dist)
            if np.array_equal(new_assign, assign):
                break
            assign = new_assign
        dist = sq_distances(values, centers, values_sq)
        assign = dist.argmin(axis=1)
        inertia = float(dist[np.arange(n), assign].sum())
        if best is None or inertia < best[2]:
            best = (centers, assign, inertia)
    return best
