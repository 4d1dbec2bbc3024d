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


def sq_distances(values: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, k) squared Euclidean distances from each row to each center."""
    return ((values[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)


def pca_basis(values: np.ndarray, out_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Row mean and the top ``out_dim`` principal directions of ``values``.

    At most min(d, n - 1) directions (but at least one) are returned. Signs
    follow a deterministic convention: each direction's largest-magnitude
    entry is positive. Both arrays are read-only.
    """
    mean = values.mean(axis=0)
    out_dim = max(1, min(out_dim, values.shape[1], values.shape[0] - 1))
    _, _, vt = np.linalg.svd(values - mean, full_matrices=False)
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

    Assignment ties go to the lower center index; an emptied cluster is
    re-seeded at the point farthest from its assigned center.
    """
    n = values.shape[0]
    if k > n:
        raise TooFewPoints(f"{k} clusters requested for {n} points")
    best: tuple[np.ndarray, np.ndarray, float] | None = None
    for _ in range(restarts):
        centers = kmeans_pp_init(values, k, rng)
        assign = np.full(n, -1, dtype=np.int64)
        for _ in range(max_iter):
            dist = sq_distances(values, centers)
            new_assign = dist.argmin(axis=1)
            for j in range(k):
                members = new_assign == j
                if members.any():
                    centers[j] = values[members].mean(axis=0)
                else:
                    centers[j] = values[dist.min(axis=1).argmax()]
            if np.array_equal(new_assign, assign):
                break
            assign = new_assign
        dist = sq_distances(values, centers)
        assign = dist.argmin(axis=1)
        inertia = float(dist[np.arange(n), assign].sum())
        if best is None or inertia < best[2]:
            best = (centers, assign, inertia)
    return best
