"""The k-means kernel that clustering used before its exact-bits rewrite.

Kept as a test oracle: on every input the library's ``kmeans`` must return
the same centers, assignments and inertia as this one, bit for bit, and leave
its generator in the same state. The seeding draw here is numpy's
``Generator.choice``, which the library replaces with the same inverse-CDF
draw written out.
"""

import numpy as np

from slicekit.errors import TooFewPoints


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
    """(n, k) squared Euclidean distances from each row to each center."""
    if values_sq is None:
        values_sq = (values**2).sum(axis=1)
    return values_sq[:, None] - 2.0 * (values @ centers.T) + (centers**2).sum(axis=1)[None, :]


def update_centers(values: np.ndarray, assign: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """One Lloyd update of the (k, d) centers behind ``dist``'s k columns."""
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


def kmeans(
    values: np.ndarray,
    k: int,
    rng: np.random.Generator,
    restarts: int = 10,
    max_iter: int = 50,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Seeded Lloyd iterations; returns the best (centers, assignments, inertia)."""
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
