"""Frozen pre-kernel reference implementations.

These are verbatim copies of the numeric paths as they existed *before*
the ``repro.kernels`` layer landed: float64 einsum CCS with no constant
reuse, table lookup with a full ``min()/max()`` bounds scan, and the
per-cluster Python loop of Lloyd's update.  The per-column k-means
(k-means++ seeding through ``Generator.choice``, the bincount Lloyd update
and one ``kmeans`` call per codebook column) is frozen here as it was
before k-means was batched across columns.  They exist so that

* parity property tests can assert the fast kernels produce bit-identical
  indices / allclose outputs against the exact old semantics, and
* ``benchmarks/test_ext_kernel_speed.py`` can measure the speedup of the
  kernel layer against a stable baseline.

Do not optimize this module; it is the fixed point the kernels are
measured against.
"""

from __future__ import annotations

import numpy as np

from .. import obs


def squared_distances_reference(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Pre-kernel distance computation: float64 einsum, no cached constants."""
    cb, ct, v = centroids.shape
    x = np.asarray(x, dtype=np.float64)
    cents = np.asarray(centroids, dtype=np.float64)
    sub = x.reshape(x.shape[0], cb, v)
    cross = np.einsum("ncv,ckv->nck", sub, cents)
    a_sq = np.sum(sub**2, axis=-1)[:, :, None]
    c_sq = np.sum(cents**2, axis=-1)[None, :, :]
    return a_sq - 2.0 * cross + c_sq


def ccs_reference(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Pre-kernel closest-centroid search: float64 upcast + full distances."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("CCS input must be 2-D (N, H)")
    dists = squared_distances_reference(x, centroids)
    return np.argmin(dists, axis=-1).astype(np.int32)


def lut_lookup_reference(indices: np.ndarray, lut: np.ndarray) -> np.ndarray:
    """Pre-kernel lookup: per-call min/max bounds scan + 2-D fancy gather."""
    indices = np.asarray(indices)
    if indices.ndim != 2:
        raise ValueError("indices must be 2-D (N, CB)")
    cb = lut.shape[0]
    if indices.shape[1] != cb:
        raise ValueError(f"indices CB={indices.shape[1]} != LUT CB={cb}")
    if indices.min() < 0 or indices.max() >= lut.shape[1]:
        raise IndexError("centroid index out of LUT range")
    cb_idx = np.arange(cb)[None, :]
    gathered = lut[cb_idx, indices]  # (N, CB, F)
    return gathered.sum(axis=1)


def lloyd_update_reference(
    points: np.ndarray, labels: np.ndarray, k: int, centroids: np.ndarray
) -> np.ndarray:
    """Pre-kernel Lloyd update: Python loop over clusters, distances
    recomputed inside the loop for every empty cluster."""
    new_centroids = centroids.copy()
    for j in range(k):
        members = points[labels == j]
        if len(members):
            new_centroids[j] = members.mean(axis=0)
        else:
            dists = np.sum((points - centroids[labels]) ** 2, axis=1)
            new_centroids[j] = points[np.argmax(dists)]
    return new_centroids


def kmeans_plusplus_reference(
    points: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Per-column k-means++ seeding: one ``rng.choice(p=)`` per centroid."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]), dtype=points.dtype)
    first = rng.integers(0, n)
    centroids[0] = points[first]
    closest_sq = np.sum((points - centroids[0]) ** 2, axis=1)
    for i in range(1, k):
        total = closest_sq.sum()
        if total <= 0.0:
            # All points coincide with chosen centroids; fill uniformly.
            centroids[i:] = points[rng.integers(0, n, size=k - i)]
            break
        probs = closest_sq / total
        idx = rng.choice(n, p=probs)
        centroids[i] = points[idx]
        dist_sq = np.sum((points - centroids[i]) ** 2, axis=1)
        np.minimum(closest_sq, dist_sq, out=closest_sq)
    return centroids


def lloyd_update_column_reference(
    points: np.ndarray, labels: np.ndarray, k: int, centroids: np.ndarray
):
    """One-column bincount Lloyd update with the farthest-first reseed."""
    points = np.asarray(points)
    n, d = points.shape
    counts = np.bincount(labels, minlength=k)

    if d <= 64:
        sums = np.empty((k, d), dtype=np.float64)
        for j in range(d):
            sums[:, j] = np.bincount(labels, weights=points[:, j], minlength=k)
    else:
        sums = np.zeros((k, d), dtype=np.float64)
        np.add.at(sums, labels, points)

    new_centroids = sums / np.maximum(counts, 1)[:, None]

    empty = np.flatnonzero(counts == 0)
    if empty.size:
        dists = np.sum((points - centroids[labels]) ** 2, axis=1)
        take = min(int(empty.size), n)
        far = np.argpartition(dists, n - take)[n - take:]
        far = far[np.argsort(-dists[far], kind="stable")]
        new_centroids[empty[:take]] = points[far[:take]]
        obs.get_registry().counter("kernels.kmeans.reseeds").inc(int(empty.size))

    obs.get_registry().counter("kernels.kmeans.updates").inc()
    return new_centroids, counts


def kmeans_reference(
    points: np.ndarray,
    k: int,
    max_iters: int = 50,
    tol: float = 1e-6,
    rng: np.random.Generator = None,
):
    """Per-column Lloyd's algorithm: (centroids, labels, inertia)."""
    points = np.asarray(points, dtype=np.float64)
    rng = rng or np.random.default_rng()

    def assign(centroids):
        cross = points @ centroids.T
        c_norm = np.sum(centroids**2, axis=1)
        return np.argmin(c_norm[None, :] - 2.0 * cross, axis=1)

    centroids = kmeans_plusplus_reference(points, k, rng)
    labels = assign(centroids)
    for _ in range(max_iters):
        new_centroids, _ = lloyd_update_column_reference(points, labels, k, centroids)
        shift = float(np.max(np.abs(new_centroids - centroids)))
        centroids = new_centroids
        labels = assign(centroids)
        if shift < tol:
            break
    inertia = float(np.sum((points - centroids[labels]) ** 2))
    return centroids, labels, inertia


def codebooks_reference(
    activations: np.ndarray,
    v: int,
    ct: int,
    max_iters: int = 25,
    rng: np.random.Generator = None,
) -> np.ndarray:
    """(CB, CT, V) codebooks from one ``kmeans_reference`` call per column."""
    activations = np.asarray(activations, dtype=np.float64)
    m, h = activations.shape
    rng = rng or np.random.default_rng()
    cb = h // v
    sub = activations.reshape(m, cb, v)
    centroids = np.empty((cb, ct, v), dtype=np.float64)
    for col in range(cb):
        centroids[col], _, _ = kmeans_reference(
            sub[:, col, :], ct, max_iters=max_iters, rng=rng
        )
    return centroids
