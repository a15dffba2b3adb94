"""Vectorized Lloyd's update for the k-means codebook builder.

The reference update looped over clusters in Python (one boolean mask +
mean per cluster, and a full point-centroid distance recomputation *inside*
the loop for every empty cluster).  This kernel does one pass, for one
column of points or for a stack of independent columns at once:

* **Scatter means** — per-dimension ``np.bincount(labels, weights=...)``
  accumulates cluster sums (sub-vector length V is small, so d bincounts
  beat ``np.add.at`` by a wide margin); one divide yields the means.  A
  stack of C columns offsets column c's labels by ``c * k``, so its
  clusters are bins ``[c*k, (c+1)*k)`` of the same d bincounts.  Each bin
  still sums its points in row order, so a column's centroids are
  bit-identical whether it is updated alone or in a stack.
* **One-shot empty-cluster reseed** — the point-to-assigned-centroid
  distances are computed once per iteration (hoisted out of the
  per-cluster loop) and the ``e`` empty clusters are reseeded with the
  ``e`` *distinct* farthest points, farthest first.  (The reference gave
  every empty cluster the same single farthest point, leaving duplicates
  to be separated on later iterations.)  Only columns with an empty
  cluster pay for this, one at a time.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .. import obs

#: Above this dimensionality the per-dimension bincount loop loses to a
#: single ``np.add.at`` scatter.
_BINCOUNT_MAX_DIM = 64


def lloyd_update(
    points: np.ndarray,
    labels: np.ndarray,
    k: int,
    centroids: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """One Lloyd iteration: labels -> new centroids.

    Parameters
    ----------
    points: (n, d) data matrix, or a (C, n, d) stack of C columns.
    labels: (n,) current assignment (values in [0, k)); (C, n) for a stack.
    k: number of clusters.
    centroids: (k, d) current centroids; (C, k, d) for a stack.  Used only
        to reseed empty clusters at the points farthest from their
        assigned centroid.

    Returns
    -------
    (new_centroids, counts): the updated (k, d) centroids and the (k,)
    member count of each cluster *before* reseeding; (C, k, d) and (C, k)
    for a stack.  ``kernels.kmeans.updates`` counts one per column.
    """
    points = np.asarray(points)
    labels = np.asarray(labels)
    centroids = np.asarray(centroids)
    single = points.ndim == 2
    if single:
        points, labels, centroids = points[None], labels[None], centroids[None]
    c, n, d = points.shape
    flat = (labels + (np.arange(c) * k)[:, None]).ravel()
    counts = np.bincount(flat, minlength=c * k)

    rows = points.reshape(c * n, d)
    if d <= _BINCOUNT_MAX_DIM:
        sums = np.empty((c * k, d), dtype=np.float64)
        for j in range(d):
            sums[:, j] = np.bincount(flat, weights=rows[:, j], minlength=c * k)
    else:
        sums = np.zeros((c * k, d), dtype=np.float64)
        np.add.at(sums, flat, rows)

    new_centroids = (sums / np.maximum(counts, 1)[:, None]).reshape(c, k, d)
    counts = counts.reshape(c, k)

    reseeds = 0
    for col in np.flatnonzero((counts == 0).any(axis=1)):
        empty = np.flatnonzero(counts[col] == 0)
        # Hoisted: one distance pass per iteration, not one per empty cluster.
        dists = np.sum((points[col] - centroids[col][labels[col]]) ** 2, axis=1)
        take = min(int(empty.size), n)
        far = np.argpartition(dists, n - take)[n - take:]
        far = far[np.argsort(-dists[far], kind="stable")]
        new_centroids[col, empty[:take]] = points[col, far[:take]]
        reseeds += int(empty.size)
    registry = obs.get_registry()
    if reseeds:
        registry.counter("kernels.kmeans.reseeds").inc(reseeds)
    registry.counter("kernels.kmeans.updates").inc(c)
    if single:
        return new_centroids[0], counts[0]
    return new_centroids, counts
