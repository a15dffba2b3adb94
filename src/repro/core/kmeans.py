"""K-means clustering with k-means++ seeding.

Used for codebook initialization in LUT-NN conversion (paper Section 3.1,
step 1): the activation sub-vectors of each column are clustered into ``CT``
centroids.  Implemented from scratch on numpy (Lloyd's algorithm).

One batched routine clusters a stack of independent columns: it seeds and
runs Lloyd for a chunk of C columns at once on a contiguous (C, M, V)
array, and :func:`kmeans` is its one-column case.  Every column gets the
centroids, labels and rng draws it would get clustered alone, in column
order:

* **Draws.**  k-means++ draws ``integers(0, M)`` for the first centroid,
  then one double per further centroid, and picks the first index whose
  normalized D² cdf exceeds that double (what ``Generator.choice(p=)``
  does with the same draw).  A chunk draws each column's ``integers(0, M)``
  and ``random(k - 1)`` up front, in column order.
* **Degenerate columns.**  A column whose D² total reaches 0 before its
  k-th centroid (fewer distinct rows than k) fills its remaining
  centroids with ``integers(0, M, size=...)``, which shifts every later
  column's draws.  Seeding keeps only the columns before the first such
  column; the bit-generator state saved before the chunk's draws is
  restored, the kept columns' draws are replayed, and the degenerate
  column takes its fill.  The next chunk starts after it.
* **Convergence.**  A column leaves the Lloyd loop after the iteration
  whose centroid shift is below ``tol``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..kernels import lloyd_update

#: Byte budget of one chunk's (C, M, k) float64 assignment scores, the
#: largest temporaries of a Lloyd step; a chunk holds
#: ``_CHUNK_BYTES // (M * k * 8)`` columns (32 at M=256, k=16).  A sweep
#: over lut-prefill's activation sets found 512 KiB to 2 MiB alike, and
#: 128 KiB (4 columns) 1.5x slower.
_CHUNK_BYTES = 1024 * 1024


def _seed_chunk(
    points: np.ndarray, k: int, rng: np.random.Generator
) -> Tuple[np.ndarray, int]:
    """k-means++ seeds for the leading columns of a (C, M, d) stack.

    Returns ``(centroids, c)``: the (c, k, d) seeds of columns ``[0, c)``,
    with ``rng`` advanced past exactly their draws.  ``c`` is less than C
    only when column ``c - 1`` is degenerate (see the module docstring).
    """
    n_cols, m, _ = points.shape
    state = rng.bit_generator.state
    firsts = np.empty(n_cols, dtype=np.intp)
    uniforms = np.empty((n_cols, k - 1))
    for col in range(n_cols):
        firsts[col] = rng.integers(0, m)
        uniforms[col] = rng.random(k - 1)

    cols = np.arange(n_cols)
    centroids = np.empty((n_cols, k, points.shape[2]), dtype=points.dtype)
    centroids[:, 0] = points[cols, firsts]
    closest_sq = np.sum((points - centroids[:, None, 0]) ** 2, axis=2)
    live = n_cols  # columns [0, live) are still seeded from the batch draws
    degenerate = None  # (column, step) of the first degenerate column
    for i in range(1, k):
        total = closest_sq[:live].sum(axis=1)
        stop = np.flatnonzero(total <= 0.0)
        if stop.size:
            live = int(stop[0])
            degenerate = (live, i)
        if not np.isfinite(total[:live]).all():
            raise ValueError("k-means++ squared distances are not finite "
                             "(non-finite points or float64 overflow)")
        if live == 0:
            break
        # choice(p=) takes p as float64, then cdf = cumsum(p) / cumsum(p)[-1].
        cdf = np.cumsum(closest_sq[:live] / total[:live, None], axis=1,
                        dtype=np.float64)
        cdf /= cdf[:, -1:]
        # searchsorted(cdf, u, side="right"), exact since cdf never decreases.
        picks = np.count_nonzero(cdf <= uniforms[:live, i - 1, None], axis=1)
        centroids[:live, i] = points[cols[:live], picks]
        dist_sq = np.sum((points[:live] - centroids[:live, None, i]) ** 2, axis=2)
        np.minimum(closest_sq[:live], dist_sq, out=closest_sq[:live])
    if degenerate is None:
        return centroids, n_cols

    col, i = degenerate
    rng.bit_generator.state = state
    for _ in range(col):
        rng.integers(0, m)
        rng.random(k - 1)
    rng.integers(0, m)
    rng.random(i - 1)
    # All points coincide with chosen centroids; fill uniformly.
    centroids[col, i:] = points[col, rng.integers(0, m, size=k - i)]
    return centroids[:col + 1], col + 1


def _lloyd(
    points: np.ndarray, centroids: np.ndarray, max_iters: int, tol: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Lloyd's iterations on a (C, M, d) stack from (C, k, d) seeds.

    Returns the final centroids and the labels they assign.
    """
    k = centroids.shape[1]
    labels = assign(points, centroids)
    active = np.arange(points.shape[0])
    pts, cents, labs = points, centroids, labels
    for _ in range(max_iters):
        new_cents, _ = lloyd_update(pts, labs, k, cents)
        shift = np.max(np.abs(new_cents - cents), axis=(1, 2))
        cents = new_cents
        labs = assign(pts, cents)
        centroids[active] = cents
        labels[active] = labs
        going = ~(shift < tol)  # a column stops where its own loop would
        if not going.any():
            break
        if not going.all():
            active = active[going]
            pts, cents, labs = pts[going], cents[going], labs[going]
    return centroids, labels


def kmeans_plusplus_init(
    points: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Choose ``k`` initial centroids via k-means++ (D² sampling)."""
    points = np.asarray(points)
    return _seed_chunk(points[None], k, rng)[0][0]


def assign(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of the nearest centroid (squared L2) for each point.

    Takes (n, d) points and (k, d) centroids, or (C, n, d) and (C, k, d)
    stacks that are assigned column by column.
    """
    # ||p - c||^2 = ||p||^2 - 2 p.c + ||c||^2 ; ||p||^2 constant per row.
    # -2 p.c + ||c||^2 equals ||c||^2 - 2 p.c bit for bit (IEEE addition
    # commutes and the scale by -2 is exact); in place, the broadcast add
    # runs along the contiguous score rows.
    scores = points @ np.swapaxes(centroids, -1, -2)
    scores *= -2.0
    scores += np.sum(centroids**2, axis=-1)[..., None, :]
    return np.argmin(scores, axis=-1)


def kmeans_columns(
    columns: np.ndarray,
    k: int,
    max_iters: int = 50,
    tol: float = 1e-6,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lloyd's algorithm on each of C independent columns.

    Parameters
    ----------
    columns: (C, n, d) stack; column ``c`` is the (n, d) data matrix
        ``columns[c]``.
    k: clusters per column; must not exceed ``n``.

    Returns
    -------
    centroids: (C, k, d) cluster centers.
    labels: (C, n) assignment of each point.
    inertia: (C,) final sum of squared distances per column.

    Each column's results, and the state ``rng`` is left in, equal those
    of calling :func:`kmeans` on the columns one after another.
    """
    columns = np.asarray(columns, dtype=np.float64)
    if columns.ndim != 3:
        raise ValueError("columns must be a 3-D (C, n, d) array")
    n_cols, n, d = columns.shape
    if k <= 0:
        raise ValueError("k must be positive")
    if n < k:
        raise ValueError(f"need at least k={k} points, got {n}")
    # min/max propagate NaN and expose inf without an (n_cols, n, d) mask.
    if columns.size and not np.isfinite([columns.min(), columns.max()]).all():
        raise ValueError("points must be finite (got NaN or inf)")
    rng = rng or np.random.default_rng()

    centroids = np.empty((n_cols, k, d))
    labels = np.empty((n_cols, n), dtype=np.intp)
    inertia = np.empty(n_cols)
    chunk = max(1, _CHUNK_BYTES // (n * k * 8))
    start = 0
    while start < n_cols:
        points = np.ascontiguousarray(columns[start:start + chunk])
        seeds, done = _seed_chunk(points, k, rng)
        points = points[:done]
        cents, labs = _lloyd(points, seeds, max_iters, tol)
        stop = start + done
        centroids[start:stop], labels[start:stop] = cents, labs
        rows = np.arange(done)[:, None]
        inertia[start:stop] = np.sum((points - cents[rows, labs]) ** 2, axis=(1, 2))
        start = stop
    return centroids, labels, inertia


def kmeans(
    points: np.ndarray,
    k: int,
    max_iters: int = 50,
    tol: float = 1e-6,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Lloyd's algorithm.

    Parameters
    ----------
    points: (n, d) data matrix.
    k: number of clusters; must not exceed ``n``.

    Returns
    -------
    centroids: (k, d) cluster centers.
    labels: (n,) assignment of each point.
    inertia: final sum of squared distances.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("points must be a 2-D array")
    centroids, labels, inertia = kmeans_columns(
        points[None], k, max_iters=max_iters, tol=tol, rng=rng
    )
    return centroids[0], labels[0], float(inertia[0])
