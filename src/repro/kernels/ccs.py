"""Cached, blocked, dtype-aware closest-centroid search (CCS).

The reference path (:func:`repro.core.ccs.closest_centroid_search`) was a
correct but slow float64 einsum that re-derived every per-layer constant on
each forward.  :class:`CCSKernel` turns CCS into a proper host kernel, in
the spirit of LUT-NN's blocked AVX kernels (Tang et al., MobiSys 2023):

* **Cached constants.**  ``prepare()`` derives, once per (centroids,
  dtype), a contiguous ``(CB, V, CT)`` transposed centroid tensor, the
  ``(CB, 1, CT)`` squared centroid norms, the flat ``(CB*CT, V)`` centroid
  matrix, and the ``(1, CB)`` flat LUT gather offsets.  The cache key is a
  caller-supplied *centroid version counter* plus the source array's
  identity; a cheap content fingerprint (corner elements + sums) catches
  in-place mutation that forgot to bump the version.
* **One BLAS matmul.**  Distances use the expansion
  ``||a - c||^2 = ||a||^2 - 2 a.c + ||c||^2``; for the argmin the
  ``||a||^2`` term is constant per (row, codebook) and is dropped, so the
  score tensor is one batched ``(CB, nb, V) @ (CB, V, CT)`` matmul (BLAS
  GEMM per codebook) plus a broadcast add.
* **Blocked over N.**  Rows are processed in blocks of at most
  ``block_rows`` rows whose ``(CB, nb, CT)`` score tensor fits
  ``_SCORE_BLOCK_BYTES``, so the scores stay cache-resident while the
  elementwise passes and the argmin read them (1,024 float64 rows of an
  H=1,024 layer score into 33.5 MB).  A block has at least two
  rows unless a ``block_rows`` block has one: numpy runs a one-row matmul
  through BLAS gemv, whose sums round differently from gemm's, so the
  walk gives every row the bits a ``block_rows``-only walk gives it.
* **Dtype-aware.**  The kernel computes in float32 by default (the
  deployment dtype); float64 is opt-in.  ``dtype=None`` preserves the
  input's floating dtype.  Accuracy contract: float64 reproduces the
  reference argmin bit-for-bit on continuous data; float32 may differ on
  sub-vectors whose two best centroids are closer than ~1e-6 relative —
  exactly the ties where either choice reconstructs equally well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .. import obs

#: Default row-block size: the row cap of a CCS (and gather) block.
DEFAULT_BLOCK_ROWS = 4096

#: Largest (CB, rows, CT) score block a CCS block builds: the scores stay
#: in L2 through the elementwise passes and the argmin.  The fastest budget,
#: or within 1% of it, of a 256 KiB-4 MiB sweep at n = 4, 128 and 1,024
#: (EXPERIMENTS.md).
_SCORE_BLOCK_BYTES = 1 << 20

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

DTypeLike = Union[None, str, type, np.dtype]


def resolve_dtype(dtype: DTypeLike, x: Optional[np.ndarray] = None) -> np.dtype:
    """Resolve a kernel compute dtype.

    ``None`` (or ``"auto"``) preserves ``x``'s floating dtype and upcasts
    everything else (ints, float16) to float64 — the reference behaviour.
    Only float32 and float64 are valid compute dtypes.
    """
    if dtype is None or dtype == "auto":
        if x is not None and x.dtype in _FLOAT_DTYPES:
            return x.dtype
        return np.dtype(np.float64)
    resolved = np.dtype(dtype)
    if resolved not in _FLOAT_DTYPES:
        raise ValueError(
            f"CCS kernels compute in float32 or float64, got {resolved}"
        )
    return resolved


def _fingerprint(centroids: np.ndarray) -> Tuple:
    """Cheap content fingerprint of a centroid tensor.

    O(CB*CT*V) — negligible next to the O(N*H*CT) distance work — and
    sensitive to any realistic in-place update (optimizer steps change the
    sums and corners with probability ~1).  The version counter remains
    the authoritative invalidation signal; this is the safety net.
    """
    flat = centroids.reshape(-1)
    return (
        centroids.shape,
        float(flat[0]),
        float(flat[-1]),
        float(flat.sum()),
        float(np.abs(flat).sum()),
    )


@dataclass
class PreparedCentroids:
    """Per-layer constants derived from one (centroids, dtype) pair."""

    version: Optional[int]
    source_id: int
    fingerprint: Tuple
    dtype: np.dtype
    cb: int
    ct: int
    v: int
    #: (CB, V, CT) contiguous — the batched-GEMM right operand.
    cents_t: np.ndarray
    #: (CB, 1, CT) squared centroid norms.
    c_sq: np.ndarray
    #: (CB*CT, V) contiguous flat centroid matrix.
    cents_flat: np.ndarray
    #: (1, CB) int64 flat LUT gather offsets (codebook c starts at c*CT).
    gather_offsets: np.ndarray

    def matches(self, centroids: np.ndarray, version: Optional[int]) -> bool:
        if version is None or self.version is None:
            return False
        if version != self.version or id(centroids) != self.source_id:
            return False
        return self.fingerprint == _fingerprint(centroids)


class CCSKernel:
    """Cached, blocked, dtype-aware closest-centroid search kernel.

    Parameters
    ----------
    dtype:
        Compute dtype: ``"float32"`` (default), ``"float64"``, or ``None``
        / ``"auto"`` to preserve the input's floating dtype per call.
    block_rows:
        Row cap of a block; a block is smaller where its score tensor
        would outgrow ``_SCORE_BLOCK_BYTES``.
    """

    def __init__(
        self,
        dtype: DTypeLike = "float32",
        block_rows: Optional[int] = None,
    ):
        if block_rows is not None and block_rows <= 0:
            raise ValueError("block_rows must be positive")
        if dtype is not None and dtype != "auto":
            dtype = np.dtype(dtype)
            if dtype not in _FLOAT_DTYPES:
                raise ValueError(
                    f"CCS kernels compute in float32 or float64, got {dtype}"
                )
        self.dtype = dtype
        self.block_rows = int(block_rows or DEFAULT_BLOCK_ROWS)
        # One prepared-constant slot per compute dtype.
        self._cache: dict = {}
        #: Plain counters mirrored into repro.obs; handy for tests.
        self.stats = {"prepares": 0, "cache_hits": 0, "searches": 0}

    # ------------------------------------------------------------------
    # Constant preparation / caching
    # ------------------------------------------------------------------
    def prepare(
        self,
        centroids: np.ndarray,
        version: Optional[int] = None,
        dtype: DTypeLike = None,
    ) -> PreparedCentroids:
        """Return cached per-layer constants, rebuilding them when stale.

        ``version`` is the owner's centroid version counter; pass ``None``
        to force a rebuild (the safe choice when centroids may have been
        mutated without notification).
        """
        centroids = np.asarray(centroids)
        if centroids.ndim != 3:
            raise ValueError("centroids must have shape (CB, CT, V)")
        dt = resolve_dtype(self.dtype if dtype is None else dtype)

        cached = self._cache.get(dt)
        if cached is not None and cached.matches(centroids, version):
            self.stats["cache_hits"] += 1
            obs.get_registry().counter("kernels.ccs.cache_hits").inc()
            return cached

        cb, ct, v = centroids.shape
        cents = centroids.astype(dt, copy=False)
        prepared = PreparedCentroids(
            version=version,
            source_id=id(centroids),
            fingerprint=_fingerprint(centroids),
            dtype=dt,
            cb=cb,
            ct=ct,
            v=v,
            cents_t=np.ascontiguousarray(cents.transpose(0, 2, 1)),
            c_sq=np.sum(cents * cents, axis=-1, dtype=dt)[:, None, :],
            cents_flat=np.ascontiguousarray(cents.reshape(cb * ct, v)),
            gather_offsets=(np.arange(cb, dtype=np.int64) * ct)[None, :],
        )
        self._cache[dt] = prepared
        self.stats["prepares"] += 1
        obs.get_registry().counter("kernels.ccs.prepares").inc()
        return prepared

    def invalidate(self) -> None:
        """Drop every cached constant set."""
        self._cache.clear()

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def _row_blocks(self, n: int, rows: int):
        """``(start, stop)`` blocks of at most ``rows`` rows within each
        ``block_rows`` block, never leaving a one-row tail in a block that
        has more (see the module docstring: a one-row matmul is gemv)."""
        for head in range(0, n, self.block_rows):
            end = min(head + self.block_rows, n)
            start = head
            while start < end:
                stop = min(start + rows, end)
                if end - stop == 1:
                    stop = end
                yield start, stop
                start = stop

    def _apply_blocked(self, x: np.ndarray, prep: PreparedCentroids, emit) -> None:
        """Blocked batched-GEMM score computation shared by both kernels.

        Walks ``x`` in row blocks (:meth:`_row_blocks`, at most
        ``_SCORE_BLOCK_BYTES`` of scores each), builds the ``(CB, nb, CT)``
        score tensor ``||c||^2 - 2 a.c`` for each, and hands it to
        ``emit(start, stop, sub, scores)`` — the only part where
        :meth:`search` (argmin) and :meth:`squared_distances` (add
        ``||a||^2``, keep values) differ.  ``scores`` is block-private, so
        ``emit`` may mutate it in place.
        """
        dt = prep.dtype
        n = x.shape[0]
        rows = max(2, _SCORE_BLOCK_BYTES // (prep.cb * prep.ct * dt.itemsize))
        for start, stop in self._row_blocks(n, rows):
            # Contiguous cast only when the dtype actually changes.
            xb = np.ascontiguousarray(x[start:stop], dtype=dt)
            sub = xb.reshape(stop - start, prep.cb, prep.v).transpose(1, 0, 2)
            # One batched BLAS matmul: (CB, nb, V) @ (CB, V, CT).
            scores = np.matmul(sub, prep.cents_t)
            scores *= -2.0
            scores += prep.c_sq
            emit(start, stop, sub, scores)

    def search(
        self,
        x: np.ndarray,
        centroids: np.ndarray,
        version: Optional[int] = None,
        dtype: DTypeLike = None,
    ) -> np.ndarray:
        """Closest-centroid indices: (N, H) x (CB, CT, V) -> (N, CB) int32."""
        x = np.asarray(x)
        if x.ndim != 2:
            raise ValueError("CCS input must be 2-D (N, H)")
        dt = resolve_dtype(self.dtype if dtype is None else dtype, x)
        prep = self.prepare(centroids, version=version, dtype=dt)
        if x.shape[1] != prep.cb * prep.v:
            raise ValueError(
                f"expected last dim {prep.cb * prep.v}, got {x.shape[1]}"
            )
        n = x.shape[0]
        out = np.empty((n, prep.cb), dtype=np.int32)

        # argmin(||a||^2 - 2 a.c + ||c||^2) == argmin(||c||^2 - 2 a.c).
        def emit(start, stop, sub, scores):
            out[start:stop] = scores.argmin(axis=2).T

        self._apply_blocked(x, prep, emit)
        self.stats["searches"] += 1
        registry = obs.get_registry()
        registry.counter("kernels.ccs.searches").inc()
        registry.counter("kernels.ccs.rows").inc(n)
        return out

    def squared_distances(
        self,
        x: np.ndarray,
        centroids: np.ndarray,
        version: Optional[int] = None,
        dtype: DTypeLike = None,
    ) -> np.ndarray:
        """Full (N, CB, CT) squared distances (adds the ``||a||^2`` term).

        Same blocked BLAS scheme as :meth:`search`; used where the actual
        distance values matter (soft assignment, error analytics).
        """
        x = np.asarray(x)
        if x.ndim != 2:
            raise ValueError("CCS input must be 2-D (N, H)")
        dt = resolve_dtype(self.dtype if dtype is None else dtype, x)
        prep = self.prepare(centroids, version=version, dtype=dt)
        if x.shape[1] != prep.cb * prep.v:
            raise ValueError(
                f"expected last dim {prep.cb * prep.v}, got {x.shape[1]}"
            )
        n = x.shape[0]
        out = np.empty((n, prep.cb, prep.ct), dtype=dt)

        def emit(start, stop, sub, scores):
            scores += np.sum(sub * sub, axis=-1, dtype=dt)[:, :, None]
            out[start:stop] = scores.transpose(1, 0, 2)

        self._apply_blocked(x, prep, emit)
        obs.get_registry().counter("kernels.ccs.rows").inc(n)
        return out
