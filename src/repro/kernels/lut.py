"""Fused table-lookup-and-accumulate kernels (paper Fig. 2 steps 6-7).

The reference :func:`repro.core.lut.lut_lookup` gathers with a 2-D fancy
index and pays two full passes over the index matrix per call for bounds
checking (``indices.min()`` plus ``indices.max()``).  The kernels here:

* pick the float gather strategy by working-set size: small row blocks
  use one **flat gather** on a ``(CB*CT, F)`` view of the table (one index
  array, one gather, one reduction); once the ``(nb, CB, F)`` intermediate
  would outgrow ``_GATHER_BUDGET_BYTES`` the kernel switches to
  **per-codebook accumulation** — CB gathers added straight into the
  output, so the huge intermediate (the reference path's bottleneck: it
  writes and re-reads N*CB*F elements) is never materialized;
* walk the per-codebook path in **L2-sized row tiles**: a whole ``(nb, F)``
  output slice is 6 MiB at 1,024 rows and F=768 in float64, so summing
  CB gathers into it streams it through memory CB times.  Tiles of
  ``_GATHER_TILE_BYTES // (F * itemsize)`` rows keep the tile's output
  slice and each codebook's gather temporary cache-resident.  Every output
  element is still summed in codebook order, so the result is
  bit-identical to an untiled (or flat) gather;
* validate bounds with a **single pass**: the signed index array is
  reinterpreted as unsigned of the same width, so a negative index becomes
  a huge value and one ``max() >= CT`` comparison catches both ends of the
  range at once.  The scan touches N*CB elements against the N*CB*F the
  gather moves, so its cost is ~1/F of the kernel.  (A per-codebook wrap —
  index >= CT landing in the next codebook's rows — is invisible to
  numpy's own flat-gather bounds check, which is why the explicit check
  stays.)  Signed indices too narrow to hold CT (int8 at CT=256) are
  widened before the reinterpretation, so a negative index can never
  alias a valid row.
* keep the **INT8 path fused**: each row block is one flat gather of the
  int8 table, then one reduction over the codebook axis — an exact int32
  sum and one dequantization multiply when the quantization scale is
  shared, one BLAS contraction of the widened block with the ``(CB,)``
  scale vector otherwise.  Neither reduction loops over codebooks in
  Python, and the kernel never makes a float copy of the LUT; an INT8
  ``LUTLinear`` holds none either, only the int8 table and its scales.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import obs
from .ccs import DEFAULT_BLOCK_ROWS

#: Largest (nb, CB, F) gather intermediate the flat strategy may create;
#: beyond this the per-codebook path wins on memory traffic.  8 MiB is not
#: cache-resident: the budget only keeps small (decode-sized) blocks on
#: the one-gather path.
_GATHER_BUDGET_BYTES = 8 << 20

#: Output bytes per row tile of the per-codebook path: the tile's (rows, F)
#: output slice and each codebook's (rows, F) gather temporary stay in L2.
#: Best of a 128 KiB - 1 MiB sweep of float64 1,024-row gathers; 256 KiB
#: was ~9% slower, beyond the sweep's noise (EXPERIMENTS.md).
_GATHER_TILE_BYTES = 512 << 10

#: Largest block intermediate the INT8 kernel creates per row block: the
#: float64 widening of the (nb, CB, F) gather under per-codebook scales,
#: the int8 gather itself under a shared scale.  L2-sized blocks beat one
#: 8 MiB block at both 4-row (decode) and 128-row (prompt) calls.
_INT8_BLOCK_BYTES = 256 << 10

#: Valid gather strategies: ``auto`` picks by working-set size (the
#: heuristic above); ``flat``/``per-codebook`` force one path — used by the
#: measured schedule search to replace the heuristic with a decision
#: actually timed on this machine.
GATHER_STRATEGIES = ("auto", "flat", "per-codebook")


def _flat_row_budget(strategy: str, n: int, row_bytes: int) -> int:
    """Rows per block the flat gather may take under ``strategy``."""
    if strategy not in GATHER_STRATEGIES:
        raise ValueError(
            f"unknown gather strategy {strategy!r}; choose from {GATHER_STRATEGIES}"
        )
    if strategy == "flat":
        return n if n > 0 else 1
    if strategy == "per-codebook":
        return 0
    return max(1, _GATHER_BUDGET_BYTES // max(row_bytes, 1))


def _block_rows(block_rows: Optional[int]) -> int:
    """``block_rows`` as a positive int; ``None`` means the default."""
    if block_rows is None:
        return DEFAULT_BLOCK_ROWS
    if block_rows <= 0:
        raise ValueError("block_rows must be positive")
    return int(block_rows)


def gather_offsets(cb: int, ct: int) -> np.ndarray:
    """(1, CB) int64 row offsets of each codebook in the flat (CB*CT, F) view."""
    return (np.arange(cb, dtype=np.int64) * ct)[None, :]


def _checked_indices(indices: np.ndarray, cb: int, ct: int) -> np.ndarray:
    """Validate an (N, CB) index matrix and return an in-range unsigned view.

    The unsigned reinterpretation makes the bounds check a single pass:
    negatives map far past any real table size, so one ``max() >= CT``
    comparison replaces the reference's separate ``min()`` and ``max()``
    scans.  The view never copies for the contiguous int32 indices the CCS
    kernel emits.
    """
    idx = np.asarray(indices)
    if idx.ndim != 2:
        raise ValueError("indices must be 2-D (N, CB)")
    if idx.shape[1] != cb:
        raise ValueError(f"indices CB={idx.shape[1]} != LUT CB={cb}")
    if idx.dtype.kind == "i":
        if ct > np.iinfo(idx.dtype).max + 1:
            # The unsigned view of a negative index would be a valid row
            # (int8 -1 -> 255 at CT=256); widened, it lands past any CT.
            idx = idx.astype(np.int64)
        elif not idx.flags.c_contiguous:
            idx = np.ascontiguousarray(idx)
        idx = idx.view(np.dtype(f"uint{idx.dtype.itemsize * 8}"))
    elif idx.dtype.kind != "u":
        raise TypeError(f"indices must be an integer array, got {idx.dtype}")
    if idx.size and int(idx.max()) >= ct:
        raise IndexError("centroid index out of LUT range")
    return idx


def lut_gather_reduce(
    indices: np.ndarray,
    lut: np.ndarray,
    offsets: Optional[np.ndarray] = None,
    block_rows: Optional[int] = None,
    strategy: str = "auto",
) -> np.ndarray:
    """Fused table lookup + accumulate: ``out[n] = sum_cb lut[cb, idx[n, cb]]``.

    Parameters
    ----------
    indices: (N, CB) integer index matrix from closest-centroid search.
    lut: (CB, CT, F) pre-computed tables (any float dtype).
    offsets: optional precomputed :func:`gather_offsets` (cached per layer).
    block_rows: rows per block (``None``: the default); bounds the
        (nb, CB, F) gather working set.  The per-codebook path further
        walks each block in L2-sized row tiles.
    strategy: ``"auto"`` (working-set heuristic), ``"flat"``, or
        ``"per-codebook"`` — force a gather path, e.g. from a measured
        :class:`~repro.kernels.schedule.KernelSchedule`.

    Raises
    ------
    IndexError
        If any index falls outside ``[0, CT)`` — detected by one
        ``max() >= CT`` pass over the unsigned-reinterpreted indices.
    ValueError
        If ``block_rows`` is not positive.
    """
    if lut.ndim != 3:
        raise ValueError("LUT must have shape (CB, CT, F)")
    block = _block_rows(block_rows)
    cb, ct, f = lut.shape
    unsigned = _checked_indices(indices, cb, ct)
    if offsets is None:
        offsets = gather_offsets(cb, ct)
    lut2d = lut.reshape(cb * ct, f)
    n = unsigned.shape[0]
    flat_rows = _flat_row_budget(strategy, n, cb * f * lut.itemsize)
    tile = max(1, _GATHER_TILE_BYTES // max(f * lut.itemsize, 1))
    out = np.empty((n, f), dtype=lut.dtype)
    if cb == 0:
        out.fill(0)
        n = 0  # nothing to gather
    for start in range(0, n, block):
        stop = min(start + block, n)
        if stop - start <= flat_rows:
            flat = unsigned[start:stop].astype(np.int64) + offsets
            out[start:stop] = lut2d[flat].sum(axis=1)
        else:
            # Per-codebook accumulation, one L2-sized row tile at a time;
            # no (nb, CB, F) intermediate is materialized.
            for lo in range(start, stop, tile):
                hi = min(lo + tile, stop)
                rows = unsigned[lo:hi]
                seg = out[lo:hi]
                seg[:] = lut[0][rows[:, 0]]
                for c in range(1, cb):
                    seg += lut[c][rows[:, c]]
    registry = obs.get_registry()
    registry.counter("kernels.lut.gathers").inc()
    registry.counter("kernels.lut.rows").inc(unsigned.shape[0])
    return out


def lut_gather_reduce_quantized(
    indices: np.ndarray,
    qlut,
    offsets: Optional[np.ndarray] = None,
    block_rows: Optional[int] = None,
) -> np.ndarray:
    """Fused INT8 lookup + accumulate against a :class:`QuantizedLUT`.

    The int8 table is gathered directly (1 byte/element of traffic — the
    whole point of INT8 deployment, paper §6.3): one flat gather on the
    ``(CB*CT, F)`` view per row block, then one reduction over the
    codebook axis.  When every codebook shares one quantization scale the
    block sums exactly in int32 and a *single* dequantization multiply
    produces the output; with per-codebook scales the block is widened to
    float64 and contracted with the ``(CB,)`` scale vector in one BLAS
    matmul, so dequantization still happens once per output rather than
    once per table entry.

    Row blocks hold at most ``block_rows`` rows (``None``: the default)
    and are further capped so the block intermediate (the widened float64
    block, or the int8 gather under a shared scale) stays within
    ``_INT8_BLOCK_BYTES``.

    Raises
    ------
    IndexError
        If any index falls outside ``[0, CT)``.
    ValueError
        If ``block_rows`` is not positive.
    """
    values = qlut.values
    scales = np.asarray(qlut.scales, dtype=np.float64)
    if values.ndim != 3:
        raise ValueError("quantized LUT must have shape (CB, CT, F)")
    cb, ct, f = values.shape
    unsigned = _checked_indices(indices, cb, ct)
    if offsets is None:
        offsets = gather_offsets(cb, ct)
    q2d = values.reshape(cb * ct, f)
    common = float(scales[0]) if cb and np.all(scales == scales[0]) else None
    n = unsigned.shape[0]
    element_bytes = 1 if common is not None else 8
    budget_rows = _INT8_BLOCK_BYTES // max(cb * f * element_bytes, 1)
    block = max(1, min(_block_rows(block_rows), budget_rows))
    out = np.empty((n, f), dtype=np.float64)
    if cb == 0:
        out.fill(0)
        n = 0  # nothing to gather
    for start in range(0, n, block):
        stop = min(start + block, n)
        gathered = q2d[unsigned[start:stop].astype(np.int64) + offsets]
        if common is not None:
            # Exact integer accumulation, one dequant multiply.
            np.multiply(gathered.sum(axis=1, dtype=np.int32), common,
                        out=out[start:stop])
        else:
            np.matmul(scales, gathered.astype(np.float64), out=out[start:stop])
    registry = obs.get_registry()
    registry.counter("kernels.lut.int8_gathers").inc()
    registry.counter("kernels.lut.rows").inc(unsigned.shape[0])
    return out
