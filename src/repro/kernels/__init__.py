"""Fast host-side numeric kernels for LUT-NN inference.

The functional reference in :mod:`repro.core` states *what* the LUT-NN
operators compute; this package is *how* the host computes them fast
(paper §3.3: CCS on the host is one of the two bottlenecks of LUT-NN
inference, next to the table lookups on PIM).  Three kernel families:

* :class:`CCSKernel` — cached, blocked, dtype-aware closest-centroid
  search.  Per-layer constants (the reshaped ``(CB*CT, V)`` centroid
  matrix, centroid norms, flat LUT gather offsets) are precomputed once
  and cached behind a centroid version counter; distances collapse to one
  batched BLAS matmul per row block.
* :func:`lut_gather_reduce` / :func:`lut_gather_reduce_quantized` — the
  fused table-lookup-and-accumulate operator using flat indexing on a
  ``(CB*CT, F)`` view of the table; INT8 LUTs reduce each gathered row
  block in one step (an int32 sum for a shared scale, one contraction
  with the per-codebook scales otherwise).
* :func:`lloyd_update` — a fully vectorized Lloyd's update (scatter means
  via ``np.bincount``, one-shot empty-cluster reseed) for one column of
  points or a (C, n, d) stack of columns, which the batched k-means
  codebook build (:func:`repro.core.kmeans_columns`) updates together.

:mod:`repro.kernels.reference` keeps the frozen pre-kernel implementations
(and the per-column k-means the batched build replaced) for parity
property tests and speedup benchmarks, and
:mod:`repro.kernels.profile` measures the kernels' actual throughput so
the engine/serving latency models can use measured host constants.

This package depends only on numpy and :mod:`repro.obs` (never on
``repro.core``), so the numeric core can build on top of it freely.
"""

from .ccs import CCSKernel, DEFAULT_BLOCK_ROWS, resolve_dtype
from .integrity import lut_checksums, verify_lut
from .kmeans import lloyd_update
from .lut import (
    gather_offsets,
    lut_gather_reduce,
    lut_gather_reduce_quantized,
)
from .profile import HostKernelProfile, measure_host_kernels
from .schedule import (
    KernelSchedule,
    KernelScheduleCache,
    search_kernel_schedule,
)

__all__ = [
    "CCSKernel",
    "DEFAULT_BLOCK_ROWS",
    "resolve_dtype",
    "lloyd_update",
    "lut_checksums",
    "verify_lut",
    "gather_offsets",
    "lut_gather_reduce",
    "lut_gather_reduce_quantized",
    "HostKernelProfile",
    "measure_host_kernels",
    "KernelSchedule",
    "KernelScheduleCache",
    "search_kernel_schedule",
]
