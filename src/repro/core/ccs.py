"""Closest centroid search (CCS) — the host-side operator of LUT-NN inference.

Steps 4–5 of paper Fig. 2: each (1, V) activation tile is compared with its
column's codebook and the index of the centroid with minimal L2 distance is
emitted.  The paper implements the distance estimation with inner products
(a GEMM) so the operator runs efficiently on the host; this module routes
the search through the cached, blocked, dtype-aware
:class:`repro.kernels.CCSKernel`, keeping :func:`squared_distances` as the
plain einsum reference the kernel is property-tested against.

Accuracy contract
-----------------
``closest_centroid_search`` computes in the input's floating dtype by
default (float32 in → float32 distances; anything else → float64, the
pre-kernel behaviour).  float64 reproduces the reference argmin on
continuous data; float32 (``dtype="float32"``) may pick the other centroid
of a pair whose distances agree to ~1e-6 relative — ties where either
choice reconstructs equally well.  Pass ``dtype="float64"`` to force the
reference precision regardless of input dtype.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from ..kernels import CCSKernel
from ..kernels.ccs import DTypeLike
from .codebook import Codebooks

if TYPE_CHECKING:
    from ..baselines.roofline import RooflineDevice

# Shared auto-dtype kernel for the functional API; per-layer callers
# (LUTLinear) own their kernel so each layer's constants stay cached.
_shared_kernel = CCSKernel(dtype=None)


def squared_distances(x: np.ndarray, codebooks: Codebooks) -> np.ndarray:
    """Squared L2 distance between every sub-vector and every centroid.

    This is the float64 einsum *reference* implementation; the fast path
    is :meth:`repro.kernels.CCSKernel.squared_distances`.

    Parameters
    ----------
    x: (N, H) activation matrix.
    codebooks: (CB, CT, V) centroids.

    Returns
    -------
    (N, CB, CT) distances.
    """
    sub = codebooks.split(x)  # (N, CB, V)
    cents = codebooks.centroids  # (CB, CT, V)
    # ||a - c||^2 = ||a||^2 - 2 a.c + ||c||^2
    cross = np.einsum("ncv,ckv->nck", sub, cents)
    a_sq = np.sum(sub**2, axis=-1)[:, :, None]
    c_sq = np.sum(cents**2, axis=-1)[None, :, :]
    return a_sq - 2.0 * cross + c_sq


def closest_centroid_search(
    x: np.ndarray,
    codebooks: Codebooks,
    dtype: DTypeLike = None,
    kernel: Optional[CCSKernel] = None,
) -> np.ndarray:
    """Compute the (N, CB) int32 index matrix (argmin over centroids).

    ``dtype`` selects the compute precision (see the module docstring for
    the accuracy contract); ``kernel`` lets a caller supply its own cached
    :class:`~repro.kernels.CCSKernel` instead of the shared one.
    """
    x = np.asarray(x)
    if x.ndim != 2:
        raise ValueError("CCS input must be 2-D (N, H)")
    active = kernel if kernel is not None else _shared_kernel
    return active.search(x, codebooks.centroids, dtype=dtype)


def hard_replace(x: np.ndarray, codebooks: Codebooks) -> np.ndarray:
    """The closest-centroid-replacing function H(.) of paper Eq. 1.

    Returns the (N, H) matrix in which each sub-vector of ``x`` is replaced
    by its nearest centroid.
    """
    indices = closest_centroid_search(x, codebooks)
    n = np.asarray(x).shape[0]
    cb_idx = np.arange(codebooks.cb)[None, :]
    replaced = codebooks.centroids[cb_idx, indices]  # (N, CB, V)
    return replaced.reshape(n, codebooks.h)


def ccs_flops(n: int, h: int, ct: int) -> int:
    """Operation count of index calculation: 3 * N * H * CT (paper §3.3)."""
    return 3 * n * h * ct


def ccs_roofline_time(
    host: "RooflineDevice", n: int, h: int, v: int, ct: int
) -> float:
    """Host roofline seconds of CCS over ``n`` rows at (V, CT).

    The per-column (N, V) x (V, CT) distance GEMMs run at small-K
    efficiency; the argmin reads the (N, CB, CT) float32 distances.  The
    N*CB index write is left out (the prefill engine's roofline charges
    it).
    """
    cb = h // v
    distance = host.small_k_gemm_time(n * cb, v, ct)
    argmin = host.op_time(n * cb * ct, n * cb * ct * 4.0)
    return distance + argmin
