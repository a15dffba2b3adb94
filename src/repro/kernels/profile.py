"""Measured host-kernel throughput for the engine latency models.

The engines (:class:`repro.engine.engine.PIMDLEngine`,
:class:`repro.engine.decode.LUTDecodeEngine`) model host-side CCS with a
roofline whose constants come from the paper's testbed.  Since the kernel
layer makes CCS an actual executable kernel, its throughput on *this*
machine can be measured and substituted for the roofline — the ROADMAP's
"fast as the hardware allows" number is then measurable, not assumed.

:func:`measure_host_kernels` times the CCS and gather-reduce kernels on a
representative shape and returns a :class:`HostKernelProfile` whose
``ccs_time``/``gather_time`` scale the measured effective throughput by
each workload's op count.  Engines and :class:`GenerationServer` accept
the profile via ``host_kernel_profile=``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .. import obs
from .ccs import CCSKernel, DTypeLike
from .lut import lut_gather_reduce


@dataclass(frozen=True)
class HostKernelProfile:
    """Effective throughput of the host kernels, measured on this machine.

    Attributes
    ----------
    dtype / block_rows:
        Kernel configuration the numbers were measured under.
    ccs_ops_per_s:
        Effective CCS throughput in paper-§3.3 ops (``3*N*H*CT`` per call).
    gather_elements_per_s:
        Effective lookup-reduce throughput in gathered elements
        (``N*CB*F`` per call).
    measured_shape:
        The (n, h, f, v, ct) shape the measurement ran on.
    """

    dtype: str
    block_rows: int
    ccs_ops_per_s: float
    gather_elements_per_s: float
    measured_shape: Tuple[int, int, int, int, int]
    #: min-of-k repetitions each timing took (1 = a single, noisy sample).
    repeats: int = 1

    def ccs_time(self, n: int, h: int, ct: int) -> float:
        """Modeled CCS seconds for an (N, H) x CT workload."""
        return 3.0 * n * h * ct / self.ccs_ops_per_s

    def gather_time(self, n: int, cb: int, f: int) -> float:
        """Modeled lookup-reduce seconds for an (N, CB) x F workload."""
        return float(n) * cb * f / self.gather_elements_per_s


def _best_seconds(fn, repeats: int, warmup: int = 1) -> float:
    """Min-of-``repeats`` wall time of ``fn()`` after ``warmup`` calls.

    The minimum is the standard noise-robust estimator for CPU
    micro-benchmarks (any deviation above it is interference, not the
    kernel); the warmup calls take the one-time costs — page faults on
    fresh output buffers, BLAS thread-pool spin-up — out of every sample.
    """
    for _ in range(max(0, warmup)):
        fn()
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure_host_kernels(
    n: int = 128,
    h: int = 768,
    f: int = 768,
    v: int = 4,
    ct: int = 16,
    dtype: DTypeLike = None,
    block_rows: Optional[int] = None,
    repeats: int = 5,
    rng: Optional[np.random.Generator] = None,
) -> HostKernelProfile:
    """Measure CCS + gather-reduce throughput on one representative shape.

    Defaults to the BERT-base eval shape (N=128, H=768, CT=16) and to the
    auto dtype every converted ``LUTLinear`` runs (float64 here).  Returns
    the best-of-``repeats`` effective throughputs after one warmup call
    per kernel; constant preparation is excluded (warm cache), matching
    steady-state serving.
    """
    if h % v:
        raise ValueError(f"H={h} not divisible by V={v}")
    rng = rng or np.random.default_rng(0)
    cb = h // v
    x = rng.normal(size=(n, h))
    centroids = rng.normal(size=(cb, ct, v))
    lut = rng.normal(size=(cb, ct, f))

    kernel = CCSKernel(dtype=dtype, block_rows=block_rows)
    kernel.prepare(centroids, version=0)  # warm the constant cache
    indices = kernel.search(x, centroids, version=0)

    with obs.get_tracer().span(
        "kernels.profile", n=n, h=h, f=f, v=v, ct=ct, dtype=str(dtype)
    ) as span:
        ccs_s = _best_seconds(
            lambda: kernel.search(x, centroids, version=0), repeats
        )
        gather_s = _best_seconds(
            lambda: lut_gather_reduce(indices, lut, block_rows=block_rows),
            repeats,
        )
        span.set_attribute("ccs_seconds", ccs_s)
        span.set_attribute("gather_seconds", gather_s)

    profile = HostKernelProfile(
        dtype=str(np.dtype(dtype)) if dtype not in (None, "auto") else "auto",
        block_rows=kernel.block_rows,
        ccs_ops_per_s=3.0 * n * h * ct / max(ccs_s, 1e-12),
        gather_elements_per_s=float(n) * cb * f / max(gather_s, 1e-12),
        measured_shape=(n, h, f, v, ct),
        repeats=max(1, repeats),
    )
    registry = obs.get_registry()
    registry.gauge("kernels.profile.ccs_ops_per_s").set(profile.ccs_ops_per_s)
    registry.gauge("kernels.profile.gather_elements_per_s").set(
        profile.gather_elements_per_s
    )
    return profile
