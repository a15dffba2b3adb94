"""Host kernel layer speedups vs the frozen pre-kernel references.

Measures the :mod:`repro.kernels` fast paths on the BERT-base evaluation
shape the paper uses for host-side CCS cost (N=128 tokens, H=768, V=4,
CT=16 -> CB=192 codebooks) against the reference implementations frozen
in :mod:`repro.kernels.reference`.

The acceptance bar: the combined CCS + LUT-lookup pipeline must be at
least 3x faster than the references in float32.  float64, INT8, the
vectorized Lloyd update and the batched k-means codebook build (against
the per-column k-means, bit-identical) are reported as informational rows.
"""

import time

import numpy as np
import pytest

from repro.core import Codebooks, quantize_lut
from repro.kernels import (
    CCSKernel,
    lloyd_update,
    lut_gather_reduce,
    lut_gather_reduce_quantized,
)
from repro.kernels.reference import (
    ccs_reference,
    codebooks_reference,
    lloyd_update_reference,
    lut_lookup_reference,
)

pytestmark = pytest.mark.slow

N, H, F, V, CT = 128, 768, 768, 4, 16
CB = H // V
REPEATS = 5


def best_of(fn, repeats=REPEATS):
    """Best wall-clock of ``repeats`` runs (first call may warm caches)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_kernel_speed_bert_base(report):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(N, H))
    centroids = rng.normal(size=(CB, CT, V))
    lut = rng.normal(size=(CB, CT, F))
    qlut = quantize_lut(lut)

    rows = []

    # --- CCS: reference vs cached float32 kernel -------------------------
    ref_ccs_s, ref_idx = best_of(lambda: ccs_reference(x, centroids))
    kernel32 = CCSKernel(dtype="float32")
    kernel32.prepare(centroids, version=0)  # warm the constant cache
    f32_ccs_s, idx32 = best_of(
        lambda: kernel32.search(x, centroids, version=0)
    )
    kernel64 = CCSKernel(dtype="float64")
    kernel64.prepare(centroids, version=0)
    f64_ccs_s, idx64 = best_of(
        lambda: kernel64.search(x, centroids, version=0)
    )
    assert np.array_equal(idx64, ref_idx)
    idx_match = float(np.mean(idx32 == ref_idx))
    assert idx_match > 0.999
    rows.append(("ccs float32", ref_ccs_s, f32_ccs_s))
    rows.append(("ccs float64", ref_ccs_s, f64_ccs_s))

    # --- LUT lookup: reference vs fused gather-reduce --------------------
    ref_lut_s, ref_out = best_of(lambda: lut_lookup_reference(ref_idx, lut))
    ker_lut_s, ker_out = best_of(lambda: lut_gather_reduce(ref_idx, lut))
    np.testing.assert_allclose(ker_out, ref_out, atol=1e-10)
    rows.append(("lut lookup", ref_lut_s, ker_lut_s))

    # --- INT8: dequantize-then-lookup vs fused int8 kernel ---------------
    ref_q_s, ref_q = best_of(
        lambda: lut_lookup_reference(ref_idx, qlut.dequantize())
    )
    ker_q_s, ker_q = best_of(lambda: lut_gather_reduce_quantized(ref_idx, qlut))
    np.testing.assert_allclose(ker_q, ref_q, atol=1e-9)
    rows.append(("lut lookup int8", ref_q_s, ker_q_s))

    # --- Lloyd update: per-cluster loop vs vectorized bincount -----------
    points = rng.normal(size=(8192, V))
    cents = rng.normal(size=(CT, V))
    labels = np.argmin(
        ((points[:, None, :] - cents[None]) ** 2).sum(axis=2), axis=1
    )
    ref_km_s, ref_cents = best_of(
        lambda: lloyd_update_reference(points, labels, CT, cents)
    )
    ker_km_s, ker_pair = best_of(lambda: lloyd_update(points, labels, CT, cents))
    np.testing.assert_allclose(ker_pair[0], ref_cents, atol=1e-10)
    rows.append(("lloyd update", ref_km_s, ker_km_s))

    # --- Codebook build: per-column k-means vs one batched k-means -------
    ref_cb_s, ref_books = best_of(
        lambda: codebooks_reference(x, V, CT, max_iters=10,
                                    rng=np.random.default_rng(1))
    )
    ker_cb_s, books = best_of(
        lambda: Codebooks.from_activations(x, V, CT, max_iters=10,
                                           rng=np.random.default_rng(1))
    )
    assert np.array_equal(books.centroids, ref_books)
    rows.append(("codebook build (k-means)", ref_cb_s, ker_cb_s))

    lines = [
        f"shape: N={N} H={H} F={F} V={V} CT={CT} (CB={CB}), best of {REPEATS}",
        f"{'kernel':<24} {'reference_ms':>13} {'kernel_ms':>10} {'speedup':>8}",
    ]
    for name, ref_s, ker_s in rows:
        lines.append(
            f"{name:<24} {ref_s * 1e3:>13.3f} {ker_s * 1e3:>10.3f}"
            f" {ref_s / ker_s:>7.2f}x"
        )

    combined_ref = ref_ccs_s + ref_lut_s
    combined_ker = f32_ccs_s + ker_lut_s
    combined = combined_ref / combined_ker
    lines.append(
        f"{'ccs+lookup f32':<24} {combined_ref * 1e3:>13.3f}"
        f" {combined_ker * 1e3:>10.3f} {combined:>7.2f}x"
    )
    lines.append(f"float32 index agreement with float64 reference: {idx_match:.4%}")
    report("kernel_speed", "\n".join(lines))

    # Acceptance: >= 3x on the combined CCS + lookup pipeline (float32).
    assert combined >= 3.0, f"combined speedup {combined:.2f}x < 3x"
