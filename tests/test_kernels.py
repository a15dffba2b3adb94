"""Tests for the fast host kernel layer (:mod:`repro.kernels`).

Covers the kernel layer's three contracts:

* **Parity** — the cached/blocked/dtype-aware kernels reproduce the frozen
  pre-kernel references (:mod:`repro.kernels.reference`): bit-identical
  argmin indices in float64, allclose outputs, identical error behaviour.
* **Caching** — prepared centroid constants are reused across calls and
  invalidated by the version counter, by the content fingerprint (silent
  in-place mutation), and by ``LUTLinear.mark_centroids_updated`` during
  calibration.
* **Wiring** — LUTLinear's lut/soft/int8 paths, the engines'
  ``host_kernel_profile`` substitution, and the ``repro kernels`` CLI.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import (
    Codebooks,
    LUTLinear,
    closest_centroid_search,
    hard_replace,
    kmeans,
    lut_lookup,
    quantize_lut,
)
from repro.kernels import (
    CCSKernel,
    DEFAULT_BLOCK_ROWS,
    HostKernelProfile,
    gather_offsets,
    lloyd_update,
    lut_gather_reduce,
    lut_gather_reduce_quantized,
    measure_host_kernels,
    resolve_dtype,
)
from repro.kernels.reference import (
    ccs_reference,
    lloyd_update_reference,
    lut_lookup_reference,
    squared_distances_reference,
)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def random_problem(rng, n=32, cb=6, ct=8, v=4):
    x = rng.normal(size=(n, cb * v))
    centroids = rng.normal(size=(cb, ct, v))
    return x, centroids


# ---------------------------------------------------------------------------
# CCS kernel: parity with the frozen reference
# ---------------------------------------------------------------------------
class TestCCSParity:
    def test_float64_indices_bit_identical(self, rng):
        x, cents = random_problem(rng)
        kernel = CCSKernel(dtype="float64")
        np.testing.assert_array_equal(
            kernel.search(x, cents), ccs_reference(x, cents)
        )

    def test_float32_indices_match_on_continuous_data(self, rng):
        # Random continuous data has no exact ties; float32 may flip only
        # near-tied argmins (accuracy contract), which are measure-zero here.
        x, cents = random_problem(rng, n=200)
        kernel = CCSKernel(dtype="float32")
        match = np.mean(kernel.search(x, cents) == ccs_reference(x, cents))
        assert match > 0.999

    def test_squared_distances_allclose(self, rng):
        x, cents = random_problem(rng)
        kernel = CCSKernel(dtype="float64")
        np.testing.assert_allclose(
            kernel.squared_distances(x, cents),
            squared_distances_reference(x, cents),
            atol=1e-9,
        )

    def test_blocking_does_not_change_results(self, rng):
        x, cents = random_problem(rng, n=23)
        whole = CCSKernel(dtype="float64").search(x, cents)
        for block in (1, 3, 7, 23, 100):
            blocked = CCSKernel(dtype="float64", block_rows=block).search(x, cents)
            np.testing.assert_array_equal(blocked, whole)

    def test_functional_api_routes_through_kernel(self, rng):
        x, cents = random_problem(rng)
        np.testing.assert_array_equal(
            closest_centroid_search(x, Codebooks(cents)),
            ccs_reference(x, cents),
        )

    def test_rejects_bad_shapes(self, rng):
        kernel = CCSKernel()
        with pytest.raises(ValueError):
            kernel.search(np.zeros(8), np.zeros((2, 4, 4)))
        with pytest.raises(ValueError):
            kernel.search(np.zeros((2, 9)), np.zeros((2, 4, 4)))
        with pytest.raises(ValueError):
            kernel.prepare(np.zeros((2, 4)))

    @given(
        n=st.integers(1, 20),
        cb=st.integers(1, 5),
        ct=st.integers(1, 9),
        v=st.integers(1, 5),
        seed=st.integers(0, 2**31),
        block=st.integers(1, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_float64_parity(self, n, cb, ct, v, seed, block):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, cb * v))
        cents = rng.normal(size=(cb, ct, v))
        kernel = CCSKernel(dtype="float64", block_rows=block)
        np.testing.assert_array_equal(
            kernel.search(x, cents), ccs_reference(x, cents)
        )


class TestDtypeContract:
    def test_resolve_auto_preserves_floats(self):
        assert resolve_dtype(None, np.zeros(2, np.float32)) == np.float32
        assert resolve_dtype("auto", np.zeros(2, np.float64)) == np.float64
        # Non-float inputs upcast to the reference float64.
        assert resolve_dtype(None, np.zeros(2, np.int32)) == np.float64
        assert resolve_dtype(None) == np.float64

    def test_only_float32_float64_compute(self):
        with pytest.raises(ValueError):
            resolve_dtype("int8")
        with pytest.raises(ValueError):
            CCSKernel(dtype="float16")

    def test_auto_kernel_computes_in_input_dtype(self, rng):
        x, cents = random_problem(rng)
        kernel = CCSKernel(dtype=None)
        kernel.search(x.astype(np.float32), cents)
        assert np.dtype(np.float32) in kernel._cache
        kernel.search(x, cents)
        assert np.dtype(np.float64) in kernel._cache

    def test_block_rows_must_be_positive(self):
        with pytest.raises(ValueError):
            CCSKernel(block_rows=0)


# ---------------------------------------------------------------------------
# CCS kernel: constant caching + invalidation
# ---------------------------------------------------------------------------
class TestCCSCache:
    def test_same_version_hits_cache(self, rng):
        x, cents = random_problem(rng)
        kernel = CCSKernel(dtype="float64")
        kernel.search(x, cents, version=0)
        kernel.search(x, cents, version=0)
        assert kernel.stats["prepares"] == 1
        assert kernel.stats["cache_hits"] == 1

    def test_version_bump_invalidates(self, rng):
        x, cents = random_problem(rng)
        kernel = CCSKernel(dtype="float64")
        kernel.search(x, cents, version=0)
        kernel.search(x, cents, version=1)
        assert kernel.stats["prepares"] == 2

    def test_no_version_never_caches(self, rng):
        x, cents = random_problem(rng)
        kernel = CCSKernel(dtype="float64")
        kernel.search(x, cents)
        kernel.search(x, cents)
        assert kernel.stats["prepares"] == 2

    def test_fingerprint_catches_silent_mutation(self, rng):
        """In-place centroid mutation without a version bump must still
        invalidate — the content fingerprint is the safety net."""
        x, cents = random_problem(rng)
        kernel = CCSKernel(dtype="float64")
        before = kernel.search(x, cents, version=7)
        cents *= -1.0  # silent in-place update, same version
        after = kernel.search(x, cents, version=7)
        assert kernel.stats["prepares"] == 2
        np.testing.assert_array_equal(after, ccs_reference(x, cents))
        assert not np.array_equal(before, after)

    def test_invalidate_clears(self, rng):
        x, cents = random_problem(rng)
        kernel = CCSKernel(dtype="float64")
        kernel.search(x, cents, version=0)
        kernel.invalidate()
        kernel.search(x, cents, version=0)
        assert kernel.stats["prepares"] == 2


# ---------------------------------------------------------------------------
# LUT gather-reduce kernels
# ---------------------------------------------------------------------------
class TestLutGatherReduce:
    def test_matches_reference(self, rng):
        lut = rng.normal(size=(6, 8, 10))
        idx = rng.integers(0, 8, size=(20, 6)).astype(np.int32)
        np.testing.assert_allclose(
            lut_gather_reduce(idx, lut), lut_lookup_reference(idx, lut), atol=1e-12
        )

    def test_blocked_equals_unblocked(self, rng):
        lut = rng.normal(size=(4, 5, 7))
        idx = rng.integers(0, 5, size=(23, 4)).astype(np.int32)
        whole = lut_gather_reduce(idx, lut)
        for block in (1, 3, 7, 23, 1000):
            np.testing.assert_allclose(
                lut_gather_reduce(idx, lut, block_rows=block), whole, atol=1e-12
            )

    def test_per_codebook_path_matches_flat(self, rng, monkeypatch):
        """Force the per-codebook accumulation strategy and check parity."""
        from repro.kernels import lut as lut_mod

        lut = rng.normal(size=(6, 8, 10))
        idx = rng.integers(0, 8, size=(40, 6)).astype(np.int32)
        flat = lut_gather_reduce(idx, lut)
        monkeypatch.setattr(lut_mod, "_GATHER_BUDGET_BYTES", 1)
        percb = lut_gather_reduce(idx, lut)
        np.testing.assert_allclose(percb, flat, atol=1e-12)

    def test_negative_index_raises(self, rng):
        lut = rng.normal(size=(3, 4, 5))
        idx = np.zeros((2, 3), dtype=np.int32)
        idx[1, 2] = -1
        with pytest.raises(IndexError):
            lut_gather_reduce(idx, lut)

    def test_out_of_range_in_any_codebook_raises(self, rng):
        # An index >= CT in a *non-final* codebook would silently wrap into
        # the next codebook's rows under pure flat indexing; the single-pass
        # check must catch it.
        lut = rng.normal(size=(3, 4, 5))
        idx = np.zeros((2, 3), dtype=np.int32)
        idx[0, 0] = 4
        with pytest.raises(IndexError):
            lut_gather_reduce(idx, lut)

    def test_validation_errors(self, rng):
        lut = rng.normal(size=(3, 4, 5))
        with pytest.raises(ValueError):
            lut_gather_reduce(np.zeros((2, 2), dtype=np.int32), lut)
        with pytest.raises(ValueError):
            lut_gather_reduce(np.zeros(3, dtype=np.int32), lut)
        with pytest.raises(TypeError):
            lut_gather_reduce(np.zeros((2, 3), dtype=np.float64), lut)

    def test_ct256_edge_with_wide_and_unsigned_indices(self, rng):
        """CT=256: int32 and uint8 indices cover the full range."""
        lut = rng.normal(size=(2, 256, 3))
        idx32 = rng.integers(0, 256, size=(10, 2)).astype(np.int32)
        np.testing.assert_allclose(
            lut_gather_reduce(idx32, lut), lut_lookup_reference(idx32, lut),
            atol=1e-12,
        )
        idx8 = idx32.astype(np.uint8)
        np.testing.assert_allclose(
            lut_gather_reduce(idx8, lut), lut_lookup_reference(idx32, lut),
            atol=1e-12,
        )

    def test_lut_lookup_delegates_to_kernel(self, rng):
        lut = rng.normal(size=(3, 4, 5))
        idx = rng.integers(0, 4, size=(6, 3)).astype(np.int32)
        np.testing.assert_allclose(
            lut_lookup(idx, lut), lut_lookup_reference(idx, lut), atol=1e-12
        )
        with pytest.raises(IndexError):
            lut_lookup(np.full((2, 3), 9), lut)

    def test_precomputed_offsets(self, rng):
        lut = rng.normal(size=(3, 4, 5))
        idx = rng.integers(0, 4, size=(6, 3)).astype(np.int32)
        offs = gather_offsets(3, 4)
        np.testing.assert_allclose(
            lut_gather_reduce(idx, lut, offsets=offs),
            lut_gather_reduce(idx, lut),
            atol=1e-12,
        )

    @given(
        n=st.integers(1, 16),
        cb=st.integers(1, 5),
        ct=st.integers(1, 9),
        f=st.integers(1, 6),
        seed=st.integers(0, 2**31),
        block=st.integers(1, 6),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_parity(self, n, cb, ct, f, seed, block):
        rng = np.random.default_rng(seed)
        lut = rng.normal(size=(cb, ct, f))
        idx = rng.integers(0, ct, size=(n, cb)).astype(np.int32)
        np.testing.assert_allclose(
            lut_gather_reduce(idx, lut, block_rows=block),
            lut_lookup_reference(idx, lut),
            atol=1e-10,
        )


class TestGatherTiling:
    """The per-codebook path walks its rows in L2-sized tiles: its peak
    temporary is one tile, and tiling never changes a bit of the output."""

    @pytest.mark.parametrize("n, cb, f", [(1024, 64, 768), (300, 16, 1024)])
    def test_peak_temporary_is_one_tile(self, n, cb, f):
        """The parent's per-codebook temporary was as large as the output
        ((n, F) floats: 6 MiB at the first shape); it must stay within
        the tile budget (plus index copies) once the output outgrows it."""
        import tracemalloc

        from repro.kernels import lut as lut_mod

        rng = np.random.default_rng(1)
        lut = rng.normal(size=(cb, 16, f))
        idx = rng.integers(0, 16, size=(n, cb)).astype(np.int32)
        budget = lut_mod._GATHER_TILE_BYTES
        assert n * f * lut.itemsize > 2 * budget
        tracemalloc.start()
        try:
            out = lut_gather_reduce(idx, lut)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes <= budget + (16 << 10)
        np.testing.assert_allclose(out[:64], lut_lookup_reference(idx[:64], lut),
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cb", [1, 5])
    @pytest.mark.parametrize("tile_rows", [1, 3])
    @pytest.mark.parametrize("strategy", ["auto", "per-codebook"])
    @pytest.mark.parametrize("block_rows", [None, 5])
    def test_tiles_are_bit_identical(self, monkeypatch, dtype, cb, tile_rows,
                                     strategy, block_rows):
        """1-row and ragged 3-row tiles (17 rows; blocks of 5 split tiles
        too) equal one tile and the flat gather exactly."""
        from repro.kernels import lut as lut_mod

        rng = np.random.default_rng(2)
        f = 6
        lut = rng.normal(size=(cb, 7, f)).astype(dtype)
        idx = rng.integers(0, 7, size=(17, cb)).astype(np.int32)
        flat = lut_gather_reduce(idx, lut, strategy="flat")
        one_tile = lut_gather_reduce(idx, lut, strategy="per-codebook")
        if strategy == "auto":
            monkeypatch.setattr(lut_mod, "_GATHER_BUDGET_BYTES", 1)
        monkeypatch.setattr(lut_mod, "_GATHER_TILE_BYTES",
                            tile_rows * f * lut.itemsize)
        tiled = lut_gather_reduce(idx, lut, block_rows=block_rows,
                                  strategy=strategy)
        assert tiled.dtype == dtype
        np.testing.assert_array_equal(tiled, one_tile)
        np.testing.assert_array_equal(tiled, flat)


class TestQuantizedGatherReduce:
    @pytest.mark.parametrize("shape", [(4, 8, 6), (2, 256, 5), (1, 3, 7)])
    @pytest.mark.parametrize("per_codebook", [True, False])
    def test_int8_parity_vs_dequantized_lookup(self, rng, shape, per_codebook):
        """Fused INT8 path == dequantize-then-lookup, incl. the CT=256 edge
        and the global-scale (exact int32 accumulate) configuration."""
        cb, ct, f = shape
        lut = rng.normal(size=shape) * 3.0
        qlut = quantize_lut(lut, per_codebook=per_codebook)
        idx = rng.integers(0, ct, size=(17, cb)).astype(np.int32)
        expected = lut_lookup_reference(idx, qlut.dequantize())
        np.testing.assert_allclose(
            lut_gather_reduce_quantized(idx, qlut), expected, atol=1e-9
        )

    def test_global_scale_is_single_valued(self, rng):
        lut = rng.normal(size=(3, 4, 5))
        qlut = quantize_lut(lut, per_codebook=False)
        assert np.all(qlut.scales == qlut.scales[0])
        assert qlut.scales.shape == (3,)

    def test_blocked_equals_unblocked(self, rng):
        lut = rng.normal(size=(3, 5, 4))
        qlut = quantize_lut(lut)
        idx = rng.integers(0, 5, size=(13, 3)).astype(np.int32)
        whole = lut_gather_reduce_quantized(idx, qlut)
        for block in (1, 4, 13, 99):
            np.testing.assert_allclose(
                lut_gather_reduce_quantized(idx, qlut, block_rows=block),
                whole,
                atol=1e-12,
            )

    def test_bounds_checked(self, rng):
        qlut = quantize_lut(rng.normal(size=(3, 4, 5)))
        with pytest.raises(IndexError):
            lut_gather_reduce_quantized(np.full((2, 3), -2), qlut)
        with pytest.raises(IndexError):
            lut_gather_reduce_quantized(np.full((2, 3), 4), qlut)

    @given(
        n=st.integers(1, 16),
        cb=st.integers(1, 5),
        ct=st.one_of(st.integers(1, 9), st.just(256)),
        f=st.integers(1, 6),
        seed=st.integers(0, 2**31),
        block=st.integers(1, 6),
        per_codebook=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_parity(self, n, cb, ct, f, seed, block, per_codebook):
        rng = np.random.default_rng(seed)
        qlut = quantize_lut(rng.normal(size=(cb, ct, f)) * 3.0,
                            per_codebook=per_codebook)
        idx = rng.integers(0, ct, size=(n, cb)).astype(np.int32)
        np.testing.assert_allclose(
            lut_gather_reduce_quantized(idx, qlut, block_rows=block),
            lut_lookup_reference(idx, qlut.dequantize()),
            rtol=1e-9, atol=1e-12,
        )

    @pytest.mark.parametrize("per_codebook", [True, False])
    def test_decode_shaped_parity(self, rng, per_codebook):
        """A 4-row decode step through an FFN2-shaped table (CB=256, F=256)."""
        qlut = quantize_lut(rng.normal(size=(256, 16, 256)),
                            per_codebook=per_codebook)
        idx = rng.integers(0, 16, size=(4, 256)).astype(np.int32)
        np.testing.assert_allclose(
            lut_gather_reduce_quantized(idx, qlut),
            lut_lookup_reference(idx, qlut.dequantize()),
            rtol=1e-9, atol=1e-12,
        )

    @pytest.mark.parametrize("per_codebook", [True, False])
    @pytest.mark.parametrize("budget_rows", [0, 3])
    def test_budget_blocks_match_one_block(self, rng, monkeypatch,
                                           per_codebook, budget_rows):
        """Shrink the block budget to force many (and ragged) row blocks;
        the output and the call/row counters must not change."""
        from repro.kernels import lut as lut_mod

        cb, ct, f, n = 6, 8, 10, 40
        qlut = quantize_lut(rng.normal(size=(cb, ct, f)),
                            per_codebook=per_codebook)
        idx = rng.integers(0, ct, size=(n, cb)).astype(np.int32)
        whole = lut_gather_reduce_quantized(idx, qlut)
        element_bytes = 8 if per_codebook else 1
        monkeypatch.setattr(lut_mod, "_INT8_BLOCK_BYTES",
                            budget_rows * cb * f * element_bytes)
        registry = obs.get_registry()
        calls = registry.counter("kernels.lut.int8_gathers")
        rows = registry.counter("kernels.lut.rows")
        calls_before, rows_before = calls.value, rows.value
        blocked = lut_gather_reduce_quantized(idx, qlut)
        assert (calls.value, rows.value) == (calls_before + 1, rows_before + n)
        np.testing.assert_allclose(blocked, whole, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(
            blocked, lut_lookup_reference(idx, qlut.dequantize()),
            rtol=1e-9, atol=1e-12,
        )


class TestNarrowSignedIndices:
    """A negative index in a signed dtype too narrow for CT must raise, not
    alias a valid row through the unsigned view (int8 -1 -> 255 at CT=256)."""

    @pytest.mark.parametrize("dtype,ct", [(np.int8, 256), (np.int8, 200),
                                          (np.int16, 40000)])
    def test_negative_index_raises_everywhere(self, rng, dtype, ct):
        lut = rng.normal(size=(2, ct, 3))
        idx = np.zeros((3, 2), dtype=dtype)
        # The negative value whose unsigned view is the last valid row.
        idx[1, 1] = ct - 1 - 2 ** (8 * np.dtype(dtype).itemsize)
        with pytest.raises(IndexError):
            lut_lookup_reference(idx, lut)
        with pytest.raises(IndexError):
            lut_gather_reduce(idx, lut)
        with pytest.raises(IndexError):
            lut_gather_reduce_quantized(idx, quantize_lut(lut))
        with pytest.raises(IndexError):
            lut_lookup(idx, lut)

    def test_valid_narrow_indices_still_gather(self, rng):
        lut = rng.normal(size=(2, 256, 3))
        idx = rng.integers(0, 128, size=(5, 2)).astype(np.int8)
        expected = lut_lookup_reference(idx, lut)
        np.testing.assert_allclose(lut_gather_reduce(idx, lut), expected,
                                   atol=1e-12)
        qlut = quantize_lut(lut)
        np.testing.assert_allclose(
            lut_gather_reduce_quantized(idx, qlut),
            lut_lookup_reference(idx, qlut.dequantize()),
            rtol=1e-9, atol=1e-12,
        )


# ---------------------------------------------------------------------------
# Vectorized Lloyd update
# ---------------------------------------------------------------------------
class TestLloydUpdate:
    def test_matches_reference_without_empties(self, rng):
        points = rng.normal(size=(60, 3))
        cents = rng.normal(size=(5, 3))
        labels = np.tile(np.arange(5), 12)
        new, counts = lloyd_update(points, labels, 5, cents)
        np.testing.assert_allclose(
            new, lloyd_update_reference(points, labels, 5, cents), atol=1e-12
        )
        np.testing.assert_array_equal(counts, np.full(5, 12))

    def test_high_dim_add_at_path(self, rng):
        # d > 64 exercises the np.add.at fallback instead of bincounts.
        points = rng.normal(size=(30, 100))
        cents = rng.normal(size=(4, 100))
        labels = rng.integers(0, 4, size=30)
        new, _ = lloyd_update(points, labels, 4, cents)
        np.testing.assert_allclose(
            new, lloyd_update_reference(points, labels, 4, cents), atol=1e-12
        )

    def test_empty_clusters_reseed_distinct_farthest(self, rng):
        points = rng.normal(size=(20, 2))
        cents = rng.normal(size=(5, 2))
        labels = np.zeros(20, dtype=np.int64)  # clusters 1..4 empty
        new, counts = lloyd_update(points, labels, 5, cents)
        assert counts[0] == 20 and np.all(counts[1:] == 0)
        dists = np.sum((points - cents[0]) ** 2, axis=1)
        order = np.argsort(-dists)
        # Reseeds are the 4 *distinct* farthest points, farthest first —
        # unlike the reference, which parked every empty cluster on the
        # same single farthest point.
        np.testing.assert_allclose(new[1:], points[order[:4]], atol=1e-12)

    def test_kmeans_still_converges(self, rng):
        centers = rng.normal(size=(3, 2)) * 10
        points = np.concatenate(
            [c + 0.05 * rng.normal(size=(40, 2)) for c in centers]
        )
        cents, labels, inertia = kmeans(points, 3, rng=rng)
        assert inertia < 1.0
        assert len(np.unique(labels)) == 3


# ---------------------------------------------------------------------------
# LUTLinear wiring: fused paths + cache invalidation during calibration
# ---------------------------------------------------------------------------
def make_layer(rng, h=8, f=5, v=2, ct=4, **kwargs):
    from repro.autograd import Tensor

    weight = Tensor(rng.normal(size=(h, f)), requires_grad=True)
    bias = Tensor(rng.normal(size=(f,)), requires_grad=True)
    cents = Codebooks(rng.normal(size=(h // v, ct, v)))
    return LUTLinear(weight, bias, cents, **kwargs)


class TestLUTLinearKernelWiring:
    def test_int8_mode_uses_fused_quantized_kernel(self, rng):
        from repro.autograd import Tensor

        layer = make_layer(rng)
        layer.set_mode("lut")
        layer.freeze_lut(quantize_int8=True)
        counter = obs.get_registry().counter("kernels.lut.int8_gathers")
        before = counter.value
        x = rng.normal(size=(6, 8))
        out = layer(Tensor(x)).data
        assert counter.value == before + 1
        idx = closest_centroid_search(x, layer.current_codebooks())
        expected = lut_lookup_reference(idx, layer.quantized_lut.dequantize())
        np.testing.assert_allclose(out, expected + layer.bias.data, atol=1e-9)

    def test_mark_centroids_updated_invalidates_mid_calibration(self, rng):
        """Mutating centroids in place (as Adam does) + mark_centroids_updated
        must change the next forward's assignments."""
        from repro.autograd import Tensor

        layer = make_layer(rng)
        layer.set_mode("calibrate")
        x = rng.normal(size=(12, 8))
        layer(Tensor(x))
        idx_before = closest_centroid_search(x, layer.current_codebooks())
        prepares_before = layer._ccs_kernel.stats["prepares"]
        # Simulate an optimizer step: in-place update, then notification.
        layer.centroids.data[:] = rng.normal(size=layer.centroids.data.shape)
        layer.mark_centroids_updated()
        layer(Tensor(x))
        assert layer._ccs_kernel.stats["prepares"] == prepares_before + 1
        idx_after = closest_centroid_search(x, layer.current_codebooks())
        assert not np.array_equal(idx_before, idx_after)

    def test_calibrator_marks_updates(self, rng):
        """ELUTNNCalibrator must bump every layer's centroid version."""
        from repro.autograd import Tensor
        from repro.core import ELUTNNCalibrator
        from repro.nn.module import Module

        class Tiny(Module):
            def __init__(self, layer):
                super().__init__()
                self.layer = layer

            def forward(self, x):
                return self.layer(x)

        layer = make_layer(rng)
        model = Tiny(layer)
        batches = [(Tensor(rng.normal(size=(4, 8))), np.array([0, 1, 2, 3]))]
        ELUTNNCalibrator(lr=1e-3).calibrate(model, batches, epochs=2)
        assert layer._centroid_version == 2

    def test_repeated_lut_forwards_hit_cache(self, rng):
        from repro.autograd import Tensor

        layer = make_layer(rng)
        layer.set_mode("lut")
        layer.freeze_lut()
        x = Tensor(rng.normal(size=(4, 8)))
        layer(x)
        layer(x)
        assert layer._ccs_kernel.stats["cache_hits"] >= 1

    def test_kernel_dtype_float32_still_accurate(self, rng):
        from repro.autograd import Tensor

        f64 = make_layer(np.random.default_rng(3))
        f32 = make_layer(np.random.default_rng(3), kernel_dtype="float32")
        f64.set_mode("lut")
        f32.set_mode("lut")
        x = Tensor(rng.normal(size=(16, 8)))
        np.testing.assert_allclose(f32(x).data, f64(x).data, atol=1e-5)

    def test_soft_eval_fast_path_matches_autograd(self, rng):
        from repro.autograd import Tensor

        layer = make_layer(rng)
        layer.set_mode("soft")
        layer.temperature = 0.7
        layer.gumbel_noise = False
        x = rng.normal(size=(6, 8))
        layer.train()
        train_out = layer(Tensor(x)).data  # autograd path
        layer.eval()
        eval_out = layer(Tensor(x)).data  # numpy fast path
        np.testing.assert_allclose(eval_out, train_out, atol=1e-9)


# ---------------------------------------------------------------------------
# Host kernel profile + engine substitution
# ---------------------------------------------------------------------------
class TestHostKernelProfile:
    def test_times_scale_with_workload(self):
        profile = HostKernelProfile(
            dtype="float32",
            block_rows=DEFAULT_BLOCK_ROWS,
            ccs_ops_per_s=1e9,
            gather_elements_per_s=1e9,
            measured_shape=(128, 768, 768, 4, 16),
        )
        assert profile.ccs_time(128, 768, 16) == pytest.approx(
            3 * 128 * 768 * 16 / 1e9
        )
        assert profile.gather_time(128, 192, 768) == pytest.approx(
            128 * 192 * 768 / 1e9
        )

    def test_measure_returns_positive_throughput(self):
        profile = measure_host_kernels(n=8, h=32, f=16, v=4, ct=4, repeats=1)
        assert profile.ccs_ops_per_s > 0
        assert profile.gather_elements_per_s > 0
        assert profile.measured_shape == (8, 32, 16, 4, 4)

    def test_engines_use_profile_for_ccs(self):
        from repro.baselines import wimpy_host
        from repro.engine import PIMDLEngine
        from repro.engine.decode import LUTDecodeEngine
        from repro.pim import get_platform

        platform = get_platform("upmem")
        host = wimpy_host()
        profile = HostKernelProfile(
            dtype="float32",
            block_rows=DEFAULT_BLOCK_ROWS,
            ccs_ops_per_s=1e9,
            gather_elements_per_s=1e9,
            measured_shape=(8, 32, 16, 4, 4),
        )
        engine = PIMDLEngine(platform, host, ct=16, host_kernel_profile=profile)
        assert engine._ccs_time(64, 768) == pytest.approx(
            profile.ccs_time(64, 768, 16)
        )
        baseline = PIMDLEngine(platform, host, ct=16)
        assert engine._ccs_time(64, 768) != baseline._ccs_time(64, 768)
        decode = LUTDecodeEngine(platform, host, ct=16, host_kernel_profile=profile)
        assert decode._ccs_time(4, 768) == pytest.approx(
            profile.ccs_time(4, 768, 16)
        )

    def test_generation_server_forwards_profile(self):
        from repro.baselines import wimpy_host
        from repro.engine.serving import GenerationServer
        from repro.pim import get_platform

        profile = HostKernelProfile(
            dtype="float32",
            block_rows=DEFAULT_BLOCK_ROWS,
            ccs_ops_per_s=1e9,
            gather_elements_per_s=1e9,
            measured_shape=(8, 32, 16, 4, 4),
        )
        server = GenerationServer(
            get_platform("upmem"), wimpy_host(), host_kernel_profile=profile
        )
        assert server._prefill.host_kernel_profile is profile
        assert server._decode.host_kernel_profile is profile


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestKernelsCLI:
    def test_kernels_smoke(self, capsys):
        from repro.cli import main

        assert main([
            "kernels", "--n", "16", "--h", "16", "--f", "8",
            "--v", "4", "--ct", "4", "--int8", "--repeats", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "ccs" in out and "lut lookup" in out

    def test_kernels_json(self, capsys):
        from repro.cli import main

        assert main([
            "kernels", "--n", "16", "--h", "16", "--f", "8",
            "--v", "4", "--ct", "4", "--repeats", "1", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ccs"]["index_match"] == 1.0
        assert payload["lut"]["relative_error"] < 1e-9

    def test_kernels_rejects_bad_shape(self, capsys):
        from repro.cli import main

        assert main([
            "kernels", "--n", "4", "--h", "10", "--f", "4",
            "--v", "4", "--ct", "4",
        ]) == 2


# ---------------------------------------------------------------------------
# End-to-end parity smoke (the default-tier guarantee)
# ---------------------------------------------------------------------------
def test_parity_smoke(rng):
    """Fast end-to-end check: new kernel pipeline == frozen references."""
    x, cents = random_problem(rng, n=24, cb=8, ct=16, v=4)
    lut = rng.normal(size=(8, 16, 12))
    ref_idx = ccs_reference(x, cents)
    new_idx = CCSKernel(dtype="float64").search(x, cents)
    np.testing.assert_array_equal(new_idx, ref_idx)
    np.testing.assert_allclose(
        lut_gather_reduce(new_idx, lut),
        lut_lookup_reference(ref_idx, lut),
        atol=1e-10,
    )
    codebooks = Codebooks(cents)
    np.testing.assert_allclose(
        hard_replace(x, codebooks),
        codebooks.centroids[np.arange(8)[None, :], ref_idx].reshape(24, 32),
        atol=1e-12,
    )
