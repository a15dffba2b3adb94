"""Additional property-based tests over the extension modules."""

import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import LUTShape, lut_memory_overhead
from repro.mapping import (
    Mapping,
    MappingCache,
    TuningResult,
    estimate_latency,
    is_legal,
    mapping_from_dict,
    mapping_to_dict,
)
from repro.pim import get_platform

TRAVERSAL_OPTIONS = [
    ("n", "f", "cb"), ("n", "cb", "f"), ("f", "n", "cb"),
    ("f", "cb", "n"), ("cb", "n", "f"), ("cb", "f", "n"),
]


@settings(max_examples=50, deadline=None)
@given(
    n_s=st.sampled_from([16, 64, 256]),
    f_s=st.sampled_from([8, 32, 128]),
    n_m=st.sampled_from([1, 4, 16]),
    f_m=st.sampled_from([1, 4, 8]),
    cb_m=st.sampled_from([1, 2, 4]),
    traversal=st.sampled_from(TRAVERSAL_OPTIONS),
    scheme=st.sampled_from(["static", "coarse", "fine"]),
    cb_l=st.sampled_from([1, 2]),
    f_l=st.sampled_from([1, 4]),
)
def test_mapping_serialization_round_trip(
    n_s, f_s, n_m, f_m, cb_m, traversal, scheme, cb_l, f_l
):
    """Every Mapping survives dict (JSON) serialization exactly."""
    assume(n_m <= n_s and f_m <= f_s)
    mapping = Mapping(n_s, f_s, n_m, f_m, cb_m, traversal, scheme,
                      cb_load_tile=cb_l, f_load_tile=f_l)
    assert mapping_from_dict(mapping_to_dict(mapping)) == mapping


@settings(max_examples=20, deadline=None)
@given(
    n=st.sampled_from([64, 256]),
    h=st.sampled_from([16, 32]),
    f=st.sampled_from([32, 64]),
)
def test_store_round_trip_preserves_results(n, h, f):
    shape = LUTShape(n=n, h=h, f=f, v=4, ct=4)
    platform = get_platform("upmem")
    mapping = Mapping(n_s_tile=n // 4, f_s_tile=f // 2, n_m_tile=4, f_m_tile=4,
                      cb_m_tile=2, load_scheme="coarse",
                      cb_load_tile=2, f_load_tile=4)
    assume(is_legal(shape, mapping, platform))
    result = TuningResult(
        shape=shape,
        mapping=mapping,
        latency=estimate_latency(shape, mapping, platform),
        candidates_evaluated=1,
    )
    with tempfile.TemporaryDirectory() as directory:
        cache = MappingCache(directory)
        cache.put(platform, result)
        loaded = cache.get(platform, shape)
    assert loaded == result


@settings(max_examples=40, deadline=None)
@given(
    v=st.sampled_from([2, 4, 8]),
    ct=st.sampled_from([4, 8, 16, 32]),
    h=st.sampled_from([256, 768]),
    f=st.sampled_from([256, 1024]),
)
def test_memory_overhead_scales_like_ct_over_v(v, ct, h, f):
    shape = LUTShape(n=16, h=h, f=f, v=v, ct=ct)
    ratio = lut_memory_overhead(shape, weight_dtype_bytes=1, lut_dtype_bytes=1)
    # Tables dominate; the codebook term only adds a small epsilon.
    assert ratio == pytest.approx(ct / v, rel=0.2)
    assert ratio >= ct / v


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    new_tokens=st.integers(0, 6),
)
def test_generation_prefix_preserved(seed, new_tokens):
    """Generated sequences always extend (never modify) the prompt."""
    from repro.nn import DecoderLM

    rng = np.random.default_rng(seed)
    model = DecoderLM(vocab_size=16, max_seq_len=12, dim=16,
                      num_layers=1, num_heads=2, rng=rng)
    prompt = rng.integers(0, 16, size=(2, 3))
    out = model.generate(prompt, new_tokens=new_tokens, use_cache=True)
    assert out.shape == (2, 3 + new_tokens)
    np.testing.assert_array_equal(out[:, :3], prompt)
    assert np.all((0 <= out) & (out < 16))


@settings(max_examples=20, deadline=None)
@given(
    cb=st.integers(1, 3),
    ct=st.integers(1, 4),
    f=st.integers(1, 5),
    seed=st.integers(0, 1000),
)
def test_quantization_idempotent(cb, ct, f, seed):
    """Quantizing an already-quantized (dequantized) table is lossless."""
    from repro.core import quantize_lut

    rng = np.random.default_rng(seed)
    lut = rng.normal(size=(cb, ct, f)) * 3
    once = quantize_lut(lut).dequantize()
    twice = quantize_lut(once).dequantize()
    np.testing.assert_allclose(twice, once, atol=1e-12)
