"""Unit tests for KV-cache incremental decoding."""

from unittest import mock

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.nn import DecoderLM, KVCache, MultiHeadAttention, TransformerEncoder
from repro.nn.transformer import EncoderLayer


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestKVCache:
    def test_append_accumulates(self, rng):
        cache = KVCache()
        assert cache.length == 0
        k1 = rng.normal(size=(2, 4, 3, 8))
        v1 = rng.normal(size=(2, 4, 3, 8))
        keys, values = cache.append(k1, v1)
        assert keys.shape == (2, 4, 3, 8)
        k2 = rng.normal(size=(2, 4, 1, 8))
        keys, values = cache.append(k2, k2)
        assert keys.shape == (2, 4, 4, 8)
        assert cache.length == 4
        np.testing.assert_array_equal(keys[:, :, :3], k1)

    def test_batch_change_rejected(self, rng):
        cache = KVCache()
        cache.append(rng.normal(size=(2, 4, 1, 8)), rng.normal(size=(2, 4, 1, 8)))
        with pytest.raises(ValueError):
            cache.append(rng.normal(size=(3, 4, 1, 8)), rng.normal(size=(3, 4, 1, 8)))

    @pytest.mark.parametrize("k_shape, v_shape", [
        ((1, 2, 3, 4), (1, 2, 1, 4)),   # keys and values disagree in new
        ((1, 2, 3, 4), (1, 3, 3, 4)),   # ... in heads
        ((2, 2, 3, 4), (1, 2, 3, 4)),   # ... in batch
        ((1, 2, 4), (1, 2, 4)),         # not 4-D
    ])
    def test_disagreeing_keys_and_values_rejected(self, k_shape, v_shape):
        cache = KVCache()
        with pytest.raises(ValueError, match=r"must be 4-D"):
            cache.append(np.zeros(k_shape), np.zeros(v_shape))
        assert cache.length == 0 and cache.keys is None

    @pytest.mark.parametrize("k_shape, v_shape", [
        ((1, 3, 1, 4), (1, 3, 1, 4)),   # heads differ from the cache's
        ((1, 2, 1, 5), (1, 2, 1, 4)),   # key head_dim differs
        ((1, 2, 1, 4), (1, 2, 1, 6)),   # value head_dim differs
    ])
    def test_mismatch_with_cache_names_the_shapes(self, k_shape, v_shape):
        cache = KVCache()
        cache.append(np.zeros((1, 2, 3, 4)), np.zeros((1, 2, 3, 4)))
        with pytest.raises(ValueError, match=r"\(1, 2, 3, 4\)"):
            cache.append(np.zeros(k_shape), np.zeros(v_shape))
        assert cache.length == 3

    def test_append_copies_its_inputs(self, rng):
        cache = KVCache()
        k = rng.normal(size=(1, 2, 2, 4))
        keys, _ = cache.append(k, k)
        k[:] = 0.0
        assert np.all(keys != 0.0)

    def test_reset(self, rng):
        cache = KVCache()
        cache.append(rng.normal(size=(1, 2, 1, 4)), rng.normal(size=(1, 2, 1, 4)))
        cache.reset()
        assert cache.length == 0


class TestIncrementalAttention:
    def test_matches_full_forward_token_by_token(self, rng):
        attn = MultiHeadAttention(16, 4, causal=True, rng=rng)
        x = rng.normal(size=(2, 6, 16))
        full = attn(Tensor(x)).data

        cache = KVCache()
        outputs = []
        for t in range(6):
            step = attn.forward_incremental(Tensor(x[:, t : t + 1]), cache)
            outputs.append(step.data)
        incremental = np.concatenate(outputs, axis=1)
        np.testing.assert_allclose(incremental, full, atol=1e-9)

    def test_matches_full_forward_chunked(self, rng):
        attn = MultiHeadAttention(16, 4, causal=True, rng=rng)
        x = rng.normal(size=(1, 8, 16))
        full = attn(Tensor(x)).data
        cache = KVCache()
        first = attn.forward_incremental(Tensor(x[:, :5]), cache).data
        second = attn.forward_incremental(Tensor(x[:, 5:]), cache).data
        np.testing.assert_allclose(
            np.concatenate([first, second], axis=1), full, atol=1e-9
        )

    def test_encoder_stack_incremental(self, rng):
        enc = TransformerEncoder(2, 16, 4, causal=True, rng=rng)
        enc.eval()
        x = rng.normal(size=(2, 5, 16))
        full = enc(Tensor(x)).data
        caches = enc.make_caches()
        outputs = []
        for t in range(5):
            outputs.append(enc.forward_incremental(Tensor(x[:, t : t + 1]), caches).data)
        np.testing.assert_allclose(np.concatenate(outputs, axis=1), full, atol=1e-9)

    def test_cache_count_validated(self, rng):
        enc = TransformerEncoder(2, 16, 4, causal=True, rng=rng)
        with pytest.raises(ValueError):
            enc.forward_incremental(Tensor(rng.normal(size=(1, 1, 16))), [KVCache()])


class TestCachedGeneration:
    def test_cached_equals_uncached_greedy(self, rng):
        model = DecoderLM(vocab_size=24, max_seq_len=20, dim=32,
                          num_layers=3, num_heads=4, rng=rng)
        prompt = np.array([[1, 5, 9], [2, 6, 10]])
        without = model.generate(prompt, new_tokens=10, use_cache=False)
        with_cache = model.generate(prompt, new_tokens=10, use_cache=True)
        np.testing.assert_array_equal(without, with_cache)

    @pytest.mark.parametrize("new_tokens", [1, 2, 5])
    def test_one_incremental_forward_per_new_token(self, rng, new_tokens):
        """The prompt's forward yields the first token and each later token
        needs one; the last sampled token is never encoded."""
        model = DecoderLM(vocab_size=24, max_seq_len=16, dim=32,
                          num_layers=3, num_heads=4, rng=rng)
        prompt = np.array([[1, 5, 9], [2, 6, 10]])
        calls = []
        original = EncoderLayer.forward_incremental

        def counting(layer, x, cache):
            calls.append(id(layer))
            return original(layer, x, cache)

        with mock.patch.object(EncoderLayer, "forward_incremental", counting):
            tokens = model.generate(prompt, new_tokens=new_tokens, use_cache=True)
        assert tokens.shape == (2, 3 + new_tokens)
        per_layer = [calls.count(id(layer)) for layer in model.encoder.layers]
        assert per_layer == [new_tokens] * 3
        np.testing.assert_array_equal(
            tokens, model.generate(prompt, new_tokens=new_tokens, use_cache=False))

    def test_cached_generation_bounds_checked(self, rng):
        model = DecoderLM(vocab_size=24, max_seq_len=8, dim=32,
                          num_layers=1, num_heads=4, rng=rng)
        with pytest.raises(ValueError):
            model.generate(np.array([[1, 2, 3]]), new_tokens=6, use_cache=True)
