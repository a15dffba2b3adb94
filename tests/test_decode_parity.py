"""The lean eval-mode LUT-NN forward gives the taped forward's bits.

Three exact rewrites are held to the code they replaced, which is kept
below verbatim and patched back in as the reference:

* ``KVCache`` appends into geometrically grown buffers instead of
  concatenating the whole cache on every append;
* ``LayerNorm`` and ``lut``-mode ``LUTLinear`` run the taped ops' float
  operations on numpy arrays when there is no tape to record, and
  ``Module.__call__`` skips ``no_grad()`` when grad mode is already off;
* ``CCSKernel`` bounds each score block in bytes (``_SCORE_BLOCK_BYTES``)
  under the ``block_rows`` cap.

Greedy tokens, every decode step's logits, gradients and CCS indices and
distances must be ``array_equal`` to the references.
"""

import numpy as np
import pytest

from repro import obs
from repro.autograd import Tensor, cross_entropy, no_grad
from repro.autograd.tensor import _route
from repro.core import (Codebooks, LUTLinear, convert_to_lut_nn, freeze_all_luts,
                        set_lut_mode)
from repro.kernels import ccs as ccs_module
from repro.kernels import CCSKernel, lut_gather_reduce, lut_gather_reduce_quantized
from repro.nn import LayerNorm, Linear, Module, Sequential, attention
from repro.nn.models import DecoderLM
from repro.nn.module import _CALL_STATE


# ----------------------------------------------------------------------
# References: the replaced code, verbatim
# ----------------------------------------------------------------------
class ConcatKVCache:
    """Per-layer key/value cache for incremental decoding."""

    def __init__(self):
        self.keys: np.ndarray = None
        self.values: np.ndarray = None

    @property
    def length(self) -> int:
        return 0 if self.keys is None else self.keys.shape[2]

    def append(self, k_new: np.ndarray, v_new: np.ndarray):
        """Append (batch, heads, new, head_dim) entries; return the totals."""
        if self.keys is None:
            self.keys, self.values = k_new, v_new
        else:
            if k_new.shape[0] != self.keys.shape[0]:
                raise ValueError("batch size changed mid-generation")
            self.keys = np.concatenate([self.keys, k_new], axis=2)
            self.values = np.concatenate([self.values, v_new], axis=2)
        return self.keys, self.values

    def reset(self) -> None:
        self.keys = None
        self.values = None


def taped_layer_norm_forward(self, x: Tensor) -> Tensor:
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    normed = (x - mu) / (var + self.eps).sqrt()
    return normed * self.gamma + self.beta


def taped_lut_linear_forward(self, x: Tensor) -> Tensor:
    if not isinstance(x, Tensor):
        x = Tensor(np.asarray(x, dtype=np.float64))
    leading = x.shape[:-1]
    n = int(np.prod(leading)) if leading else 1
    flat = x.reshape(n, self.in_features)

    if self.mode == "exact":
        out = flat @ self.weight
    elif self.mode == "calibrate":
        out = self._calibrate_forward(flat)
    elif self.mode == "soft":
        out = self._soft_forward(flat)
    elif self.mode == "lut":
        out = self._lut_forward(flat)
    else:  # pragma: no cover - set_mode guards this
        raise RuntimeError(f"invalid mode {self.mode!r}")

    if self.bias is not None:
        out = out + self.bias
    return out.reshape(*leading, self.out_features)


def taped_lut_forward(self, flat: Tensor) -> Tensor:
    if self._lut is None and self._qlut is None:
        self.freeze_lut()
    indices = self._search(flat.data)
    if self._qlut is not None:
        # Fused INT8 path: gather the int8 table directly and
        # dequantize once per output (paper §6.3 deployment numerics).
        out = lut_gather_reduce_quantized(
            indices, self._qlut, offsets=self._gather_offsets
        )
    else:
        out = lut_gather_reduce(
            indices, self._lut, offsets=self._gather_offsets
        )
    result = Tensor(out)

    # Keep the tape alive for upstream layers via STE so mixed
    # lut/calibrate stacks remain trainable end to end.
    if flat.requires_grad:
        def backward(grad: np.ndarray) -> None:
            _route(flat, grad @ self.weight.data.T)

        result = Tensor._make(out, (flat,), backward)
    return result


def module_call(self, *args, **kwargs):
    state = _CALL_STATE
    if state.active:
        return self.forward(*args, **kwargs)
    state.active = True
    try:
        if self.training:
            return self.forward(*args, **kwargs)
        with no_grad():
            return self.forward(*args, **kwargs)
    finally:
        state.active = False


def use_reference(patch) -> None:
    """Patch the replaced code back in on the ``MonkeyPatch`` ``patch``."""
    patch.setattr(attention, "KVCache", ConcatKVCache)
    patch.setattr(LayerNorm, "forward", taped_layer_norm_forward)
    patch.setattr(LUTLinear, "forward", taped_lut_linear_forward)
    patch.setattr(LUTLinear, "_lut_forward", taped_lut_forward)
    patch.setattr(Module, "__call__", module_call)


# ----------------------------------------------------------------------
# Generation parity
# ----------------------------------------------------------------------
VOCAB = 50


def _decoder(kind, seed):
    rng = np.random.default_rng(seed)
    model = DecoderLM(VOCAB, 24, dim=32, num_layers=2, num_heads=4,
                      mlp_ratio=2, rng=rng)
    model.eval()
    if kind != "dense":
        calib = rng.integers(0, VOCAB, size=(2, 16))
        convert_to_lut_nn(model, [calib], v=4, ct=8, rng=rng, kmeans_iters=3)
        freeze_all_luts(model, quantize_int8=kind == "int8")
        set_lut_mode(model, "lut")
    return model, rng


def _generate(model, prompt, new_tokens, monkeypatch):
    """Greedy cached tokens and the logits of every step."""
    logits = []
    sample = DecoderLM._sample

    def record(self, step_logits, greedy, rng):
        logits.append(step_logits.copy())
        return sample(self, step_logits, greedy, rng)

    with monkeypatch.context() as patch:
        patch.setattr(DecoderLM, "_sample", record)
        tokens = model.generate(prompt, new_tokens, use_cache=True)
    return tokens, np.stack(logits)


# (prompt, new tokens): the buffers grow at prompt, 2x and 4x entries; a
# one-token prompt starts the cache at one entry.
CROSSINGS = [(1, 9), (3, 10), (5, 12)]


@pytest.mark.parametrize("kind", ["int8", "float-lut", "dense"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generation_matches_reference(kind, seed, monkeypatch):
    model, rng = _decoder(kind, seed)
    for prompt_len, new_tokens in CROSSINGS:
        prompt = rng.integers(0, VOCAB, size=(3, prompt_len))
        got = _generate(model, prompt, new_tokens, monkeypatch)
        with monkeypatch.context() as patch:
            use_reference(patch)
            want = _generate(model, prompt, new_tokens, monkeypatch)
        np.testing.assert_array_equal(got[0], want[0])
        assert got[1].shape == (new_tokens, 3, VOCAB)
        np.testing.assert_array_equal(got[1], want[1])


def test_prefill_logits_match_reference(monkeypatch):
    model, rng = _decoder("int8", 4)
    tokens = rng.integers(0, VOCAB, size=(4, 24))
    got = model(tokens)
    assert not got.requires_grad
    with monkeypatch.context() as patch:
        use_reference(patch)
        want = model(tokens)
    np.testing.assert_array_equal(got.data, want.data)


# ----------------------------------------------------------------------
# KV buffer views
# ----------------------------------------------------------------------
def test_kv_views_have_concatenated_matrix_strides():
    """Every (batch, head) matrix of a view is strided like the same matrix
    of the concatenated cache, so each matmul slice is the same BLAS call."""
    rng = np.random.default_rng(0)
    cache, concat = attention.KVCache(), ConcatKVCache()
    for new in (4, 1, 1, 3, 1, 7, 1):
        k = rng.normal(size=(2, 3, new, 8))
        v = rng.normal(size=(2, 3, new, 5))
        keys, values = cache.append(k, v)
        want_k, want_v = concat.append(k, v)
        assert keys.strides[2:] == want_k.strides[2:]
        assert values.strides[2:] == want_v.strides[2:]
        np.testing.assert_array_equal(keys, want_k)
        np.testing.assert_array_equal(values, want_v)
        assert cache.length == concat.length
        np.testing.assert_array_equal(cache.keys, keys)


def test_kv_buffer_grows_geometrically():
    cache = attention.KVCache()
    capacities = []
    for _ in range(17):
        cache.append(np.zeros((1, 2, 1, 4)), np.zeros((1, 2, 1, 4)))
        capacities.append(cache._keys.shape[2])
    assert sorted(set(capacities)) == [1, 2, 4, 8, 16, 32]
    cache.reset()
    assert cache.length == 0 and cache.keys is None and cache.values is None


def test_kv_promotes_like_concatenation():
    cache = attention.KVCache()
    cache.append(np.ones((1, 1, 2, 2), np.float32), np.ones((1, 1, 2, 2), np.float32))
    keys, values = cache.append(np.full((1, 1, 1, 2), 0.1), np.full((1, 1, 1, 2), 0.1))
    want = np.concatenate([np.ones((1, 1, 2, 2), np.float32),
                           np.full((1, 1, 1, 2), 0.1)], axis=2)
    assert keys.dtype == values.dtype == want.dtype == np.float64
    np.testing.assert_array_equal(keys, want)


# ----------------------------------------------------------------------
# Tape-free vs taped layers
# ----------------------------------------------------------------------
def _lut_layer(seed, quantize_int8, h=64, f=48):
    rng = np.random.default_rng(seed)
    linear = Linear(h, f, rng=rng)
    linear.bias.data = rng.normal(size=f)
    layer = LUTLinear.from_linear(linear, rng.normal(size=(256, h)), v=4, ct=8,
                                  rng=rng, kmeans_iters=3)
    layer.freeze_lut(quantize_int8=quantize_int8)
    layer.set_mode("lut")
    return layer, rng


def _norm_layer(seed, dim=64):
    rng = np.random.default_rng(seed)
    norm = LayerNorm(dim)
    norm.gamma.data = rng.normal(size=dim)
    norm.beta.data = rng.normal(size=dim)
    return norm, rng


@pytest.mark.parametrize("n", [1, 4, 1024])
@pytest.mark.parametrize("layer", ["int8", "float-lut", "layernorm"])
def test_tape_free_matches_taped(layer, n, monkeypatch):
    if layer == "layernorm":
        module, rng = _norm_layer(n)
    else:
        module, rng = _lut_layer(n, quantize_int8=layer == "int8")
    module.eval()
    # A (n, H) input and a strided (…, 1, H) slice, as generate passes it.
    x = Tensor(rng.normal(size=(n, 64)))
    sliced = Tensor(rng.normal(size=(n, 3, 64)))[:, -1:, :]
    got = [module(x), module(sliced)]
    with monkeypatch.context() as patch:
        use_reference(patch)
        want = [module(x), module(sliced)]
    for g, w in zip(got, want):
        assert not g.requires_grad
        assert g.shape == w.shape
        np.testing.assert_array_equal(g.data, w.data)


def _train_step(module, x, target):
    module.train()
    module.zero_grad()
    out = module(x)
    loss = cross_entropy(out.reshape(-1, out.shape[-1]), target)
    loss.backward()
    return out.data, {name: p.grad.copy() for name, p in module.named_parameters()
                      if p.grad is not None}


@pytest.mark.parametrize("x_grad", [False, True])
@pytest.mark.parametrize("layer", ["float-lut", "layernorm"])
def test_training_gradients_match_reference(layer, x_grad, monkeypatch):
    """Under grad in training mode bias, gamma and beta get the reference's
    gradients, whether or not the input needs one."""
    if layer == "layernorm":
        module, rng = _norm_layer(7)
    else:
        module, rng = _lut_layer(7, quantize_int8=False)
    data = rng.normal(size=(6, 64))
    target = rng.integers(0, 8, size=6)

    x = Tensor(data, requires_grad=x_grad)
    got_out, got = _train_step(module, x, target)
    got_x = x.grad
    with monkeypatch.context() as patch:
        use_reference(patch)
        x = Tensor(data, requires_grad=x_grad)
        want_out, want = _train_step(module, x, target)
    np.testing.assert_array_equal(got_out, want_out)
    expected = {"gamma", "beta"} if layer == "layernorm" else {"bias"}
    assert expected <= set(got)
    assert set(got) == set(want)
    for name in got:
        np.testing.assert_array_equal(got[name], want[name])
    if x_grad:
        np.testing.assert_array_equal(got_x, x.grad)


def test_mixed_lut_calibrate_stack_backprops_through_ste(monkeypatch):
    """A calibrate layer under a lut layer trains: the lut layer's STE
    routes the gradient to its input, bit for bit as before."""
    rng = np.random.default_rng(11)
    first = LUTLinear(Linear(64, 64, rng=rng).weight, None,
                      Codebooks.from_activations(rng.normal(size=(128, 64)), v=4,
                                                 ct=8, max_iters=3, rng=rng))
    second, _ = _lut_layer(12, quantize_int8=False, h=64, f=8)
    first.set_mode("calibrate")
    stack = Sequential(first, second)
    data = rng.normal(size=(5, 64))
    target = rng.integers(0, 8, size=5)

    _, got = _train_step(stack, Tensor(data), target)
    with monkeypatch.context() as patch:
        use_reference(patch)
        _, want = _train_step(stack, Tensor(data), target)
    assert "0.centroids" in got and "1.bias" in got
    assert np.any(got["0.centroids"] != 0)
    assert set(got) == set(want)
    for name in got:
        np.testing.assert_array_equal(got[name], want[name])


# ----------------------------------------------------------------------
# CCS score blocks
# ----------------------------------------------------------------------
SHAPES = [(64, 16, 4), (16, 8, 2)]  # (CB, CT, V)


@pytest.mark.parametrize("dtype", [None, "float32"])
@pytest.mark.parametrize("block_rows", [None, 1, 5])
def test_ccs_blocks_are_bit_identical_at_every_budget(dtype, block_rows,
                                                      monkeypatch):
    """Indices and distances do not depend on the score budget.  A huge
    budget walks ``block_rows`` blocks only, as the kernel did before the
    budget; one byte gives the two-row floor.  No n is a multiple of a
    block, and a one-row tail would run through gemv."""
    rng = np.random.default_rng(3)
    budgets = (1, 3 * 64 * 16 * 8, ccs_module._SCORE_BLOCK_BYTES)
    for cb, ct, v in SHAPES:
        centroids = rng.normal(size=(cb, ct, v))
        for n in (1, 2, 3, 129, 1001, 2049):
            x = rng.normal(size=(n, cb * v))
            results = []
            for budget in (1 << 40,) + budgets:
                monkeypatch.setattr(ccs_module, "_SCORE_BLOCK_BYTES", budget)
                kernel = CCSKernel(dtype=dtype, block_rows=block_rows)
                results.append((kernel.search(x, centroids),
                                kernel.squared_distances(x, centroids)))
            want_indices, want_distances = results[0]
            for budget, (indices, distances) in zip(budgets, results[1:]):
                msg = f"budget {budget}, (CB, CT, V) {(cb, ct, v)}, n {n}"
                np.testing.assert_array_equal(indices, want_indices, err_msg=msg)
                np.testing.assert_array_equal(distances, want_distances,
                                              err_msg=msg)


def test_ccs_blocks_respect_budget_and_cap(monkeypatch):
    """Blocks of the budget's rows within each ``block_rows`` block; a
    one-row tail joins the block before it, and a one-row ``block_rows``
    block stays alone."""
    kernel = CCSKernel(dtype="float64", block_rows=91)
    monkeypatch.setattr(ccs_module, "_SCORE_BLOCK_BYTES", 64 * 16 * 8 * 30)
    prep = kernel.prepare(np.zeros((64, 16, 4)), version=0)
    seen = []

    def emit(start, stop, sub, scores):
        assert scores.shape == (64, stop - start, 16)
        seen.append(stop - start)

    kernel._apply_blocked(np.zeros((183, 256)), prep, emit)
    assert seen == [30, 30, 31, 30, 30, 31, 1]


# ----------------------------------------------------------------------
# bench id nn.lut-decode
# ----------------------------------------------------------------------
def test_lut_decode_bench_reports_microseconds_per_token():
    """One warm-up and 5 timed cached decodes; each runs 16 forwards (the
    prompt, then 15 one-token steps) through 2 layers of 4 LUT linears."""
    from repro.cli import _bench_lut_decode

    obs.reset()
    try:
        value, meta = _bench_lut_decode("upmem")
        searches = obs.get_registry().counter("kernels.ccs.searches").value
    finally:
        obs.reset()
    assert meta["unit"] == "us"
    assert meta["prompt"] == "2x16" and meta["new_tokens"] == 16
    assert searches == 6 * 16 * 2 * 4
    assert 0.0 < value < 1e6
