"""Unit tests for the LUTLinear layer (modes, STE, centroid gradients)."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.core import (
    Codebooks,
    LUTLinear,
    closest_centroid_search,
    convert_to_lut_nn,
    freeze_all_luts,
    hard_replace,
    load_lut_model,
    lut_layers,
    save_lut_model,
    set_lut_mode,
)
from repro.nn import Linear
from repro.nn.models import DecoderLM


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def make_layer(rng, h=8, f=5, v=2, ct=4):
    linear = Linear(h, f, rng=rng)
    acts = rng.normal(size=(50, h))
    return LUTLinear.from_linear(linear, acts, v=v, ct=ct, rng=rng), linear


class TestConstruction:
    def test_from_linear_kmeans(self, rng):
        layer, linear = make_layer(rng)
        assert layer.in_features == 8 and layer.out_features == 5
        assert layer.cb == 4 and layer.ct == 4
        assert layer.weight is linear.weight

    def test_from_linear_random_init(self, rng):
        linear = Linear(8, 5, rng=rng)
        acts = rng.normal(size=(50, 8))
        layer = LUTLinear.from_linear(linear, acts, v=2, ct=4, rng=rng,
                                      centroid_init="random")
        assert layer.centroids.shape == (4, 4, 2)

    def test_rejects_unknown_init(self, rng):
        linear = Linear(8, 5, rng=rng)
        with pytest.raises(ValueError):
            LUTLinear.from_linear(linear, rng.normal(size=(50, 8)), v=2, ct=4,
                                  centroid_init="magic")

    def test_rejects_mismatched_codebooks(self, rng):
        linear = Linear(8, 5, rng=rng)
        with pytest.raises(ValueError):
            LUTLinear(linear.weight, linear.bias, Codebooks(np.zeros((3, 4, 2))))

    def test_centroids_are_trainable_parameter(self, rng):
        layer, _ = make_layer(rng)
        names = {n for n, _ in layer.named_parameters()}
        assert "centroids" in names


class TestModes:
    def test_exact_mode_matches_linear(self, rng):
        layer, linear = make_layer(rng)
        layer.set_mode("exact")
        x = rng.normal(size=(6, 8))
        np.testing.assert_allclose(layer(Tensor(x)).data, linear(Tensor(x)).data)

    def test_calibrate_equals_lut_before_quantization(self, rng):
        layer, _ = make_layer(rng)
        x = Tensor(rng.normal(size=(6, 8)))
        layer.set_mode("calibrate")
        calibrated = layer(x).data
        layer.set_mode("lut")
        layer.freeze_lut()
        np.testing.assert_allclose(layer(x).data, calibrated, atol=1e-10)

    def test_lut_mode_matches_hard_replace_matmul(self, rng):
        layer, _ = make_layer(rng)
        layer.set_mode("lut")
        layer.freeze_lut()
        x = rng.normal(size=(6, 8))
        expected = hard_replace(x, layer.current_codebooks()) @ layer.weight.data
        expected = expected + layer.bias.data
        np.testing.assert_allclose(layer(Tensor(x)).data, expected, atol=1e-10)

    def test_lut_mode_auto_freezes(self, rng):
        layer, _ = make_layer(rng)
        layer.set_mode("lut")
        assert layer.lut is None
        layer(Tensor(rng.normal(size=(2, 8))))
        assert layer.lut is not None

    def test_int8_quantization_small_error(self, rng):
        layer, _ = make_layer(rng)
        x = Tensor(rng.normal(size=(20, 8)))
        layer.set_mode("lut")
        layer.freeze_lut(quantize_int8=False)
        exact = layer(x).data
        layer.freeze_lut(quantize_int8=True)
        quant = layer(x).data
        assert layer.quantized_lut is not None
        rel = np.linalg.norm(quant - exact) / np.linalg.norm(exact)
        assert rel < 0.05

    def test_unknown_mode_rejected(self, rng):
        layer, _ = make_layer(rng)
        with pytest.raises(ValueError):
            layer.set_mode("banana")

    def test_3d_input_round_trip(self, rng):
        layer, _ = make_layer(rng)
        layer.set_mode("calibrate")
        out = layer(Tensor(rng.normal(size=(2, 3, 8))))
        assert out.shape == (2, 3, 5)

    def test_repr(self, rng):
        layer, _ = make_layer(rng)
        assert "LUTLinear" in repr(layer)


class TestCalibrateGradients:
    def test_ste_passes_gradient_to_input(self, rng):
        layer, _ = make_layer(rng)
        layer.set_mode("calibrate")
        x = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
        layer(x).sum().backward()
        assert x.grad is not None
        # STE: input gradient equals W @ upstream — same as the exact layer.
        np.testing.assert_allclose(
            x.grad, np.ones((4, 5)) @ layer.weight.data.T, atol=1e-10
        )

    def test_selected_centroids_receive_gradient(self, rng):
        layer, _ = make_layer(rng)
        layer.set_mode("calibrate")
        x = rng.normal(size=(4, 8))
        idx = closest_centroid_search(x, layer.current_codebooks())
        layer(Tensor(x)).sum().backward()
        grad = layer.centroids.grad
        assert grad is not None
        for c in range(layer.cb):
            used = set(idx[:, c])
            for k in range(layer.ct):
                norm = np.linalg.norm(grad[c, k])
                if k in used:
                    assert norm > 0
                else:
                    assert norm == 0

    def test_reconstruction_loss_recorded(self, rng):
        layer, _ = make_layer(rng)
        layer.set_mode("calibrate")
        assert layer.last_reconstruction_loss is None
        layer(Tensor(rng.normal(size=(4, 8))))
        assert layer.last_reconstruction_loss is not None
        assert layer.last_reconstruction_loss.item() >= 0

    def test_reconstruction_zero_for_centroid_inputs(self, rng):
        layer, _ = make_layer(rng)
        layer.set_mode("calibrate")
        cents = layer.current_codebooks()
        x = hard_replace(rng.normal(size=(4, 8)), cents)
        layer(Tensor(x))
        assert layer.last_reconstruction_loss.item() == pytest.approx(0.0, abs=1e-15)

    def test_weight_receives_gradient(self, rng):
        layer, _ = make_layer(rng)
        layer.set_mode("calibrate")
        layer(Tensor(rng.normal(size=(4, 8)))).sum().backward()
        assert layer.weight.grad is not None


class TestSoftMode:
    def test_low_temperature_approaches_hard(self, rng):
        layer, _ = make_layer(rng)
        x = Tensor(rng.normal(size=(6, 8)))
        layer.set_mode("calibrate")
        hard_out = layer(x).data
        layer.set_mode("soft")
        layer.temperature = 1e-4
        layer.gumbel_noise = False
        soft_out = layer(x).data
        np.testing.assert_allclose(soft_out, hard_out, atol=1e-6)

    def test_high_temperature_mixes_centroids(self, rng):
        layer, _ = make_layer(rng)
        x = Tensor(rng.normal(size=(6, 8)))
        layer.set_mode("soft")
        layer.temperature = 1e6
        layer.gumbel_noise = False
        mixed = layer(x).data
        # At infinite temperature every sub-vector maps to the centroid mean.
        mean_replaced = np.tile(
            layer.centroids.data.mean(axis=1).reshape(1, -1), (6, 1)
        )
        expected = mean_replaced @ layer.weight.data + layer.bias.data
        np.testing.assert_allclose(mixed, expected, atol=1e-6)

    def test_gumbel_noise_changes_assignments(self, rng):
        layer, _ = make_layer(rng)
        layer.set_mode("soft")
        layer.temperature = 0.5
        layer.gumbel_noise = True
        layer.training = True
        layer.gumbel_rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(6, 8)))
        a = layer(x).data
        b = layer(x).data
        assert not np.allclose(a, b)

    def test_gumbel_disabled_in_eval(self, rng):
        layer, _ = make_layer(rng)
        layer.set_mode("soft")
        layer.gumbel_noise = True
        layer.eval()
        x = Tensor(rng.normal(size=(6, 8)))
        np.testing.assert_allclose(layer(x).data, layer(x).data)

    def test_soft_gradients_reach_all_centroids(self, rng):
        layer, _ = make_layer(rng)
        layer.set_mode("soft")
        layer.temperature = 5.0
        layer.gumbel_noise = False
        layer(Tensor(rng.normal(size=(6, 8)))).sum().backward()
        grad = layer.centroids.grad
        # Soft assignment gives every centroid a nonzero gradient.
        assert np.all(np.linalg.norm(grad, axis=-1) > 0)


class TestLUTModeGradients:
    def test_lut_mode_backprops_to_upstream(self, rng):
        layer, _ = make_layer(rng)
        layer.set_mode("lut")
        layer.freeze_lut()
        x = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
        layer(x).sum().backward()
        assert x.grad is not None

    def test_lut_mode_no_tape_for_constants(self, rng):
        layer, _ = make_layer(rng)
        layer.set_mode("lut")
        layer.freeze_lut()
        out = layer(Tensor(rng.normal(size=(4, 8))))
        assert out.shape == (4, 5)


def _float64_tables(layer):
    """Every float64 array of the LUT's size reachable from the layer."""
    size = layer.cb * layer.ct * layer.out_features
    found, seen, stack = [], set(), [vars(layer)]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            if obj.dtype == np.float64 and obj.size == size:
                found.append(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__") and not isinstance(obj, np.random.Generator):
            stack.extend(vars(obj).values())
    return found


def _exact_int8_layer():
    """Integer centroids, weights and inputs, and a peak of 64 in every
    codebook's table: one shared INT8 scale, so the int32 sum and the one
    dequantization multiply are exact on any BLAS."""
    rng = np.random.default_rng(7)
    centroids = rng.integers(-2, 3, size=(4, 4, 2)).astype(np.float64)
    centroids[:, 0] = (8.0, 0.0)
    weight = rng.integers(-3, 4, size=(8, 6)).astype(np.float64)
    weight[0::2, 0] = 8.0
    bias = rng.integers(-3, 4, size=6).astype(np.float64)
    layer = LUTLinear(Tensor(weight), Tensor(bias), Codebooks(centroids))
    layer.set_mode("lut")
    layer.freeze_lut(quantize_int8=True)
    return layer, rng.integers(-3, 4, size=(5, 8)).astype(np.float64)


def _tiny_int8_decoder():
    rng = np.random.default_rng(11)
    model = DecoderLM(64, 16, dim=32, num_layers=1, num_heads=2, rng=rng)
    model.eval()
    calib = rng.integers(0, 64, size=(2, 12))
    convert_to_lut_nn(model, [calib], v=4, ct=8, rng=rng, kmeans_iters=3,
                      max_rows=calib.size)
    freeze_all_luts(model, quantize_int8=True)
    set_lut_mode(model, "lut")
    return model, rng.integers(0, 64, size=(2, 6))


#: Recorded when INT8 layers still kept a float64 copy of the table.
EXACT_INT8_FORWARD = [
    '-0x1.0204081020408p+4', '0x1.43870e1c3870ep+2', '0x1.6204081020408p+3',
    '0x1.f7efdfbf7efe0p-1', '0x1.63468d1a3468dp+3', '0x1.83060c183060cp+1',
    '0x1.b366cd9b366cep+5', '0x1.22c58b162c58bp+3', '-0x1.8489122448912p+2',
    '-0x1.8489122448912p+2', '-0x1.fbf7efdfbf7f0p-1', '-0x1.c3870e1c3870ep+3',
    '0x1.ebd7af5ebd7afp+5', '0x1.e448912244890p+3', '-0x1.03870e1c3870ep+2',
    '-0x1.8489122448912p+2', '0x1.0408102040810p+1', '-0x1.e3c78f1e3c78fp+3',
    '-0x1.83060c183060cp+2', '0x1.850a142850a14p+1', '0x1.e3060c183060cp+3',
    '0x1.8000000000000p+1', '0x1.a3c78f1e3c78fp+3', '0x1.c3870e1c3870ep+2',
    '-0x1.72e5cb972e5ccp+4', '-0x1.fbf7efdfbf7f0p-1', '0x1.2183060c18306p+3',
    '0x1.f7efdfbf7efe0p-1', '0x1.02850a142850ap+3', '0x1.0204081020408p+2',
]
TINY_DECODER_TOKENS = [
    [6, 17, 63, 11, 44, 40, 51, 12, 36, 55, 35, 33],
    [27, 51, 29, 37, 13, 21, 45, 56, 35, 29, 35, 33],
]
TINY_DECODER_ARGMAX = [
    [44, 31, 35, 36, 55, 51, 12, 36, 55, 35, 33],
    [0, 25, 54, 36, 61, 45, 56, 35, 29, 35, 33],
]


class TestInt8Storage:
    """An INT8 layer keeps one byte per table entry, not a float64 copy."""

    def test_int8_freeze_keeps_no_float_table(self, rng):
        layer, _ = make_layer(rng, h=8, f=5, v=2, ct=4)
        layer.freeze_lut(quantize_int8=True)
        assert layer.quantized_lut is not None
        assert _float64_tables(layer) == []
        assert np.array_equal(layer.lut, layer.quantized_lut.dequantize())
        assert layer.lut is not layer.lut  # built on demand

    def test_float_refreeze_drops_int8_table(self, rng):
        layer, _ = make_layer(rng, h=8, f=5, v=2, ct=4)
        layer.freeze_lut(quantize_int8=True)
        layer.freeze_lut(quantize_int8=False)
        assert layer.quantized_lut is None
        assert len(_float64_tables(layer)) == 1
        assert layer.lut is layer.lut

    def test_lazy_freeze_reads_either_table(self, rng, monkeypatch):
        layer, _ = make_layer(rng, h=8, f=5, v=2, ct=4)
        layer.set_mode("lut")
        layer.freeze_lut(quantize_int8=True)
        calls = []
        monkeypatch.setattr(layer, "freeze_lut", lambda **kw: calls.append(kw))
        layer(Tensor(rng.normal(size=(3, 8))))
        assert calls == []

    def test_loaded_model_keeps_no_float_table(self, tmp_path):
        model, prompt = _tiny_int8_decoder()
        expected = model.generate(prompt, 6, use_cache=True)
        path = save_lut_model(model, str(tmp_path / "model.npz"))
        fresh, _ = _tiny_int8_decoder()
        for _, layer in lut_layers(fresh):
            layer.freeze_lut(quantize_int8=False)
        load_lut_model(fresh, path)
        for name, layer in lut_layers(fresh):
            assert _float64_tables(layer) == [], name
            assert np.array_equal(layer.lut, layer.quantized_lut.dequantize()), name
        assert np.array_equal(fresh.generate(prompt, 6, use_cache=True), expected)

    def test_int8_forward_matches_recorded(self):
        layer, x = _exact_int8_layer()
        out = layer(Tensor(x)).data
        assert [v.hex() for v in out.ravel().tolist()] == EXACT_INT8_FORWARD

    def test_int8_generate_matches_recorded(self):
        model, prompt = _tiny_int8_decoder()
        tokens = model.generate(prompt, 6, use_cache=True)
        assert tokens.tolist() == TINY_DECODER_TOKENS
        logits = model(tokens[:, :-1]).data
        assert logits.argmax(axis=-1).tolist() == TINY_DECODER_ARGMAX
