"""Eval-mode forwards record no autograd tape.

An eval-mode *root* module call (no other module call running on the same
thread) runs under ``no_grad``; ``DecoderLM.generate`` always does.  The
tape never feeds forward values, so outputs are bit-identical to a taped
forward.  Nested calls keep their root's mode, so an eval-mode submodule
inside a training forward still passes gradients.
"""

import sys
import threading

import numpy as np
import pytest

from repro.autograd import Tensor, cross_entropy, is_grad_enabled, no_grad
from repro.core import convert_to_lut_nn, freeze_all_luts, set_lut_mode
from repro.nn import LayerNorm, Linear, Module, Sequential
from repro.nn.models import DecoderLM, PatchClassifier, TextClassifier

DIMS = dict(dim=16, num_layers=2, num_heads=2)


def _text(rng):
    return TextClassifier(40, 8, num_classes=3, rng=rng, **DIMS), \
        rng.integers(0, 40, size=(3, 8))


def _decoder(rng):
    return DecoderLM(40, 12, rng=rng, **DIMS), rng.integers(0, 40, size=(2, 6))


def _patches(rng):
    return PatchClassifier(5, 6, num_classes=3, rng=rng, **DIMS), \
        rng.normal(size=(3, 5, 6))


def _lut_text(rng):
    model, tokens = _text(rng)
    model.eval()
    convert_to_lut_nn(model, [tokens], v=4, ct=4, rng=rng, kmeans_iters=2)
    freeze_all_luts(model)
    set_lut_mode(model, "lut")
    return model, tokens


MODELS = {"text": _text, "decoder": _decoder, "patches": _patches,
            "lut-text": _lut_text}


def _leaves_with_grad(tensor):
    """Tensors with ``requires_grad`` reachable from ``tensor``'s tape."""
    seen, stack, count = set(), [tensor], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        count += node.requires_grad
        stack.extend(node._prev)
    return count


@pytest.mark.parametrize("kind", sorted(MODELS))
class TestEvalRootForward:
    def test_no_tape_and_bit_identical(self, kind):
        model, x = MODELS[kind](np.random.default_rng(0))
        model.train()  # dropout is 0: train and eval differ only in the tape
        taped = model(x)
        assert taped.requires_grad and taped._prev
        model.eval()
        lean = model(x)
        assert not lean.requires_grad
        assert lean._prev == ()
        assert _leaves_with_grad(lean) == 0
        np.testing.assert_array_equal(lean.data, taped.data)
        assert all(p.requires_grad for p in model.parameters())
        assert is_grad_enabled()

    def test_backward_raises(self, kind):
        model, x = MODELS[kind](np.random.default_rng(1))
        model.eval()
        out = model(x)
        with pytest.raises(RuntimeError, match="without grad"):
            out.sum().backward()


@pytest.mark.parametrize("frozen", ["layer", "norm"])
def test_eval_submodule_in_training_forward_passes_gradients(frozen):
    """Only a root call decides the grad mode: an eval-mode Linear or
    LayerNorm inside a training forward leaves every gradient unchanged."""
    grads = []
    for eval_one in (False, True):
        model, tokens = _text(np.random.default_rng(2))
        model.train()
        layer = model.encoder.layers[0]
        if eval_one:
            (layer.ffn.fc1 if frozen == "layer" else layer.norm1).eval()
        loss = cross_entropy(model(tokens), np.array([0, 1, 2]))
        loss.backward()
        grads.append({name: p.grad for name, p in model.named_parameters()})
    assert grads[0].keys() == grads[1].keys()
    for name, grad in grads[0].items():
        assert grad is not None, name
        np.testing.assert_array_equal(grads[1][name], grad, err_msg=name)


class _Failing(Module):
    def __init__(self, inner):
        super().__init__()
        self.inner = inner

    def forward(self, x):
        self.inner(x)
        raise ValueError("boom")


def test_flag_restored_after_forward_raises():
    model, tokens = _text(np.random.default_rng(3))
    model.eval()
    too_long = np.zeros((1, 9), dtype=np.int64)
    with pytest.raises(ValueError, match="exceeds max"):
        model(too_long)
    failing = _Failing(model).eval()
    with pytest.raises(ValueError, match="boom"):
        failing(tokens)
    assert is_grad_enabled()
    # The thread is no longer "inside a call": a training root records.
    model.train()
    assert model(tokens).requires_grad


def test_no_grad_restores_previous_mode():
    with no_grad():
        with no_grad():
            assert not is_grad_enabled()
        assert not is_grad_enabled()
        with pytest.raises(KeyError):
            with no_grad():
                raise KeyError("x")
        assert not is_grad_enabled()
    assert is_grad_enabled()


class _Held(Module):
    """Eval-mode forward that blocks until released."""

    def __init__(self, entered, release):
        super().__init__()
        self.entered, self.release = entered, release
        self.grad_inside = None

    def forward(self, x):
        self.grad_inside = is_grad_enabled()
        self.entered.set()
        assert self.release.wait(timeout=30)
        return x * 2.0


def test_training_thread_tapes_while_other_thread_is_in_eval_forward():
    entered, release = threading.Event(), threading.Event()
    held = _Held(entered, release).eval()
    results = {}

    def run_eval():
        results["eval"] = held(Tensor(np.ones(3), requires_grad=True))

    worker = threading.Thread(target=run_eval)
    worker.start()
    try:
        assert entered.wait(timeout=30)
        assert held.grad_inside is False
        assert is_grad_enabled()
        model, tokens = _text(np.random.default_rng(4))
        model.train()
        out = model(tokens)
        assert out.requires_grad and out._prev
        cross_entropy(out, np.array([0, 1, 2])).backward()
        assert all(p.grad is not None for p in model.parameters())
    finally:
        release.set()
        worker.join(timeout=30)
    assert not worker.is_alive()
    assert not results["eval"].requires_grad


def test_grad_mode_is_per_thread_under_preemption():
    """More threads than cores, switching every microsecond, each
    alternating eval and training forwards of its own model: every eval
    output is tape-free and every training output is taped."""
    errors = []

    def worker(seed):
        rng = np.random.default_rng(seed)
        model = Sequential(Linear(4, 4, rng=rng), LayerNorm(4))
        x = Tensor(rng.normal(size=(2, 4)))
        for step in range(60):
            training = (step + seed) % 2 == 0
            if training:
                model.train()
            else:
                model.eval()
            out = model(x)
            if out.requires_grad != training or bool(out._prev) != training:
                errors.append((seed, step, training))

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,))
                   for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert is_grad_enabled()


@pytest.mark.parametrize("mode", ["eval", "train"])
def test_generate_records_no_tape(monkeypatch, mode):
    model, prompt = _decoder(np.random.default_rng(5))
    getattr(model, mode)()
    recorded = []
    make = Tensor._make

    def spy(data, parents, backward):
        out = make(data, parents, backward)
        recorded.append(len(out._prev))
        return out

    monkeypatch.setattr(Tensor, "_make", staticmethod(spy))
    cached = model.generate(prompt, 5, use_cache=True)
    plain = model.generate(prompt, 5, use_cache=False)
    np.testing.assert_array_equal(cached, plain)
    assert recorded and not any(recorded)
    assert is_grad_enabled()
