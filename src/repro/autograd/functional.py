"""Differentiable functional operations built on :class:`~repro.autograd.Tensor`.

These cover the activation, normalization, and loss functions that the
transformer workloads and LUT-NN calibrators require, mirroring the subset of
``torch.nn.functional`` the paper's PyTorch implementation uses.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, _route, is_grad_enabled


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    exps = shifted.exp()
    return exps / exps.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation, as in BERT).

    With no tape to record (grad mode off, or ``x`` needs no gradient) it
    runs the taped ops' float operations in the same order, in place on
    two numpy arrays where the ops allocate nine: the same bits.
    """
    if not (is_grad_enabled() and x.requires_grad):
        data = x.data
        t = data * 0.044715
        t *= data
        t *= data
        t += data
        t *= 0.7978845608028654
        np.tanh(t, out=t)
        t += 1.0
        out = data * 0.5
        out *= t
        return Tensor(out)
    inner = 0.7978845608028654 * (x + 0.044715 * x * x * x)
    return 0.5 * x * (1.0 + inner.tanh())


def relu(x: Tensor) -> Tensor:
    return x.relu()


def sigmoid(x: Tensor) -> Tensor:
    return 1.0 / (1.0 + (-x).exp())


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy between ``logits`` (N, C) and integer ``targets``.

    This is the "Model Loss" term of the eLUT-NN calibration objective
    (paper Eq. 1).
    """
    targets = np.asarray(targets, dtype=np.int64)
    logp = log_softmax(logits, axis=-1)
    n = logits.shape[0]
    picked = logp[np.arange(n), targets]
    return -picked.mean()


def mse(a: Tensor, b: Tensor) -> Tensor:
    """Mean squared error between two tensors."""
    diff = a - b
    return (diff * diff).mean()


def l2_reconstruction(approx: Tensor, exact: Tensor) -> Tensor:
    """Squared-L2 reconstruction error ``||A_hat W - A W||^2`` (paper Eq. 1).

    Returned as a mean over all elements so the penalty weight ``beta`` is
    comparable across layer shapes.
    """
    diff = approx - exact
    return (diff * diff).mean()


def dropout(x: Tensor, rate: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity when not training or ``rate`` is zero."""
    if not training or rate <= 0.0:
        return x
    keep = 1.0 - rate
    mask = (rng.random(x.shape) < keep).astype(np.float64) / keep
    out_data = x.data * mask

    def backward(grad: np.ndarray) -> None:
        _route(x, grad * mask)

    return Tensor._make(out_data, (x,), backward)


def ste_hard_assign(x: Tensor, hard: np.ndarray) -> Tensor:
    """Straight-through estimator: forward ``hard``, backward identity to ``x``.

    This implements the paper's Eq. 2: the closest-centroid-replacing
    function ``H(.)`` is not differentiable, so its Jacobian is approximated
    by the identity, letting gradients flow to whatever produced ``x``.
    """
    hard = np.asarray(hard, dtype=np.float64)
    if hard.shape != x.shape:
        raise ValueError(f"STE shape mismatch: {hard.shape} vs {x.shape}")

    def backward(grad: np.ndarray) -> None:
        _route(x, grad)

    return Tensor._make(hard, (x,), backward)


def accuracy(logits: Tensor, targets: np.ndarray) -> float:
    """Top-1 classification accuracy in [0, 1]."""
    predictions = logits.data.argmax(axis=-1)
    return float((predictions == np.asarray(targets)).mean())
