"""Basic layers: Linear, LayerNorm, Embedding, activations, dropout.

``Linear`` is the layer class the LUT-NN converter targets — every instance
in a model's QKV/O projections and FFNs is replaced by a
:class:`repro.core.lut_linear.LUTLinear` during conversion (paper Fig. 6).
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, functional as F, is_grad_enabled
from ..autograd.init import normal, ones, zeros
from .module import Module

#: BERT's weight initialization standard deviation.
DEFAULT_INIT_STD = 0.02

#: Seed of the module-level default generator used when a layer is built
#: without an explicit ``rng``.  Layers used to fall back to an *unseeded*
#: ``np.random.default_rng()``, so two identically-constructed models (and
#: anything downstream of their weights, e.g. MoE gate routing) diverged
#: run-to-run.  A shared seeded generator keeps default construction
#: reproducible while still giving every layer distinct weights.
DEFAULT_RNG_SEED = 0

_default_rng = np.random.default_rng(DEFAULT_RNG_SEED)


def default_rng() -> np.random.Generator:
    """The shared seeded generator layers fall back to when ``rng=None``."""
    return _default_rng


def reset_default_rng(seed: int = DEFAULT_RNG_SEED) -> np.random.Generator:
    """Re-seed the shared default generator (test isolation / fresh runs).

    Returns the new generator so callers can hold a direct reference.
    """
    global _default_rng
    if seed is None or seed < 0:
        raise ValueError("seed must be a non-negative int")
    _default_rng = np.random.default_rng(seed)
    return _default_rng


class Linear(Module):
    """Affine map ``y = x W + b`` with weight shape (in_features, out_features).

    In paper notation the activation is N×H, the weight is H×F (stored here
    as ``weight`` with shape (H, F)), and the output is N×F.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator = None,
    ):
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("feature dims must be positive")
        if rng is None:
            rng = default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = normal((in_features, out_features), DEFAULT_INIT_STD, rng)
        self.bias = zeros((out_features,)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:
        return f"Linear(in={self.in_features}, out={self.out_features})"


class LayerNorm(Module):
    """Layer normalization over the last dimension (Ba et al.)."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gamma = ones((dim,))
        self.beta = zeros((dim,))

    def forward(self, x: Tensor) -> Tensor:
        """Normalize ``x``; with no tape to record (grad mode off, or none of
        ``x``, gamma and beta needs a gradient) it runs the taped ops' float
        operations in the same order on numpy arrays: the same bits."""
        if not (is_grad_enabled() and (x.requires_grad or self.gamma.requires_grad
                                       or self.beta.requires_grad)):
            data = x.data
            count = data.shape[-1]
            centered = data - data.sum(axis=-1, keepdims=True) / count
            var = (centered * centered).sum(axis=-1, keepdims=True)
            var /= count
            var += self.eps
            np.sqrt(var, out=var)
            centered /= var
            centered *= self.gamma.data
            centered += self.beta.data
            return Tensor(centered)
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        normed = (x - mu) / (var + self.eps).sqrt()
        return normed * self.gamma + self.beta


class Embedding(Module):
    """Token embedding lookup table."""

    def __init__(self, vocab_size: int, dim: int, rng: np.random.Generator = None):
        super().__init__()
        if vocab_size <= 0 or dim <= 0:
            raise ValueError("vocab_size and dim must be positive")
        if rng is None:
            rng = default_rng()
        self.vocab_size = vocab_size
        self.dim = dim
        self.weight = normal((vocab_size, dim), DEFAULT_INIT_STD, rng)

    def forward(self, indices: np.ndarray) -> Tensor:
        indices = np.asarray(indices, dtype=np.int64)
        if indices.min() < 0 or indices.max() >= self.vocab_size:
            raise IndexError("token id out of vocabulary range")
        return self.weight[indices]


class GELU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.gelu(x)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Dropout(Module):
    """Inverted dropout; a no-op in eval mode."""

    def __init__(self, rate: float = 0.1, rng: np.random.Generator = None):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = rate
        self.rng = default_rng() if rng is None else rng

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.rate, self.training, self.rng)
