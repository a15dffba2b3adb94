"""Multi-head self-attention.

The QKV and output (O) projections are ``Linear`` layers — the conversion
targets of PIM-DL — while the attention score computation itself stays on the
host processor (paper Fig. 6-(b): "The attention operator is executed on the
host ... since it cannot be converted to LUTs").
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, softmax
from .layers import Linear
from .module import Module


class MultiHeadAttention(Module):
    """Standard multi-head self-attention (Vaswani et al.).

    For compatibility with PIM-DL's operator fusion, the Q, K, and V
    projections are fused into a single ``qkv`` Linear of output width
    ``3 * dim`` (the paper fuses them into one FC operator for the roofline
    analysis and the PIM offload).
    """

    def __init__(
        self,
        dim: int,
        num_heads: int,
        causal: bool = False,
        rng: np.random.Generator = None,
    ):
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim {dim} not divisible by num_heads {num_heads}")
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.causal = causal
        self.qkv = Linear(dim, 3 * dim, rng=rng)
        self.out_proj = Linear(dim, dim, rng=rng)

    def forward(self, x: Tensor, mask: np.ndarray = None) -> Tensor:
        """Apply self-attention to ``x`` of shape (batch, seq, dim).

        ``mask`` is an optional (batch, seq) array with 1 for valid tokens
        and 0 for padding; padded keys receive -inf attention scores.  When
        ``causal`` is set, position i attends only to positions <= i
        (decoder/GPT-style attention).
        """
        batch, seq, dim = x.shape
        fused = self.qkv(x)  # (batch, seq, 3*dim)

        # Split into per-head Q, K, V: (batch, heads, seq, head_dim).
        def split_heads(t: Tensor) -> Tensor:
            return t.reshape(batch, seq, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

        q = split_heads(fused[:, :, : self.dim])
        k = split_heads(fused[:, :, self.dim : 2 * self.dim])
        v = split_heads(fused[:, :, 2 * self.dim :])

        scale = 1.0 / np.sqrt(self.head_dim)
        scores = (q @ k.transpose(0, 1, 3, 2)) * scale  # (batch, heads, seq, seq)
        if mask is not None:
            bias = np.where(np.asarray(mask)[:, None, None, :] > 0, 0.0, -1e9)
            scores = scores + Tensor(bias)
        if self.causal:
            future = np.triu(np.full((seq, seq), -1e9), k=1)
            scores = scores + Tensor(future[None, None, :, :])
        attn = softmax(scores, axis=-1)
        context = attn @ v  # (batch, heads, seq, head_dim)
        merged = context.transpose(0, 2, 1, 3).reshape(batch, seq, dim)
        return self.out_proj(merged)

    def forward_incremental(self, x: Tensor, cache: "KVCache") -> Tensor:
        """Decode-phase attention: attend new tokens against a KV cache.

        ``x`` holds only the *new* tokens (batch, new, dim); their keys and
        values are appended to ``cache`` and attention runs against the full
        accumulated context.  With a causal model this computes exactly what
        a full forward over the whole sequence would produce for the new
        positions (covered by a test), at per-token cost.
        """
        batch, new, dim = x.shape
        fused = self.qkv(x).data

        def split_heads(t: np.ndarray) -> np.ndarray:
            return t.reshape(batch, new, self.num_heads, self.head_dim).transpose(
                0, 2, 1, 3
            )

        q = split_heads(fused[:, :, : self.dim])
        k_new = split_heads(fused[:, :, self.dim : 2 * self.dim])
        v_new = split_heads(fused[:, :, 2 * self.dim :])
        k_all, v_all = cache.append(k_new, v_new)

        scale = 1.0 / np.sqrt(self.head_dim)
        scores = (q @ k_all.transpose(0, 1, 3, 2)) * scale  # (b, h, new, ctx)
        if self.causal and new > 1:
            ctx = k_all.shape[2]
            positions = np.arange(ctx)[None, :]
            query_pos = (ctx - new) + np.arange(new)[:, None]
            scores = scores + np.where(positions <= query_pos, 0.0, -1e9)
        shifted = scores - scores.max(axis=-1, keepdims=True)
        weights = np.exp(shifted)
        weights /= weights.sum(axis=-1, keepdims=True)
        context = weights @ v_all
        merged = context.transpose(0, 2, 1, 3).reshape(batch, new, dim)
        return self.out_proj(Tensor(merged))


class KVCache:
    """Per-layer key/value cache for incremental decoding.

    Keys and values live in buffers along the sequence axis that grow
    geometrically, so an append writes only the new entries; ``keys`` and
    ``values`` are views of the filled prefix.  Each (batch, head) matrix of
    a view has the strides of the same matrix in a concatenated array, so
    attention's matmuls make the same BLAS calls and give the same bits.
    """

    def __init__(self):
        self._keys: np.ndarray = None
        self._values: np.ndarray = None
        self._length = 0

    @property
    def length(self) -> int:
        return self._length

    @property
    def keys(self) -> np.ndarray:
        return None if self._keys is None else self._keys[:, :, : self._length]

    @property
    def values(self) -> np.ndarray:
        return None if self._values is None else self._values[:, :, : self._length]

    def append(self, k_new: np.ndarray, v_new: np.ndarray):
        """Append (batch, heads, new, head_dim) entries; return the totals.

        Raises ``ValueError`` unless both arrays are 4-D, agree in (batch,
        heads, new), and match the cache's batch, heads and head dims.
        """
        if (k_new.ndim != 4 or v_new.ndim != 4
                or k_new.shape[:3] != v_new.shape[:3]):
            raise ValueError(
                f"keys {k_new.shape} and values {v_new.shape} must be 4-D "
                "(batch, heads, new, head_dim) and agree in (batch, heads, new)"
            )
        keys = self._keys
        if keys is not None:
            if k_new.shape[0] != keys.shape[0]:
                raise ValueError("batch size changed mid-generation")
            if (k_new.shape[1] != keys.shape[1] or k_new.shape[3] != keys.shape[3]
                    or v_new.shape[3] != self._values.shape[3]):
                raise ValueError(
                    f"keys {k_new.shape} and values {v_new.shape} do not match "
                    f"the cache's keys {keys.shape} and values "
                    f"{self._values.shape} in heads or head_dim"
                )
        start = self._length
        stop = start + k_new.shape[2]
        if keys is None or stop > keys.shape[2] or not (
                np.can_cast(k_new.dtype, keys.dtype)
                and np.can_cast(v_new.dtype, self._values.dtype)):
            self._reserve(k_new, v_new, stop)
        self._keys[:, :, start:stop] = k_new
        self._values[:, :, start:stop] = v_new
        self._length = stop
        return self.keys, self.values

    def _reserve(self, k_new: np.ndarray, v_new: np.ndarray, needed: int) -> None:
        """Reallocate both buffers to hold ``needed`` entries.

        A buffer that grows at least doubles; the dtype is what concatenating
        the cached and new entries would give.
        """
        old_k, old_v, length = self._keys, self._values, self._length
        if old_k is None:
            capacity, k_dtype, v_dtype = needed, k_new.dtype, v_new.dtype
        else:
            capacity = old_k.shape[2]
            if needed > capacity:
                capacity = max(needed, 2 * capacity)
            k_dtype = np.result_type(old_k, k_new)
            v_dtype = np.result_type(old_v, v_new)
        batch, heads = k_new.shape[:2]
        self._keys = np.empty((batch, heads, capacity, k_new.shape[3]), k_dtype)
        self._values = np.empty((batch, heads, capacity, v_new.shape[3]), v_dtype)
        if length:
            self._keys[:, :, :length] = old_k[:, :, :length]
            self._values[:, :, :length] = old_v[:, :, :length]

    def reset(self) -> None:
        self._keys = None
        self._values = None
        self._length = 0
