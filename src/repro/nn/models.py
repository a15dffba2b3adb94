"""End-to-end classifier models in the shapes the paper evaluates.

``TextClassifier`` stands in for the BERT-family models on GLUE-style tasks;
``PatchClassifier`` stands in for the ViT-family models on CIFAR-style tasks.
Both are trained from scratch on synthetic datasets (see
``repro.workloads``) at scaled-down sizes; the *architectural* structure —
embedding, encoder stack with four linear layers per block, pooled
classification head — matches the paper's workloads exactly.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, no_grad
from ..autograd.init import normal
from .layers import (DEFAULT_INIT_STD, Embedding, LayerNorm, Linear, Tanh,
                     default_rng)
from .module import Module
from .transformer import TransformerEncoder


class TextClassifier(Module):
    """BERT-style encoder classifier over integer token sequences.

    A learned [CLS]-position pooling (first token, tanh head) mirrors BERT's
    pooler; the classification head itself is *not* LUT-converted, matching
    the paper which replaces only the encoder's linear layers.
    """

    def __init__(
        self,
        vocab_size: int,
        max_seq_len: int,
        num_classes: int,
        dim: int = 64,
        num_layers: int = 2,
        num_heads: int = 4,
        mlp_ratio: int = 4,
        rng: np.random.Generator = None,
        moe_experts: int = None,
        moe_top_k: int = 2,
    ):
        super().__init__()
        if rng is None:
            rng = default_rng()
        self.max_seq_len = max_seq_len
        self.token_embed = Embedding(vocab_size, dim, rng=rng)
        self.pos_embed = normal((max_seq_len, dim), DEFAULT_INIT_STD, rng)
        self.embed_norm = LayerNorm(dim)
        self.encoder = TransformerEncoder(
            num_layers, dim, num_heads, mlp_ratio, rng=rng,
            moe_experts=moe_experts, moe_top_k=moe_top_k,
        )
        self.pooler = Linear(dim, dim, rng=rng)
        self.pool_act = Tanh()
        self.classifier = Linear(dim, num_classes, rng=rng)

    def forward(self, tokens: np.ndarray, mask: np.ndarray = None) -> Tensor:
        tokens = np.asarray(tokens)
        seq_len = tokens.shape[1]
        if seq_len > self.max_seq_len:
            raise ValueError(f"sequence length {seq_len} exceeds max {self.max_seq_len}")
        x = self.token_embed(tokens) + self.pos_embed[:seq_len]
        x = self.embed_norm(x)
        x = self.encoder(x, mask=mask)
        cls = x[:, 0, :]
        pooled = self.pool_act(self.pooler(cls))
        return self.classifier(pooled)


class DecoderLM(Module):
    """GPT-style causal language model over integer token sequences.

    Used by the decode-phase experiments: the paper notes HBM-PIM/AiM
    already target single-batch GPT inference (GEMV-dominated); this model
    provides a functional decoder whose linear layers are LUT-convertible
    just like the classifiers'.
    """

    def __init__(
        self,
        vocab_size: int,
        max_seq_len: int,
        dim: int = 64,
        num_layers: int = 2,
        num_heads: int = 4,
        mlp_ratio: int = 4,
        rng: np.random.Generator = None,
        moe_experts: int = None,
        moe_top_k: int = 2,
    ):
        super().__init__()
        if rng is None:
            rng = default_rng()
        self.vocab_size = vocab_size
        self.max_seq_len = max_seq_len
        self.token_embed = Embedding(vocab_size, dim, rng=rng)
        self.pos_embed = normal((max_seq_len, dim), DEFAULT_INIT_STD, rng)
        self.encoder = TransformerEncoder(
            num_layers, dim, num_heads, mlp_ratio, causal=True, rng=rng,
            moe_experts=moe_experts, moe_top_k=moe_top_k,
        )
        self.norm = LayerNorm(dim)
        self.lm_head = Linear(dim, vocab_size, rng=rng)

    def forward(self, tokens: np.ndarray) -> Tensor:
        """Next-token logits of shape (batch, seq, vocab)."""
        tokens = np.asarray(tokens)
        seq_len = tokens.shape[1]
        if seq_len > self.max_seq_len:
            raise ValueError(f"sequence length {seq_len} exceeds max {self.max_seq_len}")
        x = self.token_embed(tokens) + self.pos_embed[:seq_len]
        x = self.encoder(x)
        x = self.norm(x)
        return self.lm_head(x)

    def _embed(self, tokens: np.ndarray, position_offset: int = 0) -> Tensor:
        seq_len = tokens.shape[1]
        positions = self.pos_embed[position_offset : position_offset + seq_len]
        return self.token_embed(tokens) + positions

    def _sample(self, logits: np.ndarray, greedy: bool, rng) -> np.ndarray:
        if greedy:
            return logits.argmax(axis=-1)
        shifted = logits - logits.max(axis=-1, keepdims=True)
        probs = np.exp(shifted)
        probs /= probs.sum(axis=-1, keepdims=True)
        return np.array([rng.choice(self.vocab_size, p=p) for p in probs])

    @no_grad()
    def generate(
        self,
        prompt: np.ndarray,
        new_tokens: int,
        rng: np.random.Generator = None,
        greedy: bool = True,
        use_cache: bool = False,
    ) -> np.ndarray:
        """Autoregressively extend ``prompt`` (batch, seq) by ``new_tokens``.

        ``use_cache=True`` decodes incrementally against per-layer KV
        caches — O(context) per token instead of O(context^2) — producing
        identical greedy output (sequences must fit ``max_seq_len``).
        Generation returns token ids only, so it records no autograd tape
        (it calls ``forward`` / ``forward_incremental`` directly, which
        bypasses ``Module.__call__``'s eval-mode rule).
        """
        if new_tokens < 0:
            raise ValueError("new_tokens must be non-negative")
        rng = rng or np.random.default_rng()
        tokens = np.asarray(prompt).copy()
        if not use_cache:
            for _ in range(new_tokens):
                window = tokens[:, -self.max_seq_len :]
                logits = self.forward(window).data[:, -1, :]
                next_token = self._sample(logits, greedy, rng)
                tokens = np.concatenate([tokens, next_token[:, None]], axis=1)
            return tokens

        if tokens.shape[1] + new_tokens > self.max_seq_len:
            raise ValueError("cached generation cannot exceed max_seq_len")
        caches = self.encoder.make_caches()
        x = self.encoder.forward_incremental(self._embed(tokens), caches)
        for _ in range(new_tokens):
            hidden = self.norm(x[:, -1:, :])
            logits = self.lm_head(hidden).data[:, -1, :]
            next_token = self._sample(logits, greedy, rng)
            tokens = np.concatenate([tokens, next_token[:, None]], axis=1)
            fresh = self._embed(tokens[:, -1:], position_offset=tokens.shape[1] - 1)
            x = self.encoder.forward_incremental(fresh, caches)
        return tokens


class PatchClassifier(Module):
    """ViT-style classifier over pre-extracted image patches.

    Input is (batch, num_patches, patch_dim) — patch extraction from raw
    pixels is a fixed reshaping, so the model starts at the linear patch
    projection, exactly like ViT's first layer.
    """

    def __init__(
        self,
        num_patches: int,
        patch_dim: int,
        num_classes: int,
        dim: int = 64,
        num_layers: int = 2,
        num_heads: int = 4,
        mlp_ratio: int = 4,
        rng: np.random.Generator = None,
        moe_experts: int = None,
        moe_top_k: int = 2,
    ):
        super().__init__()
        if rng is None:
            rng = default_rng()
        self.num_patches = num_patches
        self.patch_proj = Linear(patch_dim, dim, rng=rng)
        self.cls_token = normal((1, 1, dim), DEFAULT_INIT_STD, rng)
        self.pos_embed = normal((num_patches + 1, dim), DEFAULT_INIT_STD, rng)
        self.encoder = TransformerEncoder(
            num_layers, dim, num_heads, mlp_ratio, rng=rng,
            moe_experts=moe_experts, moe_top_k=moe_top_k,
        )
        self.norm = LayerNorm(dim)
        self.head = Linear(dim, num_classes, rng=rng)

    def forward(self, patches) -> Tensor:
        if not isinstance(patches, Tensor):
            patches = Tensor(np.asarray(patches, dtype=np.float64))
        batch = patches.shape[0]
        x = self.patch_proj(patches)  # (batch, num_patches, dim)
        # Broadcast the learnable [CLS] token across the batch; the zero
        # tensor carries the batch dim while gradients flow to cls_token.
        cls = Tensor(np.zeros((batch, 1, x.shape[2]))) + self.cls_token
        from ..autograd import concatenate

        x = concatenate([cls, x], axis=1) + self.pos_embed
        x = self.encoder(x)
        x = self.norm(x)
        return self.head(x[:, 0, :])
