"""``LUTLinear``: a drop-in replacement for ``nn.Linear`` backed by LUT-NN.

The layer owns trainable centroids (the codebooks) alongside the original
weight/bias, and exposes three forward modes:

``exact``
    Plain ``x @ W + b`` — the original layer, used for reference outputs.
``calibrate``
    The differentiable approximation used during eLUT-NN calibration: each
    input sub-vector is hard-replaced by its closest centroid.  Gradients
    flow (a) to the centroids through the gather (the selected centroid *is*
    the forward value), and (b) to the inputs through the straight-through
    estimator (paper Eq. 2).  The layer also records the reconstruction-loss
    term ``||A W - A_hat W||^2`` of paper Eq. 1.
``lut``
    Deployment mode: closest-centroid search plus table lookup against the
    frozen, pre-computed (optionally INT8-quantized) LUT.  No gradients.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..autograd import Tensor, is_grad_enabled
from ..autograd.tensor import _route
from ..kernels import (
    CCSKernel,
    gather_offsets,
    lut_gather_reduce,
    lut_gather_reduce_quantized,
)
from ..kernels.ccs import DTypeLike
from ..nn.layers import Linear
from ..nn.module import Module
from .codebook import Codebooks, LUTShape
from .lut import build_lut
from .quantization import QuantizedLUT, quantize_lut

_MODES = ("exact", "calibrate", "soft", "lut")


class LUTLinear(Module):
    """LUT-NN replacement of a linear layer (see module docstring).

    Numerics run through :mod:`repro.kernels`: the layer owns a
    :class:`~repro.kernels.CCSKernel` whose per-layer constants are cached
    behind ``_centroid_version`` — call :meth:`mark_centroids_updated`
    after every optimizer step that touches ``centroids`` so the next
    forward rebuilds them.  ``kernel_dtype=None`` (default) preserves the
    input's floating dtype, matching the float64 reference bit-for-bit;
    pass ``"float32"`` for deployment-speed search (see the accuracy
    contract in :mod:`repro.core.ccs`).
    """

    def __init__(
        self,
        weight: Tensor,
        bias: Optional[Tensor],
        codebooks: Codebooks,
        name: str = "",
        kernel_dtype: DTypeLike = None,
    ):
        super().__init__()
        h, f = weight.shape
        if codebooks.h != h:
            raise ValueError(f"codebook H={codebooks.h} != weight H={h}")
        self.in_features = h
        self.out_features = f
        self.v = codebooks.v
        self.ct = codebooks.ct
        self.layer_name = name

        self.weight = weight
        self.bias = bias
        self.centroids = Tensor(codebooks.centroids.copy(), requires_grad=True)

        self.mode = "calibrate"
        #: Temperature for the baseline soft-assignment (Gumbel-softmax) path.
        self.temperature = 1.0
        #: Sample Gumbel noise in the soft path (the baseline [84] estimator).
        self.gumbel_noise = False
        self.gumbel_rng = np.random.default_rng()
        # Box (plain list) holding the last calibrate forward's
        # reconstruction-loss term; a bare Tensor attribute would be
        # auto-registered as a trainable parameter by Module.__setattr__.
        self._recon_loss_box = [None]
        self._lut: Optional[np.ndarray] = None
        self._qlut: Optional[QuantizedLUT] = None

        # Host kernel state: cached-constant CCS kernel + the centroid
        # version counter that keys its cache (bumped by
        # mark_centroids_updated after each optimizer step).
        self._ccs_kernel = CCSKernel(dtype=kernel_dtype)
        self._centroid_version = 0
        self._gather_offsets = gather_offsets(self.cb, self.ct)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_linear(
        cls,
        linear: Linear,
        activations: np.ndarray,
        v: int,
        ct: int,
        rng: Optional[np.random.Generator] = None,
        kmeans_iters: int = 25,
        centroid_init: str = "kmeans",
        name: str = "",
    ) -> "LUTLinear":
        """Convert a trained ``Linear`` using calibration activations.

        ``centroid_init`` selects the codebook initialization:

        * ``"kmeans"`` — per-column k-means over the (M, H) activation
          sample (paper Section 3.1 step 1); deployable without calibration.
        * ``"random"`` — Gaussians matched to activation statistics (the
          paper's §6.2 calibration setup); requires calibration to be useful.
        """
        if centroid_init == "kmeans":
            codebooks = Codebooks.from_activations(
                activations, v=v, ct=ct, max_iters=kmeans_iters, rng=rng
            )
        elif centroid_init == "random":
            codebooks = Codebooks.random_init(activations, v=v, ct=ct, rng=rng)
        else:
            raise ValueError(f"unknown centroid_init {centroid_init!r}")
        return cls(linear.weight, linear.bias, codebooks, name=name)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @property
    def cb(self) -> int:
        return self.in_features // self.v

    def current_codebooks(self) -> Codebooks:
        """Snapshot of the (possibly calibrated) centroids."""
        return Codebooks(self.centroids.data.copy())

    def lut_shape(self, n: int) -> LUTShape:
        return LUTShape(n=n, h=self.in_features, f=self.out_features, v=self.v, ct=self.ct)

    def set_mode(self, mode: str) -> None:
        if mode not in _MODES:
            raise ValueError(f"unknown mode {mode!r}; expected one of {_MODES}")
        self.mode = mode

    def mark_centroids_updated(self) -> None:
        """Notify the CCS kernel that ``centroids`` changed.

        Must be called after every optimizer step that touches the
        centroid tensor; the bumped version invalidates the kernel's
        cached constants on the next search.  (The kernel also keeps a
        content fingerprint as a safety net against missed calls.)
        """
        self._centroid_version += 1

    def _search(self, x: np.ndarray) -> np.ndarray:
        """Closest-centroid indices via the layer's cached kernel."""
        return self._ccs_kernel.search(
            x, self.centroids.data, version=self._centroid_version
        )

    def freeze_lut(self, quantize_int8: bool = False) -> None:
        """Pre-compute the deployment LUT from current centroids and weight.

        The paper quantizes LUTs to INT8 for the UPMEM platform (Section 6.3,
        "<= 0.1% accuracy drop"); pass ``quantize_int8=True`` to match.  An
        INT8 layer keeps only the int8 table and its scales, one byte per
        entry: the forward gathers the int8 table directly, and :attr:`lut`
        dequantizes on demand.  Refreezing without ``quantize_int8`` drops
        the int8 table.
        """
        lut = build_lut(self.current_codebooks(), self.weight.data)
        if quantize_int8:
            self._qlut = quantize_lut(lut)
            self._lut = None
        else:
            self._qlut = None
            self._lut = lut

    @property
    def last_reconstruction_loss(self) -> Optional[Tensor]:
        """``||A W - A_hat W||^2`` from the most recent calibrate forward.

        Read by the eLUT-NN calibrator to assemble paper Eq. 1; None until
        the first forward in ``calibrate`` mode.
        """
        return self._recon_loss_box[0]

    @property
    def lut(self) -> Optional[np.ndarray]:
        """The float ``(CB, CT, F)`` table, None before the first freeze.

        For an INT8 layer this is ``quantized_lut.dequantize()``, built on
        demand: each call allocates a new float64 table.
        """
        if self._qlut is not None:
            return self._qlut.dequantize()
        return self._lut

    @property
    def quantized_lut(self) -> Optional[QuantizedLUT]:
        return self._qlut

    # ------------------------------------------------------------------
    # Forward paths
    # ------------------------------------------------------------------
    def forward(self, x: Tensor) -> Tensor:
        """Run the layer in its mode.

        A ``lut``-mode call with no tape to record (grad mode off, or neither
        ``x`` nor the bias needs a gradient) runs the kernels on ``x.data``
        and adds the bias in place into their fresh output, which gives the
        taped ops' bits.
        """
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=np.float64))
        leading = x.shape[:-1]
        n = math.prod(leading)
        if self.mode == "lut" and not (is_grad_enabled() and (
                x.requires_grad
                or (self.bias is not None and self.bias.requires_grad))):
            out = self._lut_kernels(x.data.reshape(n, self.in_features))
            if self.bias is not None:
                out += self.bias.data
            return Tensor(out.reshape(*leading, self.out_features))
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

    def _gather_centroids(self, indices: np.ndarray) -> Tensor:
        """Differentiable gather ``centroids[cb, indices[:, cb]]`` → (N, CB, V)."""
        cb_idx = np.arange(self.cb)[None, :]
        return self.centroids[cb_idx, indices]

    def _calibrate_forward(self, flat: Tensor) -> Tensor:
        indices = self._search(flat.data)
        gathered = self._gather_centroids(indices)  # (N, CB, V), grads -> centroids
        approx = gathered.reshape(flat.shape[0], self.in_features)
        # Straight-through estimator: forward equals the hard replacement,
        # backward passes identity to the input activations (paper Eq. 2).
        a_hat = approx + (flat - flat.detach())
        out = a_hat @ self.weight
        exact = flat @ self.weight
        diff = out - exact
        self._recon_loss_box[0] = (diff * diff).mean()
        return out

    def _soft_forward(self, flat: Tensor) -> Tensor:
        """Soft-assignment path used by the *baseline* LUT-NN calibrator [84].

        Distances are computed differentiably and a temperature-controlled
        softmax produces a convex combination of centroids.  At deployment
        the assignment becomes hard, creating the train/infer mismatch that
        (together with the missing reconstruction loss) degrades the
        baseline's accuracy when every layer is replaced.

        In eval mode with no gradient consumers the autograd tape is
        skipped entirely: distances come from the blocked BLAS kernel and
        the softmax mixture runs in plain numpy (same max-subtracted
        formulation, so outputs agree with the autograd path to float
        rounding).
        """
        from ..autograd import softmax

        if not self.training and not flat.requires_grad:
            return Tensor(self._soft_forward_numpy(flat.data))

        n = flat.shape[0]
        sub = flat.reshape(n, self.cb, self.v)
        sub4 = sub.reshape(n, self.cb, 1, self.v)
        cents4 = self.centroids.reshape(1, self.cb, self.ct, self.v)
        diff = sub4 - cents4  # (N, CB, CT, V)
        dists = (diff * diff).sum(axis=-1)  # (N, CB, CT)
        logits = dists * -1.0
        if self.gumbel_noise and self.training:
            # Gumbel(0, 1) sampling — the stochastic assignment of the
            # Gumbel-softmax estimator used by the baseline LUT-NN [84].
            uniform = self.gumbel_rng.random(logits.shape)
            gumbel = -np.log(-np.log(np.clip(uniform, 1e-12, 1.0)))
            logits = logits + Tensor(gumbel)
        weights = softmax(logits * (1.0 / max(self.temperature, 1e-8)), axis=-1)
        # (CB, N, CT) @ (CB, CT, V) -> (CB, N, V)
        mixed = weights.transpose(1, 0, 2) @ self.centroids
        a_soft = mixed.transpose(1, 0, 2).reshape(n, self.in_features)
        return a_soft @ self.weight

    def _soft_forward_numpy(self, flat: np.ndarray) -> np.ndarray:
        """Inference-only soft assignment (no tape, kernel distances)."""
        n = flat.shape[0]
        dists = self._ccs_kernel.squared_distances(
            flat, self.centroids.data, version=self._centroid_version
        )  # (N, CB, CT)
        logits = -dists / max(self.temperature, 1e-8)
        logits -= logits.max(axis=-1, keepdims=True)
        exp = np.exp(logits)
        weights = exp / exp.sum(axis=-1, keepdims=True)
        # (CB, N, CT) @ (CB, CT, V) -> (CB, N, V)
        mixed = np.matmul(weights.transpose(1, 0, 2), self.centroids.data)
        a_soft = mixed.transpose(1, 0, 2).reshape(n, self.in_features)
        return a_soft @ self.weight.data

    def _lut_kernels(self, flat: np.ndarray) -> np.ndarray:
        """CCS plus lookup-reduce of ``(N, H)`` rows: a fresh float64 ``(N, F)``."""
        if self._lut is None and self._qlut is None:
            self.freeze_lut()
        indices = self._search(flat)
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
        return np.asarray(out, dtype=np.float64)

    def _lut_forward(self, flat: Tensor) -> Tensor:
        out = self._lut_kernels(flat.data)
        result = Tensor(out)

        # Keep the tape alive for upstream layers via STE so mixed
        # lut/calibrate stacks remain trainable end to end.
        if flat.requires_grad:
            def backward(grad: np.ndarray) -> None:
                _route(flat, grad @ self.weight.data.T)

            result = Tensor._make(out, (flat,), backward)
        return result

    def __repr__(self) -> str:
        return (
            f"LUTLinear(in={self.in_features}, out={self.out_features}, "
            f"V={self.v}, CT={self.ct}, mode={self.mode!r})"
        )
