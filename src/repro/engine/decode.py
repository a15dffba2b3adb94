"""Autoregressive (decode-phase) serving models — the GPT/LSTM scenario.

The paper motivates PIM-DL by noting that HBM-PIM/AiM already accelerate
*single-batch* GPT/LSTM inference, which is GEMV-dominated, but cloud
serving needs batched GEMM (Section 1, 2.2).  This module closes the loop
from the other side: it models the token-by-token decode phase, where each
generated token turns every linear layer into a GEMV of shape (B, H)x(H, F)
with B small, and asks where LUT-NN still pays off.

For decode, the LUT operator degenerates to per-token table gathers
(N = batch), while the GEMV baseline streams the full weight matrix per
token — so LUT-NN's V-fold traffic reduction applies to the *weights*, the
decode bottleneck.  The engine reports per-token latency and tokens/s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

from ..baselines.roofline import RooflineDevice
from ..core.ccs import ccs_roofline_time
from ..kernels import HostKernelProfile
from ..mapping.tuner import AutoTuner
from ..pim.gemm_kernels import linear_layer_on_pim
from ..pim.platforms import PIMPlatform
from ..workloads.configs import TransformerConfig
from ..workloads.routing import MoEConfig
from .engine import _LUTEngine

if TYPE_CHECKING:  # pragma: no cover - import cycle (resilience uses tuner)
    from ..resilience.recovery import RecoveryManager


@dataclass(frozen=True)
class DecodeReport:
    """Per-token decode cost of one serving configuration."""

    engine: str
    model: str
    batch_size: int
    context_len: int
    linear_s: float
    attention_s: float
    other_s: float
    #: Per-phase attribution of one token step; sums to
    #: :attr:`token_latency_s` when populated (LUT decode fills it).
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: Transfer seconds per token the double-buffered LUT pipeline hid
    #: (informational; ``linear_s`` and the ``dma`` phase already report
    #: exposed time, so phases still sum to :attr:`token_latency_s`).
    overlap_hidden_s: float = 0.0

    @property
    def token_latency_s(self) -> float:
        return self.linear_s + self.attention_s + self.other_s

    @property
    def tokens_per_s(self) -> float:
        return self.batch_size / self.token_latency_s


def kv_cache_bytes(
    config: TransformerConfig, tokens: int, batch: int = 1, dtype_bytes: int = 2
) -> float:
    """KV-cache footprint of ``batch`` sequences with ``tokens`` cached each.

    K and V per layer: ``2 * num_layers * tokens * batch * hidden_dim``
    elements.  This is the payload a disaggregated deployment migrates
    from the prefill pool to the decode pool
    (:class:`~repro.engine.disagg.KVTransferModel`), and the same cache
    the attention reads in :func:`_attention_decode_time` stream over.
    """
    if tokens <= 0 or batch <= 0:
        return 0.0
    return 2.0 * config.num_layers * tokens * batch * config.hidden_dim * dtype_bytes


def _attention_decode_time(
    host: RooflineDevice, config: TransformerConfig, batch: int, context: int
) -> float:
    """Single-token attention against a KV cache of ``context`` entries."""
    per_layer_flops = 4.0 * batch * config.num_heads * context * config.head_dim
    per_layer_bytes = 2.0 * batch * context * config.hidden_dim * 2  # K and V reads
    return config.num_layers * host.op_time(per_layer_flops, per_layer_bytes)


def _elementwise_decode_time(
    host: RooflineDevice, config: TransformerConfig, batch: int
) -> float:
    elems = float(batch) * config.hidden_dim
    per_layer = 2 * host.elementwise_time(int(5 * elems)) + host.elementwise_time(
        int(batch * config.ffn_dim)
    )
    return config.num_layers * per_layer


class GEMVDecodeEngine:
    """Decode with linear layers as per-token GEMVs on the PIM (baseline)."""

    def __init__(self, platform: PIMPlatform, host: RooflineDevice):
        self.platform = platform
        self.host = host

    def run(
        self, config: TransformerConfig, batch_size: int = 1, context_len: int = 512
    ) -> DecodeReport:
        linear_s = 0.0
        for _, h, f in config.linear_layer_shapes():
            linear_s += linear_layer_on_pim(self.platform, batch_size, h, f).total
        linear_s *= config.num_layers
        attention_s = _attention_decode_time(self.host, config, batch_size, context_len)
        other_s = _elementwise_decode_time(self.host, config, batch_size)
        return DecodeReport(
            engine=f"pim-gemv[{self.platform.name}]",
            model=config.name,
            batch_size=batch_size,
            context_len=context_len,
            linear_s=linear_s,
            attention_s=attention_s,
            other_s=other_s,
            phase_seconds={
                "gemm": linear_s,
                "attention": attention_s,
                "elementwise": other_s,
            },
        )


class LUTDecodeEngine(_LUTEngine):
    """Decode with LUT-NN linear layers on the PIM (PIM-DL applied to decode).

    Per generated token the index matrix is tiny (N = batch), so the tuned
    mapping usually keeps the whole LUT resident (tables are weights) and the
    kernel reduces to per-token gathers — ``amortize_lut_distribution`` is
    forced on, matching a serving deployment.  ``overlap`` double-buffers
    the LUT micro-kernel loop as in :class:`~repro.engine.engine.PIMDLEngine`.
    """

    def __init__(
        self,
        platform: PIMPlatform,
        host: RooflineDevice,
        v: int = 4,
        ct: int = 16,
        tuner: Optional[AutoTuner] = None,
        host_kernel_profile: Optional[HostKernelProfile] = None,
        resilience: Optional["RecoveryManager"] = None,
        overlap: bool = False,
    ):
        super().__init__(
            platform, host, v, ct, True, tuner, host_kernel_profile,
            resilience, overlap,
        )

    def _ccs_time(self, batch: int, h: int) -> float:
        # Kept apart from the prefill roofline on purpose: its argmin bytes
        # leave out the N*CB index write prefill charges.  Adding that term
        # moves the colocated serving figures that tests pin.
        if self.host_kernel_profile is not None:
            return self.host_kernel_profile.ccs_time(batch, h, self.ct)
        return ccs_roofline_time(self.host, batch, h, self.v, self.ct)

    def run(
        self,
        config: TransformerConfig,
        batch_size: int = 1,
        context_len: int = 512,
        moe: Optional[MoEConfig] = None,
    ) -> DecodeReport:
        """Per-token decode cost; ``moe`` swaps the FFN pair for a gated
        mixture of experts priced as gate + CCS + max-over-ranks LUT
        makespan (same model as :meth:`PIMDLEngine.moe_layer_cost`, with
        N = batch)."""
        if config.hidden_dim % self.v or config.ffn_dim % self.v:
            raise ValueError(f"model dims not divisible by V={self.v}")
        linear_s = 0.0
        hidden_s = 0.0
        phases: Dict[str, float] = {}

        def add(phase: str, seconds: float) -> None:
            phases[phase] = phases.get(phase, 0.0) + seconds

        for name, h, f in config.linear_layer_shapes():
            if moe is not None and name in ("FFN1", "FFN2"):
                if name == "FFN2":
                    continue  # priced inside the MoE layer below
                cost = self._moe_cost(batch_size, config, moe)
                linear_s += cost.total_s
                for phase, seconds in cost.phases.items():
                    add(phase, seconds)
                continue
            lut_s, _, lat = self._price_lut_op(
                self.lut_shape(batch_size, h, f), f"decode/{name}"
            )
            if lat is None:
                linear_s += lut_s
                add("lut", lut_s)
            else:
                # DecodeReport has no hidden-time subtraction mechanism,
                # so the wall clock (lat.total) and the *exposed* dma phase
                # go in directly; the hidden time is reported alongside.
                linear_s += lat.total
                hidden_s += lat.overlap_hidden
                stages = lat.stage_phases()
                stages["dma"] = lat.exposed_transfer
                for phase, seconds in stages.items():
                    add(phase, seconds)
            ccs_s = self._ccs_time(batch_size, h)
            linear_s += ccs_s
            add("ccs", ccs_s)
        linear_s *= config.num_layers
        hidden_s *= config.num_layers
        phases = {p: s * config.num_layers for p, s in phases.items()}
        attention_s = _attention_decode_time(self.host, config, batch_size, context_len)
        other_s = _elementwise_decode_time(self.host, config, batch_size)
        phases["attention"] = attention_s
        phases["elementwise"] = other_s
        return DecodeReport(
            engine=f"pim-dl-decode[{self.platform.name}, V={self.v}]",
            model=config.name,
            batch_size=batch_size,
            context_len=context_len,
            linear_s=linear_s,
            attention_s=attention_s,
            other_s=other_s,
            phase_seconds=phases,
            overlap_hidden_s=hidden_s,
        )


class HostDecodeEngine:
    """Decode entirely on a CPU/GPU roofline device."""

    def __init__(self, device: RooflineDevice):
        self.device = device

    def run(
        self, config: TransformerConfig, batch_size: int = 1, context_len: int = 512
    ) -> DecodeReport:
        linear_s = 0.0
        for _, h, f in config.linear_layer_shapes():
            linear_s += self.device.gemm_time(batch_size, h, f)
        linear_s *= config.num_layers
        attention_s = _attention_decode_time(self.device, config, batch_size, context_len)
        other_s = _elementwise_decode_time(self.device, config, batch_size)
        return DecodeReport(
            engine=f"host-decode[{self.device.name}]",
            model=config.name,
            batch_size=batch_size,
            context_len=context_len,
            linear_s=linear_s,
            attention_s=attention_s,
            other_s=other_s,
            phase_seconds={
                "gemm": linear_s,
                "attention": attention_s,
                "elementwise": other_s,
            },
        )
