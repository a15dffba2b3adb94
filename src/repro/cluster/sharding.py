"""Layer-wise model sharding across DIMM pools with explicit transfers.

A replica may hold the whole model (``shards == 1``) or split its layer
stack contiguously across ``shards`` DIMM pools.  Each shard runs the
same LUT-NMP engine over its own layer slice; at every shard boundary the
activations for the tokens in flight (``tokens x hidden_dim x dtype``)
cross the inter-node interconnect, charged through the platform's
:class:`~repro.pim.platforms.TransferBandwidth` model — the same
setup-latency + rate curve the host<->PIM paths use, following DynaNDE's
explicit activation-movement costing (PAPERS.md).

The cost composition is a *sequential sum*: per-shard compute plus the
boundary transfers, with no pipeline overlap between shards.  That is a
conservative upper bound on latency — a pipelined runtime would hide part
of the transfer — and keeps shard costs exactly decomposable per phase,
which the bottleneck attribution relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from ..engine.scheduler import EngineCostModel, _Report
from ..engine.serving import GenerationServer
from ..obs.metrics import left_sum
from ..pim.platforms import TransferBandwidth
from ..workloads.configs import TransformerConfig

__all__ = ["ShardPlan", "ShardedCostModel"]

#: Phase key under which boundary transfers appear in phase breakdowns.
TRANSFER_PHASE = "shard_transfer"


@dataclass(frozen=True)
class ShardPlan:
    """Contiguous layer-wise split of ``config`` across ``shards`` pools."""

    config: TransformerConfig
    shards: int
    interconnect: TransferBandwidth
    #: Bytes per activation element crossing a shard boundary; defaults to
    #: the platform's GEMM dtype at plan-construction sites.
    activation_dtype_bytes: int = 2

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.shards > self.config.num_layers:
            raise ValueError(
                f"cannot split {self.config.num_layers} layers into "
                f"{self.shards} shards"
            )
        if self.activation_dtype_bytes <= 0:
            raise ValueError("activation_dtype_bytes must be positive")

    @property
    def shard_layers(self) -> Tuple[int, ...]:
        """Layers per shard — near-even, earlier shards take the remainder."""
        base, extra = divmod(self.config.num_layers, self.shards)
        return tuple(base + (1 if i < extra else 0) for i in range(self.shards))

    @property
    def shard_configs(self) -> Tuple[TransformerConfig, ...]:
        return tuple(
            self.config.with_(
                name=f"{self.config.name}[shard {i}/{self.shards}]",
                num_layers=layers,
            )
            for i, layers in enumerate(self.shard_layers)
        )

    @property
    def boundaries(self) -> int:
        return self.shards - 1

    def activation_bytes(self, tokens: int) -> float:
        """Bytes crossing one boundary for ``tokens`` tokens in flight."""
        return float(tokens) * self.config.hidden_dim * self.activation_dtype_bytes

    def transfer_s(self, tokens: int) -> float:
        """Total boundary-transfer seconds for one pass of ``tokens``."""
        if self.boundaries == 0 or tokens <= 0:
            return 0.0
        return self.boundaries * self.interconnect.latency(
            self.activation_bytes(tokens)
        )

    def to_jsonable(self) -> dict:
        return {
            "shards": self.shards,
            "shard_layers": list(self.shard_layers),
            "activation_dtype_bytes": self.activation_dtype_bytes,
            "interconnect_peak_bytes_per_s": self.interconnect.peak_bytes_per_s,
            "interconnect_setup_latency_s": self.interconnect.setup_latency_s,
        }


class ShardedCostModel(EngineCostModel):
    """:class:`EngineCostModel` over a :class:`ShardPlan`.

    Every prefill / decode-step cost is the sum of the per-shard engine
    costs (each shard costed through its own memoized
    :class:`EngineCostModel` on the shard's layer slice) plus the
    boundary activation transfers for the tokens processed that step.
    With ``shards == 1`` this collapses exactly to the base model.  The
    model overrides only the base's two pricing hooks; its public
    accessors and per-step memo are the base's.
    """

    def __init__(self, server: GenerationServer, plan: ShardPlan):
        super().__init__(server, plan.config)
        self.plan = plan
        self._stages = [EngineCostModel(server, cfg) for cfg in plan.shard_configs]

    def _prefill_report(self, tokens: int, batch: int) -> _Report:
        return self._staged(
            [stage._prefill_report(tokens, batch) for stage in self._stages],
            tokens * batch,
        )

    def _decode_report(self, batch_seqs: int, context_len: float) -> _Report:
        # One token per sequence crosses each boundary per decode step.
        return self._staged(
            [stage._decode_report(batch_seqs, context_len)
             for stage in self._stages],
            batch_seqs,
        )

    def _staged(self, reports: Sequence[_Report], tokens: int) -> _Report:
        """The stages' reports in stage order, plus the boundary transfer
        of ``tokens`` tokens in flight."""
        merged: Dict[str, float] = {}
        for _, phases in reports:
            for phase, seconds in phases.items():
                merged[phase] = merged.get(phase, 0.0) + seconds
        transfer = self.plan.transfer_s(tokens)
        if transfer:
            merged[TRANSFER_PHASE] = transfer
        return left_sum(seconds for seconds, _ in reports) + transfer, merged
