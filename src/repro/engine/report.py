"""Execution reports produced by the inference engines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..obs.metrics import left_sum
from ..pim.energy import EnergyReport


@dataclass(frozen=True)
class OpLatency:
    """Latency of one operator execution, tagged for breakdowns."""

    name: str
    device: str  # "host" | "pim"
    category: str  # "lut" | "ccs" | "gemm" | "attention" | "elementwise"
    seconds: float


@dataclass
class EngineReport:
    """Roll-up of one model inference on one engine."""

    engine: str
    model: str
    ops: List[OpLatency] = field(default_factory=list)
    energy: EnergyReport = None
    #: Latency hidden by host/PIM pipelining (0 in the sequential system).
    overlap_hidden_s: float = 0.0
    #: Per-phase attribution across all ops.  LUT ops contribute their
    #: analytical breakdown (distribution/dma/reduce/gather/launch); host
    #: ops contribute their category.  Sums to the op seconds, i.e. to
    #: ``total_s + overlap_hidden_s``.
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def total_s(self) -> float:
        return left_sum(op.seconds for op in self.ops) - self.overlap_hidden_s

    def add_phase(self, phase: str, seconds: float) -> None:
        self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + seconds

    def bottleneck(self, top_k: int = 3):
        """Attribution roll-up (see :class:`repro.obs.profiler.BottleneckReport`)."""
        from ..obs.profiler import BottleneckReport

        if not self.phase_seconds:
            raise ValueError("engine run recorded no phase attribution")
        return BottleneckReport.from_phases(
            self.phase_seconds, overlap_hidden_s=self.overlap_hidden_s
        )

    @property
    def host_s(self) -> float:
        return left_sum(op.seconds for op in self.ops if op.device == "host")

    @property
    def pim_s(self) -> float:
        return left_sum(op.seconds for op in self.ops if op.device == "pim")

    def per_category_seconds(self, device: Optional[str] = None) -> Dict[str, float]:
        """Seconds per op category, optionally restricted to one device.

        The canonical Fig. 11-style aggregation (gemm vs. attention vs.
        elementwise vs. lut vs. ccs; pass ``device="host"``/``"pim"`` for
        the host/PIM split of one category).
        """
        out: Dict[str, float] = {}
        for op in self.ops:
            if device is not None and op.device != device:
                continue
            out[op.category] = out.get(op.category, 0.0) + op.seconds
        return out

    def per_device_seconds(self) -> Dict[str, float]:
        """Seconds per device ("host" / "pim")."""
        out: Dict[str, float] = {}
        for op in self.ops:
            out[op.device] = out.get(op.device, 0.0) + op.seconds
        return out

    def category_shares(self) -> Dict[str, float]:
        """Each category's fraction of ``total_s`` (sums can exceed 1 when
        overlap hides latency, since shares are of the *exposed* total)."""
        total = self.total_s
        if total <= 0:
            return {category: 0.0 for category in self.per_category_seconds()}
        return {
            category: seconds / total
            for category, seconds in self.per_category_seconds().items()
        }

    def per_operator(self) -> Dict[str, float]:
        """Latency per operator name — the data behind paper Fig. 11-(b)."""
        out: Dict[str, float] = {}
        for op in self.ops:
            out[op.name] = out.get(op.name, 0.0) + op.seconds
        return out

    @property
    def throughput_inferences_per_s(self) -> float:
        # An empty report (no ops recorded) performed no inference; its
        # throughput is zero, not the infinity a bare 1/total_s suggests.
        return 1.0 / self.total_s if self.total_s > 0 else 0.0

    def to_jsonable(self) -> dict:
        """Machine-readable roll-up (the CLI's ``--json`` compare output)."""
        return {
            "engine": self.engine,
            "model": self.model,
            "total_s": self.total_s,
            "host_s": self.host_s,
            "pim_s": self.pim_s,
            "overlap_hidden_s": self.overlap_hidden_s,
            "per_category_seconds": self.per_category_seconds(),
            "per_device_seconds": self.per_device_seconds(),
            "per_operator_seconds": self.per_operator(),
            "phase_seconds": dict(self.phase_seconds),
            "energy_j": self.energy.total_j if self.energy is not None else None,
            "ops": [
                {
                    "name": op.name,
                    "device": op.device,
                    "category": op.category,
                    "seconds": op.seconds,
                }
                for op in self.ops
            ],
        }
