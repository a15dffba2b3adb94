"""Per-rank utilization profiles and bottleneck attribution.

PIM-DL's core claim is that LUT-NMM turns inference from compute-bound
into bandwidth-bound, so the question a performance report must answer is
*which resource saturates* — host CCS, host<->PIM DMA, rank-level table
lookup, or the adder reduction — at each configuration.  This module owns
the two record types that answer it:

* :class:`PhaseProfile` — a structured breakdown of one kernel (or one
  aggregated run) into named phases whose seconds sum exactly to the
  modeled total, plus per-rank busy time and occupancy segments for the
  Chrome-trace per-rank lanes;
* :class:`BottleneckReport` — the attribution roll-up: dominant phase,
  roofline-relative utilization per phase, rank-imbalance index, and the
  top-k most loaded ranks.

The :class:`~repro.pim.simulator.PIMSimulator` emits a ``PhaseProfile``
with every :class:`~repro.pim.simulator.SimulationReport`; the engines
aggregate phase seconds per op (from the analytical
:class:`~repro.mapping.analytical.LatencyBreakdown`); the scheduler rolls
phases up per prefill/decode request class.  Everything here is plain
numbers — ``repro.obs`` stays import-free of the rest of the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .metrics import left_sum

#: Canonical phase names, in reporting order.  ``distribution``/``gather``
#: are host<->PIM transfers over the rank buses, ``dma`` is PE-local
#: MRAM<->WRAM tile movement, ``lookup``/``reduce`` split the micro-kernel
#: compute, ``overhead`` is per-loop-iteration instruction cost, and
#: ``launch`` is the per-kernel driver dispatch.  Engine-level profiles
#: add host-side phases (``ccs``, ``attention``, ``elementwise``, ...).
#: Serving-layer transfer phases (cluster shard boundaries, disaggregated
#: KV migrations) sort after the device phases they interleave with.
PHASE_ORDER: Tuple[str, ...] = (
    "distribution", "ccs", "dma", "lookup", "reduce", "overhead",
    "gather", "launch", "shard_transfer", "kv_transfer",
)


def _phase_rank(name: str) -> Tuple[int, str]:
    try:
        return (PHASE_ORDER.index(name), name)
    except ValueError:
        return (len(PHASE_ORDER), name)


def sorted_phases(phase_seconds: Dict[str, float]) -> List[Tuple[str, float]]:
    """Phases in canonical order (known phases first, then alphabetical)."""
    return sorted(phase_seconds.items(), key=lambda kv: _phase_rank(kv[0]))


@dataclass(frozen=True)
class PhaseSegment:
    """One busy interval of one rank's timeline."""

    start_s: float
    end_s: float
    phase: str

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass
class PhaseProfile:
    """Structured per-phase / per-rank breakdown of one modeled execution.

    ``phase_seconds`` partitions the modeled total exactly (the simulator
    guarantees ``sum(phase_seconds.values()) == report.total_s``); the
    per-rank fields describe how that time lands on the platform's ranks.
    Ranks the workload never touches appear with zero busy time, so the
    imbalance index reflects unused capacity, not just skew among the used
    ranks.
    """

    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: Busy seconds per platform rank (length = platform.ranks; 0 when
    #: rank-level attribution is unavailable, e.g. pure-host runs).
    per_rank_busy_s: Tuple[float, ...] = ()
    #: Active PEs per rank under the sub-LUT partition.
    per_rank_active_pes: Tuple[int, ...] = ()
    pes_per_rank: int = 0
    #: Occupancy segments per *used* rank: {rank_id: (PhaseSegment, ...)}.
    #: Populated for single-kernel profiles; aggregation drops them.
    rank_segments: Dict[int, Tuple[PhaseSegment, ...]] = field(
        default_factory=dict
    )
    label: str = ""
    #: Transfer seconds hidden under compute by pipelined double-buffering.
    #: Informational: ``phase_seconds`` already reports *exposed* time (so
    #: the exact partition of ``total_s`` is preserved); the sequential
    #: dma cost is ``phase_seconds["dma"] + overlap_hidden_s``.
    overlap_hidden_s: float = 0.0

    @property
    def total_s(self) -> float:
        return left_sum(self.phase_seconds.values())

    def phase_shares(self) -> Dict[str, float]:
        total = self.total_s
        if total <= 0:
            return {phase: 0.0 for phase in self.phase_seconds}
        return {p: s / total for p, s in self.phase_seconds.items()}

    def add_phase(self, phase: str, seconds: float) -> None:
        self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + seconds

    # ------------------------------------------------------------------
    # Rank views
    # ------------------------------------------------------------------
    @property
    def ranks(self) -> int:
        return len(self.per_rank_busy_s)

    def rank_load(self) -> Tuple[float, ...]:
        """PE-weighted busy seconds per rank (busy x active/total PEs).

        The quantity imbalance is measured on: a rank busy for 1 s with
        half its PEs active carries the same load as one busy 0.5 s with
        all PEs active.
        """
        if not self.per_rank_busy_s or self.pes_per_rank <= 0:
            return ()
        return tuple(
            busy * pes / self.pes_per_rank
            for busy, pes in zip(self.per_rank_busy_s, self.per_rank_active_pes)
        )

    @property
    def imbalance_index(self) -> float:
        """``1 - mean(load)/max(load)`` over all platform ranks.

        0 when every rank carries identical load; approaches
        ``1 - 1/ranks`` when a single rank does all the work.
        """
        load = self.rank_load()
        if not load:
            return 0.0
        peak = max(load)
        if peak <= 0:
            return 0.0
        return 1.0 - (left_sum(load) / len(load)) / peak

    def top_ranks(self, k: int = 3) -> Tuple[Tuple[int, float], ...]:
        """The ``k`` most loaded ranks as ``(rank_id, load_seconds)``."""
        load = self.rank_load()
        ranked = sorted(enumerate(load), key=lambda iv: (-iv[1], iv[0]))
        return tuple((i, v) for i, v in ranked[:k] if v > 0)

    def occupancy_timeline(self, points: int = 32) -> List[Tuple[float, float]]:
        """Sampled (time, fraction-of-PEs-busy) over the kernel window."""
        if not self.rank_segments or self.pes_per_rank <= 0:
            return []
        end = max(
            seg.end_s for segs in self.rank_segments.values() for seg in segs
        )
        total_pes = len(self.per_rank_busy_s) * self.pes_per_rank
        if end <= 0 or total_pes <= 0:
            return []
        out: List[Tuple[float, float]] = []
        for i in range(points):
            t = end * (i + 0.5) / points
            busy_pes = 0
            for rank, segs in self.rank_segments.items():
                if any(seg.start_s <= t < seg.end_s for seg in segs):
                    busy_pes += self.per_rank_active_pes[rank]
            out.append((t, busy_pes / total_pes))
        return out

    # ------------------------------------------------------------------
    # Aggregation / serialization
    # ------------------------------------------------------------------
    @classmethod
    def combine(
        cls, profiles: Iterable["PhaseProfile"], label: str = ""
    ) -> "PhaseProfile":
        """Sum phase seconds and per-rank busy time across profiles.

        Per-rank segments do not compose across kernels (each kernel's
        timeline starts at 0), so the combined profile drops them.
        """
        merged = cls(label=label)
        busy: List[float] = []
        pes: List[int] = []
        for profile in profiles:
            for phase, seconds in profile.phase_seconds.items():
                merged.add_phase(phase, seconds)
            merged.overlap_hidden_s += profile.overlap_hidden_s
            if profile.per_rank_busy_s:
                if len(busy) < len(profile.per_rank_busy_s):
                    busy += [0.0] * (len(profile.per_rank_busy_s) - len(busy))
                    pes += [0] * (len(profile.per_rank_active_pes) - len(pes))
                for i, b in enumerate(profile.per_rank_busy_s):
                    busy[i] += b
                for i, p in enumerate(profile.per_rank_active_pes):
                    pes[i] = max(pes[i], p)
                merged.pes_per_rank = max(
                    merged.pes_per_rank, profile.pes_per_rank
                )
        merged.per_rank_busy_s = tuple(busy)
        merged.per_rank_active_pes = tuple(pes)
        return merged

    def to_jsonable(self) -> dict:
        return {
            "label": self.label,
            "total_s": self.total_s,
            "phase_seconds": dict(sorted_phases(self.phase_seconds)),
            "phase_shares": dict(sorted_phases(self.phase_shares())),
            "per_rank_busy_s": list(self.per_rank_busy_s),
            "per_rank_active_pes": list(self.per_rank_active_pes),
            "pes_per_rank": self.pes_per_rank,
            "imbalance_index": self.imbalance_index,
            "overlap_hidden_s": self.overlap_hidden_s,
            "rank_segments": {
                str(rank): [
                    {"start_s": s.start_s, "end_s": s.end_s, "phase": s.phase}
                    for s in segs
                ]
                for rank, segs in self.rank_segments.items()
            },
        }


def build_rank_timelines(
    profile: PhaseProfile,
    num_ranks: int,
    pes_per_rank: int,
    active_pes: int,
) -> None:
    """Fill ``profile``'s per-rank fields from one kernel's phase seconds.

    The timeline model mirrors the simulator's cost structure: the
    ``distribution`` burst serializes over the shared external bus (rank r
    receives its tiles after ranks 0..r-1), every used rank then executes
    the micro-kernel in parallel (the launch is synchronous, so all ranks
    occupy the same window), and ``gather`` serializes again on the way
    out.  ``launch`` is host time and lands on no rank.
    """
    phases = profile.phase_seconds
    ranks_used = min(num_ranks, max(1, -(-active_pes // pes_per_rank)))
    per_rank_pes = [
        min(pes_per_rank, max(0, active_pes - r * pes_per_rank))
        for r in range(num_ranks)
    ]
    kernel_s = left_sum(
        phases.get(p, 0.0) for p in ("dma", "lookup", "reduce", "overhead")
    )
    dist_s = phases.get("distribution", 0.0)
    gather_s = phases.get("gather", 0.0)

    busy: List[float] = [0.0] * num_ranks
    segments: Dict[int, Tuple[PhaseSegment, ...]] = {}
    cum = 0
    for rank in range(ranks_used):
        pes = per_rank_pes[rank]
        if pes <= 0:
            continue
        share0 = cum / active_pes
        share1 = (cum + pes) / active_pes
        cum += pes
        segs: List[PhaseSegment] = []
        if dist_s > 0:
            segs.append(
                PhaseSegment(dist_s * share0, dist_s * share1, "distribution")
            )
        if kernel_s > 0:
            segs.append(PhaseSegment(dist_s, dist_s + kernel_s, "kernel"))
        if gather_s > 0:
            start = dist_s + kernel_s
            segs.append(
                PhaseSegment(
                    start + gather_s * share0, start + gather_s * share1,
                    "gather",
                )
            )
        segments[rank] = tuple(segs)
        busy[rank] = left_sum(seg.duration_s for seg in segs)
    profile.per_rank_busy_s = tuple(busy)
    profile.per_rank_active_pes = tuple(per_rank_pes)
    profile.pes_per_rank = pes_per_rank
    profile.rank_segments = segments


@dataclass(frozen=True)
class BottleneckReport:
    """Attribution roll-up: where did the modeled time go, and why.

    ``utilization`` maps a phase to its roofline-relative efficiency
    (achieved rate / platform peak) where the peak is known — e.g. the
    ``reduce`` phase against the aggregate adder throughput, transfer
    phases against the pattern bandwidths.  Phases without a known peak
    are simply absent.
    """

    total_s: float
    dominant_phase: str
    dominant_share: float
    phase_seconds: Dict[str, float]
    phase_shares: Dict[str, float]
    utilization: Dict[str, float] = field(default_factory=dict)
    imbalance_index: float = 0.0
    top_ranks: Tuple[Tuple[int, float], ...] = ()
    #: Transfer seconds pipelining hid under compute (phase seconds report
    #: exposed time; the sequential transfer cost adds this back).
    overlap_hidden_s: float = 0.0

    @classmethod
    def from_phases(
        cls,
        phase_seconds: Dict[str, float],
        utilization: Optional[Dict[str, float]] = None,
        imbalance_index: float = 0.0,
        top_ranks: Sequence[Tuple[int, float]] = (),
        overlap_hidden_s: float = 0.0,
    ) -> "BottleneckReport":
        total = left_sum(phase_seconds.values())
        shares = (
            {p: s / total for p, s in phase_seconds.items()}
            if total > 0
            else {p: 0.0 for p in phase_seconds}
        )
        if phase_seconds:
            dominant = max(
                phase_seconds.items(), key=lambda kv: (kv[1], kv[0])
            )[0]
            dominant_share = shares.get(dominant, 0.0)
        else:
            dominant, dominant_share = "none", 0.0
        return cls(
            total_s=total,
            dominant_phase=dominant,
            dominant_share=dominant_share,
            phase_seconds=dict(phase_seconds),
            phase_shares=shares,
            utilization=dict(utilization or {}),
            imbalance_index=imbalance_index,
            top_ranks=tuple(top_ranks),
            overlap_hidden_s=overlap_hidden_s,
        )

    def to_jsonable(self) -> dict:
        return {
            "total_s": self.total_s,
            "dominant_phase": self.dominant_phase,
            "dominant_share": self.dominant_share,
            "phase_seconds": dict(sorted_phases(self.phase_seconds)),
            "phase_shares": dict(sorted_phases(self.phase_shares)),
            "utilization": dict(sorted_phases(self.utilization)),
            "imbalance_index": self.imbalance_index,
            "top_ranks": [[rank, load] for rank, load in self.top_ranks],
            "overlap_hidden_s": self.overlap_hidden_s,
        }

    def render(self) -> str:
        """Plain-text attribution table for the CLI."""
        lines = [
            f"bottleneck: {self.dominant_phase} "
            f"({self.dominant_share:.1%} of {self.total_s * 1e3:.3f} ms)"
        ]
        for phase, seconds in sorted_phases(self.phase_seconds):
            share = self.phase_shares.get(phase, 0.0)
            util = self.utilization.get(phase)
            util_txt = f"  util {util:6.1%}" if util is not None else ""
            lines.append(
                f"  {phase:>13} {seconds * 1e3:10.4f} ms  {share:6.1%}{util_txt}"
            )
        if self.overlap_hidden_s > 0:
            exposed = self.phase_seconds.get("dma", 0.0)
            sequential = exposed + self.overlap_hidden_s
            hidden_share = (
                self.overlap_hidden_s / sequential if sequential > 0 else 0.0
            )
            lines.append(
                f"  pipelining hid {self.overlap_hidden_s * 1e3:.4f} ms of "
                f"transfer ({hidden_share:.1%} of sequential dma); "
                f"exposed {exposed * 1e3:.4f} ms"
            )
        if self.top_ranks:
            ranked = ", ".join(
                f"rank {rank} ({load * 1e3:.3f} ms)"
                for rank, load in self.top_ranks
            )
            lines.append(
                f"  rank imbalance {self.imbalance_index:.1%}; "
                f"most loaded: {ranked}"
            )
        return "\n".join(lines)


def attribute_bottleneck(
    profile: PhaseProfile,
    platform=None,
    shape=None,
    bursts=None,
    dma_bytes: Optional[float] = None,
    top_k: int = 3,
) -> BottleneckReport:
    """Build a :class:`BottleneckReport` from one profile.

    ``platform``/``shape`` enable roofline-relative utilization figures
    (duck-typed; any object with the :class:`~repro.pim.platforms.PIMPlatform`
    attributes works).  ``bursts`` (a
    :class:`~repro.mapping.space.TilingBursts`) are the host<->PIM bursts
    the ``distribution`` and ``gather`` phases moved, each priced at its
    own pattern's peak.  ``dma_bytes`` is the per-PE local-memory traffic
    the ``dma`` phase moved (the simulator records it in
    ``event_counts["dma_bytes"]``).
    """
    utilization: Dict[str, float] = {}
    phases = profile.phase_seconds
    if platform is not None and shape is not None:
        reduce_s = phases.get("reduce", 0.0)
        if reduce_s > 0:
            # Every output element accumulates CB adds: N*CB*F total adds
            # across all PEs, against the aggregate adder roofline.
            total_adds = float(shape.n) * shape.cb * shape.f
            utilization["reduce"] = min(
                total_adds / reduce_s / platform.peak_add_throughput, 1.0
            )
        transfers = {} if bursts is None else {
            "distribution": (bursts.index, bursts.lut), "gather": (bursts.output,),
        }
        for phase, moved in transfers.items():
            seconds = phases.get(phase, 0.0)
            if seconds > 0:
                utilization[phase] = min(left_sum(
                    b.total_bytes / seconds / b.link.peak_bytes_per_s for b in moved
                ), 1.0)
        dma_s = phases.get("dma", 0.0)
        if dma_s > 0 and dma_bytes:
            utilization["dma"] = min(
                float(dma_bytes) / dma_s
                / platform.local_memory.peak_bytes_per_s,
                1.0,
            )
    return BottleneckReport.from_phases(
        phases,
        utilization=utilization,
        imbalance_index=profile.imbalance_index,
        top_ranks=profile.top_ranks(top_k),
        overlap_hidden_s=profile.overlap_hidden_s,
    )
