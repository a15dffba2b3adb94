"""MoE FFN pricing: expert-to-rank placement and max-over-ranks makespan.

A dense LUT-NN linear layer spreads one table across every PIM rank and
all ranks work on the same output.  An MoE layer is different: each
expert's LUT tables live on one rank (capacity — E experts multiply the
table footprint), tokens fan out to their routed experts, and the layer
completes when the most-loaded rank drains its queue.  On a
bandwidth-bound LUT gather the cost of an expert is driven by how many
tokens hit it, so routing skew becomes *rank contention* and the layer
latency is the placement's makespan:

    t_layer = gate + CCS(all routed tokens) + max_r sum_{e on r} t_lut(e)

Per-expert LUT cost comes from the same Auto-Tuner used for dense layers,
run against a 1/ranks platform slice (one rank's PEs and bandwidth, via
``repro.engine.multiplex.slice_platform``).  Token counts are rounded up
to the next power of two before tuning so a sweep over routing seeds
reuses a handful of tuned shapes through the ``MappingCache`` instead of
re-searching for every count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple

from .. import obs
from ..baselines.roofline import RooflineDevice
from ..core.codebook import LUTShape
from ..mapping.tuner import AutoTuner
from ..obs.metrics import left_sum
from ..pim.placement import load_imbalance, place_experts, rank_loads
from ..pim.platforms import PIMPlatform
from ..workloads.routing import MoEConfig, route_tokens


def token_bucket(n: int) -> int:
    """Round a token count up to the next power of two (min 1).

    Bounds the number of distinct shapes the tuner ever sees for an MoE
    sweep: every per-expert count maps onto O(log tokens) buckets, at the
    price of a <= 2x overestimate of the per-expert work.
    """
    if n <= 0:
        raise ValueError("token count must be positive")
    return 1 << (int(n) - 1).bit_length()


def make_rank_tuner(
    platform: PIMPlatform,
    amortize_lut_distribution: bool = False,
    cache=None,
) -> AutoTuner:
    """An Auto-Tuner for a single-rank slice of ``platform``.

    One expert's LUT kernel runs on the PEs and bandwidth share of the one
    rank hosting its tables, which is exactly a ``1/ranks`` platform slice.
    """
    # Local import: multiplex imports PIMDLEngine from this package.
    from .multiplex import slice_platform

    ways = platform.ranks
    if ways <= 1:
        rank_platform = platform
    else:
        if platform.num_pes % ways:
            raise ValueError(
                f"platform {platform.name!r}: num_pes={platform.num_pes} not "
                f"divisible by ranks={ways}; cannot build a per-rank slice"
            )
        rank_platform = slice_platform(platform, ways)
    return AutoTuner(
        rank_platform,
        amortize_lut_distribution=amortize_lut_distribution,
        cache=cache,
    )


@dataclass(frozen=True)
class MoELayerCost:
    """Priced MoE FFN layer: routing, placement, and the latency split.

    ``phases`` attributes the layer the way the dense engines do — the
    critical rank's LUT stage breakdown plus ``ccs`` and ``gate`` — and
    partitions ``total_s`` exactly.
    """

    tokens: int
    hidden_dim: int
    ffn_dim: int
    moe: MoEConfig
    num_ranks: int
    expert_tokens: Tuple[int, ...]
    expert_seconds: Tuple[float, ...]
    placement: Tuple[int, ...]
    rank_seconds: Tuple[float, ...]
    lut_makespan_s: float
    lut_serial_s: float
    ccs_s: float
    gate_s: float
    imbalance_index: float
    phases: Dict[str, float] = field(hash=False)

    @property
    def total_s(self) -> float:
        """Layer latency: gate + CCS + the critical rank's LUT work."""
        return self.gate_s + self.ccs_s + self.lut_makespan_s

    @property
    def critical_rank(self) -> int:
        return max(range(self.num_ranks), key=lambda r: self.rank_seconds[r])

    def top_ranks(self, count: int = 3) -> Tuple[Tuple[int, float], ...]:
        """The ``count`` most-loaded (rank, seconds) pairs, descending."""
        order = sorted(
            range(self.num_ranks), key=lambda r: (-self.rank_seconds[r], r)
        )
        return tuple((r, self.rank_seconds[r]) for r in order[:count])


def price_moe_ffn(
    rank_tuner: AutoTuner,
    host: RooflineDevice,
    tokens: int,
    hidden_dim: int,
    ffn_dim: int,
    moe: MoEConfig,
    num_ranks: int,
    v: int,
    ct: int,
    ccs_time: Callable[[int, int], float],
) -> MoELayerCost:
    """Price one MoE FFN layer (see module docstring for the model).

    ``ccs_time(n, h)`` prices the host CCS of ``n`` routed rows; engines
    pass their own, so a measured host kernel profile flows through.
    """
    if tokens <= 0:
        raise ValueError("tokens must be positive")
    if num_ranks <= 0:
        raise ValueError("num_ranks must be positive")
    if hidden_dim % v or ffn_dim % v:
        raise ValueError(
            f"hidden_dim={hidden_dim} and ffn_dim={ffn_dim} must be "
            f"divisible by V={v}"
        )

    trace = route_tokens(tokens, moe)
    counts = trace.expert_token_counts()

    # Per-expert LUT work on the rank hosting it: FFN1 (h -> ffn) + FFN2
    # (ffn -> h) at the expert's routed token count, tuned on the rank
    # slice.  Idle experts cost nothing.
    expert_seconds = []
    expert_phases = []
    for n_e in counts:
        if n_e == 0:
            expert_seconds.append(0.0)
            expert_phases.append({})
            continue
        # Tune at the power-of-two bucket (bounded search reuse), then
        # scale linearly to the actual token count: the LUT gather-reduce
        # is bandwidth-bound, so cost is ~proportional to rows within a
        # bucket.  Without the rescale, bucket quantization would invent
        # up-to-2x load differences between near-equal experts and the
        # placement comparison would measure the bucketing, not the skew.
        nb = token_bucket(int(n_e))
        scale = float(n_e) / nb
        seconds = 0.0
        phases: Dict[str, float] = {}
        for h, f in ((hidden_dim, ffn_dim), (ffn_dim, hidden_dim)):
            lat = rank_tuner.tune(LUTShape(n=nb, h=h, f=f, v=v, ct=ct)).latency
            seconds += lat.total * scale
            # Same stage attribution as the dense LUT op; partitions the
            # scaled total exactly, so critical-rank phases sum to the
            # makespan.
            for phase, s in lat.stage_phases().items():
                phases[phase] = phases.get(phase, 0.0) + s * scale
        expert_seconds.append(seconds)
        expert_phases.append(phases)

    placement = place_experts(moe.placement, expert_seconds, num_ranks)
    per_rank = rank_loads(placement, expert_seconds, num_ranks)
    makespan_s = max(per_rank)
    imbalance = load_imbalance(per_rank)
    critical = max(range(num_ranks), key=lambda r: per_rank[r])

    phases = {"gate": _gate_time(host, tokens, hidden_dim, moe.num_experts)}
    # Host CCS encodes each routed token against the owning expert's
    # codebooks — once per (expert, token) slot for each of the two
    # projections.
    phases["ccs"] = left_sum(
        ccs_time(int(n_e), hidden_dim) + ccs_time(int(n_e), ffn_dim)
        for n_e in counts
        if n_e > 0
    )
    for e, rank in enumerate(placement):
        if rank != critical:
            continue
        for phase, s in expert_phases[e].items():
            phases[phase] = phases.get(phase, 0.0) + s

    registry = obs.get_registry()
    registry.counter("moe.layers_priced").inc()
    registry.counter("moe.tokens_routed").inc(trace.tokens * moe.top_k)
    expert_hist = registry.histogram("moe.expert_tokens")
    for n_e in counts:
        expert_hist.observe(float(n_e))
    registry.histogram("moe.rank_imbalance_index").observe(imbalance)
    registry.gauge("moe.experts").set(moe.num_experts)

    return MoELayerCost(
        tokens=tokens,
        hidden_dim=hidden_dim,
        ffn_dim=ffn_dim,
        moe=moe,
        num_ranks=num_ranks,
        expert_tokens=tuple(int(c) for c in counts),
        expert_seconds=tuple(expert_seconds),
        placement=placement,
        rank_seconds=per_rank,
        lut_makespan_s=makespan_s,
        lut_serial_s=float(left_sum(expert_seconds)),
        ccs_s=phases["ccs"],
        gate_s=phases["gate"],
        imbalance_index=imbalance,
        phases=phases,
    )


def _gate_time(host: RooflineDevice, tokens: int, h: int, experts: int) -> float:
    """The (N, H) x (H, E) gate projection plus top-k selection, on host."""
    gemm_flops = 2.0 * tokens * h * experts
    gemm_bytes = (tokens * h + h * experts + tokens * experts) * 4.0
    select = host.op_time(tokens * experts, 2.0 * tokens * experts * 4.0)
    return host.op_time(gemm_flops, gemm_bytes) + select
