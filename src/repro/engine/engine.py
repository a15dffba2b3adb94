"""PIM-DL inference engine and the baseline engines it is compared against.

Three engines share the operator graph of :mod:`repro.engine.graph`:

* :class:`PIMDLEngine` — the paper's system: linear layers become a
  host-side CCS operator plus a PIM-side LUT operator whose mapping comes
  from the Auto-Tuner; attention and element-wise operators run on the host.
* :class:`GEMMPIMEngine` — "normal" DNN inference with linear layers
  offloaded to the PIM as dense GEMMs (the PIM baseline of Figs. 10/14).
* :class:`HostEngine` — everything on a CPU/GPU roofline device (the
  CPU FP32/INT8 and V100 baselines).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from .. import obs
from ..baselines.roofline import RooflineDevice
from ..core.codebook import LUTShape
from ..kernels import HostKernelProfile
from ..mapping.analytical import LatencyBreakdown, with_overlap
from ..mapping.tuner import AutoTuner
from ..pim.energy import host_only_energy, pim_system_energy
from ..pim.gemm_kernels import linear_layer_on_pim
from ..pim.platforms import PIMPlatform
from ..workloads.configs import TransformerConfig
from ..workloads.routing import MoEConfig
from .graph import LINEAR, MOE, model_graph
from .moe import MoELayerCost, make_rank_tuner, price_moe_ffn
from .report import EngineReport, OpLatency

if TYPE_CHECKING:  # pragma: no cover - import cycle (resilience uses tuner)
    from ..resilience.recovery import RecoveryManager


def _observe_op(report: EngineReport, op: OpLatency, phases=None) -> None:
    """Append ``op``, record its latency, and attribute its phases.

    ``phases`` maps phase name -> seconds for ops with a finer-grained
    breakdown (the LUT op's analytical stages); by default the op's whole
    latency lands on its category.
    """
    obs.get_registry().histogram("engine.op_model_seconds").observe(op.seconds)
    report.ops.append(op)
    if phases is None:
        report.add_phase(op.category, op.seconds)
    else:
        for phase, seconds in phases.items():
            report.add_phase(phase, seconds)


def _finish_run(report: EngineReport, span) -> None:
    registry = obs.get_registry()
    registry.counter("engine.runs").inc()
    registry.counter("engine.ops").inc(len(report.ops))
    span.set_attribute("model_total_s", report.total_s)
    span.set_attribute("ops", len(report.ops))


class HostEngine:
    """All operators on a single CPU/GPU roofline device."""

    def __init__(self, device: RooflineDevice, dtype_bytes: int = 4):
        self.device = device
        self.dtype_bytes = dtype_bytes

    @property
    def name(self) -> str:
        return f"host[{self.device.name}]"

    def run(self, config: TransformerConfig) -> EngineReport:
        tracer = obs.get_tracer()
        report = EngineReport(engine=self.name, model=config.name)
        with tracer.span("engine.run", engine=self.name, model=config.name) as root:
            for op in model_graph(config, self.dtype_bytes):
                category = "gemm" if op.kind == LINEAR else op.kind
                with tracer.span(
                    f"op:{op.name}", engine=self.name, device="host",
                    category=category,
                ) as sp:
                    seconds = self.device.op_time(op.flops, op.bytes_moved)
                    sp.set_attribute("model_seconds", seconds)
                _observe_op(report, OpLatency(op.name, "host", category, seconds))
            report.energy = host_only_energy(self.device, report.total_s)
            _finish_run(report, root)
        return report


class GEMMPIMEngine:
    """Linear layers offloaded to DRAM-PIM as dense GEMMs; rest on host."""

    def __init__(self, platform: PIMPlatform, host: RooflineDevice):
        self.platform = platform
        self.host = host

    @property
    def name(self) -> str:
        return f"pim-gemm[{self.platform.name}]"

    def run(self, config: TransformerConfig) -> EngineReport:
        tracer = obs.get_tracer()
        report = EngineReport(engine=self.name, model=config.name)
        with tracer.span("engine.run", engine=self.name, model=config.name) as root:
            n = config.tokens
            for op in model_graph(config):
                if op.kind == LINEAR:
                    with tracer.span(
                        f"op:{op.name}", engine=self.name, device="pim",
                        category="gemm",
                    ) as sp:
                        breakdown = linear_layer_on_pim(self.platform, n, op.h, op.f)
                        sp.set_attribute("model_seconds", breakdown.total)
                    _observe_op(
                        report, OpLatency(op.name, "pim", "gemm", breakdown.total)
                    )
                else:
                    with tracer.span(
                        f"op:{op.name}", engine=self.name, device="host",
                        category=op.kind,
                    ) as sp:
                        seconds = self.host.op_time(op.flops, op.bytes_moved)
                        sp.set_attribute("model_seconds", seconds)
                    _observe_op(report, OpLatency(op.name, "host", op.kind, seconds))
            report.energy = pim_system_energy(
                self.platform, report.host_s, report.pim_s
            )
            _finish_run(report, root)
        return report


class _LUTEngine:
    """What PIM-DL's prefill and decode engines share: one LUT-op pricer.

    A LUT-NN linear layer is host CCS plus a PIM LUT kernel.  The kernel
    is priced here once for both engines — by the resilience ladder under
    an active fault plan, else by the Auto-Tuner (double-buffered when
    ``overlap``) — along with the lazily built per-rank tuner and the
    memoized MoE layer cost.
    """

    def __init__(
        self,
        platform: PIMPlatform,
        host: RooflineDevice,
        v: int,
        ct: int,
        amortize_lut_distribution: bool,
        tuner: Optional[AutoTuner],
        host_kernel_profile: Optional[HostKernelProfile],
        resilience: Optional["RecoveryManager"],
        overlap: bool,
    ):
        if v <= 0 or ct <= 0:
            raise ValueError("v and ct must be positive")
        self.platform = platform
        self.host = host
        self.v = v
        self.ct = ct
        self.tuner = tuner or AutoTuner(
            platform, amortize_lut_distribution=amortize_lut_distribution
        )
        self.host_kernel_profile = host_kernel_profile
        self.resilience = resilience
        self.overlap = overlap
        self._rank_tuner: Optional[AutoTuner] = None
        self._moe_costs: dict = {}

    def _ccs_time(self, n: int, h: int) -> float:
        """Host-side closest-centroid search for one linear layer.

        CCS is implemented as per-column inner products between (N, V)
        activation tiles and (V, CT) codebooks (3*N*H*CT ops, paper §3.3)
        followed by an argmin over the (N, CB, CT) distance tensor.  The
        inner dimension of those GEMMs is the sub-vector length V, so they
        run at small-K efficiency — which is why CCS contributes ~20% of
        PIM-DL's latency despite its modest op count (Fig. 11-(a)).

        When a measured :class:`~repro.kernels.HostKernelProfile` is set it
        replaces the roofline estimate with this machine's real throughput.
        """
        if self.host_kernel_profile is not None:
            return self.host_kernel_profile.ccs_time(n, h, self.ct)
        cb = h // self.v
        distance = self.host.small_k_gemm_time(n * cb, self.v, self.ct)
        argmin_bytes = n * cb * self.ct * 4.0 + n * cb
        argmin = self.host.op_time(n * cb * self.ct, argmin_bytes)
        return distance + argmin

    def lut_shape(self, n: int, h: int, f: int) -> LUTShape:
        if h % self.v:
            raise ValueError(f"hidden dim {h} not divisible by V={self.v}")
        return LUTShape(n=n, h=h, f=f, v=self.v, ct=self.ct)

    def rank_tuner(self) -> AutoTuner:
        """Auto-Tuner for a single-rank platform slice (MoE expert kernels).

        Shares the dense tuner's ``MappingCache`` (keyed by platform, so
        slice entries never collide with full-platform entries) and its
        amortization setting.
        """
        if self._rank_tuner is None:
            self._rank_tuner = make_rank_tuner(
                self.platform,
                amortize_lut_distribution=self.tuner.amortize_lut_distribution,
                cache=self.tuner.cache,
            )
        return self._rank_tuner

    def _moe_cost(
        self, tokens: int, config: TransformerConfig, moe: MoEConfig
    ) -> MoELayerCost:
        """Price one MoE FFN layer at ``tokens`` rows (memoized per engine)."""
        key = (tokens, config.hidden_dim, config.ffn_dim, moe)
        if key not in self._moe_costs:
            self._moe_costs[key] = price_moe_ffn(
                self.rank_tuner(),
                self.host,
                tokens,
                config.hidden_dim,
                config.ffn_dim,
                moe,
                num_ranks=self.platform.ranks,
                v=self.v,
                ct=self.ct,
                ccs_time=self._ccs_time,
            )
        return self._moe_costs[key]

    def _price_lut_op(
        self, shape: LUTShape, op_name: str
    ) -> Tuple[float, str, Optional[LatencyBreakdown]]:
        """Price one LUT op as ``(seconds, device, breakdown)``.

        Under an active fault plan the resilience ladder prices the op,
        possibly on the host, and ``breakdown`` is ``None``.  Otherwise
        ``breakdown`` is the tuned kernel's (double-buffered when
        ``overlap``) and ``seconds`` its full sequential work, ``total +
        overlap_hidden``.
        """
        if self.resilience is not None and self.resilience.active:
            seconds, device = self.resilience.lut_op_seconds(
                shape,
                self.platform,
                self.tuner,
                self.host,
                host_kernel_profile=self.host_kernel_profile,
                op_name=op_name,
            )
            return seconds, device, None
        tuned = self.tuner.tune(shape)
        lat = tuned.latency
        if self.overlap:
            lat = with_overlap(shape, tuned.mapping, lat)
        return lat.total + lat.overlap_hidden, "pim", lat


class PIMDLEngine(_LUTEngine):
    """The PIM-DL system: LUT-NN linear layers on PIM, the rest on the host.

    Parameters
    ----------
    v, ct:
        LUT-NN hyper-parameters (sub-vector length, centroids per codebook).
    amortize_lut_distribution:
        Treat LUTs (model weights) as resident in PIM memory across
        inferences.  Default False: every inference pays the full Eq. 3
        distribution cost, matching the paper's measurement setup.
    host_kernel_profile:
        Optional measured throughput of this machine's host CCS kernel
        (:func:`repro.kernels.measure_host_kernels`).  When set, CCS time
        comes from the measurement instead of the host roofline, so the
        latency model reflects the actual kernel layer.
    resilience:
        Optional :class:`~repro.resilience.recovery.RecoveryManager`.
        When set (and its fault plan is non-empty), every LUT operator
        runs through the retry → remap → host-fallback ladder instead of
        the plain tuner lookup; degradation is recorded in the manager's
        ledger and the op's device switches to ``"host"`` for fallen-back
        layers.  ``None`` (or an empty plan) leaves the engine's behavior
        bit-identical to a build without the resilience layer.
    overlap:
        Model every LUT kernel with the double-buffered micro-kernel
        pipeline (:func:`repro.mapping.analytical.with_overlap`): the
        transfer of m-tile ``i+1`` overlaps the reduce of m-tile ``i``.
        The hidden transfer accumulates into
        ``EngineReport.overlap_hidden_s`` while op seconds and phases keep
        reporting the full sequential work, so schedulers built on this
        engine (:class:`~repro.engine.scheduler.RequestScheduler`, the
        cluster layer) inherit the speedup with no API change.  Default
        False — bit-identical to the sequential model.
    """

    def __init__(
        self,
        platform: PIMPlatform,
        host: RooflineDevice,
        v: int = 4,
        ct: int = 16,
        amortize_lut_distribution: Optional[bool] = None,
        tuner: Optional[AutoTuner] = None,
        host_kernel_profile: Optional[HostKernelProfile] = None,
        resilience: Optional["RecoveryManager"] = None,
        overlap: bool = False,
    ):
        if amortize_lut_distribution is None:
            # HBM-PIM/AiM keep LUTs (= model weights) resident in the PIM
            # banks; UPMEM re-distributes them per kernel (paper's setup).
            amortize_lut_distribution = bool(platform.extras.get("lut_resident", 0))
        super().__init__(
            platform, host, v, ct, amortize_lut_distribution, tuner,
            host_kernel_profile, resilience, overlap,
        )

    @property
    def name(self) -> str:
        return f"pim-dl[{self.platform.name}, V={self.v}, CT={self.ct}]"

    def moe_layer_cost(self, config: TransformerConfig, moe: MoEConfig) -> MoELayerCost:
        """Price one MoE FFN layer of ``config`` (memoized per engine)."""
        return self._moe_cost(config.tokens, config, moe)

    def run(
        self,
        config: TransformerConfig,
        pipeline_overlap: bool = False,
        moe: Optional[MoEConfig] = None,
    ) -> EngineReport:
        """Estimate one inference of ``config``.

        ``pipeline_overlap`` models the what-if of paper §7's discussion:
        double-buffering the host work (CCS, attention, element-wise ops)
        against PIM LUT kernels, so per inference only
        ``max(host_time, pim_time)`` is exposed instead of their sum.  The
        sequential default matches the paper's measured system.

        ``moe`` replaces the dense FFN of every layer with a gated
        mixture of experts; the FFN pair is then priced as gate + CCS +
        the expert placement's max-over-ranks LUT makespan
        (:func:`repro.engine.moe.price_moe_ffn`).
        """
        tracer = obs.get_tracer()
        report = EngineReport(engine=self.name, model=config.name)
        with tracer.span("engine.run", engine=self.name, model=config.name) as root:
            n = config.tokens
            for op in model_graph(config, moe=moe):
                if op.kind == MOE:
                    self._run_moe_op(report, tracer, config, moe, op)
                elif op.kind == LINEAR:
                    with tracer.span(
                        f"op:{op.name}/CCS", engine=self.name, device="host",
                        category="ccs",
                    ) as sp:
                        ccs_seconds = self._ccs_time(n, op.h)
                        sp.set_attribute("model_seconds", ccs_seconds)
                    _observe_op(
                        report, OpLatency(f"{op.name}/CCS", "host", "ccs", ccs_seconds)
                    )
                    # The LUT op's costing span nests the tuner's own spans
                    # (and, under fault injection, the recovery ladder's).
                    shape = self.lut_shape(n, op.h, op.f)
                    lut_phases = None
                    with tracer.span(
                        f"op:{op.name}/LUT", engine=self.name, device="pim",
                        category="lut",
                    ) as sp:
                        lut_seconds, device, lat = self._price_lut_op(
                            shape, f"{op.name}/LUT"
                        )
                        sp.set_attribute("model_seconds", lut_seconds)
                        if lat is None:
                            sp.set_attribute("device", device)
                        else:
                            # Op seconds and phases report the full
                            # sequential work; the pipelined saving lands
                            # in report.overlap_hidden_s, preserving the
                            # sum(phases) == total_s + hidden invariant.
                            report.overlap_hidden_s += lat.overlap_hidden
                            lut_phases = lat.stage_phases()
                            if lat.overlap_hidden > 0:
                                sp.set_attribute(
                                    "overlap_hidden_s", lat.overlap_hidden
                                )
                    _observe_op(
                        report,
                        OpLatency(f"{op.name}/LUT", device, "lut", lut_seconds),
                        phases=lut_phases,
                    )
                else:
                    with tracer.span(
                        f"op:{op.name}", engine=self.name, device="host",
                        category=op.kind,
                    ) as sp:
                        seconds = self.host.op_time(op.flops, op.bytes_moved)
                        sp.set_attribute("model_seconds", seconds)
                    _observe_op(report, OpLatency(op.name, "host", op.kind, seconds))
            if pipeline_overlap:
                # Engine-level what-if (host work under PIM kernels);
                # composes additively with the kernel-level pipeline above.
                report.overlap_hidden_s += min(report.host_s, report.pim_s)
            report.energy = pim_system_energy(
                self.platform, report.host_s, report.pim_s
            )
            _finish_run(report, root)
        return report

    def _run_moe_op(self, report, tracer, config, moe, op) -> None:
        """Observe one ``FFN-MoE`` operator as gate + CCS + LUT makespan."""
        with tracer.span(
            f"op:{op.name}", engine=self.name, device="pim", category="moe",
        ) as sp:
            cost = self.moe_layer_cost(config, moe)
            sp.set_attribute("model_seconds", cost.total_s)
            sp.set_attribute("experts", moe.num_experts)
            sp.set_attribute("rank_imbalance", cost.imbalance_index)
        _observe_op(
            report, OpLatency(f"{op.name}/Gate", "host", "gate", cost.gate_s)
        )
        _observe_op(
            report, OpLatency(f"{op.name}/CCS", "host", "ccs", cost.ccs_s)
        )
        lut_phases = {
            phase: s
            for phase, s in cost.phases.items()
            if phase not in ("ccs", "gate")
        }
        _observe_op(
            report,
            OpLatency(f"{op.name}/LUT", "pim", "lut", cost.lut_makespan_s),
            phases=lut_phases,
        )
