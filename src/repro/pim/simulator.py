"""Event-level simulator of LUT-NN kernels on the DRAM-PIM abstraction.

Where :mod:`repro.mapping.analytical` evaluates paper Eqs. 3–10 in closed
form, this simulator walks the micro-kernel loop nest tile by tile with an
explicit on-chip buffer state, and serializes host<->PIM transfers over the
shared rank buses (limitation L1 of paper §5.1).  Second-order effects the
closed form ignores — per-DMA setup on every tile, 8-byte alignment padding,
per-loop-iteration instruction overhead, zero-initialized first output visits
— make its latency the "measured" reference that paper Fig. 13 compares the
analytical model against (reporting avg 3.44% / max 13.73% error).

The simulator can also execute the kernel *functionally* (producing the
actual output matrix from real index/LUT arrays), which the test suite uses
to check that the distributed dataflow computes exactly what the reference
``lut_lookup`` computes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle (resilience uses the sim)
    from ..resilience.faults import FaultInjector

from ..core.codebook import LUTShape
from ..core.lut import lut_lookup
from ..mapping.space import (
    INDEX_BYTES,
    LUT_BYTES,
    OUTPUT_BYTES,
    Mapping,
    _load_count,
    _loop_trips,
    is_legal,
    num_pes_used,
)
from ..obs.profiler import PhaseProfile, build_rank_timelines
from .platforms import PIMPlatform

#: Fixed instruction overhead per micro-kernel loop iteration (branching,
#: pointer bumps) — one of the second-order effects absent from Eqs. 6–10.
LOOP_OVERHEAD_CYCLES = 24.0

#: DMA transfers are padded to this granularity (UPMEM requires 8-byte
#: aligned MRAM accesses).
ALIGN_BYTES = 8

#: Beyond this tile count the per-tile event loop is aggregated batch-wise;
#: the costs remain identical, only Python iteration is collapsed.
MAX_EXPLICIT_TILES = 100_000


def _align(size: float) -> float:
    return ALIGN_BYTES * np.ceil(size / ALIGN_BYTES)


#: Receives each step of the explicit walk as ``(kind, seconds, tile)``.
EventSink = Callable[[str, float, Tuple[int, int, int]], None]


class _EventCosts(NamedTuple):
    """Per-event costs of one PE's micro-kernel loop nest (seconds, bytes).

    Computed once per kernel by :meth:`PIMSimulator._event_costs` and read
    by the explicit walk, the closed form and the phase reconstruction.
    """

    trips: Dict[str, int]
    tiles: int
    index_bytes: float  # one aligned index m-tile
    output_bytes: float  # one aligned output m-tile
    index_load: float
    output_move: float  # one output m-tile load or store
    static_stage: float  # static scheme: the sub-LUT staged before the loop
    static_bytes: float
    static_loads: int
    lut_tile: float  # coarse / fine: one LUT tile visit, all its chunks
    lut_chunks: int  # chunks per LUT tile visit
    chunk_bytes: float
    lookup: float  # per m-tile
    reduce: float  # per m-tile: adds plus ``lookup``
    loop_overhead: float  # per m-tile


@dataclass
class SimulationReport:
    """Timing (and optionally functional) result of one kernel run."""

    shape: LUTShape
    mapping: Mapping
    num_pes: int
    distribution_s: float
    kernel_s: float
    gather_s: float
    launch_s: float
    event_counts: Dict[str, int] = field(default_factory=dict)
    output: Optional[np.ndarray] = None
    #: Names of faults injected into this run (empty on the healthy path).
    faults: Tuple[str, ...] = ()
    #: The (possibly corrupted) table the PEs actually read; ``None``
    #: unless a fault injector tampered with the functional execution.
    #: Integrity checks (:func:`repro.kernels.verify_lut`) run against it.
    device_lut: Optional[np.ndarray] = None
    #: Per-phase / per-rank attribution of this run; its phase seconds
    #: partition :attr:`total_s` exactly (see :meth:`bottleneck`).
    profile: Optional[PhaseProfile] = None
    #: Kernel-transfer seconds hidden under reduce by the double-buffered
    #: pipeline (``run(overlap=True)``); 0.0 on the sequential path.
    #: ``kernel_s`` and the profile's ``dma`` phase report *exposed* time,
    #: so phases still partition :attr:`total_s` exactly.
    overlap_hidden_s: float = 0.0

    @property
    def total_s(self) -> float:
        return self.distribution_s + self.kernel_s + self.gather_s + self.launch_s

    def bottleneck(self, platform: Optional[PIMPlatform] = None, top_k: int = 3):
        """Attribution roll-up of this run (see :mod:`repro.obs.profiler`)."""
        from ..obs.profiler import attribute_bottleneck

        if self.profile is None:
            raise ValueError("simulation ran without a phase profile")
        return attribute_bottleneck(
            self.profile,
            platform=platform,
            shape=self.shape,
            mapping=self.mapping,
            dma_bytes=self.event_counts.get("dma_bytes"),
            top_k=top_k,
        )


class PIMSimulator:
    """Simulate LUT kernel execution on a :class:`PIMPlatform`."""

    def __init__(self, platform: PIMPlatform):
        self.platform = platform

    # ------------------------------------------------------------------
    # Host <-> PIM distribution
    # ------------------------------------------------------------------
    #: Host-side command issue cost per PE per tensor burst (driver call).
    PER_PE_COMMAND_S = 0.05e-6

    def _distribution_time(self, shape: LUTShape, mapping: Mapping) -> float:
        """Transfer of index and LUT tiles to all PEs.

        The pattern bandwidths in :class:`PIMPlatform` are *system-aggregate*
        figures (as measured in [33]), so replicated per-PE traffic is costed
        against them directly; the simulator adds what the closed form drops:
        8-byte alignment padding, one bus setup per rank burst rather than
        one global setup, and per-PE command issue overhead.
        """
        platform = self.platform
        n_pes = num_pes_used(shape, mapping)
        groups = shape.n // mapping.n_s_tile
        pes_per_group = shape.f // mapping.f_s_tile

        index_bytes = _align(mapping.n_s_tile * shape.cb * INDEX_BYTES)
        lut_bytes = _align(shape.cb * shape.ct * mapping.f_s_tile * LUT_BYTES)
        ranks = min(platform.ranks, n_pes)

        index_pattern = platform.broadcast if pes_per_group > 1 else platform.scatter
        lut_pattern = platform.broadcast if groups > 1 else platform.scatter

        time_s = n_pes * index_bytes / index_pattern.rate(index_bytes)
        time_s += n_pes * lut_bytes / lut_pattern.rate(lut_bytes)
        time_s += ranks * (index_pattern.setup_latency_s + lut_pattern.setup_latency_s)
        time_s += 2 * n_pes * self.PER_PE_COMMAND_S
        return time_s

    def _gather_time(self, shape: LUTShape, mapping: Mapping) -> float:
        platform = self.platform
        n_pes = num_pes_used(shape, mapping)
        out_bytes = _align(mapping.n_s_tile * mapping.f_s_tile * OUTPUT_BYTES)
        ranks = min(platform.ranks, n_pes)
        time_s = n_pes * out_bytes / platform.gather.rate(out_bytes)
        time_s += ranks * platform.gather.setup_latency_s
        time_s += n_pes * self.PER_PE_COMMAND_S
        return time_s

    # ------------------------------------------------------------------
    # Per-PE micro kernel
    # ------------------------------------------------------------------
    def _event_costs(self, shape: LUTShape, mapping: Mapping) -> _EventCosts:
        """The per-event costs of one PE's loop nest under ``mapping``."""
        local = self.platform.local_memory
        compute = self.platform.compute
        trips = _loop_trips(shape, mapping)
        index_bytes = _align(mapping.n_m_tile * mapping.cb_m_tile * INDEX_BYTES)
        output_bytes = _align(mapping.n_m_tile * mapping.f_m_tile * OUTPUT_BYTES)

        static_stage = static_bytes = 0.0
        static_loads = 0
        chunk_bytes = 0.0
        lut_chunks = 0
        if mapping.load_scheme == "static":
            # Whole sub-LUT staged once, before the loop nest.
            lut_total = shape.cb * shape.ct * mapping.f_s_tile * LUT_BYTES
            static_bytes = _align(lut_total)
            static_stage = local.latency(static_bytes, min(lut_total, 2048))
            static_loads = int(np.ceil(lut_total / 2048))
        elif mapping.load_scheme == "coarse":
            chunk_bytes = _align(
                mapping.cb_load_tile * shape.ct * mapping.f_load_tile * LUT_BYTES
            )
            lut_chunks = int(
                np.ceil(mapping.cb_m_tile / mapping.cb_load_tile)
                * np.ceil(mapping.f_m_tile / mapping.f_load_tile)
            )
        else:  # fine
            chunk_bytes = _align(mapping.f_load_tile * LUT_BYTES)
            lut_chunks = int(
                mapping.n_m_tile
                * mapping.cb_m_tile
                * np.ceil(mapping.f_m_tile / mapping.f_load_tile)
            )
        lut_tile = (
            lut_chunks * local.latency(chunk_bytes, chunk_bytes) if lut_chunks else 0.0
        )

        lookup = compute.lookup_time(mapping.n_m_tile * mapping.cb_m_tile)
        if mapping.load_scheme == "fine":
            extra_chunks = max(int(np.ceil(mapping.f_m_tile / mapping.f_load_tile)) - 1, 0)
            lookup += compute.lookup_time(
                mapping.n_m_tile * mapping.cb_m_tile * extra_chunks
            )
        reduce = compute.add_time(
            mapping.n_m_tile * mapping.cb_m_tile * mapping.f_m_tile
        )
        reduce += lookup
        return _EventCosts(
            trips=trips,
            tiles=trips["n"] * trips["f"] * trips["cb"],
            index_bytes=index_bytes,
            output_bytes=output_bytes,
            index_load=local.latency(index_bytes, index_bytes),
            output_move=local.latency(output_bytes, output_bytes),
            static_stage=static_stage,
            static_bytes=static_bytes,
            static_loads=static_loads,
            lut_tile=lut_tile,
            lut_chunks=lut_chunks,
            chunk_bytes=chunk_bytes,
            lookup=lookup,
            reduce=reduce,
            loop_overhead=LOOP_OVERHEAD_CYCLES / compute.frequency_hz,
        )

    def _micro_kernel_time(
        self,
        shape: LUTShape,
        mapping: Mapping,
        phases: Optional[Dict[str, float]] = None,
        overlap: bool = False,
        sink: Optional[EventSink] = None,
    ) -> Tuple[float, Dict[str, int]]:
        """Sequential micro-kernel time (and event counts) for one PE.

        The returned time is always the *sequential* loop-nest walk.  With
        ``overlap=True`` (requires ``phases``), the double-buffered pipeline
        is evaluated over the same per-tile events and the transfer time it
        hides is reported out-of-band as ``phases["overlap_hidden"]`` —
        callers subtract it from the kernel wall clock and the dma phase.

        ``sink(kind, seconds, tile)`` receives every step of the explicit
        walk, in order (see :meth:`_walk_loop_nest`); passing one forces the
        walk whatever the tile count.
        """
        costs = self._event_costs(shape, mapping)
        counts = {
            "index_loads": 0,
            "output_loads": 0,
            "output_stores": 0,
            "lut_loads": costs.static_loads,
            "tiles": costs.tiles,
        }
        # Static LUT staging happens once, before the loop nest.
        time_s = costs.static_stage
        if sink is not None and mapping.load_scheme == "static":
            sink("lut_load", costs.static_stage, (-1, -1, -1))

        explicit = sink is not None or costs.tiles <= MAX_EXPLICIT_TILES
        tile_events: Optional[list] = [] if overlap and explicit else None
        if explicit:
            time_s += self._walk_loop_nest(mapping, costs, counts, tile_events, sink)
        else:
            # Aggregate using the same per-event costs and exact reuse
            # counts; only the Python loop is collapsed.
            time_s += self._aggregate_loop_nest(mapping, costs, counts)

        if phases is not None:
            # Analytical re-attribution of the accumulated kernel time.  Each
            # component is reconstructed from the exact event counts, and the
            # reduce phase is the residual, so the partition sums to ``time_s``
            # exactly (no float drift against the walk above).
            lut_dma_s = costs.static_stage
            lut_dma_bytes = costs.static_bytes
            if costs.lut_chunks:
                visits = counts["lut_loads"] // costs.lut_chunks
                lut_dma_s = visits * costs.lut_tile
                lut_dma_bytes = counts["lut_loads"] * costs.chunk_bytes
            dma_s = (
                counts["index_loads"] * costs.index_load
                + counts["output_loads"] * costs.output_move
                + counts["output_stores"] * costs.output_move
                + lut_dma_s
            )
            overhead_s = counts["tiles"] * costs.loop_overhead
            lookup_s = counts["tiles"] * costs.lookup
            phases["dma"] = dma_s
            phases["lookup"] = lookup_s
            phases["overhead"] = overhead_s
            phases["reduce"] = time_s - dma_s - lookup_s - overhead_s
            counts["dma_bytes"] = int(
                counts["index_loads"] * costs.index_bytes
                + (counts["output_loads"] + counts["output_stores"]) * costs.output_bytes
                + lut_dma_bytes
            )
            if overlap:
                # Double-buffered pipeline over the same per-tile events:
                # the transfer of tile i+1 overlaps the reduce of tile i,
                # each stage bounded by max(transfer, compute); the static
                # LUT staging (fill) and trailing output store (drain) stay
                # exposed.  ``hidden`` = sequential - pipelined, and is
                # strictly less than the dma phase by construction.
                hidden = 0.0
                if tile_events is not None and len(tile_events) > 1:
                    pipelined = tile_events[0][0]
                    for i in range(1, len(tile_events)):
                        pipelined += max(tile_events[i][0], tile_events[i - 1][1])
                    pipelined += tile_events[-1][1]
                    sequential = sum(t + c for t, c in tile_events)
                    hidden = max(sequential - pipelined, 0.0)
                elif tile_events is None and counts["tiles"] > 1:
                    # Aggregate path (>MAX_EXPLICIT_TILES): uniform-tile
                    # closed form, (T-1)/T * min(in-loop transfer, compute).
                    tiles = counts["tiles"]
                    in_loop_transfer = dma_s - costs.static_stage
                    compute_total = tiles * (costs.loop_overhead + costs.reduce)
                    hidden = (tiles - 1) / tiles * min(in_loop_transfer, compute_total)
                phases["overlap_hidden"] = hidden
        return time_s, counts

    def _walk_loop_nest(
        self,
        mapping: Mapping,
        costs: _EventCosts,
        counts: Dict[str, int],
        tile_events: Optional[list] = None,
        sink: Optional[EventSink] = None,
    ) -> float:
        """Explicit tile-by-tile walk with resident-tile tags per tensor.

        When ``tile_events`` is a list, it receives one ``(transfer_s,
        compute_s)`` pair per tile for pipeline evaluation; the ``time_s``
        accumulation order is untouched either way, so the sequential total
        stays bit-identical.  ``sink`` receives each step as ``(kind,
        seconds, (n, f, cb))``: an ``"overhead"`` step opens every tile,
        then its ``index_load`` / ``output_store`` / ``output_load`` /
        ``lut_load`` / ``reduce`` events, and a final ``output_store``
        follows the last tile.
        """
        trips = costs.trips
        index_load = costs.index_load
        output_move = costs.output_move
        lut_tile = costs.lut_tile
        reduce = costs.reduce
        loop_overhead = costs.loop_overhead
        tracing = sink is not None
        time_s = 0.0
        resident_index: Optional[Tuple[int, int]] = None
        resident_output: Optional[Tuple[int, int]] = None
        resident_lut: Optional[Tuple[int, int]] = None
        first_output_visit: set = set()
        reload_lut = mapping.load_scheme in ("coarse", "fine")

        dims = {"n": 0, "f": 0, "cb": 0}
        d0, d1, d2 = mapping.traversal
        for i0 in range(trips[d0]):
            dims[d0] = i0
            for i1 in range(trips[d1]):
                dims[d1] = i1
                for i2 in range(trips[d2]):
                    dims[d2] = i2
                    time_s += loop_overhead
                    tile_transfer = 0.0
                    if tracing:
                        tile = (dims["n"], dims["f"], dims["cb"])
                        sink("overhead", loop_overhead, tile)

                    index_tag = (dims["n"], dims["cb"])
                    if index_tag != resident_index:
                        time_s += index_load
                        tile_transfer += index_load
                        counts["index_loads"] += 1
                        resident_index = index_tag
                        if tracing:
                            sink("index_load", index_load, tile)

                    output_tag = (dims["n"], dims["f"])
                    if output_tag != resident_output:
                        if resident_output is not None:
                            time_s += output_move
                            tile_transfer += output_move
                            counts["output_stores"] += 1
                            if tracing:
                                sink("output_store", output_move, tile)
                        if output_tag in first_output_visit:
                            time_s += output_move
                            tile_transfer += output_move
                            counts["output_loads"] += 1
                            if tracing:
                                sink("output_load", output_move, tile)
                        else:
                            first_output_visit.add(output_tag)
                        resident_output = output_tag

                    if reload_lut:
                        lut_tag = (dims["cb"], dims["f"])
                        if lut_tag != resident_lut:
                            time_s += lut_tile
                            tile_transfer += lut_tile
                            counts["lut_loads"] += costs.lut_chunks
                            resident_lut = lut_tag
                            if tracing:
                                sink("lut_load", lut_tile, tile)
                        if mapping.load_scheme == "fine":
                            # Fine-grain always re-gathers per tile visit.
                            resident_lut = None

                    time_s += reduce
                    if tracing:
                        sink("reduce", reduce, tile)
                    if tile_events is not None:
                        tile_events.append((tile_transfer, loop_overhead + reduce))
        if resident_output is not None:
            time_s += output_move
            counts["output_stores"] += 1
            if tracing:
                sink("output_store", output_move, (dims["n"], dims["f"], dims["cb"]))
        return time_s

    def _aggregate_loop_nest(
        self, mapping: Mapping, costs: _EventCosts, counts: Dict[str, int]
    ) -> float:
        """Closed-form aggregation with identical per-event costs."""
        order = mapping.traversal
        trips = costs.trips
        index_loads = _load_count(order, trips, ("n", "cb"))
        output_visits = _load_count(order, trips, ("n", "f"))
        unique_outputs = trips["n"] * trips["f"]
        output_loads = output_visits - unique_outputs  # first visits zero-init
        output_stores = output_visits

        time_s = costs.tiles * (costs.loop_overhead + costs.reduce)
        time_s += index_loads * costs.index_load
        time_s += output_loads * costs.output_move + output_stores * costs.output_move
        counts["index_loads"] += index_loads
        counts["output_loads"] += output_loads
        counts["output_stores"] += output_stores
        if mapping.load_scheme == "coarse":
            lut_visits = _load_count(order, trips, ("cb", "f"))
            time_s += lut_visits * costs.lut_tile
            counts["lut_loads"] += lut_visits * costs.lut_chunks
        elif mapping.load_scheme == "fine":
            time_s += costs.tiles * costs.lut_tile
            counts["lut_loads"] += costs.tiles * costs.lut_chunks
        return time_s

    # ------------------------------------------------------------------
    # Functional execution
    # ------------------------------------------------------------------
    def _execute(
        self, shape: LUTShape, mapping: Mapping, indices: np.ndarray, lut: np.ndarray
    ) -> np.ndarray:
        """Compute the kernel output through the distributed dataflow."""
        if indices.shape != (shape.n, shape.cb):
            raise ValueError(f"indices must be {(shape.n, shape.cb)}")
        if lut.shape != (shape.cb, shape.ct, shape.f):
            raise ValueError(f"LUT must be {(shape.cb, shape.ct, shape.f)}")
        output = np.zeros((shape.n, shape.f), dtype=np.float64)
        groups = shape.n // mapping.n_s_tile
        pes_per_group = shape.f // mapping.f_s_tile
        for g in range(groups):
            rows = slice(g * mapping.n_s_tile, (g + 1) * mapping.n_s_tile)
            for p in range(pes_per_group):
                cols = slice(p * mapping.f_s_tile, (p + 1) * mapping.f_s_tile)
                output[rows, cols] = lut_lookup(indices[rows], lut[:, :, cols])
        return output

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(
        self,
        shape: LUTShape,
        mapping: Mapping,
        indices: Optional[np.ndarray] = None,
        lut: Optional[np.ndarray] = None,
        injector: Optional["FaultInjector"] = None,
        overlap: bool = False,
    ) -> SimulationReport:
        """Simulate one kernel; pass ``indices``/``lut`` for functional output.

        ``overlap=True`` double-buffers the micro-kernel loop: the DMA
        transfer of m-tile ``i+1`` runs under the reduce of m-tile ``i``
        (per-tile stages bounded by ``max(transfer, compute)``, fill/drain
        exposed).  ``kernel_s`` and the profile's ``dma`` phase then report
        the *exposed* time while ``overlap_hidden_s`` carries what the
        pipeline hid, so phases keep partitioning ``total_s`` exactly.
        ``overlap=False`` is bit-identical to the sequential model.

        ``injector`` threads a :class:`~repro.resilience.faults.FaultInjector`
        through the run: kernel launches against dead ranks raise
        :class:`~repro.resilience.faults.RankFailure`, planned transfer
        timeouts raise :class:`~repro.resilience.faults.TransferTimeout`
        (transient — a retry consumes the next budget entry), stragglers
        stretch the micro-kernel phase, and LUT bit flips corrupt the
        table the functional execution reads (``report.device_lut``
        carries the tampered copy for integrity checking).  An inactive
        injector (empty plan) leaves every code path — and therefore the
        report — bit-identical to ``injector=None``.
        """
        if not is_legal(shape, mapping, self.platform):
            raise ValueError(f"illegal mapping {mapping} for shape {shape}")
        faulting = injector is not None and injector.active
        faults: Tuple[str, ...] = ()
        device_lut: Optional[np.ndarray] = None
        if faulting:
            # Permanent faults fail the launch; transients fail this
            # attempt's distribution burst.  Both raise before any cost
            # is accumulated, exactly like a driver error on real HW.
            injector.check_launch(self.platform)
            injector.check_transfer()
        distribution = self._distribution_time(shape, mapping)
        kernel_phases: Dict[str, float] = {}
        kernel, counts = self._micro_kernel_time(
            shape, mapping, phases=kernel_phases, overlap=overlap
        )
        overlap_hidden = kernel_phases.pop("overlap_hidden", 0.0)
        if faulting:
            slowdown = injector.straggler_slowdown()
            if slowdown > 1.0:
                # The launch is synchronous: the host waits for the
                # slowest PE, so one straggler stretches the whole phase.
                kernel *= slowdown
                for key in ("dma", "lookup", "overhead"):
                    kernel_phases[key] *= slowdown
                # Keep the partition exact under the (float) scaling.
                kernel_phases["reduce"] = kernel - (
                    kernel_phases["dma"]
                    + kernel_phases["lookup"]
                    + kernel_phases["overhead"]
                )
                # The pipeline stretches uniformly with the straggler, so
                # the hidden fraction scales by the same factor.
                overlap_hidden *= slowdown
                faults += ("straggler",)
                injector.record("straggler", factor=slowdown)
        if overlap_hidden > 0.0:
            # Re-express kernel wall clock and the dma phase as *exposed*
            # time; hidden < dma by construction, so dma stays >= 0 and the
            # phase partition still sums to the (new) kernel_s exactly.
            kernel -= overlap_hidden
            kernel_phases["dma"] -= overlap_hidden
        gather = self._gather_time(shape, mapping)
        output = None
        if indices is not None and lut is not None:
            exec_lut = np.asarray(lut)
            if faulting and injector.plan.lut_bit_flips > 0:
                exec_lut = injector.corrupt_lut(exec_lut)
                device_lut = exec_lut
                faults += ("lut_bit_flips",)
            output = self._execute(shape, mapping, np.asarray(indices), exec_lut)
        n_pes = num_pes_used(shape, mapping)
        profile = PhaseProfile(
            phase_seconds={
                "distribution": distribution,
                "dma": kernel_phases.get("dma", 0.0),
                "lookup": kernel_phases.get("lookup", 0.0),
                "reduce": kernel_phases.get("reduce", kernel),
                "overhead": kernel_phases.get("overhead", 0.0),
                "gather": gather,
                "launch": self.platform.kernel_launch_s,
            },
            label=f"{self.platform.name}:{shape.n}x{shape.h}x{shape.f}",
            overlap_hidden_s=overlap_hidden,
        )
        build_rank_timelines(
            profile,
            num_ranks=self.platform.ranks,
            pes_per_rank=self.platform.pes_per_rank,
            active_pes=n_pes,
        )
        return SimulationReport(
            shape=shape,
            mapping=mapping,
            num_pes=n_pes,
            distribution_s=distribution,
            kernel_s=kernel,
            gather_s=gather,
            launch_s=self.platform.kernel_launch_s,
            event_counts=counts,
            output=output,
            faults=faults,
            device_lut=device_lut,
            profile=profile,
            overlap_hidden_s=overlap_hidden,
        )
