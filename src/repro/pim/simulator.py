"""Event-level simulator of LUT-NN kernels on the DRAM-PIM abstraction.

Where :mod:`repro.mapping.analytical` evaluates paper Eqs. 3–10 in closed
form, this simulator walks the micro-kernel loop nest tile by tile, tracking
which index, output and LUT tile each PE holds, and serializes host<->PIM
transfers over the shared rank buses (limitation L1 of paper §5.1).
Second-order effects the closed form ignores — per-DMA setup on every tile,
8-byte alignment padding, per-loop-iteration instruction overhead,
zero-initialized first output visits — make its latency the "measured"
reference that paper Fig. 13 compares the analytical model against
(reporting avg 3.44% / max 13.73% error).

The walk is one numpy pass over fixed-size chunks of tiles, whatever the
tile count: each tile's events come from changes of its loop indices, and
their costs are summed in walk order with ``np.cumsum``, which adds
sequentially, so the kernel time equals a tile-by-tile Python loop bit for
bit.  The double-buffered pipeline (``overlap=True``) is evaluated exactly
on the same per-tile arrays, and :func:`repro.pim.trace.trace_kernel`
replays the same events.

The simulator can also execute the kernel *functionally* (producing the
actual output matrix from real index/LUT arrays), which the test suite uses
to check that the distributed dataflow computes exactly what the reference
``lut_lookup`` computes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, NamedTuple, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle (resilience uses the sim)
    from ..resilience.faults import FaultInjector

from ..core.codebook import LUTShape
from ..core.lut import lut_lookup
from ..mapping.space import (
    INDEX_BYTES,
    LUT_BYTES,
    OUTPUT_BYTES,
    STATIC_ACCESS_BYTES,
    Burst,
    Mapping,
    _loop_trips,
    is_legal,
    tiling_bursts,
)
from ..obs.profiler import PhaseProfile, build_rank_timelines
from .platforms import PIMPlatform

#: Fixed instruction overhead per micro-kernel loop iteration (branching,
#: pointer bumps) — one of the second-order effects absent from Eqs. 6–10.
LOOP_OVERHEAD_CYCLES = 24.0

#: DMA transfers are padded to this granularity (UPMEM requires 8-byte
#: aligned MRAM accesses).
ALIGN_BYTES = 8

#: Tiles per chunk of the loop-nest walk.  It bounds the walk's working
#: arrays (192 KiB of per-event seconds) whatever the tile count.  On a
#: 2-core Xeon, fresh processes walked Fig. 13's sampled mappings in
#: 3.4 s with 4,096-tile chunks, 3.8 s with 2,048 and 5.0 s with 8,192.
WALK_CHUNK_TILES = 4_096

#: The events an m-tile can issue, in walk order: the loop overhead opens
#: every tile and the reduce closes it.
TILE_EVENTS = (
    "overhead", "index_load", "output_store", "output_load", "lut_load", "reduce",
)


def _align(size: float) -> float:
    return ALIGN_BYTES * np.ceil(size / ALIGN_BYTES)


def _clock(start: float, steps: np.ndarray) -> np.ndarray:
    """``start``, then the running sum as each of ``steps`` is added.

    ``np.cumsum`` adds left to right, one element at a time, so
    ``_clock(t, steps)[-1]`` equals ``t += step`` over ``steps`` in a
    Python loop bit for bit.
    """
    return np.cumsum(np.concatenate(([start], steps.ravel())))


class _EventCosts(NamedTuple):
    """Per-event costs of one PE's micro-kernel loop nest (seconds, bytes).

    Computed once per kernel by :meth:`PIMSimulator._event_costs` and read
    by the walk's pricing, the phase reconstruction and the trace replay.
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

    @property
    def tile_seconds(self) -> Tuple[float, ...]:
        """Seconds of each :data:`TILE_EVENTS` entry, in that order."""
        return (
            self.loop_overhead, self.index_load, self.output_move,
            self.output_move, self.lut_tile, self.reduce,
        )


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
        bursts = None if platform is None else tiling_bursts(
            self.shape, self.mapping.n_s_tile, self.mapping.f_s_tile, platform
        )
        return attribute_bottleneck(
            self.profile,
            platform=platform,
            shape=self.shape,
            bursts=bursts,
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

    def _bursts_time(self, *bursts: Burst) -> float:
        """Host seconds of bursts issued back to back to the same PEs.

        The pattern bandwidths in :class:`PIMPlatform` are *system-aggregate*
        figures (as measured in [33]), so replicated per-PE traffic is costed
        against them directly; the simulator adds what the closed form drops:
        8-byte alignment padding, one bus setup per rank burst rather than
        one global setup, and per-PE command issue overhead.
        """
        pes = bursts[0].pes
        time_s = setup_s = 0.0
        for burst in bursts:
            tile_bytes = _align(burst.tile_bytes)
            time_s += burst.pes * tile_bytes / burst.link.rate(tile_bytes)
            setup_s += burst.link.setup_latency_s
        time_s += min(self.platform.ranks, pes) * setup_s
        return time_s + len(bursts) * pes * self.PER_PE_COMMAND_S

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
            static_stage = local.latency(static_bytes, min(lut_total, STATIC_ACCESS_BYTES))
            static_loads = int(np.ceil(lut_total / STATIC_ACCESS_BYTES))
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

    def _walk(
        self, mapping: Mapping, costs: _EventCosts
    ) -> Iterator[Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], np.ndarray]]:
        """The loop nest in chunks of at most :data:`WALK_CHUNK_TILES` tiles.

        Yields ``((n, f, cb), events)`` per chunk: each tile's loop indices
        and a ``(tiles, len(TILE_EVENTS))`` bool array of the events it
        issues.  A tile reloads its index m-tile when ``(n, cb)`` changes,
        stores the resident output m-tile when ``(n, f)`` changes after tile
        0, and loads it back when ``(n, f)`` changes at ``cb != 0`` (an
        ``(n, f)`` is first visited at its ``cb = 0`` tile, zero-initialized).
        Coarse LUT tiles reload when ``(cb, f)`` changes; the fine scheme
        re-gathers on every tile.  Each chunk leads with the previous chunk's
        last tile (tile -1 of the first chunk loads everything), so only
        running sums carry across chunks.
        """
        trips = costs.trips
        outer, middle, inner = mapping.traversal
        scheme = mapping.load_scheme
        for start in range(0, costs.tiles, WALK_CHUNK_TILES):
            tile = np.arange(start - 1, min(start + WALK_CHUNK_TILES, costs.tiles))
            loop = {
                outer: tile // (trips[middle] * trips[inner]),
                middle: tile // trips[inner] % trips[middle],
                inner: tile % trips[inner],
            }

            def moved(*dims: str) -> np.ndarray:
                changed = np.zeros(len(tile) - 1, dtype=bool)
                changed[0] = start == 0
                for dim in dims:
                    changed |= loop[dim][1:] != loop[dim][:-1]
                return changed

            output = moved("n", "f")
            events = np.ones((len(tile) - 1, len(TILE_EVENTS)), dtype=bool)
            events[:, 1] = moved("n", "cb")
            events[:, 2] = output & (tile[1:] > 0)
            events[:, 3] = output & (loop["cb"][1:] != 0)
            events[:, 4] = moved("cb", "f") if scheme == "coarse" else scheme == "fine"
            yield (loop["n"][1:], loop["f"][1:], loop["cb"][1:]), events

    def _micro_kernel_time(
        self, shape: LUTShape, mapping: Mapping, overlap: bool = False
    ) -> Tuple[float, Dict[str, int], Dict[str, float], float]:
        """One PE's sequential micro-kernel time, event counts and phases.

        The time is the loop nest's events (see :meth:`_walk`) summed in
        walk order after the static LUT staging, plus the store of the last
        resident output m-tile.  The phases re-attribute it from the exact
        event counts, with ``reduce`` the residual, so they sum to the time
        exactly.  The last value is the transfer time the double-buffered
        pipeline hides (0.0 unless ``overlap``): the transfer of tile
        ``i+1`` runs under the compute of tile ``i``, so the pipelined span
        is ``t₀ + Σ max(tᵢ, c) + c`` over per-tile transfers ``tᵢ`` and the
        per-tile compute ``c``; the static staging (fill) and the last
        store (drain) stay exposed.  Callers subtract it from the kernel
        wall clock and the dma phase; it is strictly less than the dma
        phase by construction.
        """
        costs = self._event_costs(shape, mapping)
        seconds = np.array(costs.tile_seconds)
        compute = costs.loop_overhead + costs.reduce
        issued = np.zeros(len(TILE_EVENTS), dtype=np.int64)
        walk_s = pipelined = sequential = 0.0
        for chunk, (_, events) in enumerate(self._walk(mapping, costs)):
            steps = np.where(events, seconds, 0.0)
            issued += events.sum(axis=0)
            walk_s = _clock(walk_s, steps)[-1]
            if overlap:
                transfer = steps[:, 1] + steps[:, 2] + steps[:, 3] + steps[:, 4]
                stages = np.maximum(transfer, compute)
                if chunk == 0:
                    stages[0] = transfer[0]  # the fill: nothing to hide under
                pipelined = _clock(pipelined, stages)[-1]
                sequential = _clock(sequential, transfer + compute)[-1]
        time_s = costs.static_stage + float(walk_s + costs.output_move)
        counts = {
            "index_loads": int(issued[1]),
            "output_loads": int(issued[3]),
            "output_stores": int(issued[2]) + 1,
            "lut_loads": costs.static_loads + costs.lut_chunks * int(issued[4]),
            "tiles": costs.tiles,
        }

        lut_dma_s = costs.static_stage
        lut_dma_bytes = costs.static_bytes
        if costs.lut_chunks:
            lut_dma_s = int(issued[4]) * costs.lut_tile
            lut_dma_bytes = counts["lut_loads"] * costs.chunk_bytes
        dma_s = (
            counts["index_loads"] * costs.index_load
            + counts["output_loads"] * costs.output_move
            + counts["output_stores"] * costs.output_move
            + lut_dma_s
        )
        lookup_s = costs.tiles * costs.lookup
        overhead_s = costs.tiles * costs.loop_overhead
        phases = {
            "dma": dma_s,
            "lookup": lookup_s,
            "overhead": overhead_s,
            "reduce": time_s - dma_s - lookup_s - overhead_s,
        }
        counts["dma_bytes"] = int(
            counts["index_loads"] * costs.index_bytes
            + (counts["output_loads"] + counts["output_stores"]) * costs.output_bytes
            + lut_dma_bytes
        )
        hidden = 0.0
        if overlap:  # one tile: fill and drain are the whole pipeline, 0.0
            hidden = max(float(sequential - (pipelined + compute)), 0.0)
        return time_s, counts, phases, hidden

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
        bursts = tiling_bursts(shape, mapping.n_s_tile, mapping.f_s_tile, self.platform)
        distribution = self._bursts_time(bursts.index, bursts.lut)
        kernel, counts, kernel_phases, overlap_hidden = self._micro_kernel_time(
            shape, mapping, overlap=overlap
        )
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
        gather = self._bursts_time(bursts.output)
        output = None
        if indices is not None and lut is not None:
            exec_lut = np.asarray(lut)
            if faulting and injector.plan.lut_bit_flips > 0:
                exec_lut = injector.corrupt_lut(exec_lut)
                device_lut = exec_lut
                faults += ("lut_bit_flips",)
            output = self._execute(shape, mapping, np.asarray(indices), exec_lut)
        n_pes = bursts.output.pes
        profile = PhaseProfile(
            phase_seconds={
                "distribution": distribution,
                "dma": kernel_phases["dma"],
                "lookup": kernel_phases["lookup"],
                "reduce": kernel_phases["reduce"],
                "overhead": kernel_phases["overhead"],
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
