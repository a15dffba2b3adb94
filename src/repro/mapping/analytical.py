"""Analytical latency model of LUT-NN execution on DRAM-PIMs (paper §5.2).

The model splits execution into the two steps of the paper's dataflow:

* **Step-1, sub-LUT partition** (Eqs. 3–5): host→PIM distribution of index
  and LUT tiles plus output collection, costed per transfer pattern.
* **Step-2, micro-kernel execution** (Eqs. 6–10): per-PE tile movement
  between the local bank and the on-chip buffer plus the reduce compute,
  derived from a loop-nest reuse analysis of the traversal order.

The same :class:`~repro.mapping.space.Mapping` is also interpreted
event-by-event by :mod:`repro.pim.simulator`; paper Fig. 13 reports the gap
between the two (avg 3.44%), which `benchmarks/test_fig13_mapping_space.py`
re-measures against our simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import groupby
from operator import itemgetter
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from ..core.codebook import LUTShape
from ..pim.platforms import PIMPlatform
from .space import (
    INDEX_BYTES,
    LUT_BYTES,
    OUTPUT_BYTES,
    STATIC_ACCESS_BYTES,
    TRAVERSALS,
    Mapping,
    MappingGrid,
    _load_count,
    _loop_trips,
    fits_buffer,
    is_legal,
    load_options,
    m_tile_options,
    tiling_bursts,
)


@dataclass(frozen=True)
class LatencyBreakdown:
    """Per-stage latency estimate for one LUT kernel invocation (seconds)."""

    sub_index: float
    sub_lut: float
    sub_output: float
    kernel_transfer: float
    kernel_reduce: float
    launch: float
    #: Transfer seconds hidden under reduce by the double-buffered pipeline
    #: (0.0 in the sequential model).  ``kernel_transfer`` always reports the
    #: *full* transfer work; the wall-clock view subtracts this.
    overlap_hidden: float = 0.0

    @property
    def sub_lut_partition(self) -> float:
        """t_sub-lut of paper Eq. 3."""
        return self.sub_index + self.sub_lut + self.sub_output

    @property
    def micro_kernel(self) -> float:
        """Wall-clock t_micro-kernel (paper Eq. 6, minus pipelined overlap)."""
        return self.kernel_transfer + self.kernel_reduce - self.overlap_hidden

    @property
    def exposed_transfer(self) -> float:
        """Kernel transfer time still on the critical path under overlap."""
        return self.kernel_transfer - self.overlap_hidden

    @property
    def total(self) -> float:
        return self.sub_lut_partition + self.micro_kernel + self.launch

    def stage_phases(self) -> Dict[str, float]:
        """This kernel's stages under the phase names the simulator profiles.

        The one stage -> phase map of the engines and the MoE pricing.
        ``dma`` is the full transfer work, so the phases sum to ``total +
        overlap_hidden``; a caller that reports wall-clock phases sets
        ``dma`` to :attr:`exposed_transfer`.
        """
        return {
            "distribution": self.sub_index + self.sub_lut,
            "dma": self.kernel_transfer,
            "reduce": self.kernel_reduce,
            "gather": self.sub_output,
            "launch": self.launch,
        }


def pipeline_overlap_hidden(
    shape: LUTShape, mapping: Mapping, breakdown: LatencyBreakdown
) -> float:
    """Transfer seconds hidden by double-buffering the micro-kernel loop.

    With ``T`` uniform m-tiles, per-tile transfer ``tt`` and per-tile reduce
    ``tc``, the pipelined loop takes ``tt + (T-1)*max(tt, tc) + tc`` instead
    of ``T*(tt + tc)`` — the fill/drain stages stay exposed, so the hidden
    time is ``(T-1)/T * min(total_transfer, total_reduce)``.  Always
    ``0 <= hidden < kernel_transfer`` (strictly, unless both are zero).
    """
    trips = _loop_trips(shape, mapping)
    tiles = trips["n"] * trips["f"] * trips["cb"]
    if tiles <= 1:
        return 0.0
    frac = (tiles - 1) / tiles
    return frac * min(breakdown.kernel_transfer, breakdown.kernel_reduce)


def with_overlap(
    shape: LUTShape, mapping: Mapping, breakdown: LatencyBreakdown
) -> LatencyBreakdown:
    """Re-express ``breakdown`` under the double-buffered pipeline model."""
    hidden = pipeline_overlap_hidden(shape, mapping, breakdown)
    if hidden <= 0.0:
        return breakdown
    return replace(breakdown, overlap_hidden=hidden)


class TilingFixedTerms(NamedTuple):
    """Cost terms fixed by a sub-LUT tiling ``(n_s, f_s)`` alone (seconds).

    ``reduce_base`` is Eq. 10's adds plus one table lookup per (row,
    codebook) pair, without the fine-grain scheme's per-chunk extra.
    """

    sub_index: float
    sub_lut: float
    sub_output: float
    reduce_base: float


def tiling_fixed_terms(
    shape: LUTShape,
    n_s_tile: int,
    f_s_tile: int,
    platform: PIMPlatform,
    amortize_lut_distribution: bool = False,
) -> TilingFixedTerms:
    """The sub-LUT partition (Eqs. 3–5) and base reduce terms of a tiling.

    The one source of these terms for :func:`estimate_latency`,
    :func:`search_micro_kernels` and :func:`tiling_lower_bound`.
    """
    # Following Eq. 4, replicated tiles count their full per-PE traffic
    # against the (faster) broadcast bandwidth; unique tiles go at
    # scatter/gather bandwidth.
    def burst_s(burst) -> float:
        return burst.link.latency(burst.total_bytes, tile_bytes=burst.tile_bytes)

    bursts = tiling_bursts(shape, n_s_tile, f_s_tile, platform)
    t_sub_lut = 0.0 if amortize_lut_distribution else burst_s(bursts.lut)

    # Reduce: f_s additions per (row, codebook) pair plus one table-address
    # computation per lookup (Eq. 10, with t_single-reduce from the PE).
    reduce_count = n_s_tile * shape.cb * f_s_tile
    lookup_count = n_s_tile * shape.cb
    reduce_base = platform.compute.add_time(reduce_count)
    reduce_base += platform.compute.lookup_time(lookup_count)
    return TilingFixedTerms(burst_s(bursts.index), t_sub_lut, burst_s(bursts.output), reduce_base)


def tiling_lower_bound(
    shape: LUTShape,
    n_s_tile: int,
    f_s_tile: int,
    platform: PIMPlatform,
    amortize_lut_distribution: bool = False,
) -> float:
    """A lower bound on :func:`estimate_latency` over a tiling's mappings.

    The fixed terms plus the launch time: the micro-kernel transfer terms
    and the fine-grain reduce extra are never negative.  The sum runs in
    ``LatencyBreakdown.total``'s order and float addition is monotonic, so
    for the sequential model (the tuner's) the bound holds bit-for-bit, not
    just in exact arithmetic.
    """
    fixed = tiling_fixed_terms(
        shape, n_s_tile, f_s_tile, platform, amortize_lut_distribution
    )
    partition = fixed.sub_index + fixed.sub_lut + fixed.sub_output
    return partition + fixed.reduce_base + platform.kernel_launch_s


def estimate_latency(
    shape: LUTShape,
    mapping: Mapping,
    platform: PIMPlatform,
    amortize_lut_distribution: bool = False,
    overlap: bool = False,
) -> LatencyBreakdown:
    """Closed-form latency of one LUT kernel under ``mapping``.

    Parameters
    ----------
    amortize_lut_distribution:
        When True, the host→PIM LUT transfer (model weights) is treated as
        resident across invocations and excluded — the steady-state serving
        configuration used by the end-to-end engine.
    overlap:
        When True, model the micro-kernel loop as a double-buffered
        pipeline: the transfer of m-tile ``i+1`` overlaps the reduce of
        m-tile ``i``, each stage bounded by ``max(transfer, compute)`` plus
        fill/drain.  The hidden time lands in
        :attr:`LatencyBreakdown.overlap_hidden`; with ``overlap=False`` the
        result is bit-identical to the sequential model.
    """
    if not is_legal(shape, mapping, platform):
        raise ValueError(f"illegal mapping {mapping} for shape {shape}")

    # Step-1, the sub-LUT partition (Eqs. 3–5), and Step-2's base reduce
    # depend on the tiling alone.
    fixed = tiling_fixed_terms(
        shape,
        mapping.n_s_tile,
        mapping.f_s_tile,
        platform,
        amortize_lut_distribution=amortize_lut_distribution,
    )

    # ------------------------------------------------------------------
    # Step-2: micro kernel (Eqs. 6–10), per PE.
    # ------------------------------------------------------------------
    trips = _loop_trips(shape, mapping)
    local = platform.local_memory

    mtile_index = mapping.n_m_tile * mapping.cb_m_tile * INDEX_BYTES
    mtile_output = mapping.n_m_tile * mapping.f_m_tile * OUTPUT_BYTES

    lcount_index = _load_count(mapping.traversal, trips, ("n", "cb"))
    t_ld_index = local.latency(lcount_index * mtile_index, mtile_index)

    out_count = _load_count(mapping.traversal, trips, ("n", "f"))
    t_ld_output = local.latency(out_count * mtile_output, mtile_output)
    t_st_output = local.latency(out_count * mtile_output, mtile_output)

    lut_unique = shape.cb * shape.ct * mapping.f_s_tile * LUT_BYTES
    if mapping.load_scheme == "static":
        # Whole sub-LUT staged once at kernel start (Fig. 9, scheme 1).
        t_ld_lut = local.latency(lut_unique, min(lut_unique, STATIC_ACCESS_BYTES))
    elif mapping.load_scheme == "coarse":
        # All CT candidates of (cb_load x f_load) blocks staged per visit;
        # the LUT footprint is re-streamed whenever the N loop revisits it.
        revisit = _load_count(mapping.traversal, trips, ("cb", "f"))
        full_visits = trips["cb"] * trips["f"]
        streams = max(revisit // full_visits, 1)
        access = mapping.cb_load_tile * shape.ct * mapping.f_load_tile * LUT_BYTES
        t_ld_lut = local.latency(streams * lut_unique, access)
    else:  # fine
        # On-demand gather: each (row, codebook) index pulls its selected
        # f_s_tile entries in f_load_tile chunks (Fig. 9, scheme 3).
        total = mapping.n_s_tile * shape.cb * mapping.f_s_tile * LUT_BYTES
        t_ld_lut = local.latency(total, mapping.f_load_tile * LUT_BYTES)

    t_transfer = t_ld_index + t_ld_lut + t_ld_output + t_st_output

    t_reduce = fixed.reduce_base
    if mapping.load_scheme == "fine":
        # Fine-grain adds per-chunk address arithmetic on the PE.
        lookup_count = mapping.n_s_tile * shape.cb
        chunks_per_lookup = max(mapping.f_s_tile // mapping.f_load_tile, 1)
        t_reduce += platform.compute.lookup_time(lookup_count * (chunks_per_lookup - 1))

    breakdown = LatencyBreakdown(
        sub_index=fixed.sub_index,
        sub_lut=fixed.sub_lut,
        sub_output=fixed.sub_output,
        kernel_transfer=t_transfer,
        kernel_reduce=t_reduce,
        launch=platform.kernel_launch_s,
    )
    if overlap:
        breakdown = with_overlap(shape, mapping, breakdown)
    return breakdown


def search_micro_kernels(
    shape: LUTShape,
    n_s_tile: int,
    f_s_tile: int,
    platform: PIMPlatform,
) -> Optional[Tuple[Mapping, float]]:
    """Vectorized ``KernelSearch`` of paper Algorithm 1 (line 8).

    Scores the full micro-kernel space of one sub-LUT tiling as one numpy
    array over (traversal, load option, n_m, f_m, cb_m), in
    :data:`TRAVERSALS` x :func:`load_options` x :func:`m_tile_options`
    order, with illegal candidates at ``inf``; one ``argmin`` picks the
    first cheapest candidate in that order.  Candidates, legality and
    reload counts are the :mod:`repro.mapping.space` rules
    :func:`estimate_latency` reads; the cost formulas are its vectorized
    form, which sums some terms in another order, so the two agree to a
    relative 1e-9 (a property test in the suite holds them together), not
    bit for bit.  Returns the cheapest legal ``(mapping, t_micro_kernel)``
    or ``None`` when no candidate fits the on-chip buffer.
    """
    local = platform.local_memory
    cb, ct = shape.cb, shape.ct
    m_tiles = m_tile_options(shape, n_s_tile, f_s_tile)
    # Open grids: each tile factor varies along its own axis.
    NM, FM, CBM = np.meshgrid(*m_tiles, indexing="ij", sparse=True)
    cells = tuple(len(factors) for factors in m_tiles)
    setup = local.access_setup_s
    bw = local.peak_bytes_per_s
    t_index_tile = setup + NM * CBM * INDEX_BYTES / bw
    t_output_tile = setup + NM * FM * OUTPUT_BYTES / bw
    lut_unique = cb * ct * f_s_tile * LUT_BYTES
    fine_total = n_s_tile * cb * f_s_tile * LUT_BYTES
    # Reduce time: constant across the grid except for fine-grain chunking.
    t_reduce_base = tiling_fixed_terms(shape, n_s_tile, f_s_tile, platform).reduce_base

    # Per traversal, over (1, n_m, f_m, cb_m): the index and output moves
    # plus the base reduce, and how often the coarse scheme re-streams the
    # LUT footprint.  Trip counts do not depend on the load option.
    grid = MappingGrid(n_s_tile, f_s_tile, NM, FM, CBM, None, None, None, None)
    trips = _loop_trips(shape, grid)
    base = np.empty((len(TRAVERSALS), 1) + cells)
    streams = np.empty_like(base)
    for t, traversal in enumerate(TRAVERSALS):
        t_index = _load_count(traversal, trips, ("n", "cb")) * t_index_tile
        t_output = 2.0 * _load_count(traversal, trips, ("n", "f")) * t_output_tile
        base[t, 0] = t_index + t_output + t_reduce_base
        revisit = _load_count(traversal, trips, ("cb", "f"))
        streams[t, 0] = np.maximum(revisit // (trips["cb"] * trips["f"]), 1.0)

    # One block of load options per scheme, their load tiles on a leading
    # (option, 1, 1, 1) axis: the LUT seconds (per stream for coarse) fill
    # the block of ``costs``; the reduce extra, or ``inf`` where a
    # candidate breaks the buffer rule, fills the block of ``extra``.
    options = load_options(shape, f_s_tile)
    costs = np.empty((len(TRAVERSALS), len(options)) + cells)
    extra = np.empty((len(options),) + cells)
    stop = 0
    for scheme, group in groupby(options, key=itemgetter(0)):
        cb_l, f_l = np.array([load[1:] for load in group]).T.reshape(2, -1, 1, 1, 1)
        block = slice(stop, stop + len(f_l))
        stop = block.stop
        scheme_grid = grid._replace(load_scheme=scheme, cb_load_tile=cb_l, f_load_tile=f_l)
        legal = fits_buffer(shape, scheme_grid, platform)
        reduce_extra = 0.0
        if scheme == "static":  # the whole sub-LUT resident in the buffer
            access = min(lut_unique, STATIC_ACCESS_BYTES)
            costs[:, block] = setup * (lut_unique / access) + lut_unique / bw
        elif scheme == "coarse":  # all CT candidates, block-wise per visit
            access = cb_l * ct * f_l * LUT_BYTES
            np.multiply(
                streams, lut_unique / bw + setup * (lut_unique / access), out=costs[:, block]
            )
        else:  # fine: gather only the indexed entries
            access = f_l * LUT_BYTES
            costs[:, block] = fine_total / bw + setup * (fine_total / access)
            chunks = np.maximum(f_s_tile // f_l, 1)
            reduce_extra = platform.compute.lookup_time(n_s_tile * cb * (chunks - 1))
        extra[block] = np.where(legal, reduce_extra, np.inf)

    # Each cost is ``(base + t_lut) + extra``, rounded in that order
    # (adding ``base`` onto the LUT seconds is the same float addition).
    costs += base
    costs += extra
    flat = int(np.argmin(costs))
    cost = float(costs.flat[flat])
    if cost == np.inf:
        return None
    t, option, i, j, k = np.unravel_index(flat, costs.shape)
    scheme, cb_l, f_l = options[option]
    mapping = Mapping(
        n_s_tile=n_s_tile,
        f_s_tile=f_s_tile,
        n_m_tile=m_tiles[0][i],
        f_m_tile=m_tiles[1][j],
        cb_m_tile=m_tiles[2][k],
        traversal=TRAVERSALS[t],
        load_scheme=scheme,
        cb_load_tile=cb_l,
        f_load_tile=f_l,
    )
    return mapping, cost
