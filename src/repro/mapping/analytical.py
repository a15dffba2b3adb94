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
    :func:`search_micro_kernels` and :func:`tiling_lower_bound`.  The tile
    factors may be equal-shape integer arrays, one entry per tiling: each
    term is then an array, elementwise by the same float operations as one
    scalar tiling (:func:`~repro.mapping.space.tiling_bursts`).
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
    just in exact arithmetic.  Over arrays of tile factors (as
    :func:`tiling_fixed_terms`) it gives every tiling's bound in one pass,
    bit for bit the scalar one; the tuner bounds all of a shape's tilings
    so.
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

    Scores the micro-kernel space of one sub-LUT tiling with numpy arrays
    over (traversal, load option, n_m, f_m, cb_m) and returns its first
    cheapest candidate in :data:`TRAVERSALS` x :func:`load_options` x
    :func:`m_tile_options` order, in two exact stages:

    1. The minimum cost.  Static and fine-grain candidates are scored in
       full.  A coarse candidate costs ``streams * K + base``, where ``K``
       is its load option's LUT seconds per stream and ``streams >= 1``;
       rounding never decreases as its input grows, so at each (traversal,
       tile cell) the cheapest legal coarse option is the one with the
       smallest legal ``K`` there, and the coarse block shrinks to one
       array over (traversal, tile cell).
    2. The first candidate at that cost.  In the first traversal where a
       block reaches it, static, then coarse, then fine is checked.  A
       larger ``K`` can round to the same cost, so the coarse block is
       scored for every option, at the cells whose cheapest coarse option
       reaches the cost.

    Candidates, legality and reload counts are the
    :mod:`repro.mapping.space` rules :func:`estimate_latency` reads; the
    cost formulas are its vectorized form, which sums some terms in another
    order, so the two agree to a relative 1e-9 (a property test in the
    suite holds them together), not bit for bit.  Returns the cheapest
    legal ``(mapping, t_micro_kernel)`` or ``None`` when no candidate fits
    the on-chip buffer.
    """
    local = platform.local_memory
    cb, ct = shape.cb, shape.ct
    m_tiles = m_tile_options(shape, n_s_tile, f_s_tile)
    # Open grids: each tile factor varies along its own axis.
    NM, FM, CBM = np.meshgrid(*m_tiles, indexing="ij", sparse=True)
    setup = local.access_setup_s
    bw = local.peak_bytes_per_s
    t_index_tile = setup + NM * CBM * INDEX_BYTES / bw
    t_output_tile = setup + NM * FM * OUTPUT_BYTES / bw
    lut_unique = cb * ct * f_s_tile * LUT_BYTES
    fine_total = n_s_tile * cb * f_s_tile * LUT_BYTES
    # Reduce time: constant across the grid except for fine-grain chunking.
    t_reduce_base = tiling_fixed_terms(shape, n_s_tile, f_s_tile, platform).reduce_base

    # Over (traversal, n_m, f_m, cb_m): the index and output moves plus the
    # base reduce, and how often the coarse scheme re-streams the LUT
    # footprint.  Trip counts do not depend on the load option.
    grid = MappingGrid(n_s_tile, f_s_tile, NM, FM, CBM, None, None, None, None)
    trips = _loop_trips(shape, grid)
    t_index = _load_count(TRAVERSALS, trips, ("n", "cb")) * t_index_tile
    t_output = 2.0 * _load_count(TRAVERSALS, trips, ("n", "f")) * t_output_tile
    base = t_index + t_output + t_reduce_base
    revisit = _load_count(TRAVERSALS, trips, ("cb", "f"))
    streams = np.maximum(revisit // (trips["cb"] * trips["f"]), 1.0)

    # Each scheme's load tiles on a leading (option, 1, 1, 1) axis, and its
    # legality over (option, n_m, f_m, cb_m) from one rule call.
    options = load_options(shape, f_s_tile)
    legal, load_tiles = {}, {}
    for scheme, group in groupby(options, key=itemgetter(0)):
        cb_l, f_l = np.array([load[1:] for load in group]).T.reshape(2, -1, 1, 1, 1)
        scheme_grid = grid._replace(load_scheme=scheme, cb_load_tile=cb_l, f_load_tile=f_l)
        legal[scheme] = fits_buffer(shape, scheme_grid, platform)
        load_tiles[scheme] = cb_l, f_l

    # A static or fine cost is ``(t_lut + base) + extra``, rounded in that
    # order, with ``inf`` as the extra of a candidate that breaks the
    # buffer rule.  static: the whole sub-LUT resident in the buffer.
    access = min(lut_unique, STATIC_ACCESS_BYTES)
    t_static = setup * (lut_unique / access) + lut_unique / bw
    static = (t_static + base) + np.where(legal["static"], 0.0, np.inf)
    # coarse: all CT candidates, block-wise per visit, at ``per_stream``
    # seconds per option, costing ``streams * per_stream + base``; stage 1
    # takes the smallest legal ``per_stream`` per cell (``inf`` if none).
    cb_l, f_l = load_tiles["coarse"]
    per_stream = lut_unique / bw + setup * (lut_unique / (cb_l * ct * f_l * LUT_BYTES))
    coarse = streams * np.where(legal["coarse"], per_stream, np.inf).min(axis=0) + base
    # fine: gather only the indexed entries, with a per-chunk reduce extra.
    _, f_l = load_tiles["fine"]
    t_fine = fine_total / bw + setup * (fine_total / (f_l * LUT_BYTES))
    chunks = np.maximum(f_s_tile // f_l, 1)
    reduce_extra = platform.compute.lookup_time(n_s_tile * cb * (chunks - 1))
    fine = (t_fine + base[:, None]) + np.where(legal["fine"], reduce_extra, np.inf)

    # Stage 1: the minimum, and the first traversal that reaches it.
    per_traversal = np.minimum(
        np.minimum(static.min(axis=(1, 2, 3)), coarse.min(axis=(1, 2, 3))),
        fine.min(axis=(1, 2, 3, 4)),
    )
    t = int(np.argmin(per_traversal))
    cost = float(per_traversal[t])
    if cost == np.inf:
        return None
    # Stage 2: the first (load option, cell) at that cost in traversal t,
    # from one block over (option, cell) whose first option is
    # ``options[first]``.  Only cells whose cheapest coarse option costs
    # ``cost`` can hold a coarse candidate at that cost.
    cells = np.arange(static[t].size)
    if static[t].min() == cost:
        first, block = 0, static[t].reshape(1, -1)
    elif coarse[t].min() == cost:
        first, cells = 1, np.flatnonzero(coarse[t] == cost)
        block = np.where(
            legal["coarse"].reshape(len(per_stream), -1)[:, cells],
            streams[t].flat[cells] * per_stream.reshape(-1, 1) + base[t].flat[cells],
            np.inf,
        )
    else:
        first, block = 1 + len(per_stream), fine[t].reshape(fine.shape[1], -1)
    option, column = divmod(int(np.argmin(block)), block.shape[1])
    i, j, k = np.unravel_index(cells[column], static.shape[1:])
    scheme, cb_l, f_l = options[first + option]
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
