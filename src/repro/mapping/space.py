"""LUT-NN mapping parameters and search-space enumeration (paper §5.3).

A :class:`Mapping` bundles the four parameter groups of the auto-tuner:

* **P1** sub-LUT tiling factors ``(n_s_tile, f_s_tile)`` — how the index
  matrix and LUTs are partitioned across PEs (Fig. 8-(a));
* **P2** micro-kernel tiling factors ``(n_m_tile, f_m_tile, cb_m_tile)`` —
  on-chip tile sizes (Fig. 8-(b));
* **P3** tile traversal order — the loop nest permutation over (N, F, CB);
* **P4** LUT load scheme — static / coarse-grain / fine-grain (Fig. 9),
  with their load-tile factors.

It is also the one copy of the rules about how a mapping moves bytes,
which the analytical model, its vectorized search, the simulator and the
profiler all read: the host<->PIM bursts of a tiling, the candidate lists,
buffer and load-tile legality, and tile reload counts.  Only the pricing
of these moves differs between the model and the simulator.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, fields, replace
from itertools import permutations
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from ..core.codebook import LUTShape
from ..pim.platforms import PIMPlatform, TransferBandwidth, pick_link

LOAD_SCHEMES = ("static", "coarse", "fine")
TRAVERSALS: Tuple[Tuple[str, str, str], ...] = tuple(permutations(("n", "f", "cb")))

#: Bytes per element of each tensor in the deployed kernel: INT8 index
#: (CT <= 256), INT8 LUT entries, INT32 output accumulators.
INDEX_BYTES = 1
LUT_BYTES = 1
OUTPUT_BYTES = 4

#: Parallel read slots assumed for the fine-grain scheme (UPMEM hardware
#: threads each keep an ``f_load_tile`` staging buffer, paper Fig. 9).
FINE_GRAIN_SLOTS = 16

#: Access size (bytes) in which the static scheme stages the whole sub-LUT
#: into the buffer before the loop nest (Fig. 9, scheme 1).
STATIC_ACCESS_BYTES = 2048


@dataclass(frozen=True)
class Mapping:
    """One point in the LUT-NN mapping space (see module docstring)."""

    n_s_tile: int
    f_s_tile: int
    n_m_tile: int
    f_m_tile: int
    cb_m_tile: int
    traversal: Tuple[str, str, str] = ("n", "f", "cb")
    load_scheme: str = "static"
    cb_load_tile: int = 1
    f_load_tile: int = 1

    def __post_init__(self) -> None:
        if self.load_scheme not in LOAD_SCHEMES:
            raise ValueError(f"unknown load scheme {self.load_scheme!r}")
        if tuple(sorted(self.traversal)) != ("cb", "f", "n"):
            raise ValueError(f"traversal must permute (n, f, cb): {self.traversal}")
        for field_name in (
            "n_s_tile",
            "f_s_tile",
            "n_m_tile",
            "f_m_tile",
            "cb_m_tile",
            "cb_load_tile",
            "f_load_tile",
        ):
            if getattr(self, field_name) <= 0:
                raise ValueError(f"{field_name} must be positive")

    def with_(self, **kwargs) -> "Mapping":
        return replace(self, **kwargs)


def num_pes_used(shape: LUTShape, mapping: Mapping) -> int:
    """PE count implied by the sub-LUT partition (paper Eq. 5)."""
    return (shape.n // mapping.n_s_tile) * (shape.f // mapping.f_s_tile)


#: :class:`Mapping`'s fields, unchecked, so numpy arrays can stand in for
#: the tile factors: the rules below give arrays for such a grid where a
#: mapping gives Python ints and bools (the vectorized search uses it).
#: The load tiles may carry one more, leading axis than the m-tile grid,
#: one entry per load option of the grid's scheme: the buffer rules then
#: answer for every option at once, on that leading axis.
MappingGrid = namedtuple("MappingGrid", [f.name for f in fields(Mapping)])


class Burst(NamedTuple):
    """One tensor's host<->PIM burst under a sub-LUT tiling (paper Eq. 4):
    one ``tile_bytes`` tile to (or from) each of ``pes`` PEs over ``link``."""

    link: TransferBandwidth
    tile_bytes: int
    pes: int

    @property
    def total_bytes(self) -> int:
        return self.tile_bytes * self.pes


class TilingBursts(NamedTuple):
    """The index and LUT distribution bursts and the output gather burst."""

    index: Burst
    lut: Burst
    output: Burst


def tiling_bursts(
    shape: LUTShape, n_s_tile: int, f_s_tile: int, platform: PIMPlatform
) -> TilingBursts:
    """How the tiling ``(n_s_tile, f_s_tile)`` moves bytes between host and PEs.

    The ``shape.f // f_s_tile`` PEs of a group share one index tile and the
    ``shape.n // n_s_tile`` groups share each LUT tile: a tile with copies
    on several PEs is broadcast, a unique one scattered.  The tile factors
    may be equal-shape integer arrays, one entry per tiling: each burst's
    sizes are then arrays, and its link one picked per tiling
    (:func:`~repro.pim.platforms.pick_link`).
    """
    groups = shape.n // n_s_tile
    pes_per_group = shape.f // f_s_tile
    pes = groups * pes_per_group

    def fan_out(copies: int) -> TransferBandwidth:
        return pick_link(copies > 1, platform.broadcast, platform.scatter)

    return TilingBursts(
        index=Burst(fan_out(pes_per_group), n_s_tile * shape.cb * INDEX_BYTES, pes),
        lut=Burst(fan_out(groups), shape.cb * shape.ct * f_s_tile * LUT_BYTES, pes),
        output=Burst(platform.gather, n_s_tile * f_s_tile * OUTPUT_BYTES, pes),
    )


def buffer_bytes_required(shape: LUTShape, mapping: Mapping) -> int:
    """On-chip buffer footprint of the micro kernel under ``mapping``
    (an array over a :data:`MappingGrid`'s cells and load options)."""
    index_tile = mapping.n_m_tile * mapping.cb_m_tile * INDEX_BYTES
    output_tile = mapping.n_m_tile * mapping.f_m_tile * OUTPUT_BYTES
    if mapping.load_scheme == "static":
        lut_buffer = shape.cb * shape.ct * mapping.f_s_tile * LUT_BYTES
    elif mapping.load_scheme == "coarse":
        lut_buffer = mapping.cb_load_tile * shape.ct * mapping.f_load_tile * LUT_BYTES
    else:  # fine
        lut_buffer = FINE_GRAIN_SLOTS * mapping.f_load_tile * LUT_BYTES
    return index_tile + output_tile + lut_buffer


def fits_buffer(shape: LUTShape, mapping: Mapping, platform: PIMPlatform) -> bool:
    """Whether the tiles fit the buffer and each load tile its m-tile (a
    larger load block would stream bytes the tile never uses).

    Over a :data:`MappingGrid` the answer is a bool array; with load tiles
    on a leading option axis it has that axis too, except under the static
    scheme, which reads no load tile.
    """
    fits = buffer_bytes_required(shape, mapping) <= platform.local_memory.buffer_bytes
    if mapping.load_scheme == "static":
        return fits
    # Combined before the footprint test: over a grid these are the smaller arrays.
    within = mapping.f_load_tile <= mapping.f_m_tile
    if mapping.load_scheme == "coarse":
        within = within & (mapping.cb_load_tile <= mapping.cb_m_tile)
    return within & fits


def _loop_trips(shape: LUTShape, mapping: Mapping) -> Dict[str, int]:
    """Trip counts of the micro-kernel loop nest, per dim (m-tiles)."""
    return {
        "n": mapping.n_s_tile // mapping.n_m_tile,
        "f": mapping.f_s_tile // mapping.f_m_tile,
        "cb": shape.cb // mapping.cb_m_tile,
    }


def _load_count(traversal, trips: Dict[str, int], deps) -> int:
    """Reloads of a tensor under a single-resident-tile buffer model.

    The resident tile changes exactly when the tensor's tile tag (its
    projection onto ``deps``) changes.  In a lexicographic loop nest that
    happens once per iteration of every loop at or above the innermost
    *moving* relevant loop (one with more than one trip): a relevant dim
    with a single trip never changes the tag.  In closed form the count is
    the product of the relevant trips, times the trips of each other dim
    that sits outside the innermost moving relevant loop; when no relevant
    dim moves, the single tile is loaded once.  The arithmetic is integer,
    so the count is exact.

    Trip counts may be numpy grids.  ``traversal`` is one loop order, or a
    sequence of them (such as :data:`TRAVERSALS`): the counts of each order
    then stand on a leading axis.
    """
    if isinstance(traversal[0], str):  # one loop order
        position = {dim: traversal.index(dim) for dim in trips}
    else:  # one loop order per entry of a leading axis
        axes = (1,) * max(np.ndim(t) for t in trips.values())
        position = {
            dim: np.array([order.index(dim) for order in traversal]).reshape((-1,) + axes)
            for dim in trips
        }
    count = 1
    for dim in deps:
        count = count * trips[dim]
    for other in trips:
        if other in deps:
            continue
        outside = False  # ``other`` is outer to a moving relevant loop
        for dim in deps:
            outside = outside | ((trips[dim] > 1) & (position[other] < position[dim]))
        count = count * (1 + outside * (trips[other] - 1))
    return count


def is_legal(shape: LUTShape, mapping: Mapping, platform: PIMPlatform) -> bool:
    """Check divisibility, PE-count, and buffer constraints."""
    if shape.n % mapping.n_s_tile or shape.f % mapping.f_s_tile:
        return False
    if mapping.n_s_tile % mapping.n_m_tile or mapping.f_s_tile % mapping.f_m_tile:
        return False
    if shape.cb % mapping.cb_m_tile:
        return False
    if num_pes_used(shape, mapping) > platform.num_pes:
        return False
    return fits_buffer(shape, mapping, platform)


def _pow2_divisors(value: int, limit: Optional[int] = None) -> List[int]:
    """Powers of two dividing ``value`` (plus ``value`` itself), ascending."""
    out = []
    d = 1
    while d <= value:
        if value % d == 0:
            out.append(d)
        d *= 2
    if value not in out:
        out.append(value)
    if limit is not None:
        out = [d for d in out if d <= limit]
    return out


def m_tile_options(shape: LUTShape, n_s_tile: int, f_s_tile: int) -> Tuple[List[int], ...]:
    """P2 candidates: the ``(n_m, f_m, cb_m)`` tile factors, each up to 256."""
    return tuple(_pow2_divisors(v, limit=256) for v in (n_s_tile, f_s_tile, shape.cb))


def load_options(shape: LUTShape, f_s_tile: int) -> List[Tuple[str, int, int]]:
    """P4 candidates ``(load_scheme, cb_load_tile, f_load_tile)``, in order:
    coarse blocks of up to 16 codebooks x 64 columns, fine chunks up to 128."""
    coarse = [("coarse", cb_l, f_l) for cb_l in _pow2_divisors(shape.cb, limit=16)
              for f_l in _pow2_divisors(f_s_tile, limit=64)]
    fine = [("fine", 1, f_l) for f_l in _pow2_divisors(f_s_tile, limit=128)]
    return [("static", 1, 1)] + coarse + fine


def enumerate_sub_lut_tilings(
    shape: LUTShape, platform: PIMPlatform
) -> Iterator[Tuple[int, int]]:
    """Legal (n_s_tile, f_s_tile) pairs — the outer loop of Algorithm 1.

    A tiling is legal when its PE count (paper Eq. 5, as
    :func:`num_pes_used`) fits the platform.
    """
    f_options = _pow2_divisors(shape.f)
    for n_s in _pow2_divisors(shape.n):
        groups = shape.n // n_s
        if groups > platform.num_pes:
            continue
        for f_s in f_options:
            if groups * (shape.f // f_s) <= platform.num_pes:
                yield (n_s, f_s)


def enumerate_micro_kernels(
    shape: LUTShape,
    n_s_tile: int,
    f_s_tile: int,
    platform: PIMPlatform,
    max_points: Optional[int] = None,
) -> Iterator[Mapping]:
    """All legal micro-kernel mappings for one sub-LUT tiling.

    Enumerates P2 (:func:`m_tile_options`), P3 (all six traversal orders)
    and P4 (:func:`load_options`).
    """
    count = 0
    n_m_options, f_m_options, cb_m_options = m_tile_options(shape, n_s_tile, f_s_tile)
    loads = load_options(shape, f_s_tile)
    for n_m in n_m_options:
        for f_m in f_m_options:
            for cb_m in cb_m_options:
                for traversal in TRAVERSALS:
                    for scheme, cb_l, f_l in loads:
                        mapping = Mapping(
                            n_s_tile, f_s_tile, n_m, f_m, cb_m, traversal, scheme,
                            cb_load_tile=cb_l, f_load_tile=f_l,
                        )
                        if is_legal(shape, mapping, platform):
                            yield mapping
                            count += 1
                            if max_points is not None and count >= max_points:
                                return
