"""LUT-NN mapping parameters and search-space enumeration (paper §5.3).

A :class:`Mapping` bundles the four parameter groups of the auto-tuner:

* **P1** sub-LUT tiling factors ``(n_s_tile, f_s_tile)`` — how the index
  matrix and LUTs are partitioned across PEs (Fig. 8-(a));
* **P2** micro-kernel tiling factors ``(n_m_tile, f_m_tile, cb_m_tile)`` —
  on-chip tile sizes (Fig. 8-(b));
* **P3** tile traversal order — the loop nest permutation over (N, F, CB);
* **P4** LUT load scheme — static / coarse-grain / fine-grain (Fig. 9),
  with their load-tile factors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import permutations
from typing import Dict, Iterator, List, Optional, Tuple

from ..core.codebook import LUTShape
from ..pim.platforms import PIMPlatform

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


def buffer_bytes_required(shape: LUTShape, mapping: Mapping) -> int:
    """On-chip buffer footprint of the micro kernel under ``mapping``."""
    index_tile = mapping.n_m_tile * mapping.cb_m_tile * INDEX_BYTES
    output_tile = mapping.n_m_tile * mapping.f_m_tile * OUTPUT_BYTES
    if mapping.load_scheme == "static":
        lut_buffer = shape.cb * shape.ct * mapping.f_s_tile * LUT_BYTES
    elif mapping.load_scheme == "coarse":
        lut_buffer = mapping.cb_load_tile * shape.ct * mapping.f_load_tile * LUT_BYTES
    else:  # fine
        lut_buffer = FINE_GRAIN_SLOTS * mapping.f_load_tile * LUT_BYTES
    return index_tile + output_tile + lut_buffer


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
    *moving* relevant loop — a relevant dim with a single trip never changes
    the tag, so loops outer to it cause no eviction either.  When no
    relevant dim moves, the single tile is loaded once.
    """
    moving = [traversal.index(d) for d in deps if trips[d] > 1]
    if not moving:
        return 1
    innermost_moving = max(moving)
    count = 1
    for depth, dim in enumerate(traversal):
        if depth <= innermost_moving:
            count *= trips[dim]
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
    # Load tiles must fit inside the micro-kernel tile they feed: a load
    # block larger than the m-tile would stream bytes the tile never uses.
    if mapping.load_scheme == "coarse":
        if mapping.cb_load_tile > mapping.cb_m_tile:
            return False
        if mapping.f_load_tile > mapping.f_m_tile:
            return False
    if mapping.load_scheme == "fine" and mapping.f_load_tile > mapping.f_m_tile:
        return False
    return buffer_bytes_required(shape, mapping) <= platform.local_memory.buffer_bytes


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


def enumerate_sub_lut_tilings(
    shape: LUTShape, platform: PIMPlatform
) -> Iterator[Tuple[int, int]]:
    """Legal (n_s_tile, f_s_tile) pairs — the outer loop of Algorithm 1."""
    for n_s in _pow2_divisors(shape.n):
        groups = shape.n // n_s
        if groups > platform.num_pes:
            continue
        for f_s in _pow2_divisors(shape.f):
            if num_pes_used(shape, Mapping(n_s, f_s, 1, 1, 1)) <= platform.num_pes:
                yield (n_s, f_s)


def enumerate_micro_kernels(
    shape: LUTShape,
    n_s_tile: int,
    f_s_tile: int,
    platform: PIMPlatform,
    max_points: Optional[int] = None,
) -> Iterator[Mapping]:
    """All legal micro-kernel mappings for one sub-LUT tiling.

    Enumerates P2 (power-of-two tile factors), P3 (all six traversal
    orders), and P4 (three load schemes with power-of-two load tiles).
    """
    count = 0
    n_m_options = _pow2_divisors(n_s_tile, limit=256)
    f_m_options = _pow2_divisors(f_s_tile, limit=256)
    cb_m_options = _pow2_divisors(shape.cb, limit=256)
    for n_m in n_m_options:
        for f_m in f_m_options:
            for cb_m in cb_m_options:
                for traversal in TRAVERSALS:
                    for scheme in LOAD_SCHEMES:
                        if scheme == "static":
                            candidates = [
                                Mapping(
                                    n_s_tile, f_s_tile, n_m, f_m, cb_m,
                                    traversal, "static",
                                )
                            ]
                        elif scheme == "coarse":
                            candidates = [
                                Mapping(
                                    n_s_tile, f_s_tile, n_m, f_m, cb_m,
                                    traversal, "coarse",
                                    cb_load_tile=cb_l, f_load_tile=f_l,
                                )
                                for cb_l in _pow2_divisors(shape.cb, limit=16)
                                for f_l in _pow2_divisors(f_s_tile, limit=64)
                            ]
                        else:
                            candidates = [
                                Mapping(
                                    n_s_tile, f_s_tile, n_m, f_m, cb_m,
                                    traversal, "fine", f_load_tile=f_l,
                                )
                                for f_l in _pow2_divisors(f_s_tile, limit=128)
                            ]
                        for mapping in candidates:
                            if is_legal(shape, mapping, platform):
                                yield mapping
                                count += 1
                                if max_points is not None and count >= max_points:
                                    return
