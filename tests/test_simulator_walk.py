"""The simulator's numpy loop-nest walk against the Python walk it replaced.

``PythonWalkSimulator`` keeps the tile-by-tile walk ``PIMSimulator`` ran
before its walk was vectorized, with the same per-event costs
(``_event_costs``) and the same phase reconstruction.  The two must agree
to the last bit (``float.hex``) on every timing field and on every event
count, with overlap off and on, at every tile count: the Python walk used
to hand mappings above 100,000 m-tiles to a closed form whose overlap was
a uniform-tile approximation.
"""

import itertools
import tracemalloc

import pytest

from repro.core import LUTShape
from repro.mapping import Mapping, is_legal
from repro.mapping.space import LOAD_SCHEMES, TRAVERSALS
from repro.pim import PIMSimulator, get_platform
from repro.pim.simulator import WALK_CHUNK_TILES

PLATFORMS = ("upmem", "hbm-pim", "aim")


def _python_walk(mapping, costs, counts, tile_events):
    """Explicit tile-by-tile walk with resident-tile tags per tensor."""
    trips = costs.trips
    time_s = 0.0
    resident_index = resident_output = resident_lut = None
    first_output_visit = set()
    reload_lut = mapping.load_scheme in ("coarse", "fine")

    dims = {"n": 0, "f": 0, "cb": 0}
    d0, d1, d2 = mapping.traversal
    for i0 in range(trips[d0]):
        dims[d0] = i0
        for i1 in range(trips[d1]):
            dims[d1] = i1
            for i2 in range(trips[d2]):
                dims[d2] = i2
                time_s += costs.loop_overhead
                tile_transfer = 0.0

                index_tag = (dims["n"], dims["cb"])
                if index_tag != resident_index:
                    time_s += costs.index_load
                    tile_transfer += costs.index_load
                    counts["index_loads"] += 1
                    resident_index = index_tag

                output_tag = (dims["n"], dims["f"])
                if output_tag != resident_output:
                    if resident_output is not None:
                        time_s += costs.output_move
                        tile_transfer += costs.output_move
                        counts["output_stores"] += 1
                    if output_tag in first_output_visit:
                        time_s += costs.output_move
                        tile_transfer += costs.output_move
                        counts["output_loads"] += 1
                    else:
                        first_output_visit.add(output_tag)
                    resident_output = output_tag

                if reload_lut:
                    lut_tag = (dims["cb"], dims["f"])
                    if lut_tag != resident_lut:
                        time_s += costs.lut_tile
                        tile_transfer += costs.lut_tile
                        counts["lut_loads"] += costs.lut_chunks
                        resident_lut = lut_tag
                    if mapping.load_scheme == "fine":
                        resident_lut = None  # fine-grain re-gathers every tile

                time_s += costs.reduce
                tile_events.append((tile_transfer, costs.loop_overhead + costs.reduce))
    time_s += costs.output_move
    counts["output_stores"] += 1
    return time_s


class PythonWalkSimulator(PIMSimulator):
    """``PIMSimulator`` with its micro-kernel priced by the Python walk."""

    def _micro_kernel_time(self, shape, mapping, overlap=False):
        costs = self._event_costs(shape, mapping)
        counts = {
            "index_loads": 0,
            "output_loads": 0,
            "output_stores": 0,
            "lut_loads": costs.static_loads,
            "tiles": costs.tiles,
        }
        tile_events = []
        time_s = costs.static_stage
        time_s += _python_walk(mapping, costs, counts, tile_events)

        lut_dma_s = costs.static_stage
        lut_dma_bytes = costs.static_bytes
        if costs.lut_chunks:
            lut_dma_s = counts["lut_loads"] // costs.lut_chunks * costs.lut_tile
            lut_dma_bytes = counts["lut_loads"] * costs.chunk_bytes
        dma_s = (
            counts["index_loads"] * costs.index_load
            + counts["output_loads"] * costs.output_move
            + counts["output_stores"] * costs.output_move
            + lut_dma_s
        )
        lookup_s = counts["tiles"] * costs.lookup
        overhead_s = counts["tiles"] * costs.loop_overhead
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
        if overlap and len(tile_events) > 1:
            pipelined = tile_events[0][0]
            for i in range(1, len(tile_events)):
                pipelined += max(tile_events[i][0], tile_events[i - 1][1])
            pipelined += tile_events[-1][1]
            # A += loop, not sum(): from Python 3.12 on, sum() of floats
            # compensates its rounding, and the walk adds sequentially.
            sequential = 0.0
            for transfer, compute in tile_events:
                sequential += transfer + compute
            hidden = max(sequential - pipelined, 0.0)
        return time_s, counts, phases, hidden


def _fields(report):
    """Every field the walk feeds, exact: seconds as ``float.hex``."""
    return {
        "kernel_s": float(report.kernel_s).hex(),
        "overlap_hidden_s": float(report.overlap_hidden_s).hex(),
        "phase_seconds": {
            key: float(value).hex() for key, value in report.profile.phase_seconds.items()
        },
        "event_counts": report.event_counts,
    }


def _tiles(shape, mapping):
    return (
        (mapping.n_s_tile // mapping.n_m_tile)
        * (mapping.f_s_tile // mapping.f_m_tile)
        * (shape.cb // mapping.cb_m_tile)
    )


SHAPE = LUTShape(n=512, h=64, f=128, v=4, ct=8)
LOADS = {
    "static": {},
    "coarse": dict(cb_load_tile=2, f_load_tile=4),
    "fine": dict(f_load_tile=2),
}
#: Sub-LUT and m-tile sizes: 4 trips per dim; one trip in n, f or cb;
#: one trip in two dims; and a single-tile mapping.
TILINGS = {
    "trips-4x4x4": dict(n_s_tile=64, f_s_tile=32, n_m_tile=16, f_m_tile=8, cb_m_tile=4),
    "one-trip-n": dict(n_s_tile=16, f_s_tile=32, n_m_tile=16, f_m_tile=8, cb_m_tile=4),
    "one-trip-f": dict(n_s_tile=64, f_s_tile=8, n_m_tile=16, f_m_tile=8, cb_m_tile=4),
    "one-trip-cb": dict(n_s_tile=64, f_s_tile=32, n_m_tile=16, f_m_tile=8, cb_m_tile=16),
    "one-trip-n-cb": dict(n_s_tile=16, f_s_tile=32, n_m_tile=16, f_m_tile=8, cb_m_tile=16),
    "single-tile": dict(n_s_tile=16, f_s_tile=8, n_m_tile=16, f_m_tile=8, cb_m_tile=16),
}

#: Above the old 100,000-tile switch to the closed form, and across
#: chunk boundaries of the walk.  The coarse mapping's innermost loop has
#: 3 trips, so a chunk boundary falls inside it, where only the cb tag
#: moves.
LARGE = {
    "static-131072": (
        LUTShape(n=8192, h=512, f=1024, v=4, ct=16),
        Mapping(n_s_tile=8192, f_s_tile=16, n_m_tile=8, f_m_tile=4, cb_m_tile=4,
                traversal=("f", "cb", "n"), load_scheme="static"),
    ),
    "coarse-147456": (
        LUTShape(n=4096, h=768, f=768, v=4, ct=16),
        Mapping(n_s_tile=4096, f_s_tile=96, n_m_tile=4, f_m_tile=2, cb_m_tile=64,
                traversal=("n", "f", "cb"), load_scheme="coarse",
                cb_load_tile=32, f_load_tile=2),
    ),
}


def _assert_walks_equal(platform, shape, mapping):
    fast, reference = PIMSimulator(platform), PythonWalkSimulator(platform)
    for overlap in (False, True):
        report = fast.run(shape, mapping, overlap=overlap)
        expected = reference.run(shape, mapping, overlap=overlap)
        assert _fields(report) == _fields(expected), (mapping, overlap)
        assert all(type(value) is int for value in report.event_counts.values())


@pytest.mark.parametrize("platform_name", PLATFORMS)
def test_walk_matches_python_reference(platform_name):
    """Every load scheme x traversal x tiling, overlap off and on."""
    platform = get_platform(platform_name)
    walked = set()
    for tiling, scheme, traversal in itertools.product(TILINGS, LOAD_SCHEMES, TRAVERSALS):
        mapping = Mapping(**TILINGS[tiling], traversal=traversal, load_scheme=scheme,
                          **LOADS[scheme])
        if not is_legal(SHAPE, mapping, platform):
            continue
        _assert_walks_equal(platform, SHAPE, mapping)
        walked.add((tiling, scheme))
    assert walked == {(t, s) for t in TILINGS for s in LOAD_SCHEMES}


@pytest.mark.parametrize("name", sorted(LARGE))
def test_walk_matches_python_reference_above_100k_tiles(name):
    platform = get_platform("upmem")
    shape, mapping = LARGE[name]
    assert is_legal(shape, mapping, platform)
    assert 100_000 < _tiles(shape, mapping) <= 300_000
    assert _tiles(shape, mapping) > WALK_CHUNK_TILES
    _assert_walks_equal(platform, shape, mapping)


def test_single_tile_mapping_hides_nothing():
    platform = get_platform("upmem")
    mapping = Mapping(**TILINGS["single-tile"], load_scheme="coarse", **LOADS["coarse"])
    assert _tiles(SHAPE, mapping) == 1
    report = PIMSimulator(platform).run(SHAPE, mapping, overlap=True)
    assert report.overlap_hidden_s == 0.0
    assert report.kernel_s == PIMSimulator(platform).run(SHAPE, mapping).kernel_s


def test_walk_memory_is_bounded_by_the_chunk():
    """Fig. 13's largest sampled mapping (8,388,608 m-tiles), overlapped."""
    platform = get_platform("upmem")
    shape = LUTShape(n=32768, h=1024, f=4096, v=4, ct=16)
    mapping = Mapping(
        n_s_tile=512, f_s_tile=256, n_m_tile=1, f_m_tile=1, cb_m_tile=4,
        load_scheme="fine", cb_load_tile=1, f_load_tile=1,
    )
    assert _tiles(shape, mapping) == 8_388_608
    simulator = PIMSimulator(platform)
    tracemalloc.start()
    try:
        report = simulator.run(shape, mapping, overlap=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20
    assert report.event_counts["tiles"] == 8_388_608
    assert report.overlap_hidden_s > 0.0


def test_sim_walk_bench_times_the_fixed_set():
    """`bench` id `sim.walk`: BERT-base's 4 LUT shapes tuned on each of 3
    platforms, plus one fixed 262,144-tile mapping."""
    from repro.cli import _bench_sim_walk

    seconds, meta = _bench_sim_walk("upmem")
    assert seconds > 0.0
    assert meta["mappings"] == 13
