"""The two-stage ``KernelSearch`` against the per-option loop it replaced.

``reference_search`` keeps ``search_micro_kernels`` as it was before the
search scored a tiling's micro-kernel space as arrays: one masked
``argmin`` per (traversal, load option) pair, kept only when strictly
cheaper than the best so far, with the reload counts of the loop-nest walk
``loop_load_count`` (the rule as it was before its closed form).  The two
must return the same ``Mapping`` and the same cost to the last bit
(``float.hex``) on every sub-LUT tiling of the paper's model shapes and of
a small-N sweep, on every platform: any change of pick, tie-break or
rounding moves a tuned mapping.  The tie cases hold the search's second
stage to the loop's flat order where coarse load options of different
per-stream seconds round to the same cost.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import LUTShape
from repro.mapping import (
    Mapping,
    buffer_bytes_required,
    enumerate_sub_lut_tilings,
    model_lut_shapes,
    search_micro_kernels,
)
from repro.mapping.analytical import tiling_fixed_terms
from repro.mapping.space import (
    INDEX_BYTES,
    LUT_BYTES,
    OUTPUT_BYTES,
    STATIC_ACCESS_BYTES,
    TRAVERSALS,
    MappingGrid,
    _loop_trips,
    fits_buffer,
    load_options,
    m_tile_options,
)
from repro.pim import get_platform
from repro.workloads import EVAL_MODELS

PLATFORMS = ("upmem", "hbm-pim", "aim")


def loop_load_count(traversal, trips, deps):
    """Reloads of a tensor under a single-resident-tile buffer model, by
    walking the loop nest outermost first (the reload rule before its
    closed form)."""
    count = outer_iterations = 1
    for dim in traversal:  # outermost first, so the innermost mover wins
        outer_iterations = outer_iterations * trips[dim]
        if dim in deps:  # where ``dim`` moves, the count becomes the product so far
            count = count + (trips[dim] > 1) * (outer_iterations - count)
    return count


def reference_search(shape, n_s_tile, f_s_tile, platform):
    """The per-(traversal, load option) loop, as it was."""
    local = platform.local_memory
    cb, ct = shape.cb, shape.ct
    NM, FM, CBM = np.meshgrid(*m_tile_options(shape, n_s_tile, f_s_tile), indexing="ij")
    setup = local.access_setup_s
    bw = local.peak_bytes_per_s
    t_index_tile = setup + NM * CBM * INDEX_BYTES / bw
    t_output_tile = setup + NM * FM * OUTPUT_BYTES / bw
    lut_unique = cb * ct * f_s_tile * LUT_BYTES
    fine_total = n_s_tile * cb * f_s_tile * LUT_BYTES
    # Reduce time: constant across the grid except for fine-grain chunking.
    t_reduce_base = tiling_fixed_terms(shape, n_s_tile, f_s_tile, platform).reduce_base

    # Per load option: its legality over the grid (no traversal: legality
    # and trip counts do not depend on it), the LUT seconds of one stream
    # (coarse streams repeat per traversal) and the reduce extra.
    variants = []
    for scheme, cb_l, f_l in load_options(shape, f_s_tile):
        grid = MappingGrid(n_s_tile, f_s_tile, NM, FM, CBM, None, scheme, cb_l, f_l)
        extra = 0.0
        if scheme == "static":  # the whole sub-LUT resident in the buffer
            access = min(lut_unique, STATIC_ACCESS_BYTES)
            t_lut = setup * (lut_unique / access) + lut_unique / bw
        elif scheme == "coarse":  # all CT candidates, block-wise per visit
            access = cb_l * ct * f_l * LUT_BYTES
            t_lut = lut_unique / bw + setup * (lut_unique / access)
        else:  # fine: gather only the indexed entries
            access = f_l * LUT_BYTES
            t_lut = fine_total / bw + setup * (fine_total / access)
            chunks = max(f_s_tile // f_l, 1)
            extra = platform.compute.lookup_time(n_s_tile * cb * (chunks - 1))
        variants.append((grid, fits_buffer(shape, grid, platform), t_lut, extra))
    trips = _loop_trips(shape, grid)  # the same for every load option

    best_cost = np.inf
    best = None
    for traversal in TRAVERSALS:
        t_index = loop_load_count(traversal, trips, ("n", "cb")) * t_index_tile
        t_output = 2.0 * loop_load_count(traversal, trips, ("n", "f")) * t_output_tile
        base = t_index + t_output + t_reduce_base
        revisit = loop_load_count(traversal, trips, ("cb", "f"))
        streams = np.maximum(revisit // (trips["cb"] * trips["f"]), 1.0)
        for grid, legal, t_lut, extra in variants:
            if grid.load_scheme == "coarse":
                t_lut = streams * t_lut
            masked = np.where(legal, base + t_lut + extra, np.inf)
            idx = np.unravel_index(np.argmin(masked), masked.shape)
            cost = masked[idx]
            if cost < best_cost:
                best_cost = float(cost)
                best = (
                    Mapping(
                        n_s_tile=n_s_tile,
                        f_s_tile=f_s_tile,
                        n_m_tile=int(NM[idx]),
                        f_m_tile=int(FM[idx]),
                        cb_m_tile=int(CBM[idx]),
                        traversal=traversal,
                        load_scheme=grid.load_scheme,
                        cb_load_tile=grid.cb_load_tile,
                        f_load_tile=grid.f_load_tile,
                    ),
                    best_cost,
                )
    return best


def _shapes():
    paper = {shape for config in EVAL_MODELS.values() for shape in model_lut_shapes(config)}
    sweep = {
        LUTShape(n=n, h=h, f=f, v=4, ct=16)
        for n in (1, 8, 128)
        for h, f in ((768, 768), (768, 3072), (3072, 768))
    }
    return sorted(paper | sweep, key=lambda s: (s.n, s.h, s.f))


def assert_same_search(shape, n_s, f_s, platform):
    found = search_micro_kernels(shape, n_s, f_s, platform)
    expected = reference_search(shape, n_s, f_s, platform)
    case = (shape, n_s, f_s, platform.name)
    if expected is None:
        assert found is None, case
        return None
    assert found is not None, case
    assert found[0] == expected[0], case
    assert type(found[1]) is float, case
    assert found[1].hex() == expected[1].hex(), case
    return found


@pytest.mark.parametrize("platform_name", PLATFORMS)
def test_every_tiling_matches_the_loop(platform_name):
    """Same pick and bit-identical cost on every tiling of every shape."""
    platform = get_platform(platform_name)
    searched = 0
    schemes = set()
    for shape in _shapes():
        for n_s, f_s in enumerate_sub_lut_tilings(shape, platform):
            found = assert_same_search(shape, n_s, f_s, platform)
            searched += 1
            if found is not None:
                schemes.add(found[0].load_scheme)
    assert searched > 500
    # The sweep's winners cover more than one LUT load scheme.
    assert len(schemes) >= 2, schemes


def _with_buffer(platform, buffer_bytes):
    return replace(
        platform, local_memory=replace(platform.local_memory, buffer_bytes=buffer_bytes)
    )


def _with_access_setup(platform, access_setup_s):
    return replace(
        platform, local_memory=replace(platform.local_memory, access_setup_s=access_setup_s)
    )


#: A shape whose tilings, on a platform with a vanishing or zero local
#: access setup, tie coarse load options of different block sizes.
TIE_SHAPE = LUTShape(n=128, h=768, f=768, v=4, ct=16)


def coarse_seconds_per_stream(shape, mapping, platform):
    """One stream's LUT seconds of a coarse-grain mapping (the search's K)."""
    local = platform.local_memory
    lut_unique = shape.cb * shape.ct * mapping.f_s_tile * LUT_BYTES
    access = mapping.cb_load_tile * shape.ct * mapping.f_load_tile * LUT_BYTES
    return lut_unique / local.peak_bytes_per_s + local.access_setup_s * (lut_unique / access)


def test_equal_costs_from_different_coarse_blocks_resolve_in_flat_order():
    """At a 1e-20 s access setup a larger coarse block saves less than one
    rounding step, so options of different per-stream seconds tie: in 19
    tilings the loop's winner is not the option with the smallest legal
    per-stream seconds at its tile cell, but the first in flat order."""
    platform = _with_access_setup(get_platform("upmem"), 1e-20)
    above_cheapest = 0
    for n_s, f_s in enumerate_sub_lut_tilings(TIE_SHAPE, platform):
        mapping, _ = assert_same_search(TIE_SHAPE, n_s, f_s, platform)
        if mapping.load_scheme != "coarse":
            continue
        legal = [
            coarse_seconds_per_stream(TIE_SHAPE, option, platform)
            for option in (
                mapping.with_(cb_load_tile=cb_l, f_load_tile=f_l)
                for scheme, cb_l, f_l in load_options(TIE_SHAPE, f_s)
                if scheme == "coarse"
            )
            if fits_buffer(TIE_SHAPE, option, platform)
        ]
        if coarse_seconds_per_stream(TIE_SHAPE, mapping, platform) > min(legal):
            above_cheapest += 1
    assert above_cheapest == 19


def test_zero_access_setup_ties_every_coarse_block():
    """With no access setup every coarse option streams at the same
    seconds, so a coarse winner is the first option in flat order: the
    one-codebook, one-column block, legal wherever a larger one is."""
    platform = _with_access_setup(get_platform("upmem"), 0.0)
    schemes = set()
    for n_s, f_s in enumerate_sub_lut_tilings(TIE_SHAPE, platform):
        mapping, _ = assert_same_search(TIE_SHAPE, n_s, f_s, platform)
        schemes.add(mapping.load_scheme)
        if mapping.load_scheme == "coarse":
            assert (mapping.cb_load_tile, mapping.f_load_tile) == (1, 1), mapping
    assert "coarse" in schemes


@pytest.mark.parametrize("platform_name", PLATFORMS)
def test_returns_none_when_nothing_fits(platform_name):
    """A 4-byte buffer holds no candidate of any tiling."""
    platform = _with_buffer(get_platform(platform_name), 4)
    shape = LUTShape(n=256, h=32, f=64, v=4, ct=8)
    for n_s, f_s in enumerate_sub_lut_tilings(shape, platform):
        assert assert_same_search(shape, n_s, f_s, platform) is None


@pytest.mark.parametrize("platform_name", PLATFORMS)
def test_only_the_fine_scheme_fits(platform_name):
    """At 21 bytes only one fine-grain candidate fits, exactly at budget:
    a 1-byte index tile, a 4-byte output tile and 16 one-byte fine slots.
    The smallest coarse block (one codebook of CT=32 entries) and the
    static sub-LUT do not."""
    platform = _with_buffer(get_platform(platform_name), 21)
    shape = LUTShape(n=64, h=64, f=64, v=4, ct=32)
    found = assert_same_search(shape, 16, 8, platform)
    assert found is not None
    mapping = found[0]
    assert mapping.load_scheme == "fine"
    assert (mapping.n_m_tile, mapping.f_m_tile, mapping.cb_m_tile) == (1, 1, 1)
    assert mapping.f_load_tile == 1
    assert buffer_bytes_required(shape, mapping) == 21


def test_one_legality_call_per_load_scheme(monkeypatch):
    """The search judges all load options of a scheme in one rule call."""
    import repro.mapping.analytical as analytical

    schemes = []

    def counting_fits_buffer(shape, grid, platform):
        schemes.append(grid.load_scheme)
        return fits_buffer(shape, grid, platform)

    monkeypatch.setattr(analytical, "fits_buffer", counting_fits_buffer)
    shape = LUTShape(n=4096, h=768, f=768, v=4, ct=16)
    assert search_micro_kernels(shape, 256, 64, get_platform("upmem")) is not None
    assert schemes == ["static", "coarse", "fine"]


def test_fits_buffer_takes_a_load_option_axis():
    """The legality rule over a grid whose load tiles carry a leading
    option axis equals the rule applied one load option at a time."""
    platform = get_platform("upmem")
    shape = LUTShape(n=4096, h=768, f=768, v=4, ct=16)
    n_s, f_s = 256, 64
    NM, FM, CBM = np.meshgrid(*m_tile_options(shape, n_s, f_s), indexing="ij")
    for scheme in ("coarse", "fine"):
        loads = [opt[1:] for opt in load_options(shape, f_s) if opt[0] == scheme]
        cb_l, f_l = np.array(loads).reshape(-1, 2, 1, 1, 1).transpose(1, 0, 2, 3, 4)
        grid = MappingGrid(n_s, f_s, NM, FM, CBM, None, scheme, cb_l, f_l)
        stacked = fits_buffer(shape, grid, platform)
        assert stacked.shape == (len(loads),) + NM.shape
        for option, (cb_one, f_one) in enumerate(loads):
            one = MappingGrid(n_s, f_s, NM, FM, CBM, None, scheme, cb_one, f_one)
            assert np.array_equal(stacked[option], fits_buffer(shape, one, platform))


def test_tune_cold_bench_times_the_fixed_set():
    """`bench` id `mapping.tune-cold`: BERT-base's 4 LUT shapes tuned on
    each of 3 platforms, cold every time (best of 5 repetitions)."""
    from repro import obs
    from repro.cli import _bench_tune_cold

    obs.reset()
    seconds, meta = _bench_tune_cold("upmem")
    assert seconds > 0.0
    assert meta["shapes"] == 12
    registry = obs.get_registry()
    assert registry.counter("tuner.tune_calls").value == 5 * 12
    assert registry.counter("tuner.cache_hits").value == 0
