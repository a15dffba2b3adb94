"""Unit tests for the mapping parameter space (P1-P4) and legality rules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LUTShape
from repro.mapping import (
    LOAD_SCHEMES,
    TRAVERSALS,
    Mapping,
    buffer_bytes_required,
    enumerate_micro_kernels,
    enumerate_sub_lut_tilings,
    is_legal,
    num_pes_used,
)
from repro.mapping.space import _load_count
from repro.pim import get_platform

from .test_kernel_search import loop_load_count


@pytest.fixture
def platform():
    return get_platform("upmem")


@pytest.fixture
def shape():
    return LUTShape(n=1024, h=64, f=256, v=4, ct=16)


class TestMapping:
    def test_defaults(self):
        m = Mapping(64, 32, 8, 8, 4)
        assert m.load_scheme == "static"
        assert m.traversal == ("n", "f", "cb")

    def test_rejects_bad_traversal(self):
        with pytest.raises(ValueError):
            Mapping(64, 32, 8, 8, 4, traversal=("n", "n", "cb"))

    def test_rejects_bad_scheme(self):
        with pytest.raises(ValueError):
            Mapping(64, 32, 8, 8, 4, load_scheme="medium")

    def test_rejects_nonpositive_tiles(self):
        with pytest.raises(ValueError):
            Mapping(0, 32, 8, 8, 4)
        with pytest.raises(ValueError):
            Mapping(64, 32, 8, 8, 4, f_load_tile=0)

    def test_with_replaces_fields(self):
        m = Mapping(64, 32, 8, 8, 4)
        m2 = m.with_(load_scheme="fine", f_load_tile=8)
        assert m2.load_scheme == "fine"
        assert m.load_scheme == "static"  # immutable original


class TestPECount:
    def test_eq5(self, shape):
        m = Mapping(n_s_tile=128, f_s_tile=32, n_m_tile=8, f_m_tile=8, cb_m_tile=4)
        assert num_pes_used(shape, m) == (1024 // 128) * (256 // 32)


class TestBufferBytes:
    def test_static_includes_whole_sub_lut(self, shape):
        m = Mapping(128, 32, 8, 8, 4, load_scheme="static")
        expected = 8 * 4 * 1 + 8 * 8 * 4 + shape.cb * shape.ct * 32 * 1
        assert buffer_bytes_required(shape, m) == expected

    def test_coarse_counts_load_block(self, shape):
        m = Mapping(128, 32, 8, 8, 4, load_scheme="coarse",
                    cb_load_tile=2, f_load_tile=4)
        expected = 8 * 4 + 8 * 8 * 4 + 2 * shape.ct * 4
        assert buffer_bytes_required(shape, m) == expected

    def test_fine_counts_slots(self, shape):
        from repro.mapping import FINE_GRAIN_SLOTS

        m = Mapping(128, 32, 8, 8, 4, load_scheme="fine", f_load_tile=8)
        expected = 8 * 4 + 8 * 8 * 4 + FINE_GRAIN_SLOTS * 8
        assert buffer_bytes_required(shape, m) == expected


class TestLegality:
    def test_legal_example(self, shape, platform):
        m = Mapping(128, 32, 8, 8, 4, load_scheme="coarse",
                    cb_load_tile=2, f_load_tile=4)
        assert is_legal(shape, m, platform)

    def test_indivisible_tiles_illegal(self, shape, platform):
        assert not is_legal(shape, Mapping(100, 32, 4, 8, 4), platform)
        assert not is_legal(shape, Mapping(128, 33, 4, 8, 4), platform)
        assert not is_legal(shape, Mapping(128, 32, 3, 8, 4), platform)
        assert not is_legal(shape, Mapping(128, 32, 4, 8, 3), platform)

    def test_too_many_pes_illegal(self, platform):
        big = LUTShape(n=65536, h=64, f=4096, v=4, ct=16)
        m = Mapping(n_s_tile=64, f_s_tile=4, n_m_tile=8, f_m_tile=4, cb_m_tile=4)
        assert num_pes_used(big, m) > platform.num_pes
        assert not is_legal(big, m, platform)

    def test_buffer_overflow_illegal(self, platform):
        # Static scheme whose sub-LUT exceeds 64 KB WRAM.
        big = LUTShape(n=1024, h=1024, f=4096, v=4, ct=16)
        m = Mapping(n_s_tile=256, f_s_tile=1024, n_m_tile=8, f_m_tile=8,
                    cb_m_tile=4, load_scheme="static")
        assert not is_legal(big, m, platform)

    def test_load_tile_bounds(self, shape, platform):
        m = Mapping(128, 32, 8, 8, 4, load_scheme="fine", f_load_tile=64)
        assert not is_legal(shape, m, platform)  # f_load > f_s_tile


class TestEnumeration:
    def test_sub_lut_tilings_respect_pe_budget(self, shape, platform):
        for n_s, f_s in enumerate_sub_lut_tilings(shape, platform):
            assert shape.n % n_s == 0 and shape.f % f_s == 0
            assert (shape.n // n_s) * (shape.f // f_s) <= platform.num_pes

    def test_micro_kernels_all_legal(self, shape, platform):
        count = 0
        for m in enumerate_micro_kernels(shape, 128, 32, platform, max_points=500):
            assert is_legal(shape, m, platform)
            count += 1
        assert count == 500

    def test_micro_kernels_cover_all_schemes_and_traversals(self, shape, platform):
        schemes, traversals = set(), set()
        for m in enumerate_micro_kernels(shape, 128, 32, platform):
            schemes.add(m.load_scheme)
            traversals.add(m.traversal)
        assert schemes == set(LOAD_SCHEMES)
        assert traversals == set(TRAVERSALS)

    def test_max_points_zero_edge(self, shape, platform):
        assert list(enumerate_micro_kernels(shape, 128, 32, platform, max_points=1))


#: Trip counts along one loop dim of an open grid: 1 to 4 tile factors.
trip_axis = st.lists(st.integers(1, 64), min_size=1, max_size=4)


class TestReloadRule:
    """The closed-form reload count against the loop-nest walk it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(n=trip_axis, f=trip_axis, cb=trip_axis)
    def test_closed_form_equals_the_loop(self, n, f, cb):
        """On an open grid of trips, every traversal (one at a time and all
        six on a leading axis) and every dependency pair count exactly the
        loop's reloads; a scalar query gets a Python int."""
        trips = {
            "n": np.array(n).reshape(-1, 1, 1),
            "f": np.array(f).reshape(1, -1, 1),
            "cb": np.array(cb).reshape(1, 1, -1),
        }
        cells = (len(n), len(f), len(cb))
        for deps in (("n", "cb"), ("n", "f"), ("cb", "f")):
            every = _load_count(TRAVERSALS, trips, deps)
            assert every.shape == (len(TRAVERSALS),) + cells
            for t, traversal in enumerate(TRAVERSALS):
                expected = np.broadcast_to(loop_load_count(traversal, trips, deps), cells)
                assert np.array_equal(every[t], expected), (traversal, deps)
                one = np.broadcast_to(_load_count(traversal, trips, deps), cells)
                assert np.array_equal(one, expected), (traversal, deps)
                corner = {dim: int(trips[dim].flat[-1]) for dim in trips}
                count = _load_count(traversal, corner, deps)
                assert type(count) is int
                assert count == loop_load_count(traversal, corner, deps), (traversal, deps)
