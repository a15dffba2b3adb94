"""Unit + property tests for the event-level PIM simulator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Codebooks, LUTShape, build_lut, lut_lookup
from repro.mapping import AutoTuner, Mapping
from repro.mapping.space import LOAD_SCHEMES, TRAVERSALS, _load_count
from repro.pim import PIMSimulator, get_platform


@pytest.fixture(scope="module")
def platform():
    return get_platform("upmem")


@pytest.fixture(scope="module")
def simulator(platform):
    return PIMSimulator(platform)


@pytest.fixture
def shape():
    return LUTShape(n=64, h=16, f=32, v=4, ct=8)


@pytest.fixture
def mapping():
    return Mapping(n_s_tile=16, f_s_tile=8, n_m_tile=4, f_m_tile=4, cb_m_tile=2,
                   load_scheme="coarse", cb_load_tile=2, f_load_tile=4)


def random_kernel_inputs(shape, seed=0):
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, shape.ct, size=(shape.n, shape.cb)).astype(np.int32)
    lut = rng.normal(size=(shape.cb, shape.ct, shape.f))
    return indices, lut


class TestTiming:
    def test_report_composition(self, simulator, shape, mapping):
        rep = simulator.run(shape, mapping)
        assert rep.total_s == pytest.approx(
            rep.distribution_s + rep.kernel_s + rep.gather_s + rep.launch_s
        )
        assert rep.total_s > 0
        assert rep.num_pes == (shape.n // 16) * (shape.f // 8)

    def test_illegal_mapping_rejected(self, simulator, shape, platform):
        with pytest.raises(ValueError):
            simulator.run(shape, Mapping(10, 8, 2, 2, 2))

    @pytest.mark.parametrize("trips_f", [2, 1], ids=["f-2-trips", "f-1-trip"])
    @pytest.mark.parametrize("scheme", LOAD_SCHEMES)
    @pytest.mark.parametrize("traversal", TRAVERSALS, ids="-".join)
    def test_event_counts_match_reuse_model(self, simulator, shape, traversal, scheme,
                                            trips_f):
        """The walk reloads exactly what the analytical model's counter says."""
        mapping = Mapping(n_s_tile=16, f_s_tile=8, n_m_tile=4, f_m_tile=8 // trips_f,
                          cb_m_tile=2, traversal=traversal, load_scheme=scheme,
                          cb_load_tile=2, f_load_tile=4)
        counts = simulator.run(shape, mapping).event_counts
        trips = {"n": 4, "f": trips_f, "cb": shape.cb // 2}
        assert counts["tiles"] == trips["n"] * trips["f"] * trips["cb"]
        assert counts["index_loads"] == _load_count(traversal, trips, ("n", "cb"))
        stores = _load_count(traversal, trips, ("n", "f"))
        assert counts["output_stores"] == stores
        # Each (n, f) output m-tile is zero-initialized on its first visit.
        assert counts["output_loads"] == stores - trips["n"] * trips["f"]
        if scheme == "coarse":
            chunks = math.ceil(2 / 2) * math.ceil(mapping.f_m_tile / 4)
            visits = _load_count(traversal, trips, ("cb", "f"))
            assert counts["lut_loads"] == visits * chunks

    def test_agreement_with_analytical_model_at_optimum(self, platform):
        """Paper Fig. 13: the model tracks measured latency within ~15%."""
        shape = LUTShape(n=4096, h=256, f=512, v=4, ct=16)
        result = AutoTuner(platform).tune(shape)
        rep = PIMSimulator(platform).run(shape, result.mapping)
        err = abs(rep.total_s - result.cost) / rep.total_s
        assert err < 0.15

    def test_more_pes_faster_kernel(self, simulator):
        shape = LUTShape(n=256, h=16, f=64, v=4, ct=8)
        few = Mapping(256, 64, 8, 8, 2, load_scheme="coarse", cb_load_tile=2, f_load_tile=4)
        many = Mapping(32, 8, 8, 8, 2, load_scheme="coarse", cb_load_tile=2, f_load_tile=4)
        t_few = simulator.run(shape, few)
        t_many = simulator.run(shape, many)
        assert t_many.kernel_s < t_few.kernel_s


class TestFunctional:
    def test_output_matches_reference(self, simulator, shape, mapping):
        indices, lut = random_kernel_inputs(shape)
        rep = simulator.run(shape, mapping, indices=indices, lut=lut)
        np.testing.assert_allclose(rep.output, lut_lookup(indices, lut), atol=1e-12)

    def test_output_with_real_codebooks(self, simulator, shape, mapping):
        rng = np.random.default_rng(1)
        cbs = Codebooks(rng.normal(size=(shape.cb, shape.ct, shape.v)))
        w = rng.normal(size=(shape.h, shape.f))
        lut = build_lut(cbs, w)
        from repro.core import closest_centroid_search

        x = rng.normal(size=(shape.n, shape.h))
        indices = closest_centroid_search(x, cbs)
        rep = simulator.run(shape, mapping, indices=indices, lut=lut)
        np.testing.assert_allclose(rep.output, lut_lookup(indices, lut), atol=1e-12)

    def test_shape_validation(self, simulator, shape, mapping):
        indices, lut = random_kernel_inputs(shape)
        with pytest.raises(ValueError):
            simulator.run(shape, mapping, indices=indices[:, :2], lut=lut)
        with pytest.raises(ValueError):
            simulator.run(shape, mapping, indices=indices, lut=lut[:, :2])

    def test_no_output_without_inputs(self, simulator, shape, mapping):
        assert simulator.run(shape, mapping).output is None


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_groups=st.sampled_from([1, 2, 4]),
    pes_per_group=st.sampled_from([1, 2, 4]),
)
def test_distributed_execution_property(seed, n_groups, pes_per_group):
    """Any legal sub-LUT partition computes exactly the reference output."""
    shape = LUTShape(n=32, h=8, f=16, v=2, ct=4)
    mapping = Mapping(
        n_s_tile=shape.n // n_groups,
        f_s_tile=shape.f // pes_per_group,
        n_m_tile=4,
        f_m_tile=4,
        cb_m_tile=2,
        load_scheme="fine",
        f_load_tile=2,
    )
    platform = get_platform("upmem")
    sim = PIMSimulator(platform)
    indices, lut = random_kernel_inputs(shape, seed)
    rep = sim.run(shape, mapping, indices=indices, lut=lut)
    np.testing.assert_allclose(rep.output, lut_lookup(indices, lut), atol=1e-12)
