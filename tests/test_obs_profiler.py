"""Tests for the performance observatory: phase profiles, per-rank
timelines, bottleneck attribution, and their integration with the
simulator, engines, and scheduler.

The load-bearing invariant is the exact partition: the simulator's
``PhaseProfile.phase_seconds`` must sum to ``SimulationReport.total_s``
within 1e-9 for every load scheme, tuned or hand-written mapping, and
even under an injected straggler (ISSUE acceptance criterion).
"""

import pytest

from repro.core import LUTShape
from repro.mapping import AutoTuner, Mapping
from repro.obs.profiler import (
    PHASE_ORDER,
    BottleneckReport,
    PhaseProfile,
    attribute_bottleneck,
    build_rank_timelines,
    sorted_phases,
)
from repro.pim import PIMSimulator, get_platform
from repro.resilience.faults import FaultInjector, FaultPlan

SHAPE = LUTShape(n=64, h=16, f=32, v=4, ct=8)

MAPPINGS = {
    "static": Mapping(n_s_tile=16, f_s_tile=8, n_m_tile=4, f_m_tile=4,
                      cb_m_tile=2, load_scheme="static"),
    "coarse": Mapping(n_s_tile=16, f_s_tile=8, n_m_tile=4, f_m_tile=4,
                      cb_m_tile=2, load_scheme="coarse",
                      cb_load_tile=2, f_load_tile=4),
    "fine": Mapping(n_s_tile=16, f_s_tile=8, n_m_tile=4, f_m_tile=4,
                    cb_m_tile=2, load_scheme="fine", f_load_tile=2),
}


@pytest.fixture(scope="module")
def platform():
    return get_platform("upmem")


@pytest.fixture(scope="module")
def simulator(platform):
    return PIMSimulator(platform)


class TestExactPartition:
    @pytest.mark.parametrize("scheme", sorted(MAPPINGS))
    def test_phases_sum_to_total_every_scheme(self, simulator, scheme):
        report = simulator.run(SHAPE, MAPPINGS[scheme])
        assert report.profile is not None
        assert report.profile.total_s == pytest.approx(
            report.total_s, abs=1e-9
        )

    def test_phases_sum_to_total_tuned_large_shape(self, platform):
        shape = LUTShape(n=512, h=128, f=256, v=4, ct=16)
        mapping = AutoTuner(platform).tune(shape).mapping
        report = PIMSimulator(platform).run(shape, mapping)
        assert report.profile.total_s == pytest.approx(
            report.total_s, abs=1e-9
        )

    def test_partition_exact_under_straggler(self, simulator):
        injector = FaultInjector(FaultPlan(straggler_factor=2.5))
        report = simulator.run(SHAPE, MAPPINGS["coarse"], injector=injector)
        assert "straggler" in report.faults
        assert report.profile.total_s == pytest.approx(
            report.total_s, abs=1e-9
        )

    def test_kernel_phases_decompose_kernel_s(self, simulator):
        report = simulator.run(SHAPE, MAPPINGS["coarse"])
        phases = report.profile.phase_seconds
        kernel = sum(
            phases[p] for p in ("dma", "lookup", "reduce", "overhead")
        )
        assert kernel == pytest.approx(report.kernel_s, abs=1e-12)
        assert phases["distribution"] == pytest.approx(report.distribution_s)
        assert phases["gather"] == pytest.approx(report.gather_s)
        assert phases["launch"] == pytest.approx(report.launch_s)
        assert all(s >= 0 for s in phases.values())

    def test_dma_bytes_recorded(self, simulator):
        report = simulator.run(SHAPE, MAPPINGS["coarse"])
        assert report.event_counts["dma_bytes"] > 0


class TestPhaseProfile:
    def test_phase_shares_sum_to_one(self, simulator):
        profile = simulator.run(SHAPE, MAPPINGS["static"]).profile
        assert sum(profile.phase_shares().values()) == pytest.approx(1.0)

    def test_sorted_phases_canonical_order(self):
        scrambled = {"launch": 1.0, "unknown-z": 1.0, "distribution": 1.0,
                     "reduce": 1.0}
        names = [p for p, _ in sorted_phases(scrambled)]
        assert names == ["distribution", "reduce", "launch", "unknown-z"]
        assert set(PHASE_ORDER) >= {"distribution", "reduce", "launch"}

    def test_imbalance_zero_when_uniform(self):
        profile = PhaseProfile(
            phase_seconds={"reduce": 4.0},
            per_rank_busy_s=(1.0, 1.0, 1.0, 1.0),
            per_rank_active_pes=(8, 8, 8, 8),
            pes_per_rank=8,
        )
        assert profile.imbalance_index == pytest.approx(0.0)

    def test_imbalance_counts_idle_ranks(self):
        # One of four ranks does all the work: 1 - (1/4)/1 = 0.75.
        profile = PhaseProfile(
            phase_seconds={"reduce": 1.0},
            per_rank_busy_s=(1.0, 0.0, 0.0, 0.0),
            per_rank_active_pes=(8, 0, 0, 0),
            pes_per_rank=8,
        )
        assert profile.imbalance_index == pytest.approx(0.75)
        assert profile.top_ranks(2) == ((0, 1.0),)

    def test_combine_sums_phases_and_busy(self):
        a = PhaseProfile(phase_seconds={"reduce": 1.0, "dma": 0.5},
                         per_rank_busy_s=(1.0, 0.0),
                         per_rank_active_pes=(4, 0), pes_per_rank=4)
        b = PhaseProfile(phase_seconds={"reduce": 2.0, "ccs": 0.25},
                         per_rank_busy_s=(0.5, 0.5),
                         per_rank_active_pes=(4, 4), pes_per_rank=4)
        merged = PhaseProfile.combine([a, b], label="merged")
        assert merged.phase_seconds == {
            "reduce": 3.0, "dma": 0.5, "ccs": 0.25,
        }
        assert merged.per_rank_busy_s == (1.5, 0.5)
        assert merged.rank_segments == {}  # timelines do not compose
        assert merged.total_s == pytest.approx(3.75)

    def test_to_jsonable_round_trips_through_json(self, simulator):
        import json

        profile = simulator.run(SHAPE, MAPPINGS["coarse"]).profile
        payload = json.loads(json.dumps(profile.to_jsonable()))
        assert payload["total_s"] == pytest.approx(profile.total_s)
        assert payload["pes_per_rank"] == profile.pes_per_rank


class TestRankTimelines:
    def make_profile(self):
        return PhaseProfile(phase_seconds={
            "distribution": 4.0, "dma": 1.0, "lookup": 0.5, "reduce": 2.0,
            "overhead": 0.5, "gather": 2.0, "launch": 1.0,
        })

    def test_busy_and_segments_cover_used_ranks_only(self):
        profile = self.make_profile()
        build_rank_timelines(
            profile, num_ranks=4, pes_per_rank=8, active_pes=16
        )
        assert profile.ranks == 4
        assert profile.per_rank_active_pes == (8, 8, 0, 0)
        assert set(profile.rank_segments) == {0, 1}
        assert profile.per_rank_busy_s[2] == 0.0

    def test_distribution_serializes_kernel_parallel(self):
        profile = self.make_profile()
        build_rank_timelines(
            profile, num_ranks=4, pes_per_rank=8, active_pes=16
        )
        segs0 = {s.phase: s for s in profile.rank_segments[0]}
        segs1 = {s.phase: s for s in profile.rank_segments[1]}
        # Rank 1 receives its tiles after rank 0 finished receiving.
        assert segs1["distribution"].start_s == pytest.approx(
            segs0["distribution"].end_s
        )
        # The kernel window is shared (synchronous launch).
        assert segs0["kernel"].start_s == segs1["kernel"].start_s == 4.0
        assert segs0["kernel"].duration_s == pytest.approx(4.0)  # dma+lk+rd+ov
        # Gather serializes after the kernel on the way out.
        assert segs0["gather"].start_s == pytest.approx(8.0)
        assert segs1["gather"].end_s == pytest.approx(10.0)

    def test_launch_lands_on_no_rank(self):
        profile = self.make_profile()
        build_rank_timelines(
            profile, num_ranks=2, pes_per_rank=8, active_pes=8
        )
        phases_seen = {
            s.phase for segs in profile.rank_segments.values() for s in segs
        }
        assert "launch" not in phases_seen

    def test_occupancy_timeline_bounded(self):
        profile = self.make_profile()
        build_rank_timelines(
            profile, num_ranks=4, pes_per_rank=8, active_pes=16
        )
        timeline = profile.occupancy_timeline(points=16)
        assert len(timeline) == 16
        assert all(0.0 <= frac <= 1.0 for _, frac in timeline)
        assert any(frac > 0 for _, frac in timeline)


class TestBottleneckReport:
    def test_dominant_phase_and_shares(self):
        report = BottleneckReport.from_phases(
            {"reduce": 3.0, "dma": 1.0}
        )
        assert report.dominant_phase == "reduce"
        assert report.dominant_share == pytest.approx(0.75)
        assert report.total_s == pytest.approx(4.0)

    def test_empty_phases(self):
        report = BottleneckReport.from_phases({})
        assert report.dominant_phase == "none"
        assert report.total_s == 0.0

    def test_render_mentions_dominant_and_ranks(self):
        report = BottleneckReport.from_phases(
            {"reduce": 3.0, "dma": 1.0},
            utilization={"reduce": 0.5},
            imbalance_index=0.25,
            top_ranks=((2, 0.003),),
        )
        text = report.render()
        assert "bottleneck: reduce" in text
        assert "rank 2" in text
        assert "util" in text

    def test_simulator_bottleneck_utilizations_bounded(
        self, simulator, platform
    ):
        report = simulator.run(SHAPE, MAPPINGS["coarse"])
        bn = report.bottleneck(platform=platform)
        assert bn.total_s == pytest.approx(report.total_s, abs=1e-9)
        assert {"reduce", "dma", "distribution", "gather"} <= set(
            bn.utilization
        )
        assert all(0.0 <= u <= 1.0 for u in bn.utilization.values())
        assert bn.top_ranks  # at least one loaded rank

    @pytest.mark.parametrize("n_s_tile, f_s_tile, index_link, lut_link", [
        (64, 8, "broadcast", "scatter"),  # one group: a unique LUT tile per PE
        (16, 32, "scatter", "broadcast"),  # one PE per group: unique index tiles
    ])
    def test_distribution_priced_at_each_burst_pattern(
        self, simulator, platform, n_s_tile, f_s_tile, index_link, lut_link
    ):
        mapping = Mapping(n_s_tile=n_s_tile, f_s_tile=f_s_tile, n_m_tile=4,
                          f_m_tile=4, cb_m_tile=2)
        report = simulator.run(SHAPE, mapping)
        pes = (SHAPE.n // n_s_tile) * (SHAPE.f // f_s_tile)
        index_bytes = pes * n_s_tile * SHAPE.cb
        lut_bytes = pes * SHAPE.cb * SHAPE.ct * f_s_tile
        roofline_s = (
            index_bytes / getattr(platform, index_link).peak_bytes_per_s
            + lut_bytes / getattr(platform, lut_link).peak_bytes_per_s
        )
        bn = report.bottleneck(platform=platform)
        assert bn.utilization["distribution"] == pytest.approx(
            roofline_s / report.distribution_s, rel=1e-12
        )
        gather_s = SHAPE.n * SHAPE.f * 4 / platform.gather.peak_bytes_per_s
        assert bn.utilization["gather"] == pytest.approx(
            gather_s / report.gather_s, rel=1e-12
        )

    def test_bottleneck_without_profile_raises(self, simulator):
        report = simulator.run(SHAPE, MAPPINGS["coarse"])
        object.__setattr__(report, "profile", None)
        with pytest.raises(ValueError):
            report.bottleneck()

    def test_attribute_without_platform_skips_utilization(self, simulator):
        profile = simulator.run(SHAPE, MAPPINGS["coarse"]).profile
        bn = attribute_bottleneck(profile)
        assert bn.utilization == {}
        assert bn.total_s == pytest.approx(profile.total_s)


class TestEngineAttribution:
    @pytest.fixture(scope="class")
    def config(self):
        from repro.workloads import opt_style

        return opt_style(256, seq_len=64, batch_size=1)

    def test_engine_report_phases_cover_total(self, config):
        from repro.baselines import wimpy_host
        from repro.engine import PIMDLEngine

        platform = get_platform("upmem")
        report = PIMDLEngine(platform, wimpy_host()).run(config)
        assert report.phase_seconds
        # Phase seconds cover wall + overlap-hidden time.
        assert sum(report.phase_seconds.values()) == pytest.approx(
            report.total_s + report.overlap_hidden_s, rel=1e-9
        )
        bn = report.bottleneck()
        assert bn.dominant_phase in report.phase_seconds

    def test_engine_report_empty_phases_raises(self):
        from repro.engine.report import EngineReport

        with pytest.raises(ValueError):
            EngineReport(engine="x", model="y").bottleneck()

    def test_decode_engine_phases_sum_to_token_latency(self, config):
        from repro.baselines import wimpy_host
        from repro.engine.decode import LUTDecodeEngine

        platform = get_platform("upmem")
        report = LUTDecodeEngine(platform, wimpy_host()).run(
            config, batch_size=2
        )
        assert sum(report.phase_seconds.values()) == pytest.approx(
            report.token_latency_s, rel=1e-9
        )

    def test_scheduler_attribution_per_request_class(self, config):
        from repro.baselines import wimpy_host
        from repro.engine import (
            GenerationServer,
            RequestScheduler,
            SchedulerPolicy,
            poisson_requests,
        )

        server = GenerationServer(get_platform("upmem"), wimpy_host())
        sched = RequestScheduler(
            server, config, policy=SchedulerPolicy(max_batch_size=8)
        )
        requests = poisson_requests(
            8, 5.0, prompt_len=64, generate_len=8, seed=0
        )
        result = sched.run(requests)
        assert result.phase_seconds
        prefill = result.phase_attribution("prefill")
        decode = result.phase_attribution("decode")
        both = result.phase_attribution()
        assert prefill.total_s > 0 and decode.total_s > 0
        assert both.total_s == pytest.approx(
            prefill.total_s + decode.total_s, rel=1e-9
        )
        # Class-tagged keys collapse to plain phase names.
        assert all("/" not in p for p in both.phase_seconds)
