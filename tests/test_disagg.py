"""Disaggregated prefill/decode pool scheduler tests.

Covers the :mod:`repro.engine.disagg` two-pool simulator: placement
policies, the KV-transfer cost model, exact phase partitioning
(``prefill/`` + ``decode/`` + ``kv_transfer`` == busy seconds at 1e-9),
parity pins against the single-pool scheduler and the FIFO queueing
model, the hybrid cost-dominance property, cluster integration,
telemetry, Chrome-trace pool lanes, the placement sweep, and the
``serve-disagg`` CLI.
"""

import numpy as np
import pytest

from repro import obs
from repro.baselines import prefill_host, wimpy_host
from repro.engine import (
    PLACEMENT_POLICIES,
    ColocatedPlacement,
    DisaggregatedPlacement,
    DisaggScheduler,
    GenerationServer,
    HostPrefillPool,
    HybridPlacement,
    KVTransferModel,
    PoolSnapshot,
    Request,
    RequestScheduler,
    SchedulerPolicy,
    disagg_load_sweep,
    kv_cache_bytes,
    make_placement,
    poisson_requests,
    simulate_queue,
)
from repro.pim import get_platform
from repro.workloads import opt_style


@pytest.fixture(scope="module")
def config():
    return opt_style(256, seq_len=64, batch_size=1)


@pytest.fixture(scope="module")
def server(config):
    return GenerationServer(get_platform("upmem"), wimpy_host())


@pytest.fixture(scope="module")
def cost(server, config):
    # One memoized decode-pool cost model shared by every test scheduler.
    return DisaggScheduler(server, config, placement="colocated").cost


def _sched(server, config, cost, placement, **kw):
    s = DisaggScheduler(server, config, placement=placement, **kw)
    if kw.get("prefill_server") is None:
        s.cost = cost
        s.prefill_cost = cost
    else:
        s.cost = cost
    return s


def _stream(n=24, rate=60.0, prompt=96, generate=32, seed=0, **kw):
    return poisson_requests(
        n, rate, prompt_len=prompt, generate_len=generate, seed=seed, **kw
    )


class TestKVTransferModel:
    def test_kv_bytes_formula(self, config, server):
        model = KVTransferModel(config, server.platform.scatter, kv_dtype_bytes=2)
        expect = 2.0 * config.num_layers * 128 * config.hidden_dim * 2
        assert model.kv_bytes(128) == expect
        assert model.kv_bytes(128, batch=3) == 3 * expect
        assert kv_cache_bytes(config, 128, dtype_bytes=2) == expect

    def test_zero_tokens_cost_nothing(self, config, server):
        model = KVTransferModel(config, server.platform.scatter)
        assert model.transfer_s(0) == 0.0
        assert model.transfer_s(-4) == 0.0
        assert kv_cache_bytes(config, 0) == 0.0

    def test_transfer_charges_interconnect(self, config, server):
        model = KVTransferModel(config, server.platform.scatter, kv_dtype_bytes=2)
        expect = server.platform.scatter.latency(model.kv_bytes(64))
        assert model.transfer_s(64) == pytest.approx(expect, rel=1e-12)

    def test_dtype_validated(self, config, server):
        with pytest.raises(ValueError):
            KVTransferModel(config, server.platform.scatter, kv_dtype_bytes=0)

    def test_server_kv_cache_bytes_uses_platform_dtype(self, config, server):
        # The scheduler's migrated KV cache is at the server platform's
        # GEMM dtype (4 bytes on UPMEM; the model's default is 2).
        expect = kv_cache_bytes(
            config, 64, dtype_bytes=server.platform.gemm_dtype_bytes
        )
        assert DisaggScheduler(server, config).kv.kv_bytes(64) == expect

    def test_jsonable(self, config, server):
        payload = KVTransferModel(config, server.platform.scatter).to_jsonable()
        assert payload["kv_dtype_bytes"] == 2
        assert payload["interconnect_peak_bytes_per_s"] > 0


class TestPlacementPolicies:
    def test_registry_and_factory(self):
        assert set(PLACEMENT_POLICIES) == {
            "colocated", "disaggregated", "hybrid",
        }
        assert isinstance(make_placement("hybrid"), HybridPlacement)
        instance = ColocatedPlacement()
        assert make_placement(instance) is instance
        with pytest.raises(ValueError, match="unknown placement"):
            make_placement("nope")

    def test_pure_policies_ignore_load(self):
        req = Request(request_id=0, arrival_s=0.0, prompt_len=8, generate_len=8)
        pools = PoolSnapshot(
            now=0.0, prefill_pool_backlog_s=100.0, decode_pool_backlog_s=0.0,
            pool_prefill_s=1.0, colocated_prefill_s=1.0, kv_transfer_s=1.0,
        )
        assert ColocatedPlacement().choose(req, pools) == "colocated"
        assert DisaggregatedPlacement().choose(req, pools) == "pool"

    def test_hybrid_weighs_backlog_and_transfer(self):
        req = Request(request_id=0, arrival_s=0.0, prompt_len=8, generate_len=8)
        # Busy decode pool, idle prefill pool: go to the pool.
        busy_decode = PoolSnapshot(
            now=0.0, prefill_pool_backlog_s=0.0, decode_pool_backlog_s=5.0,
            pool_prefill_s=1.0, colocated_prefill_s=1.0, kv_transfer_s=0.1,
        )
        assert HybridPlacement().choose(req, busy_decode) == "pool"
        # Transfer cost dominating the decode backlog: stay colocated.
        costly_move = PoolSnapshot(
            now=0.0, prefill_pool_backlog_s=0.0, decode_pool_backlog_s=0.5,
            pool_prefill_s=1.0, colocated_prefill_s=1.0, kv_transfer_s=2.0,
        )
        assert HybridPlacement().choose(req, costly_move) == "colocated"
        # Exact tie keeps the request colocated (no free migration).
        tie = PoolSnapshot(
            now=0.0, prefill_pool_backlog_s=0.0, decode_pool_backlog_s=0.0,
            pool_prefill_s=1.0, colocated_prefill_s=1.0, kv_transfer_s=0.0,
        )
        assert HybridPlacement().choose(req, tie) == "colocated"


class TestPhasePartition:
    @pytest.mark.parametrize(
        "placement", ["colocated", "disaggregated", "hybrid"]
    )
    def test_phases_partition_busy_seconds(
        self, server, config, cost, placement
    ):
        result = _sched(server, config, cost, placement).run(_stream())
        assert result.busy_s > 0
        assert sum(result.phase_seconds.values()) == pytest.approx(
            result.busy_s, abs=1e-9
        )
        assert result.prefill_pool_busy_s + result.decode_pool_busy_s + \
            result.kv_transfer_s == pytest.approx(result.busy_s, abs=1e-9)

    def test_partition_holds_on_host_prefill_pool(self, server, config, cost):
        sched = _sched(
            server, config, cost, "disaggregated",
            prefill_server=HostPrefillPool(prefill_host()),
        )
        result = sched.run(_stream())
        assert sum(result.phase_seconds.values()) == pytest.approx(
            result.busy_s, abs=1e-9
        )
        # The host pool's prefill phases (gemm/attention/...) are charged
        # under the prefill class.
        assert any(k.startswith("prefill/") for k in result.phase_seconds)

    def test_kv_transfer_is_first_class_phase(self, server, config, cost):
        result = _sched(server, config, cost, "disaggregated").run(_stream())
        assert result.kv_transfers == 24
        assert result.phase_seconds["kv_transfer"] == pytest.approx(
            result.kv_transfer_s, abs=1e-12
        )
        # Sibling of shard_transfer: top-level in the attribution, and
        # excluded from the prefill/decode classes.
        attribution = result.phase_attribution("kv_transfer")
        assert attribution.phase_seconds == {
            "kv_transfer": pytest.approx(result.kv_transfer_s)
        }
        for cls in ("prefill", "decode"):
            assert "kv_transfer" not in result.phase_attribution(cls).phase_seconds


class TestParity:
    def test_colocated_matches_single_pool_scheduler(
        self, server, config, cost
    ):
        """Under colocated placement the two-pool machinery must vanish."""
        stream = _stream(n=32, rate=80.0, seed=7)
        base_sched = RequestScheduler(server, config)
        base_sched.cost = cost
        base = base_sched.run(stream)
        co = _sched(server, config, cost, "colocated").run(stream)
        assert co.kv_transfers == 0
        assert co.prefill_pool_busy_s == 0.0
        assert co.makespan_s == pytest.approx(base.makespan_s, abs=1e-9)
        assert co.busy_s == pytest.approx(base.busy_s, abs=1e-9)
        for ours, theirs in zip(co.requests, base.requests):
            assert ours.ttft_s == pytest.approx(theirs.ttft_s, abs=1e-9)
            assert ours.e2e_s == pytest.approx(theirs.e2e_s, abs=1e-9)

    def test_disaggregated_prefill_pool_is_fifo_queue(
        self, server, config, cost
    ):
        """A prefill-only stream on the pool is exactly the single-server
        FIFO queue: batch-1 service, zero transfers, sojourns at 1e-9."""
        sched = _sched(server, config, cost, "disaggregated")
        svc = cost.prefill_s(96, 1)
        rate = 0.7 / svc
        n = 50
        stream = poisson_requests(n, rate, prompt_len=96, generate_len=0,
                                  seed=5)
        result = sched.run(stream)
        queue = simulate_queue(svc, rate, num_requests=n, seed=5)
        assert result.kv_transfers == 0
        sojourns = [s.e2e_s for s in result.requests]
        assert float(np.mean(sojourns)) == pytest.approx(
            queue.mean_latency_s, rel=1e-9
        )
        assert max(sojourns) >= queue.p99_latency_s * (1 - 1e-9)

    def test_fifo_service_time_matches_single_pool(self, server, config, cost):
        probe = Request(request_id=-1, arrival_s=0.0, prompt_len=96,
                        generate_len=32)
        base = RequestScheduler(server, config)
        base.cost = cost
        ours = _sched(server, config, cost, "hybrid")
        assert ours.fifo_service_time(probe) == pytest.approx(
            base.fifo_service_time(probe), rel=1e-12
        )


class TestHybridDominance:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("rho", [0.7, 1.0, 1.4])
    def test_hybrid_cost_bounded_by_pure_policies(
        self, server, config, cost, seed, rho
    ):
        """For any seeded stream, hybrid total cost (makespan) is bounded
        by the better pure policy plus the transfer slack it paid."""
        probe = Request(request_id=-1, arrival_s=0.0, prompt_len=96,
                        generate_len=32)
        svc = _sched(server, config, cost, "colocated").fifo_service_time(probe)
        stream = _stream(n=28, rate=rho / svc, seed=seed)
        results = {
            p: _sched(server, config, cost, p).run(stream)
            for p in ("colocated", "disaggregated", "hybrid")
        }
        h = results["hybrid"]
        best = min(
            results["colocated"].makespan_s,
            results["disaggregated"].makespan_s,
        )
        assert h.makespan_s <= best + h.kv_transfer_s + 1e-9
        # And goodput-wise hybrid never loses to either pure policy.
        assert h.goodput_rps >= results["colocated"].goodput_rps * (1 - 1e-9)
        assert h.goodput_rps >= results["disaggregated"].goodput_rps * (1 - 1e-9)


class TestDisaggBehavior:
    def test_disaggregated_beats_colocated_at_overload(
        self, server, config, cost
    ):
        """The acceptance behavior: on a decode-heavy stream at rho >= 1.2
        the decode pool, freed from whole-prompt prefill stalls, retains
        more SLO goodput than the colocated engine."""
        probe = Request(request_id=-1, arrival_s=0.0, prompt_len=128,
                        generate_len=64)
        shared = _sched(server, config, cost, "colocated")
        svc = shared.fifo_service_time(probe)
        policy = SchedulerPolicy(
            slo_ttft_s=2.5 * cost.prefill_s(128, 1), slo_e2e_s=2.5 * svc,
        )
        stream = _stream(n=64, rate=1.2 / svc, prompt=128, generate=64, seed=0)
        co = _sched(server, config, cost, "colocated", policy=policy).run(stream)
        dis = _sched(server, config, cost, "disaggregated", policy=policy).run(stream)
        assert dis.goodput_rps > co.goodput_rps
        assert dis.ttft_p95_s < co.ttft_p95_s

    def test_pool_timeline_lanes_and_ordering(self, server, config, cost):
        result = _sched(server, config, cost, "disaggregated").run(_stream())
        lanes = {lane for lane, _, _, _ in result.pool_timeline}
        assert lanes == {"prefill_pool", "kv_transfer", "decode_pool"}
        for _, _, start, end in result.pool_timeline:
            assert end > start >= 0.0
        # The prefill pool is serialized: segments never overlap.
        pool = sorted(
            (s, e) for lane, _, s, e in result.pool_timeline
            if lane == "prefill_pool"
        )
        for (_, prev_end), (next_start, _) in zip(pool, pool[1:]):
            assert next_start >= prev_end - 1e-12

    def test_colocated_has_no_pool_timeline(self, server, config, cost):
        result = _sched(server, config, cost, "colocated").run(_stream())
        lanes = {lane for lane, _, _, _ in result.pool_timeline}
        assert "prefill_pool" not in lanes
        assert "kv_transfer" not in lanes

    def test_prefill_only_requests_skip_migration(self, server, config, cost):
        stream = _stream(n=10, generate=0)
        result = _sched(server, config, cost, "disaggregated").run(stream)
        assert result.completed == 10
        assert result.kv_transfers == 0
        assert result.kv_transfer_s == 0.0

    def test_infeasible_and_overflow_rejections(self, server, config, cost):
        policy = SchedulerPolicy(max_batch_size=2, max_queue_len=2)
        stream = [
            Request(request_id=0, arrival_s=0.0, prompt_len=32,
                    generate_len=4, batch=4),  # infeasible: batch > cap
        ] + [
            Request(request_id=i, arrival_s=0.0, prompt_len=32, generate_len=4)
            for i in range(1, 8)
        ]
        result = _sched(
            server, config, cost, "colocated", policy=policy
        ).run(stream)
        assert result.rejected >= 1
        assert result.completed + result.rejected == len(stream)

    def test_jsonable_carries_disagg_block(self, server, config, cost):
        dis = _sched(server, config, cost, "disaggregated").run(_stream(n=6))
        payload = dis.to_jsonable()
        assert payload["placement"] == "disaggregated"
        assert payload["disagg"]["kv_transfers"] == 6
        assert payload["disagg"]["prefill_pool_busy_s"] > 0
        base = RequestScheduler(server, config)
        base.cost = cost
        single = base.run(_stream(n=6)).to_jsonable()
        assert single["placement"] is None
        assert single["disagg"] is None

    def test_telemetry_counters(self, server, config, cost):
        obs.reset()
        _sched(server, config, cost, "disaggregated").run(_stream(n=8))
        snapshot = obs.get_registry().snapshot()
        assert snapshot["disagg.requests_completed"]["value"] == 8
        assert snapshot["disagg.kv_transfers"]["value"] == 8
        assert snapshot["disagg.placed_pool"]["value"] == 8
        assert snapshot["disagg.steps"]["value"] > 0
        spans = [s.name for s in obs.get_tracer().finished_spans()]
        assert "disagg.run" in spans
        obs.reset()


class TestChromeTraceLanes:
    def test_schedule_to_chrome_events_pool_lanes(self, server, config, cost):
        result = _sched(server, config, cost, "disaggregated").run(_stream(n=6))
        events = obs.schedule_to_chrome_events(result, pid=7)
        names = {e["args"]["name"] for e in events
                 if e.get("name") == "thread_name"}
        assert names == {"prefill pool", "kv transfer", "decode pool"}
        x = [e for e in events if e.get("ph") == "X"]
        assert len(x) == len(result.pool_timeline)
        assert all(e["pid"] == 7 for e in x)

    def test_build_chrome_trace_accepts_schedules(self, server, config, cost):
        result = _sched(server, config, cost, "hybrid").run(_stream(n=6))
        document = obs.build_chrome_trace(schedules=[result])
        cats = {e.get("cat") for e in document["traceEvents"]}
        assert "disagg" in cats


class TestClusterIntegration:
    def test_cluster_runs_disagg_replicas(self, server, config):
        from repro.cluster import ClusterScheduler

        stream = _stream(n=24, rate=100.0)
        cluster = ClusterScheduler(
            server, config, replicas=2, placement="hybrid"
        )
        result = cluster.run(stream)
        assert result.completed == 24
        assert "kv_transfer" in result.phase_seconds or \
            all(r.kv_transfers == 0 for r in result.replica_results)
        assert sum(result.phase_seconds.values()) == pytest.approx(
            result.busy_s, abs=1e-9
        )

    def test_replicas_share_cost_models(self, server, config):
        from repro.cluster import ClusterScheduler

        cluster = ClusterScheduler(
            server, config, replicas=3, placement="disaggregated",
            prefill_server=HostPrefillPool(prefill_host()),
        )
        assert len({id(s.cost) for s in cluster.schedulers}) == 1
        assert len({id(s.prefill_cost) for s in cluster.schedulers}) == 1

    def test_one_replica_colocated_matches_plain_cluster(self, server, config):
        from repro.cluster import ClusterScheduler

        stream = _stream(n=16, rate=60.0, seed=2)
        plain = ClusterScheduler(server, config, replicas=1).run(stream)
        disagg = ClusterScheduler(
            server, config, replicas=1, placement="colocated"
        ).run(stream)
        assert disagg.makespan_s == pytest.approx(plain.makespan_s, abs=1e-9)
        assert disagg.e2e_p95_s == pytest.approx(plain.e2e_p95_s, abs=1e-9)


class TestSweep:
    def test_sweep_validates_utilizations_upfront(self, server, config):
        with pytest.raises(ValueError, match="utilizations must be positive"):
            disagg_load_sweep(server, config, utilizations=(0.5, 0.0))
        with pytest.raises(ValueError, match="utilizations must be positive"):
            disagg_load_sweep(server, config, utilizations=(-1.0,))

    def test_sweep_rejects_empty_and_duplicate_placements(self, server, config):
        with pytest.raises(ValueError, match="at least one"):
            disagg_load_sweep(server, config, placements=())
        with pytest.raises(ValueError, match="duplicate"):
            disagg_load_sweep(
                server, config, placements=("hybrid", HybridPlacement()),
            )

    def test_sweep_identical_streams_per_cell(self, server, config):
        points = disagg_load_sweep(
            server, config,
            placements=("colocated", "hybrid"),
            utilizations=(0.8,), num_requests=12,
            prompt_len=64, generate_len=16, seed=4,
        )
        assert len(points) == 2
        by_name = {p.placement: p for p in points}
        assert by_name["colocated"].arrival_rate_rps == \
            by_name["hybrid"].arrival_rate_rps
        co_arrivals = [s.arrival_s for s in by_name["colocated"].result.requests]
        hy_arrivals = [s.arrival_s for s in by_name["hybrid"].result.requests]
        assert co_arrivals == hy_arrivals
        payload = points[0].to_jsonable()
        assert payload["placement"] == "colocated"
        assert payload["result"]["completed"] == 12


class TestServeDisaggCLI:
    def test_sweep_json_acceptance(self, capsys):
        import json

        from repro.cli import main

        code = main([
            "serve-disagg", "--model", "bert-base", "--layers", "1",
            "--sweep", "--utilization", "0.8,1.2", "--requests", "40",
            "--prompt-len", "64", "--generate-len", "32", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        cells = {
            (p["target_utilization"], p["placement"]): p["result"]
            for p in payload["points"]
        }
        overload = 1.2
        co = cells[(overload, "colocated")]
        dis = cells[(overload, "disaggregated")]
        hy = cells[(overload, "hybrid")]
        assert dis["goodput_rps"] >= co["goodput_rps"]
        assert hy["goodput_rps"] >= max(co["goodput_rps"], dis["goodput_rps"]) \
            - 1e-9
        for cell in (co, dis, hy):
            assert sum(cell["phase_seconds"].values()) == pytest.approx(
                cell["busy_s"], abs=1e-9
            )

    def test_single_run_host_prefill(self, capsys):
        import json

        from repro.cli import main

        code = main([
            "serve-disagg", "--model", "bert-base", "--layers", "1",
            "--placement", "hybrid", "--prefill-device", "host",
            "--utilization", "1.0", "--requests", "16",
            "--prompt-len", "64", "--generate-len", "16", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["prefill_device"] == "host"
        assert payload["schedule"]["placement"] == "hybrid"
        assert payload["kv_transfer"]["kv_dtype_bytes"] > 0

    def test_rejects_bad_args(self, capsys):
        from repro.cli import main

        assert main(["serve-disagg", "--placement", "sideways"]) == 2
        assert main(["serve-disagg", "--sweep", "--rate", "5"]) == 2
        assert main(["serve-disagg", "--placement",
                     "colocated,hybrid"]) == 2  # multiple need --sweep
        assert main(["serve-disagg", "--utilization", "0"]) == 2
        assert main(["serve-disagg", "--sweep", "--utilization",
                     "0.5,0"]) == 2
        assert main(["serve-disagg", "--rate", "-1"]) == 2
        capsys.readouterr()


class TestPrefillHostDevice:
    def test_prefill_host_is_compute_rich(self):
        host = prefill_host()
        wimpy = wimpy_host()
        assert host.peak_flops > wimpy.peak_flops
        assert host.mem_bandwidth > wimpy.mem_bandwidth

    def test_phase_order_includes_transfer_phases(self):
        assert "kv_transfer" in obs.PHASE_ORDER
        assert "shard_transfer" in obs.PHASE_ORDER
        # Device phases still sort first.
        assert obs.PHASE_ORDER.index("kv_transfer") > \
            obs.PHASE_ORDER.index("launch")
