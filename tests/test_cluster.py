"""Cluster-scale serving tests: parity, properties, failover, sharding.

The cluster simulator's contract is test-enforced (this PR's archetype):

* a 1-replica unsharded :class:`~repro.cluster.ClusterScheduler` must be
  numerically equivalent to a bare ``RequestScheduler`` run (1e-9);
* request conservation and same-seed determinism must hold over seeded
  randomized streams for every routing policy, including under replica
  failure mid-flight;
* power-of-two-choices must never yield a worse max queue depth than
  round-robin on skewed streams;
* killing a replica via a device-level :class:`FaultPlan` re-routes its
  in-flight requests, with counters and ledger slices matching the event
  log.
"""

import numpy as np
import pytest

from repro import obs
from repro.baselines import prefill_host, wimpy_host
from repro.cluster import (
    ROUTER_POLICIES,
    ClusterScheduler,
    ReplicaFailure,
    RoundRobinRouter,
    SessionAffinityRouter,
    ShardPlan,
    ShardedCostModel,
    cluster_load_sweep,
    failures_from_fault_plan,
    make_router,
)
from repro.cluster.routing import ReplicaLoad
from repro.engine import (
    GenerationServer,
    HostPrefillPool,
    Request,
    RequestScheduler,
    SchedulerPolicy,
    poisson_requests,
)
from repro.pim import get_platform
from repro.resilience import FaultInjector, FaultPlan, RecoveryManager
from repro.workloads import opt_style

TOL = 1e-9


@pytest.fixture(scope="module")
def config():
    return opt_style(256, seq_len=64, batch_size=1).with_(num_layers=2)


@pytest.fixture(scope="module")
def server(config):
    return GenerationServer(get_platform("upmem"), wimpy_host())


@pytest.fixture(scope="module")
def reference(server, config):
    return RequestScheduler(server, config)


@pytest.fixture(scope="module")
def service_s(reference):
    probe = Request(request_id=-1, arrival_s=0.0, prompt_len=64,
                    generate_len=16)
    return reference.fifo_service_time(probe)


@pytest.fixture(scope="module")
def cost(reference):
    # One memoized cost model shared by every cluster in the module keeps
    # the suite fast; costs are pure functions, so sharing is sound.
    return reference.cost


def _stream(service_s, n=32, rho=1.2, seed=0, **kwargs):
    kwargs.setdefault("prompt_len", 64)
    kwargs.setdefault("generate_len", 16)
    return poisson_requests(n, rho / service_s, seed=seed, **kwargs)


# ----------------------------------------------------------------------
# Satellite 1: 1-replica parity with the bare RequestScheduler
# ----------------------------------------------------------------------
class TestSingleReplicaParity:
    PERCENTILE_FIELDS = (
        "ttft_p50_s", "ttft_p95_s", "ttft_p99_s",
        "tpot_p50_s", "tpot_p95_s", "tpot_p99_s",
        "e2e_p50_s", "e2e_p95_s", "e2e_p99_s", "mean_e2e_s",
    )

    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_percentiles_and_goodput_match(self, server, config, reference,
                                           service_s, cost, seed):
        stream = _stream(service_s, n=40, rho=1.3, seed=seed)
        base = reference.run(stream)
        cluster = ClusterScheduler(server, config, replicas=1, shards=1,
                                   cost_model=cost)
        res = cluster.run(stream)
        for name in self.PERCENTILE_FIELDS:
            assert abs(getattr(res, name) - getattr(base, name)) <= TOL, name
        assert abs(res.goodput_rps - base.goodput_rps) <= TOL
        assert abs(res.throughput_rps - base.throughput_rps) <= TOL
        assert abs(res.makespan_s - base.makespan_s) <= TOL
        assert abs(res.busy_s - base.busy_s) <= TOL
        assert res.completed == base.completed
        assert res.rejected == base.rejected
        assert res.steps == base.steps
        assert res.prefill_tokens == base.prefill_tokens
        assert res.generated_tokens == base.generated_tokens

    def test_parity_with_slo_policy_and_rejections(self, server, config,
                                                   service_s, cost):
        policy = SchedulerPolicy(max_batch_size=2, max_queue_len=4,
                                 slo_ttft_s=0.05, slo_e2e_s=0.3)
        stream = _stream(service_s, n=48, rho=3.0, seed=11)
        base = RequestScheduler(server, config, policy=policy)
        base.cost = cost
        expect = base.run(stream)
        res = ClusterScheduler(server, config, replicas=1, policy=policy,
                               cost_model=cost).run(stream)
        assert res.rejected == expect.rejected and expect.rejected > 0
        assert abs(res.goodput_rps - expect.goodput_rps) <= TOL
        assert abs(res.e2e_p95_s - expect.e2e_p95_s) <= TOL

    def test_per_request_stats_match(self, server, config, reference,
                                     service_s, cost):
        stream = _stream(service_s, n=24, seed=3)
        base = {s.request_id: s for s in reference.run(stream).requests}
        res = ClusterScheduler(server, config, replicas=1,
                               cost_model=cost).run(stream)
        assert len(res.requests) == len(base)
        for c in res.requests:
            assert c.replica == 0 and c.failovers == 0
            assert c.stats == base[c.request_id]


# ----------------------------------------------------------------------
# Satellite 2: property tests over seeded randomized streams
# ----------------------------------------------------------------------
class TestConservation:
    @pytest.mark.parametrize("seed", range(20))
    def test_every_request_completed_once_or_shed(self, server, config,
                                                  service_s, cost, seed):
        rng = np.random.default_rng(seed)
        stream = _stream(service_s, n=30, rho=1.0 + rng.uniform(0, 1.5),
                         seed=seed,
                         prompt_len=[32, 64, 128], generate_len=[4, 16, 32])
        # Kill one replica mid-stream: at a stream-dependent instant so the
        # failure lands among in-flight requests.
        t_kill = float(sorted(r.arrival_s for r in stream)[len(stream) // 2])
        router = list(ROUTER_POLICIES)[seed % len(ROUTER_POLICIES)]
        cluster = ClusterScheduler(
            server, config, replicas=3, router=router, seed=seed,
            failures=[ReplicaFailure(seed % 3, t_kill)], cost_model=cost,
        )
        res = cluster.run(stream)

        assert res.completed + res.rejected + res.shed == len(stream)
        seen = sorted(c.request_id for c in res.requests)
        assert seen == sorted(r.request_id for r in stream)
        for c in res.requests:
            if c.shed:
                assert c.stats.rejected
            else:
                assert 0 <= c.replica < 3
        # Failover accounting matches the event log exactly.
        failover_events = [e for e in res.events if e["kind"] == "failover"]
        assert res.failovers == len(failover_events)
        assert res.failovers == sum(c.failovers for c in res.requests)
        shed_events = [e for e in res.events if e["kind"] == "shed"]
        assert res.shed == len(shed_events)

    def test_duplicate_request_ids_rejected(self, server, config, cost):
        twin = [Request(request_id=1, arrival_s=0.0, prompt_len=8,
                        generate_len=2),
                Request(request_id=1, arrival_s=0.1, prompt_len=8,
                        generate_len=2)]
        cluster = ClusterScheduler(server, config, replicas=2,
                                   cost_model=cost)
        with pytest.raises(ValueError, match="unique"):
            cluster.run(twin)


class TestDeterminism:
    @pytest.mark.parametrize("router", sorted(ROUTER_POLICIES))
    @pytest.mark.parametrize("seed", [0, 5, 9, 13, 17])
    def test_same_seed_same_result(self, server, config, service_s, cost,
                                   router, seed):
        stream = _stream(service_s, n=24, rho=1.4, seed=seed, sessions=5)
        runs = []
        for _ in range(2):
            cluster = ClusterScheduler(
                server, config, replicas=3, router=router, seed=seed,
                failures=[ReplicaFailure(1, stream[8].arrival_s)],
                cost_model=cost,
            )
            runs.append(cluster.run(stream))
        a, b = runs
        assert a.to_jsonable() == b.to_jsonable()
        assert [(c.replica, c.failovers, c.stats) for c in a.requests] == \
               [(c.replica, c.failovers, c.stats) for c in b.requests]


class TestPowerOfTwoChoices:
    @pytest.mark.parametrize("replicas", [2, 3])
    def test_never_worse_max_depth_than_round_robin(self, server, config,
                                                    service_s, cost,
                                                    replicas):
        # Heavy-tailed sizes: round-robin blindly stripes behind the huge
        # requests, p2c sees queue depth and avoids them.
        for seed in range(24):
            stream = poisson_requests(
                40, 1.6 * replicas / 2 / service_s,
                prompt_len=[16, 32, 512], generate_len=[2, 8, 64], seed=seed,
            )
            depth = {}
            for router in ("p2c", "round-robin"):
                cluster = ClusterScheduler(
                    server, config, replicas=replicas, router=router,
                    seed=seed, cost_model=cost,
                )
                depth[router] = cluster.run(stream).max_queue_depth
            assert depth["p2c"] <= depth["round-robin"], seed


class TestRoutingPolicies:
    def test_round_robin_skips_dead_replicas(self):
        router = RoundRobinRouter()
        router.reset(4)
        req = Request(request_id=0, arrival_s=0.0, prompt_len=8,
                      generate_len=1)
        picks = [router.choose(req, [0, 2, 3], []) for _ in range(6)]
        assert picks == [0, 2, 3, 0, 2, 3]

    def test_session_affinity_is_sticky_and_stable_under_failure(self):
        router = SessionAffinityRouter()
        alive = [0, 1, 2, 3]
        loads = []

        def req(session, rid=0):
            return Request(request_id=rid, arrival_s=0.0, prompt_len=8,
                           generate_len=1, session=session)

        homes = {s: router.choose(req(s), alive, loads) for s in range(32)}
        # Sticky: the same session always lands on the same replica.
        for s, home in homes.items():
            assert router.choose(req(s, rid=99), alive, loads) == home
        # Minimal disruption: removing replica 1 only re-homes replica 1's
        # sessions; everyone else stays put (rendezvous hashing).
        survivors = [0, 2, 3]
        for s, home in homes.items():
            rehomed = router.choose(req(s), survivors, loads)
            if home != 1:
                assert rehomed == home
            else:
                assert rehomed in survivors

    def test_make_router_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown routing policy"):
            make_router("random")

    def test_least_loaded_prefers_smallest_backlog(self):
        router = make_router("least-loaded")
        req = Request(request_id=0, arrival_s=0.0, prompt_len=8,
                      generate_len=1)
        loads = [ReplicaLoad(0, 4, 2.0), ReplicaLoad(1, 1, 0.5),
                 ReplicaLoad(2, 2, 1.0)]
        assert router.choose(req, [0, 1, 2], loads) == 1


# ----------------------------------------------------------------------
# Satellite 3: failover driven by a device-level FaultPlan
# ----------------------------------------------------------------------
class TestFailover:
    def test_fault_plan_kills_replica_and_reroutes(self, config, service_s):
        platform = get_platform("upmem")
        server = GenerationServer(platform, wimpy_host())
        obs.reset()
        stream = _stream(service_s, n=30, rho=2.5, seed=4)
        # Kill just after an arrival that round-robin sends to replica 0
        # (even index in arrival order), so work is mid-flight for sure.
        ordered = sorted(stream, key=lambda r: (r.arrival_s, r.request_id))
        t_kill = ordered[10].arrival_s + 1e-6
        plan = FaultPlan(failed_ranks=(3,))  # rank 3 lives in replica 0's pool
        failures = failures_from_fault_plan(plan, t_kill, platform.ranks)
        assert failures == [ReplicaFailure(0, t_kill, plan)]

        cluster = ClusterScheduler(server, config, replicas=2,
                                   failures=failures)
        res = cluster.run(stream)

        assert res.replica_failed_at == (t_kill, None)
        assert res.failovers > 0 and res.shed == 0
        assert res.completed + res.rejected == len(stream)
        # Re-routed requests completed on the surviving replica and their
        # latencies span the failure (original arrival is preserved).
        moved = [c for c in res.requests if c.failovers]
        assert moved and all(c.replica == 1 for c in moved)
        for c in moved:
            assert c.stats.finished_s > t_kill
            assert c.stats.arrival_s <= t_kill
        # Counters match the event log.
        snapshot = obs.get_registry().snapshot()
        failover_events = [e for e in res.events if e["kind"] == "failover"]
        assert snapshot["cluster.failovers"]["value"] == len(failover_events)
        assert snapshot["cluster.replica_failures"]["value"] == 1
        fail_events = [e for e in res.events if e["kind"] == "replica_failed"]
        assert fail_events[0]["fault_plan"] == plan.to_dict()
        obs.reset()

    def test_all_replicas_dead_sheds_remaining(self, server, config,
                                               service_s, cost):
        stream = _stream(service_s, n=20, rho=1.0, seed=2)
        t_kill = stream[6].arrival_s
        cluster = ClusterScheduler(
            server, config, replicas=2, cost_model=cost,
            failures=[ReplicaFailure(0, t_kill), ReplicaFailure(1, t_kill)],
        )
        res = cluster.run(stream)
        assert res.shed > 0
        assert res.completed + res.rejected + res.shed == len(stream)
        for c in res.requests:
            if c.shed:
                assert c.stats.rejected and c.replica == -1

    def test_degradation_slices_nest_cluster_over_replicas(self, config,
                                                           service_s):
        manager = RecoveryManager(FaultInjector(FaultPlan(failed_ranks=(0,))))
        server = GenerationServer(
            get_platform("upmem"), wimpy_host(), resilience=manager
        )
        stream = _stream(service_s, n=10, rho=0.8, seed=1)
        res = ClusterScheduler(server, config, replicas=2).run(stream)
        # The cluster scope encloses every replica scope: its slice is at
        # least each replica's slice, and the ladder did engage.
        assert res.degradation is not None and res.degradation.degraded
        for replica_result in res.replica_results:
            assert replica_result.degradation is not None
            assert res.degradation.remaps >= replica_result.degradation.remaps

    def test_failure_validation(self, server, config, cost):
        with pytest.raises(ValueError, match="targets replica"):
            ClusterScheduler(server, config, replicas=2, cost_model=cost,
                             failures=[ReplicaFailure(5, 1.0)])
        with pytest.raises(ValueError, match="duplicate"):
            ClusterScheduler(server, config, replicas=2, cost_model=cost,
                             failures=[ReplicaFailure(0, 1.0),
                                       ReplicaFailure(0, 2.0)])

    def test_prefill_server_needs_placement(self, server, config, cost):
        # Without a placement the replicas have no prefill pool, so the
        # prefill server would be dropped without a word.
        pool = HostPrefillPool(prefill_host())
        with pytest.raises(ValueError, match="needs a placement"):
            ClusterScheduler(server, config, cost_model=cost,
                             prefill_server=pool)
        cluster = ClusterScheduler(server, config, cost_model=cost,
                                   prefill_server=pool, placement="hybrid")
        assert all(s.prefill_cost.server is pool for s in cluster.schedulers)


# ----------------------------------------------------------------------
# Tentpole: sharding with explicit inter-node transfer costs
# ----------------------------------------------------------------------
class TestSharding:
    def test_shard_plan_splits_layers_near_evenly(self, config):
        plan = ShardPlan(config.with_(num_layers=7), shards=3,
                         interconnect=get_platform("upmem").scatter)
        assert plan.shard_layers == (3, 2, 2)
        assert sum(plan.shard_layers) == 7
        assert plan.boundaries == 2

    def test_transfer_cost_uses_bandwidth_model(self, config):
        platform = get_platform("upmem")
        plan = ShardPlan(config.with_(num_layers=4), shards=2,
                         interconnect=platform.scatter,
                         activation_dtype_bytes=4)
        tokens = 64
        expected = platform.scatter.latency(tokens * config.hidden_dim * 4)
        assert plan.transfer_s(tokens) == pytest.approx(expected)
        assert plan.transfer_s(0) == 0.0

    def test_sharded_cost_exceeds_unsharded_by_transfers(self, server,
                                                         config, cost):
        plan = ShardPlan(config, shards=2,
                         interconnect=server.platform.scatter,
                         activation_dtype_bytes=4)
        sharded = ShardedCostModel(server, plan)
        base_prefill = cost.prefill_s(64, 1)
        sharded_prefill = sharded.prefill_s(64, 1)
        assert sharded_prefill > base_prefill
        phases = sharded.prefill_phases(64, 1)
        assert phases["shard_transfer"] == pytest.approx(plan.transfer_s(64))
        decode_phases = sharded.decode_step_phases(4, 100)
        assert decode_phases["shard_transfer"] == pytest.approx(
            plan.transfer_s(4))

    def test_invalid_shard_counts_rejected(self, config):
        bw = get_platform("upmem").scatter
        with pytest.raises(ValueError):
            ShardPlan(config, shards=0, interconnect=bw)
        with pytest.raises(ValueError, match="cannot split"):
            ShardPlan(config, shards=5, interconnect=bw)

    def test_cost_model_must_price_the_cluster_shards(self, server, config,
                                                      cost):
        # An unsharded cost model would price one shard of the two.
        with pytest.raises(ValueError, match="prices 1 shard"):
            ClusterScheduler(server, config, replicas=1, shards=2,
                             cost_model=cost)
        plan = ShardPlan(config, shards=2,
                         interconnect=server.platform.scatter)
        sharded = ShardedCostModel(server, plan)
        with pytest.raises(ValueError, match="prices 2 shard"):
            ClusterScheduler(server, config, replicas=1, cost_model=sharded)
        cluster = ClusterScheduler(server, config, replicas=1, shards=2,
                                   cost_model=sharded)
        assert cluster.shard_plan is plan

    def test_cluster_run_reports_transfer_phase(self, server, config,
                                                service_s):
        stream = _stream(service_s, n=12, rho=0.8, seed=6)
        res = ClusterScheduler(server, config, replicas=1, shards=2).run(
            stream)
        assert res.shard_plan is not None
        assert "prefill/shard_transfer" in res.phase_seconds
        assert "decode/shard_transfer" in res.phase_seconds
        report = res.phase_attribution()
        assert "shard_transfer" in report.phase_seconds


# ----------------------------------------------------------------------
# Acceptance: goodput scales monotonically with replication at overload
# ----------------------------------------------------------------------
class TestGoodputScaling:
    def test_goodput_monotone_1_to_4_replicas_at_overload(self, server,
                                                          config, service_s,
                                                          cost):
        policy = SchedulerPolicy(max_batch_size=4, max_queue_len=16,
                                 slo_ttft_s=3 * service_s,
                                 slo_e2e_s=3 * service_s)
        points = cluster_load_sweep(
            server, config, replica_counts=(1, 2, 4), shard_counts=(1,),
            routers=("round-robin",), utilizations=(1.5,),
            num_requests=120, prompt_len=64, generate_len=16,
            policy=policy, seed=7,
        )
        goodputs = [p.result.goodput_rps for p in points]
        assert len(goodputs) == 3
        assert goodputs == sorted(goodputs)
        assert goodputs[-1] > goodputs[0]

    def test_sweep_cells_share_identical_streams(self, server, config,
                                                 service_s, cost):
        points = cluster_load_sweep(
            server, config, replica_counts=(1, 2), utilizations=(0.8,),
            num_requests=16, prompt_len=64, generate_len=16,
        )
        total = [p.result.completed + p.result.rejected + p.result.shed
                 for p in points]
        assert total == [16, 16]

    def test_sweep_validates_utilizations_upfront(self, server, config):
        """A bad rho anywhere in the list fails before any simulation —
        the explicit non-positive check, never truthiness (0.0 is an
        error, not a default), matching the serve-sim convention."""
        for bad in ((0.0,), (0.8, 0.0), (-1.5,)):
            with pytest.raises(ValueError,
                               match="utilizations must be positive"):
                cluster_load_sweep(server, config, utilizations=bad,
                                   num_requests=5)


# ----------------------------------------------------------------------
# obs: chrome-trace replica lanes and CLI
# ----------------------------------------------------------------------
class TestObservability:
    def test_chrome_trace_has_replica_lanes(self, server, config, service_s,
                                            cost):
        stream = _stream(service_s, n=16, rho=1.0, seed=8)
        t_kill = stream[5].arrival_s
        res = ClusterScheduler(
            server, config, replicas=2, cost_model=cost,
            failures=[ReplicaFailure(0, t_kill)],
        ).run(stream)
        document = obs.build_chrome_trace(clusters=[res])
        events = document["traceEvents"]
        lanes = {e["args"]["name"] for e in events
                 if e.get("name") == "thread_name"}
        assert any(lane.startswith("replica 0 (failed") for lane in lanes)
        assert "replica 1" in lanes
        request_events = [e for e in events
                          if e.get("ph") == "X" and e.get("cat") == "cluster"]
        assert len(request_events) == res.completed
        assert any(e["name"] == "replica_failed" for e in events)

    def test_serve_cluster_cli_sweep_json_monotone(self, capsys):
        import json

        from repro.cli import main

        code = main([
            "serve-cluster", "--model", "bert-base", "--layers", "1",
            "--sweep", "--replicas", "1,2,4", "--utilization", "1.5",
            "--requests", "48", "--prompt-len", "64", "--generate-len", "16",
            "--max-batch", "4", "--queue-cap", "16", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        points = payload["points"]
        assert [p["replicas"] for p in points] == [1, 2, 4]
        goodputs = [p["result"]["goodput_rps"] for p in points]
        assert goodputs == sorted(goodputs)
        assert goodputs[-1] > goodputs[0]

    def test_serve_cluster_cli_failover_run(self, capsys):
        import json

        from repro.cli import main

        code = main([
            "serve-cluster", "--model", "bert-base", "--layers", "1",
            "--replicas", "2", "--requests", "24", "--prompt-len", "64",
            "--generate-len", "16", "--fail-ranks", "2", "--fail-at", "0.4",
            "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        cluster = payload["cluster"]
        assert cluster["replica_failed_at"][0] == 0.4
        assert cluster["completed"] + cluster["rejected"] + \
            cluster["shed"] == 24

    def test_serve_cluster_cli_rejects_bad_args(self, capsys):
        from repro.cli import main

        assert main(["serve-cluster", "--routers", "random"]) == 2
        assert main(["serve-cluster", "--replicas", "1,2"]) == 2
        assert main(["serve-cluster", "--sweep", "--rate", "5"]) == 2
        assert main(["serve-cluster", "--fail-ranks", "0"]) == 2
        capsys.readouterr()

    def test_cluster_counters_accumulate(self, server, config, service_s,
                                         cost):
        obs.reset()
        stream = _stream(service_s, n=10, rho=0.8, seed=5)
        ClusterScheduler(server, config, replicas=2,
                         cost_model=cost).run(stream)
        snapshot = obs.get_registry().snapshot()
        assert snapshot["cluster.requests_routed"]["value"] == 10
        assert snapshot["cluster.runs"]["value"] == 1
        obs.reset()
