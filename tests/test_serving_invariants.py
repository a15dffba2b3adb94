"""Serving invariants over the whole scheduler x flag matrix.

Every serving scheduler — :class:`~repro.engine.RequestScheduler`,
:class:`~repro.engine.DisaggScheduler` (colocated and hybrid placement)
and :class:`~repro.cluster.ClusterScheduler` (2 replicas, 2 shards,
hybrid replicas) — must keep two invariants on every combination of
transfer overlap, chunked prefill and resilience:

* its phase seconds partition its busy seconds (1e-9);
* every offered request is completed, rejected or shed exactly once.

The telemetry half pins that the single-pool and two-pool schedulers
record the same ``<ns>.*`` counters and latency histograms, and that
``requests_admitted`` counts every admission into the decode batch.
"""

import pytest

from repro import obs
from repro.baselines import wimpy_host
from repro.cluster import ClusterScheduler, ShardedCostModel, ShardPlan
from repro.engine import (
    DisaggScheduler,
    EngineCostModel,
    GenerationServer,
    Request,
    RequestScheduler,
    SchedulerPolicy,
    poisson_requests,
)
from repro.pim import get_platform
from repro.resilience import FaultInjector, FaultPlan, RecoveryManager
from repro.workloads import EVAL_MODELS

CONFIG = EVAL_MODELS["bert-base"].with_(num_layers=2)
KINDS = (
    "request",
    "disagg-colocated",
    "disagg-hybrid",
    "cluster-2-replicas",
    "cluster-2-shards",
    "cluster-hybrid",
)
#: Names only the two-pool scheduler records (its prefill pool).
POOL_ONLY = {"placed_pool", "placed_colocated", "pool_prefills",
             "kv_transfers", "kv_transfer_s"}


@pytest.fixture(scope="module")
def backend():
    """``backend(overlap, resilient)``: one server and its shared cost
    models per (overlap, resilience), built on first use."""
    built = {}

    def get(overlap, resilient):
        if (overlap, resilient) not in built:
            manager = (
                RecoveryManager(FaultInjector(FaultPlan(failed_ranks=(0,))))
                if resilient else None
            )
            server = GenerationServer(get_platform("upmem"), wimpy_host(),
                                      resilience=manager, overlap=overlap)
            plan = ShardPlan(
                CONFIG, shards=2, interconnect=server.platform.scatter,
                activation_dtype_bytes=server.platform.gemm_dtype_bytes)
            built[overlap, resilient] = (
                server, EngineCostModel(server, CONFIG),
                ShardedCostModel(server, plan))
        return built[overlap, resilient]

    return get


@pytest.fixture(scope="module")
def stream(backend):
    server, cost, _ = backend(False, False)
    base = RequestScheduler(server, CONFIG)
    base.cost = cost
    probe = Request(request_id=-1, arrival_s=0.0, prompt_len=64,
                    generate_len=8)
    rate = 1.5 / base.fifo_service_time(probe)
    return poisson_requests(12, rate, prompt_len=[32, 64, 96],
                            generate_len=[4, 8, 12], seed=3)


def _scheduler(kind, server, cost, sharded, policy):
    if kind == "request":
        sched = RequestScheduler(server, CONFIG, policy=policy)
    elif kind.startswith("disagg-"):
        sched = DisaggScheduler(server, CONFIG, policy=policy,
                                placement=kind.split("-", 1)[1])
        sched.prefill_cost = cost
    elif kind == "cluster-2-shards":
        return ClusterScheduler(server, CONFIG, replicas=1, shards=2,
                                policy=policy, cost_model=sharded)
    else:
        placement = "hybrid" if kind == "cluster-hybrid" else None
        return ClusterScheduler(server, CONFIG, replicas=2, policy=policy,
                                cost_model=cost, placement=placement)
    sched.cost = cost
    return sched


@pytest.mark.parametrize("resilient", [False, True],
                         ids=["plain", "resilient"])
@pytest.mark.parametrize("chunked", [False, True], ids=["whole", "chunked"])
@pytest.mark.parametrize("overlap", [False, True], ids=["seq", "overlap"])
@pytest.mark.parametrize("kind", KINDS)
def test_phases_partition_busy_and_requests_are_conserved(
    backend, stream, kind, overlap, chunked, resilient
):
    server, cost, sharded = backend(overlap, resilient)
    policy = SchedulerPolicy(max_batch_size=4, chunked_prefill=chunked,
                             prefill_chunk=32)
    result = _scheduler(kind, server, cost, sharded, policy).run(stream)

    assert result.busy_s > 0
    residual = abs(sum(result.phase_seconds.values()) - result.busy_s)
    assert residual <= 1e-9, f"phase residual {residual:.3e} s"
    outcomes = result.completed + result.rejected + getattr(result, "shed", 0)
    assert outcomes == len(stream)


def _namespace(snapshot, ns):
    prefix = ns + "."
    return {name[len(prefix):]: value for name, value in snapshot.items()
            if name.startswith(prefix)}


class TestTelemetryNamespaces:
    @pytest.fixture()
    def recorded(self, backend, stream):
        """``{label: (result, {metric: snapshot})}``, one run per label."""
        server, cost, _ = backend(False, False)
        policy = SchedulerPolicy(max_batch_size=4)
        out = {}
        for label, kind, ns in (("scheduler", "request", "scheduler"),
                                ("disagg", "disagg-colocated", "disagg"),
                                ("hybrid", "disagg-hybrid", "disagg")):
            obs.reset()
            result = _scheduler(kind, server, cost, None, policy).run(stream)
            snapshot = obs.get_registry().snapshot()
            out[label] = (result, _namespace(snapshot, ns))
        obs.reset()
        return out

    def test_both_namespaces_record_the_same_instruments(self, recorded):
        single = set(recorded["scheduler"][1])
        for ns in ("disagg", "hybrid"):
            pooled = set(recorded[ns][1])
            assert pooled - POOL_ONLY == single, ns
        for name in ("ttft_s", "tpot_s", "e2e_s"):
            assert recorded["scheduler"][1][name]["type"] == "histogram"
            for ns in ("disagg", "hybrid"):
                assert recorded[ns][1][name]["count"] == len(
                    recorded[ns][0].requests)

    def test_colocated_disagg_counts_match_the_single_pool(self, recorded):
        single = recorded["scheduler"][1]
        colocated = recorded["disagg"][1]
        for name, snap in single.items():
            if snap["type"] == "counter":
                assert colocated[name]["value"] == snap["value"], name
            elif snap["type"] == "histogram":
                assert colocated[name]["count"] == snap["count"], name

    def test_requests_admitted_counts_every_decode_admission(self, recorded):
        for ns in ("scheduler", "disagg", "hybrid"):
            result, metrics = recorded[ns]
            # Every request decodes (generate_len > 0), so each one was
            # admitted into the decode batch exactly once.
            assert metrics["requests_admitted"]["value"] == result.completed
        hybrid = recorded["hybrid"][1]
        assert hybrid["placed_pool"]["value"] > 0


@pytest.mark.parametrize("cls", [RequestScheduler, DisaggScheduler])
def test_duplicate_request_ids_rejected(backend, cls):
    server, cost, _ = backend(False, False)
    sched = cls(server, CONFIG)
    sched.cost = cost
    twins = [Request(request_id=i, arrival_s=0.01 * n, prompt_len=16,
                     generate_len=2) for n, i in enumerate([0, 0, 1])]
    with pytest.raises(ValueError, match="unique"):
        sched.run(twins)
