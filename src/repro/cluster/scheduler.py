"""Discrete-event cluster simulator over N replica ``RequestScheduler``\\ s.

The ROADMAP's top open item above the single-node serving stack: compose
N replicas — each a :class:`~repro.engine.scheduler.RequestScheduler`
over its own DIMM pool, optionally layer-sharded across pools via
:class:`~repro.cluster.sharding.ShardPlan` — behind a pluggable router
(:mod:`repro.cluster.routing`), with replica failover.  "Accelerating
Bandwidth-Bound Deep Learning Inference with Main-Memory Accelerators"
(PAPERS.md) scales LUT-style inference across memory accelerators exactly
this way; the replication-vs-shard tradeoff it surfaces is what
:func:`cluster_load_sweep` reproduces.

The simulation is compositional, in three steps:

1. **Route.**  Arrivals are walked in time order.  The router sees the
   alive replicas and a *virtual* load view per replica — queue depth and
   backlog seconds accumulated from FIFO service-time estimates — and
   assigns each request to one replica.  Replica failures interleave with
   this walk at their failure times.
2. **Fail over.**  When a replica fails at ``t_f``, its (now final)
   substream is simulated; requests that finished at or before ``t_f``
   keep their stats, the rest re-enter routing at ``t_f`` with their
   arrival re-stamped (original arrival is restored in the aggregate, so
   user-perceived latency includes the time lost on the dead replica).
   Failures are processed in ascending ``t_f`` order, so cascades
   terminate; with no replica left alive, requests are *shed*.
3. **Aggregate.**  Surviving replicas simulate their final substreams
   independently (exact: replicas share no state after routing), and
   cluster percentiles/goodput are recomputed from the union of
   per-request stats with the same order statistics the single-node
   scheduler uses.  A 1-replica unsharded cluster is therefore
   numerically identical to a bare ``RequestScheduler`` run — the parity
   test in ``tests/test_cluster.py`` pins this to 1e-9.

Caveats, by construction: a failed replica's :class:`ScheduleResult` in
:attr:`ClusterResult.replica_results` is its *counterfactual full* run
(only stats up to ``t_f`` enter cluster aggregates; its busy/step counts
are capped at ``t_f`` in the aggregate), and all replicas are homogeneous
— they share one :class:`~repro.engine.serving.GenerationServer` cost
model, since per-replica DIMM pools are identical hardware.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .. import obs
from ..engine.scheduler import (
    EngineCostModel,
    Request,
    RequestScheduler,
    RequestStats,
    ScheduleResult,
    SchedulerPolicy,
    _latency_fields,
    _load_streams,
    _ordered,
    _point_json,
    _ServingSummary,
    _stats,
)
from ..engine.serving import GenerationServer
from ..resilience.faults import FaultPlan
from ..resilience.recovery import DegradationSummary, _DegradationScope
from ..workloads.configs import TransformerConfig
from .routing import ReplicaLoad, Router, make_router
from .sharding import ShardPlan, ShardedCostModel

__all__ = [
    "ReplicaFailure",
    "failures_from_fault_plan",
    "ClusterRequestStats",
    "ClusterResult",
    "ClusterScheduler",
    "ClusterSweepPoint",
    "cluster_load_sweep",
]


@dataclass(frozen=True)
class ReplicaFailure:
    """Whole-replica failure at a wall-clock instant.

    ``plan`` optionally carries the device-level
    :class:`~repro.resilience.faults.FaultPlan` that killed the replica
    (e.g. fatal rank failures in its DIMM pool); it is recorded in the
    cluster event log for auditability.
    """

    replica: int
    at_s: float
    plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.replica < 0:
            raise ValueError("replica must be non-negative")
        if self.at_s < 0:
            raise ValueError("at_s must be non-negative")


def failures_from_fault_plan(
    plan: FaultPlan, at_s: float, ranks_per_replica: int
) -> List[ReplicaFailure]:
    """Map a device-level fault plan to cluster-level replica failures.

    Each replica owns a contiguous pool of ``ranks_per_replica`` DRAM
    ranks; a plan whose ``failed_ranks`` hit a pool kills that replica at
    ``at_s`` (without a per-replica
    :class:`~repro.resilience.recovery.RecoveryManager` a rank failure is
    fatal at launch — the cluster's failover takes over where the
    device-level ladder ends).
    """
    if ranks_per_replica <= 0:
        raise ValueError("ranks_per_replica must be positive")
    hit = sorted({rank // ranks_per_replica for rank in plan.failed_ranks})
    return [ReplicaFailure(replica=r, at_s=at_s, plan=plan) for r in hit]


def _replica_cost(
    server: GenerationServer, config: TransformerConfig, shards: int
) -> EngineCostModel:
    """Memoized cost model of one replica, layer-split across ``shards``
    pools joined by the platform's scatter path at its GEMM dtype."""
    if shards == 1:
        return EngineCostModel(server, config)
    platform = server.platform
    plan = ShardPlan(
        config=config,
        shards=shards,
        interconnect=platform.scatter,
        activation_dtype_bytes=platform.gemm_dtype_bytes,
    )
    return ShardedCostModel(server, plan)


@dataclass(frozen=True)
class ClusterRequestStats:
    """One request's cluster-level outcome.

    ``replica`` is the replica that completed (or rejected) it, ``-1``
    when the request was shed because no replica was alive.  ``stats``
    carries the per-request latencies with ``arrival_s`` restored to the
    *original* arrival even after failover, so TTFT/e2e are
    user-perceived.
    """

    replica: int
    failovers: int
    stats: RequestStats

    @property
    def request_id(self) -> int:
        return self.stats.request_id

    @property
    def shed(self) -> bool:
        return self.replica < 0


@dataclass(frozen=True)
class ClusterResult(_ServingSummary):
    """Aggregate outcome of one cluster run over a request stream.

    Shares its latency/SLO/attribution code with ``ScheduleResult``.
    """

    router: str
    replicas: int
    shards: int
    #: Requests dropped because no replica was alive when they (re-)arrived.
    shed: int
    #: Re-route events (one per request per replica failure it survived).
    failovers: int
    #: Per-replica single-node results (a failed replica's entry is its
    #: counterfactual full run; see the module docstring).
    replica_results: Tuple[ScheduleResult, ...]
    replica_routed: Tuple[int, ...]
    #: Peak router-observed virtual queue depth per replica.
    replica_max_queue_depth: Tuple[int, ...]
    replica_failed_at: Tuple[Optional[float], ...]
    requests: Tuple[ClusterRequestStats, ...]
    #: Audit log: ``{"kind": "failover"|"shed"|"replica_failed", ...}``.
    events: Tuple[Dict[str, object], ...]
    shard_plan: Optional[ShardPlan] = None
    #: Cluster-scope degradation slice (encloses every replica's scope)
    #: when the server runs resilient; None otherwise.
    degradation: Optional[DegradationSummary] = None
    #: Phase attribution summed across replicas, same keys as
    #: :attr:`ScheduleResult.phase_seconds`; a sharded cluster adds
    #: ``prefill/shard_transfer`` and ``decode/shard_transfer``
    #: (:meth:`phase_attribution` merges them into ``shard_transfer``).
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def utilization(self) -> float:
        """Busy fraction of the cluster's replica-seconds."""
        denom = self.replicas * self.makespan_s
        return self.busy_s / denom if denom > 0 else 0.0

    def _request_stats(self):
        # A shed request's stats are marked rejected.
        return (c.stats for c in self.requests)

    @property
    def max_queue_depth(self) -> int:
        return max(self.replica_max_queue_depth, default=0)

    def to_jsonable(self) -> dict:
        return {
            **self._summary_json(),
            "router": self.router,
            "replicas": self.replicas,
            "shards": self.shards,
            "shed": self.shed,
            "failovers": self.failovers,
            "replica_routed": list(self.replica_routed),
            "replica_max_queue_depth": list(self.replica_max_queue_depth),
            "replica_failed_at": list(self.replica_failed_at),
            "max_queue_depth": self.max_queue_depth,
            "shard_plan": (
                self.shard_plan.to_jsonable() if self.shard_plan else None
            ),
            "events": [dict(e) for e in self.events],
        }


class ClusterScheduler:
    """N replica schedulers behind a router, with failover.

    Replicas are homogeneous: each serves the full model on its own DIMM
    pool (``shards == 1``) or layer-sharded across ``shards`` pools, and
    all share one memoized cost model through the common ``server``.

    ``router`` is a policy name (see
    :data:`~repro.cluster.routing.ROUTER_POLICIES`) or a
    :class:`~repro.cluster.routing.Router` instance; ``failures`` is a
    sequence of :class:`ReplicaFailure` (build them from a
    :class:`~repro.resilience.faults.FaultPlan` with
    :func:`failures_from_fault_plan`).

    ``placement`` switches every replica from a single-engine
    :class:`~repro.engine.scheduler.RequestScheduler` to a two-pool
    :class:`~repro.engine.disagg.DisaggScheduler` under that placement
    policy; ``prefill_server`` sets each replica's prefill pool, so it
    needs a ``placement`` (replicas stay homogeneous and share both
    memoized cost models).  ``cost_model`` replaces the replica cost model
    built from ``shards``; it must price that many shards.
    """

    def __init__(
        self,
        server: GenerationServer,
        config: TransformerConfig,
        replicas: int = 2,
        shards: int = 1,
        policy: Optional[SchedulerPolicy] = None,
        router: Union[str, Router] = "round-robin",
        failures: Sequence[ReplicaFailure] = (),
        seed: int = 0,
        cost_model: Optional[EngineCostModel] = None,
        placement: Optional[str] = None,
        prefill_server=None,
    ):
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if prefill_server is not None and placement is None:
            raise ValueError(
                "prefill_server needs a placement: without one, replicas "
                "have no prefill pool"
            )
        self.server = server
        self.config = config
        self.replicas = replicas
        self.shards = shards
        self.policy = policy or SchedulerPolicy()
        self.router = make_router(router) if isinstance(router, str) else router
        self.seed = seed

        by_replica: Dict[int, ReplicaFailure] = {}
        for f in failures:
            if f.replica >= replicas:
                raise ValueError(
                    f"failure targets replica {f.replica} but the cluster "
                    f"has {replicas}"
                )
            if f.replica in by_replica:
                raise ValueError(f"duplicate failure for replica {f.replica}")
            by_replica[f.replica] = f
        self.failures: Tuple[ReplicaFailure, ...] = tuple(
            sorted(by_replica.values(), key=lambda f: (f.at_s, f.replica))
        )

        if cost_model is None:
            cost_model = _replica_cost(server, config, shards)
        self.cost = cost_model
        self.shard_plan: Optional[ShardPlan] = getattr(cost_model, "plan", None)
        priced = self.shard_plan.shards if self.shard_plan else 1
        if priced != shards:
            raise ValueError(
                f"cost_model prices {priced} shard(s) but the cluster has "
                f"shards={shards}"
            )

        self.placement = placement
        self.schedulers: List[RequestScheduler] = []
        # Replicas are homogeneous: they share the memoized engine costs,
        # the prefill pool's included.
        prefill_cost = self.cost if prefill_server is None else None
        for r in range(replicas):
            if placement is None:
                sched = RequestScheduler(
                    server, config, policy=self.policy, name=f"replica{r}"
                )
            else:
                from ..engine.disagg import DisaggScheduler

                sched = DisaggScheduler(
                    server,
                    config,
                    policy=self.policy,
                    placement=placement,
                    prefill_server=prefill_server,
                    name=f"replica{r}",
                )
                if prefill_cost is None:
                    prefill_cost = sched.prefill_cost
                sched.prefill_cost = prefill_cost
            sched.cost = self.cost
            self.schedulers.append(sched)

    # ------------------------------------------------------------------
    def fifo_service_time(self, request: Request) -> float:
        """Unbatched service time on one replica (includes shard transfers)."""
        return self.schedulers[0].fifo_service_time(request)

    # ------------------------------------------------------------------
    def run(self, requests: Sequence[Request]) -> ClusterResult:
        """Simulate the stream across the cluster; see the module docstring."""
        registry = obs.get_registry()
        tracer = obs.get_tracer()
        ordered = _ordered(requests)
        R = self.replicas

        self.router.reset(R, seed=self.seed)
        fail_at = {f.replica: f.at_s for f in self.failures}

        busy_until = [0.0] * R
        finish_heaps: List[List[float]] = [[] for _ in range(R)]
        assignments: List[List[Request]] = [[] for _ in range(R)]
        routed_count = [0] * R
        max_depth = [0] * R
        failover_count: Dict[int, int] = {r.request_id: 0 for r in ordered}
        events: List[Dict[str, object]] = []
        shed_ids: set = set()
        final: Dict[int, Tuple[int, RequestStats]] = {}
        results: Dict[int, ScheduleResult] = {}

        def queue_depth(rep: int, now: float) -> int:
            h = finish_heaps[rep]
            while h and h[0] <= now:
                heapq.heappop(h)
            return len(h)

        def alive_at(now: float) -> List[int]:
            return [r for r in range(R) if r not in fail_at or now < fail_at[r]]

        def assign(req: Request, now: float, failed_from: Optional[int]) -> None:
            alive = alive_at(now)
            if not alive:
                shed_ids.add(req.request_id)
                registry.counter("cluster.shed").inc()
                events.append(
                    {"kind": "shed", "request_id": req.request_id, "at_s": now}
                )
                return
            loads = [
                ReplicaLoad(
                    replica=r,
                    queue_depth=queue_depth(r, now),
                    backlog_s=max(0.0, busy_until[r] - now),
                )
                for r in alive
            ]
            target = self.router.choose(req, alive, loads)
            if target not in set(alive):
                raise RuntimeError(
                    f"router {self.router.name!r} chose dead replica {target}"
                )
            est = self.schedulers[target].fifo_service_time(req)
            busy_until[target] = max(busy_until[target], now) + est
            heapq.heappush(finish_heaps[target], busy_until[target])
            max_depth[target] = max(max_depth[target], queue_depth(target, now))
            assignments[target].append(req)
            routed_count[target] += 1
            registry.counter("cluster.requests_routed").inc()
            registry.histogram(
                "cluster.router_backlog_s", (0.01, 0.1, 1.0, 10.0, 100.0)
            ).observe(max(0.0, busy_until[target] - now) - est)
            if failed_from is not None:
                events.append(
                    {
                        "kind": "failover",
                        "request_id": req.request_id,
                        "from": failed_from,
                        "to": target,
                        "at_s": now,
                    }
                )

        def simulate(rep: int, **attributes) -> ScheduleResult:
            with tracer.span("cluster.replica", replica=rep, **attributes):
                results[rep] = self.schedulers[rep].run(assignments[rep])
            return results[rep]

        def process_failure(failure: ReplicaFailure) -> None:
            rep, t_f = failure.replica, failure.at_s
            events.append(
                {
                    "kind": "replica_failed",
                    "replica": rep,
                    "at_s": t_f,
                    "fault_plan": (
                        failure.plan.to_dict() if failure.plan else None
                    ),
                }
            )
            registry.counter("cluster.replica_failures").inc()
            # The dead replica's substream is final: arrivals after t_f
            # can never route here.  Simulate it fully; keep only what
            # finished at or before the failure.
            res = simulate(rep, failed_at_s=t_f)
            by_id = {s.request_id: s for s in res.requests}
            moved: List[Request] = []
            for req in assignments[rep]:
                s = by_id[req.request_id]
                if s.rejected or s.finished_s <= t_f:
                    final[req.request_id] = (rep, s)
                else:
                    moved.append(req)
            for req in sorted(moved, key=lambda q: (q.arrival_s, q.request_id)):
                failover_count[req.request_id] += 1
                registry.counter("cluster.failovers").inc()
                assign(replace(req, arrival_s=t_f), t_f, failed_from=rep)

        with _DegradationScope(self.server.resilience, "cluster.run") as scope, tracer.span(
            "cluster.run",
            replicas=R,
            shards=self.shards,
            router=self.router.name,
            requests=len(ordered),
        ) as run_span:
            # Route arrivals in time order, interleaving failures.
            pending = deque(self.failures)
            for req in ordered:
                while pending and pending[0].at_s <= req.arrival_s:
                    process_failure(pending.popleft())
                assign(req, req.arrival_s, failed_from=None)
            while pending:
                process_failure(pending.popleft())

            # Simulate surviving replicas on their final substreams.
            for rep in range(R):
                if rep not in fail_at:
                    for s in simulate(rep).requests:
                        final[s.request_id] = (rep, s)

            run_span.set_attribute("failovers", sum(failover_count.values()))
            run_span.set_attribute("shed", len(shed_ids))

        degradation = scope.summary

        # ----------------------------------------------------------
        # Aggregate: union of per-request stats, original arrivals.
        # ----------------------------------------------------------
        cluster_requests: List[ClusterRequestStats] = []
        for req in ordered:
            rid = req.request_id
            if rid not in final and rid not in shed_ids:
                raise RuntimeError(
                    f"request {rid} lost by the cluster simulation"
                )
            rep, s = (
                final[rid] if rid in final else (-1, _stats(req, rejected=True))
            )
            if s.arrival_s != req.arrival_s:
                s = replace(s, arrival_s=req.arrival_s)
            cluster_requests.append(
                ClusterRequestStats(
                    replica=rep, failovers=failover_count[rid], stats=s
                )
            )

        # A shed request's stats are marked rejected too.
        done = [c.stats for c in cluster_requests if not c.stats.rejected]
        shed = sum(1 for c in cluster_requests if c.shed)
        rejected = len(cluster_requests) - len(done) - shed
        failovers = sum(failover_count.values())

        # A failed replica contributes to the cluster timeline only up to
        # its failure instant; its counterfactual tail is discarded.
        makespans: List[float] = []
        busy_total = 0.0
        steps_total = 0
        phase_totals: Dict[str, float] = {}
        for rep, res in results.items():
            t_f = fail_at.get(rep)
            if t_f is None:
                makespans.append(res.makespan_s)
                busy_total += res.busy_s
                steps_total += res.steps
                for key, seconds in res.phase_seconds.items():
                    phase_totals[key] = phase_totals.get(key, 0.0) + seconds
            else:
                makespans.append(min(res.makespan_s, t_f))
                busy_total += min(res.busy_s, t_f)
                steps_total += sum(
                    1 for t, _ in res.occupancy_timeline if t <= t_f
                )

        registry.counter("cluster.runs").inc()
        registry.series("cluster.completed").append(float(len(done)))

        return ClusterResult(
            router=self.router.name,
            replicas=R,
            shards=self.shards,
            policy=self.policy,
            completed=len(done),
            rejected=rejected,
            shed=shed,
            failovers=failovers,
            steps=steps_total,
            makespan_s=max(makespans, default=0.0),
            busy_s=busy_total,
            prefill_tokens=sum(s.batch * s.prompt_len for s in done),
            generated_tokens=sum(s.batch * s.generate_len for s in done),
            **_latency_fields(done),
            replica_results=tuple(results[r] for r in sorted(results)),
            replica_routed=tuple(routed_count),
            replica_max_queue_depth=tuple(max_depth),
            replica_failed_at=tuple(fail_at.get(r) for r in range(R)),
            requests=tuple(cluster_requests),
            events=tuple(events),
            shard_plan=self.shard_plan,
            degradation=degradation,
            phase_seconds=phase_totals,
        )


@dataclass(frozen=True)
class ClusterSweepPoint:
    """One cell of :func:`cluster_load_sweep`."""

    replicas: int
    shards: int
    router: str
    target_utilization: float
    arrival_rate_rps: float
    result: ClusterResult

    def to_jsonable(self) -> dict:
        return _point_json(self)


def cluster_load_sweep(
    server: GenerationServer,
    config: TransformerConfig,
    replica_counts: Sequence[int] = (1, 2, 4),
    shard_counts: Sequence[int] = (1,),
    routers: Sequence[str] = ("round-robin",),
    utilizations: Sequence[float] = (0.8, 1.5),
    num_requests: int = 200,
    prompt_len: int = 128,
    generate_len: int = 32,
    batch: int = 1,
    policy: Optional[SchedulerPolicy] = None,
    arrivals: str = "poisson",
    seed: int = 0,
    sessions: Optional[int] = None,
) -> List[ClusterSweepPoint]:
    """Sweep replicas x shards x routing policy over load levels.

    Utilization targets are normalized against the FIFO service time of
    one request on a *single unsharded replica* — the same normalization
    :func:`~repro.engine.scheduler.scheduler_load_sweep` uses — so
    ``rho >= 1`` overloads one replica and the sweep shows how
    replication recovers goodput while sharding trades per-request
    latency for pool capacity.  Every cell at one load level consumes the
    *identical* seeded stream, so cells are directly comparable.
    """
    reference = RequestScheduler(server, config, policy=policy)
    streams = _load_streams(
        reference, utilizations, num_requests, prompt_len, generate_len,
        batch, arrivals, seed, sessions=sessions,
    )

    # One shared cost model per shard count: replicas are homogeneous and
    # the sweep amortizes the engine costing across every cell.
    costs: Dict[int, EngineCostModel] = {1: reference.cost}
    for shards in shard_counts:
        if shards not in costs:
            costs[shards] = _replica_cost(server, config, shards)

    points: List[ClusterSweepPoint] = []
    for rho, rate, stream in streams:
        for shards in shard_counts:
            for replicas in replica_counts:
                for router in routers:
                    cluster = ClusterScheduler(
                        server,
                        config,
                        replicas=replicas,
                        shards=shards,
                        policy=policy,
                        router=router,
                        seed=seed,
                        cost_model=costs[shards],
                    )
                    points.append(
                        ClusterSweepPoint(
                            replicas=replicas,
                            shards=shards,
                            router=router,
                            target_utilization=rho,
                            arrival_rate_rps=rate,
                            result=cluster.run(stream),
                        )
                    )
    return points
