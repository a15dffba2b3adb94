"""Disaggregated prefill/decode pools with hybrid host<->PIM placement.

:class:`~repro.engine.scheduler.RequestScheduler` serializes prefill and
decode on one engine — the deployment the paper evaluates, and the right
baseline.  But the two phases want different hardware: prefill is a
batched GEMM workload that still favors a compute-rich device (the host
roofline, or a compute-configured PIM platform), while decode is the
bandwidth-bound LUT/GEMV regime that belongs on the DRAM-PIM side (the
Cho et al. memory-accelerator placement argument, PAPERS.md).  This
module models that split:

* a **prefill pool** — a serialized FIFO resource costed through its own
  :class:`~repro.engine.scheduler.EngineCostModel` (by default a second
  identical PIM engine; optionally a host roofline via
  :class:`HostPrefillPool` or any compute-configured server);
* a **decode pool** — the continuous-batching engine of
  ``RequestScheduler``, running concurrently with the prefill pool;
* an explicit **KV-cache migration** between them, charged through
  :class:`KVTransferModel` as a first-class ``kv_transfer`` phase
  (sibling to the cluster's ``shard_transfer``) whenever a request
  prefills on one pool and decodes on the other;
* pluggable **placement policies** — ``colocated`` (everything on the
  decode pool; numerically identical to ``RequestScheduler``),
  ``disaggregated`` (every prompt on the prefill pool), and ``hybrid``
  (per-request choice from prompt length, the live backlog of both
  pools, and the transfer cost).

Phase attribution keeps the exact-partition guarantee: the ``prefill/*``,
``decode/*`` and ``kv_transfer`` entries of
:attr:`~repro.engine.scheduler.ScheduleResult.phase_seconds` sum to
``busy_s`` (pool-busy plus transfer seconds) to float precision — the
:class:`~repro.engine.scheduler.EngineCostModel` behind both pools
rescales each engine phase report to its cost, so the invariant survives
engines whose phases drift from wall time (e.g. under transfer overlap).

Everything is instrumented under the ``disagg.*`` telemetry namespace and
the per-pool busy segments are exported for the Chrome-trace bridge's
pool lanes (:func:`repro.obs.bridge.schedule_to_chrome_events`).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .. import obs
from ..baselines.roofline import RooflineDevice
from ..pim.platforms import TransferBandwidth
from ..workloads.configs import TransformerConfig
from .engine import HostEngine
from .scheduler import (
    EngineCostModel,
    Request,
    RequestScheduler,
    ScheduleResult,
    SchedulerPolicy,
    _InFlight,
    _load_streams,
    _point_json,
)
from .serving import GenerationServer

__all__ = [
    "KV_TRANSFER_PHASE",
    "PLACEMENT_POLICIES",
    "KVTransferModel",
    "PoolSnapshot",
    "PlacementPolicy",
    "ColocatedPlacement",
    "DisaggregatedPlacement",
    "HybridPlacement",
    "make_placement",
    "HostPrefillPool",
    "DisaggScheduler",
    "DisaggSweepPoint",
    "disagg_load_sweep",
]

#: Phase key under which KV-cache migrations appear in phase breakdowns:
#: unprefixed, unlike the cluster's ``prefill/`` / ``decode/shard_transfer``.
KV_TRANSFER_PHASE = "kv_transfer"

#: Placement decisions a policy can return.
_POOL = "pool"
_COLOCATED = "colocated"


@dataclass(frozen=True)
class KVTransferModel:
    """Cost of migrating one request's KV cache between pools.

    After prefill, the request's KV cache is ``2 * num_layers * tokens *
    hidden_dim`` elements (K and V per layer); migrating it to the decode
    pool crosses ``interconnect`` — the same setup-latency + rate curve
    every other transfer in the repo uses (DynaNDE-style explicit
    activation movement, PAPERS.md).
    """

    config: TransformerConfig
    interconnect: TransferBandwidth
    #: Bytes per KV element; defaults to the platform's GEMM dtype at the
    #: construction sites.
    kv_dtype_bytes: int = 2

    def __post_init__(self) -> None:
        if self.kv_dtype_bytes <= 0:
            raise ValueError("kv_dtype_bytes must be positive")

    def kv_bytes(self, tokens: int, batch: int = 1) -> float:
        """KV-cache footprint of ``batch`` sequences ``tokens`` deep."""
        from .decode import kv_cache_bytes

        return kv_cache_bytes(
            self.config, tokens, batch=batch, dtype_bytes=self.kv_dtype_bytes
        )

    def transfer_s(self, tokens: int, batch: int = 1) -> float:
        """Seconds to migrate that KV cache across the interconnect."""
        if tokens <= 0:
            return 0.0
        return self.interconnect.latency(self.kv_bytes(tokens, batch))

    def to_jsonable(self) -> dict:
        return {
            "kv_dtype_bytes": self.kv_dtype_bytes,
            "interconnect_peak_bytes_per_s": self.interconnect.peak_bytes_per_s,
            "interconnect_setup_latency_s": self.interconnect.setup_latency_s,
        }


@dataclass(frozen=True)
class PoolSnapshot:
    """Live view a placement policy sees for one admission decision."""

    now: float
    #: Seconds until the prefill pool would start this request (exact:
    #: the pool is FIFO with deterministic job durations).
    prefill_pool_backlog_s: float
    #: Estimated seconds of work already committed to the decode pool
    #: (queued colocated prefills plus the longest in-flight decode tail).
    decode_pool_backlog_s: float
    #: This request's prefill cost on the prefill pool.
    pool_prefill_s: float
    #: This request's prefill cost if run colocated on the decode pool.
    colocated_prefill_s: float
    #: KV migration cost the pool path would charge.
    kv_transfer_s: float


class PlacementPolicy:
    """Decides, per request, which pool runs its prefill."""

    name = "base"

    def choose(self, request: Request, pools: PoolSnapshot) -> str:
        raise NotImplementedError


class ColocatedPlacement(PlacementPolicy):
    """Everything on the decode pool — the single-engine baseline."""

    name = "colocated"

    def choose(self, request: Request, pools: PoolSnapshot) -> str:
        return _COLOCATED


class DisaggregatedPlacement(PlacementPolicy):
    """Every prompt on the prefill pool, decode on the PIM pool."""

    name = "disaggregated"

    def choose(self, request: Request, pools: PoolSnapshot) -> str:
        return _POOL


class HybridPlacement(PlacementPolicy):
    """Per-request choice by estimated time-to-decode-ready.

    The pool path becomes decode-ready after the prefill pool's backlog,
    this prompt's prefill there, and the KV migration; the colocated path
    after the decode pool's committed backlog plus the prompt's prefill
    in-batch.  Prompt length enters through both prefill costs, the live
    backlog through both queue terms, and the migration through the
    transfer term — ties keep the request colocated, so an idle system
    never pays a transfer for nothing.
    """

    name = "hybrid"

    def choose(self, request: Request, pools: PoolSnapshot) -> str:
        pool_eta = (
            pools.prefill_pool_backlog_s
            + pools.pool_prefill_s
            + pools.kv_transfer_s
        )
        colocated_eta = pools.decode_pool_backlog_s + pools.colocated_prefill_s
        return _POOL if pool_eta < colocated_eta else _COLOCATED


PLACEMENT_POLICIES = {
    "colocated": ColocatedPlacement,
    "disaggregated": DisaggregatedPlacement,
    "hybrid": HybridPlacement,
}


def make_placement(
    placement: Union[str, PlacementPolicy],
) -> PlacementPolicy:
    """Resolve a policy name (or pass an instance through)."""
    if isinstance(placement, PlacementPolicy):
        return placement
    try:
        return PLACEMENT_POLICIES[placement]()
    except KeyError:
        known = ", ".join(sorted(PLACEMENT_POLICIES))
        raise ValueError(
            f"unknown placement policy {placement!r} (known: {known})"
        ) from None


class HostPrefillPool:
    """A ``GenerationServer``-shaped facade that prefills on a host roofline.

    Duck-types the one surface :class:`EngineCostModel` needs for prefill
    costing (``prefill_engine.run``), so a disaggregated prefill pool can
    be costed on the host roofline (or any
    :class:`~repro.baselines.roofline.RooflineDevice`, e.g.
    :func:`~repro.baselines.roofline.prefill_host`) instead of a second
    PIM engine.
    """

    def __init__(self, device: RooflineDevice):
        self.host = device
        self._prefill = HostEngine(device)

    @property
    def name(self) -> str:
        return f"host-prefill[{self.host.name}]"

    @property
    def prefill_engine(self):
        return self._prefill


class _PrefillPool:
    """One run's prefill-pool state, driven by the shared event loop.

    The pool is a serialized FIFO whose job durations are deterministic,
    so a prompt's whole pool schedule is known when it is placed.  Its
    KV migrations land through a heap keyed by landing time and then wait
    in ``ready`` for a decode-batch slot.
    """

    def __init__(self, sched: "DisaggScheduler", finish, add_phases):
        registry = obs.get_registry()
        self.sched = sched
        self.finish = finish
        #: Logs phase items into the run's phase totals.
        self.add_phases = add_phases
        #: Landed pool output awaiting a decode-batch slot, FIFO.
        self.ready: deque = deque()
        #: In-flight KV migrations: (ready_at, tiebreak, flight).
        self.transfers: List[Tuple[float, int, _InFlight]] = []
        self.timeline: List[Tuple[str, str, float, float]] = []
        #: Decode-pool segment label per batch size, built once per run.
        self.step_labels: Dict[int, str] = {}
        self.free_at = 0.0
        self.busy_s = 0.0
        self.kv_transfer_s = 0.0
        self.kv_transfers = 0
        self.prefill_tokens = 0
        self.placed_pool = registry.counter("disagg.placed_pool")
        self.placed_colocated = registry.counter("disagg.placed_colocated")
        self.prefills = registry.counter("disagg.pool_prefills")
        self.migrations = registry.counter("disagg.kv_transfers")
        self.migration_s = registry.histogram("disagg.kv_transfer_s")

    @property
    def pending(self) -> bool:
        return bool(self.ready or self.transfers)

    def landed(self, now: float) -> deque:
        """Pool output whose KV migration has landed by ``now``."""
        while self.transfers and self.transfers[0][0] <= now:
            self.ready.append(heapq.heappop(self.transfers)[2])
        return self.ready

    def place(self, r: Request, now: float, running: List[_InFlight]) -> bool:
        """Run the prompt on the pool if the placement policy says so."""
        sched = self.sched
        pools = PoolSnapshot(
            now=now,
            prefill_pool_backlog_s=max(0.0, self.free_at - now),
            decode_pool_backlog_s=sched._decode_backlog_s(running),
            pool_prefill_s=sched.prefill_cost.prefill(r.prompt_len, r.batch)[0],
            colocated_prefill_s=sched.cost.prefill(r.prompt_len, r.batch)[0],
            kv_transfer_s=(
                sched.kv.transfer_s(r.prompt_len, r.batch)
                if r.generate_len
                else 0.0
            ),
        )
        if sched.placement.choose(r, pools) != _POOL:
            return False
        duration = pools.pool_prefill_s
        if not duration > 0.0:
            # A NaN job would never land, and the idle loop would wait on it.
            raise ValueError(
                f"prefill-pool job priced at {duration!r} s (prompt tokens "
                f"{r.prompt_len}, batch {r.batch}): every step must take time"
            )
        self.placed_pool.inc()
        start = max(now, self.free_at)
        done = start + duration
        flight = _InFlight(
            request=r, admitted_s=now, prefilled=r.prompt_len,
            prefill_done_s=done, decode_ready=True,
        )
        self.free_at = done
        self.busy_s += duration
        self.prefill_tokens += r.prompt_len * r.batch
        self.add_phases(sched.prefill_cost.prefill(r.prompt_len, r.batch)[1])
        self.timeline.append(
            ("prefill_pool", f"prefill req {r.request_id}", start, done)
        )
        self.prefills.inc()
        if r.generate_len == 0:
            # Prefill-only request: done at the pool, no migration.
            self.finish(flight, done)
            return True
        migrate_s = pools.kv_transfer_s
        self.kv_transfer_s += migrate_s
        self.kv_transfers += 1
        self.add_phases(((KV_TRANSFER_PHASE, migrate_s),))
        self.migrations.inc()
        self.migration_s.observe(migrate_s)
        if migrate_s > 0:
            self.timeline.append(
                ("kv_transfer", f"kv req {r.request_id}", done, done + migrate_s)
            )
        heapq.heappush(
            self.transfers, (done + migrate_s, self.kv_transfers, flight)
        )
        return True

    def record_step(self, start: float, end: float, seqs: int) -> None:
        label = self.step_labels.get(seqs)
        if label is None:
            label = self.step_labels[seqs] = f"step[b={seqs}]"
        self.timeline.append(("decode_pool", label, start, end))

    def annotate(self, run_span) -> None:
        run_span.set_attribute("placement", self.sched.placement.name)
        run_span.set_attribute("kv_transfers", self.kv_transfers)

    def result_fields(self, decode_busy_s: float) -> dict:
        return {
            "busy_s": self.busy_s + decode_busy_s + self.kv_transfer_s,
            "placement": self.sched.placement.name,
            "kv_transfers": self.kv_transfers,
            "kv_transfer_s": self.kv_transfer_s,
            "prefill_pool_busy_s": self.busy_s,
            "decode_pool_busy_s": decode_busy_s,
            "pool_timeline": tuple(self.timeline),
        }


class DisaggScheduler(RequestScheduler):
    """Two-pool discrete-event scheduler with pluggable placement.

    A :class:`~repro.engine.scheduler.RequestScheduler` whose event loop
    also drives a prefill pool, so the cluster layer can drop it in per
    replica.  The decode pool is the single-engine scheduler's continuous
    batching itself; under the ``colocated`` policy no request ever
    touches the prefill pool, and the simulation is numerically identical
    to ``RequestScheduler`` (pinned to 1e-9 in ``tests/test_disagg.py``).

    Parameters
    ----------
    placement:
        Policy name (``colocated`` / ``disaggregated`` / ``hybrid``) or a
        :class:`PlacementPolicy` instance.
    prefill_server:
        Cost source for the prefill pool: another
        :class:`~repro.engine.serving.GenerationServer` (e.g. a
        compute-configured platform) or a :class:`HostPrefillPool`.
        ``None`` uses a second engine identical to ``server`` and shares
        its memoized prefill costs.

    The pool->pool KV migration (:attr:`kv`) crosses ``server``'s
    platform scatter path at its GEMM dtype, the interconnect the
    cluster's shard plan uses too.
    """

    _ns = "disagg"

    def __init__(
        self,
        server: GenerationServer,
        config: TransformerConfig,
        policy: Optional[SchedulerPolicy] = None,
        placement: Union[str, PlacementPolicy] = "hybrid",
        prefill_server=None,
        name: Optional[str] = None,
    ):
        super().__init__(server, config, policy=policy, name=name)
        self.placement = make_placement(placement)
        if prefill_server is None:
            # A second identical PIM engine: share the memoized costs.
            self.prefill_cost = self.cost
        else:
            self.prefill_cost = EngineCostModel(prefill_server, config)
        self.kv = KVTransferModel(
            config=config,
            interconnect=server.platform.scatter,
            kv_dtype_bytes=server.platform.gemm_dtype_bytes,
        )

    def run(self, requests: Sequence[Request]) -> ScheduleResult:
        """Simulate the stream across both pools; see the module docstring."""
        return self._simulate(requests)

    def _prefill_pool(self, finish, add_phases):
        return _PrefillPool(self, finish, add_phases)

    def _decode_backlog_s(self, running: List[_InFlight]) -> float:
        """Committed decode-pool work: queued colocated prefills plus the
        longest in-flight decode tail at today's batch shape (a live
        estimate — the actual step costs depend on future admissions)."""
        backlog = 0.0
        for f in running:
            if f.prefill_remaining > 0:
                backlog += self.cost.prefill(
                    f.prefill_remaining, f.request.batch
                )[0]
        decoding = [f for f in running if f.prefill_remaining <= 0]
        remaining = [
            f.request.generate_len - f.generated
            for f in decoding
            if f.request.generate_len > f.generated
        ]
        if remaining:
            seqs = sum(f.request.batch for f in decoding)
            total_ctx = sum(f.context_len * f.request.batch for f in decoding)
            step_s = self.cost.decode_step(seqs, total_ctx / seqs)[0]
            backlog += max(remaining) * step_s
        return backlog


@dataclass(frozen=True)
class DisaggSweepPoint:
    """One (placement, load) cell of :func:`disagg_load_sweep`."""

    placement: str
    target_utilization: float
    arrival_rate_rps: float
    result: ScheduleResult

    def to_jsonable(self) -> dict:
        return _point_json(self)


def disagg_load_sweep(
    server: GenerationServer,
    config: TransformerConfig,
    placements: Sequence[Union[str, PlacementPolicy]] = (
        "colocated", "disaggregated", "hybrid",
    ),
    utilizations: Sequence[float] = (0.6, 0.9, 1.2, 1.6),
    num_requests: int = 100,
    prompt_len: int = 128,
    generate_len: int = 64,
    batch: int = 1,
    policy: Optional[SchedulerPolicy] = None,
    prefill_server=None,
    arrivals: str = "poisson",
    seed: int = 0,
) -> List[DisaggSweepPoint]:
    """Colocated-vs-disaggregated sweep on identical seeded streams.

    Extends :func:`~repro.engine.scheduler.scheduler_load_sweep` across
    placement policies: every policy at one load level consumes the
    *identical* seeded stream, and load is normalized against the
    colocated FIFO service time for every policy, so goodput cells are
    directly comparable.  ``rho >= 1`` overloads the single colocated
    engine — the regime where the decode pool's freedom from prefill
    stalls shows up as retained goodput.
    """
    if not placements:
        raise ValueError("placements must name at least one policy")

    schedulers: Dict[str, DisaggScheduler] = {}
    shared: Optional[DisaggScheduler] = None
    for placement in placements:
        sched = DisaggScheduler(
            server,
            config,
            policy=policy,
            placement=placement,
            prefill_server=prefill_server,
        )
        if shared is None:
            shared = sched
        else:  # share the memoized engine costs across policies
            sched.cost = shared.cost
            sched.prefill_cost = shared.prefill_cost
        if sched.placement.name in schedulers:
            raise ValueError(
                f"duplicate placement policy {sched.placement.name!r}"
            )
        schedulers[sched.placement.name] = sched

    points: List[DisaggSweepPoint] = []
    for rho, rate, stream in _load_streams(
        shared, utilizations, num_requests, prompt_len, generate_len, batch,
        arrivals, seed,
    ):
        for name, sched in schedulers.items():
            points.append(
                DisaggSweepPoint(
                    placement=name,
                    target_utilization=float(rho),
                    arrival_rate_rps=rate,
                    result=sched.run(stream),
                )
            )
    return points
