"""Continuous-batching request scheduler over the generation cost model.

:mod:`repro.engine.queueing` answers "what happens under load" for a
single-server FIFO with one fixed service time.  Real LLM serving does not
work that way: requests with different prompt and generation lengths share
one engine, new arrivals are *admitted into the running batch* while
earlier requests are still decoding, and every decode step's cost depends
on the batch size and context lengths at that instant.  This module is a
discrete-event simulator of that discipline (iteration-level scheduling, as
in Orca/vLLM) driving the :class:`~repro.engine.serving.GenerationServer`
cost model:

* requests carry ``(arrival time, prompt_len, generate_len, batch hint)``;
* an admission policy caps the running batch by sequence count and total
  context tokens, with a bounded wait queue (overflow rejects);
* each scheduler step optionally prefills newly admitted prompts (whole
  prompts, or ``prefill_chunk``-token chunks interleaved with decoding)
  and runs one decode iteration for every in-flight sequence;
* decode iterations are re-costed through the server's
  :class:`~repro.engine.decode.LUTDecodeEngine` at the step's *actual*
  effective batch size and mean context length — not the single
  average-context approximation ``GenerationServer.run`` uses for a lone
  request;
* per-request TTFT / TPOT / end-to-end latencies, SLO goodput, and the
  batch-occupancy timeline come out the other end.

One event loop serves every scheduler:
:class:`~repro.engine.disagg.DisaggScheduler` runs it with a prefill pool
attached, and the cluster's replicas run it unchanged.  A step pays for
the step itself: one memoized cost lookup per prefill chunk and one per
decode iteration, their phase additions, and the step's span.  What
touches single flights — an admission, a prefill completion, a finish —
is paid per event: the loop keeps the batch's sums as flights come and
go, so a step that only decodes costs the same at any batch size.

Everything is instrumented through :mod:`repro.obs` (``scheduler.*``
counters/histograms/series, a span per scheduler step) and is compatible
with :class:`~repro.resilience.recovery.RecoveryManager`: a resilient
server's engines run their recovery ladder inside the cost model, and the
run-level degradation is accounted through the ledger's exclusive request
scope (at the batch level — per-request slicing is unsound once requests
interleave, which the ledger itself enforces).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import obs
from ..obs.metrics import left_sum, percentiles
from ..resilience.recovery import DegradationSummary, _DegradationScope
from ..workloads.configs import TransformerConfig
from .queueing import generate_arrivals
from .serving import GenerationServer


@dataclass(frozen=True)
class Request:
    """One generation request in the arrival stream.

    ``batch`` is the request's batch hint: the number of sequences it
    bundles (a client-side batched call).  It occupies ``batch`` slots of
    the running batch and generates ``batch * generate_len`` tokens.

    ``session`` is an optional client-session tag.  The single-node
    scheduler ignores it; the cluster router's session-affinity policy
    (:mod:`repro.cluster.routing`) keeps requests of one session on one
    replica.
    """

    request_id: int
    arrival_s: float
    prompt_len: int
    generate_len: int
    batch: int = 1
    session: Optional[int] = None

    def __post_init__(self) -> None:
        if self.arrival_s < 0:
            raise ValueError("arrival_s must be non-negative")
        if self.prompt_len <= 0:
            raise ValueError(f"prompt_len must be positive, got {self.prompt_len}")
        if self.generate_len < 0:
            raise ValueError("generate_len must be non-negative")
        if self.batch <= 0:
            raise ValueError(f"batch must be positive, got {self.batch}")

    @property
    def total_context(self) -> int:
        """Peak KV-cache footprint in tokens (all sequences, full length)."""
        return self.batch * (self.prompt_len + self.generate_len)


@dataclass(frozen=True)
class SchedulerPolicy:
    """Admission + batching policy of the scheduler.

    max_batch_size:
        Sequences decoding concurrently (sum of admitted batch hints).
    max_context_tokens:
        Cap on the running batch's peak KV footprint
        (:attr:`Request.total_context` summed over admitted requests).
    max_queue_len:
        Bounded wait queue; arrivals beyond it are rejected.
    chunked_prefill:
        When True, prompts prefill ``prefill_chunk`` tokens per step,
        interleaved with decode iterations of in-flight requests; when
        False (default) an admitted prompt prefills in one step.
    slo_ttft_s / slo_e2e_s:
        Optional service-level objectives; completed requests meeting both
        count toward :attr:`ScheduleResult.goodput_rps`.
    """

    max_batch_size: int = 8
    max_context_tokens: int = 1 << 20
    max_queue_len: int = 1024
    chunked_prefill: bool = False
    prefill_chunk: int = 128
    slo_ttft_s: Optional[float] = None
    slo_e2e_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if self.max_context_tokens <= 0:
            raise ValueError("max_context_tokens must be positive")
        if self.max_queue_len <= 0:
            raise ValueError("max_queue_len must be positive")
        if self.prefill_chunk <= 0:
            raise ValueError("prefill_chunk must be positive")

    def fifo(self) -> "SchedulerPolicy":
        """This policy restricted to the single-server FIFO discipline."""
        return replace(self, max_batch_size=1, chunked_prefill=False)


@dataclass(frozen=True)
class RequestStats:
    """Per-request outcome of one scheduler run."""

    request_id: int
    arrival_s: float
    prompt_len: int
    generate_len: int
    batch: int
    rejected: bool = False
    admitted_s: float = 0.0
    prefill_done_s: float = 0.0
    first_token_s: float = 0.0
    finished_s: float = 0.0

    @property
    def ttft_s(self) -> float:
        """Arrival to first generated token (to prefill end when gen=0)."""
        first = self.first_token_s if self.generate_len else self.prefill_done_s
        return first - self.arrival_s

    @property
    def tpot_s(self) -> float:
        """Mean time per output token over the decode phase."""
        if self.generate_len == 0:
            return 0.0
        return (self.finished_s - self.prefill_done_s) / self.generate_len

    @property
    def e2e_s(self) -> float:
        return self.finished_s - self.arrival_s


def _stats(r: Request, **outcome) -> RequestStats:
    """``r``'s :class:`RequestStats` with the given outcome fields."""
    return RequestStats(
        request_id=r.request_id,
        arrival_s=r.arrival_s,
        prompt_len=r.prompt_len,
        generate_len=r.generate_len,
        batch=r.batch,
        **outcome,
    )


def _ordered(requests: Sequence[Request]) -> List[Request]:
    """The stream in arrival order; request ids must be unique in it."""
    ordered = sorted(requests, key=lambda r: (r.arrival_s, r.request_id))
    if len({r.request_id for r in ordered}) != len(ordered):
        raise ValueError("request ids must be unique within a stream")
    return ordered


#: Latency percentiles every serving result reports.
_PERCENTILES = (50, 95, 99)


def _latency_fields(done: Sequence[RequestStats]) -> Dict[str, float]:
    """Percentile and mean latency fields of completed requests' stats."""
    e2es = [s.e2e_s for s in done]
    out = {"mean_e2e_s": float(np.mean(e2es)) if e2es else 0.0}
    for metric, values in (
        ("ttft", [s.ttft_s for s in done]),
        ("tpot", [s.tpot_s for s in done if s.generate_len]),
        ("e2e", e2es),
    ):
        for q, value in zip(_PERCENTILES, percentiles(values, _PERCENTILES)):
            out[f"{metric}_p{q}_s"] = value
    return out


@dataclass(frozen=True)
class _ServingSummary:
    """Fields, latency, SLO, attribution and JSON code of serving results.

    Shared by :class:`ScheduleResult` and
    :class:`~repro.cluster.scheduler.ClusterResult`; a subclass adds its
    own fields, ``utilization``, ``degradation``, ``phase_seconds`` and
    ``requests``.
    """

    policy: SchedulerPolicy
    completed: int
    rejected: int
    steps: int
    makespan_s: float
    busy_s: float
    prefill_tokens: int
    generated_tokens: int
    ttft_p50_s: float
    ttft_p95_s: float
    ttft_p99_s: float
    tpot_p50_s: float
    tpot_p95_s: float
    tpot_p99_s: float
    e2e_p50_s: float
    e2e_p95_s: float
    e2e_p99_s: float
    mean_e2e_s: float

    def _request_stats(self):
        return self.requests

    @property
    def throughput_rps(self) -> float:
        return self.completed / self.makespan_s if self.makespan_s > 0 else 0.0

    @property
    def goodput_rps(self) -> float:
        """Completed requests meeting the policy's SLOs, per second.

        Without SLOs in the policy this equals :attr:`throughput_rps`;
        rejected requests never count.
        """
        if self.makespan_s <= 0:
            return 0.0
        return self.slo_attained / self.makespan_s

    @property
    def slo_attained(self) -> int:
        """Completed requests that met both SLOs (all, if none set)."""
        ttft, e2e = self.policy.slo_ttft_s, self.policy.slo_e2e_s
        return sum(
            1 for r in self._request_stats()
            if not r.rejected
            and not (ttft is not None and r.ttft_s > ttft)
            and not (e2e is not None and r.e2e_s > e2e)
        )

    def phase_attribution(self, request_class: Optional[str] = None):
        """Bottleneck attribution of the busy time, per request class.

        ``request_class`` restricts to ``"prefill"`` or ``"decode"``
        (phase names lose their prefix); ``None`` aggregates both classes
        into plain phase names.  Returns a
        :class:`~repro.obs.profiler.BottleneckReport`.
        """
        from ..obs.profiler import BottleneckReport

        phases: Dict[str, float] = {}
        for key, seconds in self.phase_seconds.items():
            cls, _, phase = key.partition("/")
            if request_class is not None and cls != request_class:
                continue
            phase = phase or cls
            phases[phase] = phases.get(phase, 0.0) + seconds
        return BottleneckReport.from_phases(phases)

    def _summary_json(self) -> dict:
        return {
            "completed": self.completed,
            "rejected": self.rejected,
            "steps": self.steps,
            "makespan_s": self.makespan_s,
            "busy_s": self.busy_s,
            "utilization": self.utilization,
            "prefill_tokens": self.prefill_tokens,
            "generated_tokens": self.generated_tokens,
            "throughput_rps": self.throughput_rps,
            "goodput_rps": self.goodput_rps,
            "ttft_s": {"p50": self.ttft_p50_s, "p95": self.ttft_p95_s,
                       "p99": self.ttft_p99_s},
            "tpot_s": {"p50": self.tpot_p50_s, "p95": self.tpot_p95_s,
                       "p99": self.tpot_p99_s},
            "e2e_s": {"p50": self.e2e_p50_s, "p95": self.e2e_p95_s,
                      "p99": self.e2e_p99_s, "mean": self.mean_e2e_s},
            "phase_seconds": dict(self.phase_seconds),
            "degradation": (
                self.degradation.to_jsonable() if self.degradation else None
            ),
        }


@dataclass(frozen=True)
class ScheduleResult(_ServingSummary):
    """Aggregate outcome of one scheduler run over a request stream."""

    mean_batch_occupancy: float
    peak_batch_occupancy: int
    #: (time, sequences in the running batch) after every step.
    occupancy_timeline: Tuple[Tuple[float, float], ...]
    requests: Tuple[RequestStats, ...]
    #: Run-level degradation slice when the server has an active
    #: RecoveryManager (batch-level accounting); None otherwise.
    degradation: Optional[DegradationSummary] = None
    #: Modeled phase attribution of the busy time, keyed
    #: ``"<request class>/<phase>"`` where the class is ``prefill`` or
    #: ``decode`` — e.g. ``"decode/reduce"``.  Sums to ``busy_s`` to float
    #: precision: :class:`EngineCostModel` rescales every engine phase
    #: report to its cost.  Disaggregated runs (:mod:`repro.engine.disagg`)
    #: add an unprefixed ``kv_transfer`` phase; a layer-sharded cost model
    #: (:class:`~repro.cluster.sharding.ShardedCostModel`) adds
    #: ``prefill/shard_transfer`` and ``decode/shard_transfer``.
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: Placement policy name when produced by the disaggregated pool
    #: scheduler (:class:`~repro.engine.disagg.DisaggScheduler`);
    #: ``None`` for single-pool runs.
    placement: Optional[str] = None
    #: KV-cache migrations charged (prefill pool -> decode pool).
    kv_transfers: int = 0
    #: Seconds spent migrating KV caches between pools; equals
    #: ``phase_seconds["kv_transfer"]`` when any migration happened.
    kv_transfer_s: float = 0.0
    #: Busy seconds per pool.  Zero for single-pool runs (``busy_s`` then
    #: carries the whole engine); for disaggregated runs
    #: ``prefill_pool_busy_s + decode_pool_busy_s + kv_transfer_s``
    #: equals ``busy_s``.
    prefill_pool_busy_s: float = 0.0
    decode_pool_busy_s: float = 0.0
    #: ``(lane, label, start_s, end_s)`` busy segments for the per-pool
    #: Chrome-trace lanes; lanes are ``prefill_pool`` / ``kv_transfer`` /
    #: ``decode_pool``.  Empty for single-pool runs.
    pool_timeline: Tuple[Tuple[str, str, float, float], ...] = ()

    @property
    def utilization(self) -> float:
        """Fraction of the makespan the engine was executing steps."""
        return self.busy_s / self.makespan_s if self.makespan_s > 0 else 0.0

    @property
    def generated_tokens_per_s(self) -> float:
        if self.generated_tokens == 0:
            return 0.0
        return self.generated_tokens / self.makespan_s

    def sojourn_times(self) -> List[float]:
        """End-to-end latencies of completed requests, in request order."""
        return [r.e2e_s for r in self.requests if not r.rejected]

    def to_jsonable(self) -> dict:
        return {
            **self._summary_json(),
            "generated_tokens_per_s": self.generated_tokens_per_s,
            "mean_batch_occupancy": self.mean_batch_occupancy,
            "peak_batch_occupancy": self.peak_batch_occupancy,
            "policy": asdict(self.policy),
            "placement": self.placement,
            "disagg": (
                {
                    "kv_transfers": self.kv_transfers,
                    "kv_transfer_s": self.kv_transfer_s,
                    "prefill_pool_busy_s": self.prefill_pool_busy_s,
                    "decode_pool_busy_s": self.decode_pool_busy_s,
                }
                if self.placement is not None
                else None
            ),
        }


def _normalized_phases(
    phases: Dict[str, float], duration_s: float
) -> Dict[str, float]:
    """Scale an engine's phase report to partition ``duration_s`` exactly.

    Engine reports may drift from their wall time (e.g. overlap-hidden
    transfer seconds); the scheduler-level invariant — phase seconds sum
    to busy seconds within 1e-9 — must hold regardless.  An engine with
    no phase report charges everything to ``other``.
    """
    if duration_s <= 0.0:
        return {}
    total = left_sum(phases.values())
    if not phases or total <= 0.0:
        return {"other": duration_s}
    scale = duration_s / total
    return {phase: seconds * scale for phase, seconds in phases.items()}


#: A memoized step cost: ``(seconds, phase items)``, the items
#: ``("<request class>/<phase>", seconds)`` pairs in the engine's phase
#: order, ready to add to a run's phase totals.
CostEntry = Tuple[float, Tuple[Tuple[str, float], ...]]
#: A memoized engine report: ``(seconds, normalized phases)``.
_Report = Tuple[float, Dict[str, float]]


def _phase_items(
    request_class: str, phases: Dict[str, float]
) -> Tuple[Tuple[str, float], ...]:
    return tuple(
        (f"{request_class}/{phase}", seconds) for phase, seconds in phases.items()
    )


def _accumulate(
    totals: Dict[str, float], items: Tuple[Tuple[str, float], ...]
) -> None:
    """Add a cost entry's phase items to a run's phase totals, in order."""
    for key, seconds in items:
        totals[key] = totals.get(key, 0.0) + seconds


#: Decode contexts are priced at a multiple of this many tokens.  It bounds
#: the distinct decode engine evaluations of a run (one per batch size and
#: bucket) while still following the KV cache's growth step by step.
CONTEXT_BUCKET = 32


class EngineCostModel:
    """Memoized prefill/decode-step costing through a GenerationServer.

    Decode contexts are quantized up to :data:`CONTEXT_BUCKET` tokens;
    prefill chunks are costed exactly (the set of distinct chunk sizes is
    small).  Each memoized phase report is rescaled once, on the miss, to
    partition its cost, so the phases every scheduler accumulates
    partition its busy seconds.

    The schedulers' per-step path reads :meth:`prefill` and
    :meth:`decode_step`: one key and one dict hit returning the cost with
    its phase items.  A miss there prices through one hook per request
    class, :meth:`_prefill_report` and :meth:`_decode_report`; a subclass
    overrides those two — :class:`~repro.cluster.sharding.ShardedCostModel`
    does — and the public accessors and the per-step memo serve it as is.
    """

    def __init__(self, server: GenerationServer, config: TransformerConfig):
        self.server = server
        self.config = config
        #: Engine reports: key -> (seconds, normalized phases).
        self._prefill_cache: Dict[Tuple[int, int], _Report] = {}
        self._decode_cache: Dict[Tuple[int, int], _Report] = {}
        #: Per-step entries, built through the public methods on a miss.
        self._prefill_steps: Dict[Tuple[int, int], CostEntry] = {}
        self._decode_steps: Dict[Tuple[int, int], CostEntry] = {}
        self._fifo_cache: Dict[Tuple[int, int, int], float] = {}

    def prefill(self, tokens: int, batch: int = 1) -> CostEntry:
        """:meth:`prefill_s` with its ``prefill/*`` phase items, memoized."""
        key = (tokens, batch)
        entry = self._prefill_steps.get(key)
        if entry is None:
            entry = self._prefill_steps[key] = (
                self.prefill_s(tokens, batch),
                _phase_items("prefill", self.prefill_phases(tokens, batch)),
            )
        return entry

    def decode_step(self, batch_seqs: int, context_len: float) -> CostEntry:
        """:meth:`decode_step_s` with its ``decode/*`` phase items, memoized."""
        key = self._decode_key(batch_seqs, context_len)
        entry = self._decode_steps.get(key)
        if entry is None:
            entry = self._decode_steps[key] = (
                self.decode_step_s(batch_seqs, context_len),
                _phase_items(
                    "decode", self.decode_step_phases(batch_seqs, context_len)
                ),
            )
        return entry

    def prefill_s(self, tokens: int, batch: int = 1) -> float:
        """Cost of prefilling ``tokens`` prompt tokens of one request."""
        return self._prefill_report(tokens, batch)[0]

    def prefill_phases(self, tokens: int, batch: int = 1) -> Dict[str, float]:
        """Phase attribution of :meth:`prefill_s` for the same arguments."""
        return self._prefill_report(tokens, batch)[1]

    def _prefill_report(self, tokens: int, batch: int) -> _Report:
        key = (tokens, batch)
        if key not in self._prefill_cache:
            shaped = self.config.with_(seq_len=tokens, batch_size=batch)
            report = self.server.prefill_engine.run(shaped)
            phases = getattr(report, "phase_seconds", None) or {}
            self._prefill_cache[key] = (
                report.total_s, _normalized_phases(phases, report.total_s)
            )
        return self._prefill_cache[key]

    def _decode_key(self, batch_seqs: int, context_len: float) -> Tuple[int, int]:
        bucket = math.ceil(max(context_len, 1.0) / CONTEXT_BUCKET)
        return (batch_seqs, bucket * CONTEXT_BUCKET)

    def decode_step_s(self, batch_seqs: int, context_len: float) -> float:
        """Cost of one decode iteration for ``batch_seqs`` sequences.

        ``context_len`` is the batch's mean KV-cache length at this step.
        """
        return self._decode_report(batch_seqs, context_len)[0]

    def decode_step_phases(
        self, batch_seqs: int, context_len: float
    ) -> Dict[str, float]:
        """Phase attribution of :meth:`decode_step_s` for the same arguments."""
        return self._decode_report(batch_seqs, context_len)[1]

    def _decode_report(self, batch_seqs: int, context_len: float) -> _Report:
        key = self._decode_key(batch_seqs, context_len)
        if key not in self._decode_cache:
            report = self.server.decode_engine.run(
                self.config, batch_size=key[0], context_len=key[1]
            )
            seconds = report.token_latency_s
            phases = getattr(report, "phase_seconds", None) or {}
            self._decode_cache[key] = (
                seconds, _normalized_phases(phases, seconds)
            )
        return self._decode_cache[key]

    def fifo_service_s(
        self, prompt_len: int, generate_len: int, batch: int = 1
    ) -> float:
        """Unbatched service time: full prefill, then ``generate_len``
        decode steps at the request's own growing context (memoized)."""
        key = (prompt_len, generate_len, batch)
        total = self._fifo_cache.get(key)
        if total is None:
            total = self.prefill(prompt_len, batch)[0]
            for step in range(generate_len):
                total += self.decode_step(batch, prompt_len + step)[0]
            self._fifo_cache[key] = total
        return total


class _StepClock:
    """One run's count of executed steps, shared by its decoding flights."""

    __slots__ = ("steps",)

    def __init__(self) -> None:
        self.steps = 0


@dataclass
class _InFlight:
    """Mutable bookkeeping for one admitted request.

    Every step decodes each decoding flight once, so a flight's generated
    tokens are read off the run's step clock rather than counted per step
    (and never exceed ``generate_len``).
    """

    request: Request
    admitted_s: float
    prefilled: int = 0
    prefill_done_s: Optional[float] = None
    first_token_s: Optional[float] = None
    #: Set once the prompt is prefilled — at the end of the step that
    #: finished it, or by the prefill pool; the request starts decoding
    #: on the *next* step.
    decode_ready: bool = False
    #: The run's step clock once the flight decodes, and its count then.
    clock: Optional[_StepClock] = None
    decode_from: int = 0

    @property
    def generated(self) -> int:
        if self.clock is None:
            return 0
        return min(self.clock.steps - self.decode_from, self.request.generate_len)

    @property
    def context_len(self) -> int:
        return self.request.prompt_len + self.generated

    @property
    def prefill_remaining(self) -> int:
        return self.request.prompt_len - self.prefilled

    @property
    def done(self) -> bool:
        return self.prefilled >= self.request.prompt_len and (
            self.generated >= self.request.generate_len
        )


class _Telemetry:
    """One run's ``<ns>.*`` instruments, each name built once per run."""

    def __init__(self, ns: str):
        registry = obs.get_registry()
        self.run = f"{ns}.run"
        self.step = f"{ns}.step"
        #: Counters the loop counts locally and records once per run.
        self.counters = {
            name: registry.counter(f"{ns}.{name}")
            for name in ("requests_queued", "requests_admitted",
                         "requests_completed", "requests_rejected", "steps",
                         "prefill_tokens", "decode_tokens")
        }
        self.occupancy = registry.series(f"{ns}.batch_occupancy")
        self.ttft = registry.histogram(f"{ns}.ttft_s")
        self.tpot = registry.histogram(f"{ns}.tpot_s")
        self.e2e = registry.histogram(f"{ns}.e2e_s")

    def record_run(self, occupancy: List[float], **counts: int) -> None:
        """Add one run's counts and its per-step occupancy."""
        for name, amount in counts.items():
            self.counters[name].inc(amount)
        self.occupancy.extend(occupancy)


class RequestScheduler:
    """Discrete-event continuous-batching scheduler over one server.

    One scheduler instance can :meth:`run` many independent streams; the
    engine cost caches (and the server's tuner memos) persist across runs,
    so sweeps amortize the Auto-Tuner searches.
    """

    #: Namespace of the run's ``<ns>.*`` metrics and spans.
    _ns = "scheduler"

    def __init__(
        self,
        server: GenerationServer,
        config: TransformerConfig,
        policy: Optional[SchedulerPolicy] = None,
        name: Optional[str] = None,
    ):
        self.server = server
        self.config = config
        self.policy = policy or SchedulerPolicy()
        self.cost = EngineCostModel(server, config)
        #: Distinguishes this scheduler's ledger scope (and spans) when
        #: several schedulers — e.g. cluster replicas — share one server.
        self.name = name

    # ------------------------------------------------------------------
    # Admission policy
    # ------------------------------------------------------------------
    def _feasible(self, request: Request) -> bool:
        """Could this request ever be admitted, even to an empty batch?"""
        return (
            request.batch <= self.policy.max_batch_size
            and request.total_context <= self.policy.max_context_tokens
        )

    # ------------------------------------------------------------------
    # FIFO reference costing
    # ------------------------------------------------------------------
    def fifo_service_time(self, request: Request) -> float:
        """The request's service time when it runs alone, unbatched.

        Full prefill followed by ``generate_len`` decode steps at the
        request's own (growing) context — exactly what a batch-1,
        unchunked scheduler executes, and the service time to feed
        :func:`~repro.engine.queueing.simulate_queue` for a FIFO
        comparison on equal footing.
        """
        return self.cost.fifo_service_s(
            request.prompt_len, request.generate_len, request.batch
        )

    # ------------------------------------------------------------------
    # The event loop
    # ------------------------------------------------------------------
    def run(self, requests: Sequence[Request]) -> ScheduleResult:
        """Simulate the stream and return per-request + aggregate stats."""
        return self._simulate(requests)

    def _prefill_pool(self, finish, phase_totals: Dict[str, float]):
        """Per-run state of a separate prefill pool; this scheduler has none.

        A two-pool subclass returns an object the loop calls into for
        placement, migrated admissions and its share of the result (see
        :class:`~repro.engine.disagg.DisaggScheduler`).
        """
        return None

    def _simulate(self, requests: Sequence[Request]) -> ScheduleResult:
        """The event loop every scheduler class runs (see :meth:`run`).

        A step that only decodes is O(1) in the batch size.  The loop keeps
        four integer sums of the batch: running sequences (the occupancy),
        their peak KV footprint (for admission), decoding sequences and
        the decoding sequences' summed context, which grows by one token
        per sequence each step.  The sums change only per event: an
        admission, a prefill completion or a finish.  Per step the loop
        scans only the flights with prompt left to prefill; it walks the
        whole batch, in admission order, only on a step where some flight
        finished its prefill or emitted its last token.  A decoding
        flight's generated tokens are read off the run's step clock.

        Telemetry is paid once per run: the loop keeps local counts and
        records them, with the occupancy series, when the run ends — even
        when it raises.  Only the ``<ns>.step`` span is opened per step.
        A step priced at no time (or at NaN) raises :class:`ValueError`
        rather than stalling the simulated clock.
        """
        policy = self.policy
        max_seqs, max_tokens = policy.max_batch_size, policy.max_context_tokens
        chunk = policy.prefill_chunk if policy.chunked_prefill else None
        tracer = obs.get_tracer()
        ordered = _ordered(requests)
        tel = _Telemetry(self._ns)
        cost = self.cost

        waiting: deque = deque()
        # Admitted flights in admission order: the order finishes happen in.
        running: List[_InFlight] = []
        # The running flights with prompt left to prefill, in that order.
        prefilling: List[_InFlight] = []
        # Flights whose first decode is the next step.
        starting: List[_InFlight] = []
        # Step count -> decoding flights whose last token that step emits.
        due: Dict[int, int] = {}
        clock = _StepClock()
        run_seqs = run_tokens = dec_seqs = dec_ctx = 0
        stats: Dict[int, RequestStats] = {}
        queued = 0
        admitted = 0
        rejected = 0
        busy_s = 0.0
        prefill_tokens = 0
        generated_tokens = 0
        occupancy: List[Tuple[float, float]] = []
        occupancy_weighted = 0.0
        peak_occupancy = 0
        last_finish = 0.0
        now = 0.0
        idx = 0
        phase_totals: Dict[str, float] = {}

        def finish(flight: _InFlight, when: float) -> None:
            nonlocal last_finish
            r = flight.request
            done = stats[r.request_id] = _stats(
                r,
                admitted_s=flight.admitted_s,
                prefill_done_s=flight.prefill_done_s,
                first_token_s=(
                    flight.first_token_s
                    if flight.first_token_s is not None
                    else flight.prefill_done_s
                ),
                finished_s=when,
            )
            last_finish = max(last_finish, when)
            tel.ttft.observe(done.ttft_s)
            tel.e2e.observe(done.e2e_s)
            if r.generate_len:
                tel.tpot.observe(done.tpot_s)

        def reject(r: Request) -> None:
            nonlocal rejected
            rejected += 1
            stats[r.request_id] = _stats(r, rejected=True)

        def fits(r: Request) -> bool:
            return (run_seqs + r.batch <= max_seqs
                    and run_tokens + r.total_context <= max_tokens)

        def start_decoding(flight: _InFlight) -> None:
            """Join the decoding set; the next step emits its first token."""
            nonlocal dec_seqs, dec_ctx
            r = flight.request
            flight.clock, flight.decode_from = clock, clock.steps
            dec_seqs += r.batch
            dec_ctx += r.prompt_len * r.batch
            last = clock.steps + r.generate_len
            due[last] = due.get(last, 0) + 1
            starting.append(flight)

        def admit(flight: _InFlight) -> None:
            nonlocal admitted, run_seqs, run_tokens
            r = flight.request
            running.append(flight)
            admitted += 1
            run_seqs += r.batch
            run_tokens += r.total_context
            if flight.decode_ready:  # prefilled on the pool
                start_decoding(flight)
            else:
                prefilling.append(flight)

        pool = self._prefill_pool(finish, phase_totals)
        owner = f"{tel.run}[{self.name}]" if self.name else tel.run
        with _DegradationScope(self.server.resilience, owner) as scope, tracer.span(
            tel.run,
            model=self.config.name,
            engine=self.server.name,
            requests=len(ordered),
            max_batch_size=policy.max_batch_size,
            chunked_prefill=policy.chunked_prefill,
        ) as run_span:
            try:
                while (
                    idx < len(ordered) or waiting or running
                    or (pool is not None and pool.pending)
                ):
                    # 1. Move arrivals into the bounded wait queue.
                    while idx < len(ordered) and ordered[idx].arrival_s <= now:
                        r = ordered[idx]
                        idx += 1
                        if (not self._feasible(r)
                                or len(waiting) >= policy.max_queue_len):
                            reject(r)
                        else:
                            waiting.append(r)
                            queued += 1

                    # 2. Admit prefill-pool output whose KV cache has landed
                    #    first (its prefill is already paid), then the queue
                    #    head: onto the prefill pool when the placement sends
                    #    it there, else into the batch while it has room.
                    if pool is not None:
                        landed = pool.landed(now)
                        while landed and fits(landed[0].request):
                            admit(landed.popleft())
                    while waiting:
                        head = waiting[0]
                        if pool is not None and pool.place(head, now, running):
                            waiting.popleft()
                        elif fits(head):
                            waiting.popleft()
                            admit(_InFlight(request=head, admitted_s=now))
                            if pool is not None:
                                pool.placed_colocated.inc()
                        else:
                            break  # head-of-line blocking

                    # 3. Idle: jump to the next arrival or KV-cache landing.
                    if not running:
                        horizon = [ordered[idx].arrival_s] if idx < len(ordered) else []
                        if pool is not None and pool.transfers:
                            horizon.append(pool.transfers[0][0])
                        if not horizon:
                            break  # waiting is necessarily empty here
                        now = max(now, min(horizon))
                        continue

                    # 4. Execute one scheduler step (serialized on the one
                    #    PIM system: prefill work, then a decode iteration
                    #    of every flight that was decoding when it began).
                    step_s = 0.0
                    step_prefill = 0
                    seqs = dec_seqs
                    prompts_done = 0  # flights whose prompt this step completes
                    with tracer.span(tel.step, batch_seqs=seqs) as sp:
                        budget = chunk
                        for f in prefilling:
                            r = f.request
                            take = r.prompt_len - f.prefilled
                            if budget is not None:
                                if budget <= 0:
                                    break
                                take = min(take, budget)
                                budget -= take
                            seconds, phases = cost.prefill(take, r.batch)
                            step_s += seconds
                            _accumulate(phase_totals, phases)
                            f.prefilled += take
                            step_prefill += take * r.batch
                            if f.prefilled >= r.prompt_len:
                                prompts_done += 1
                        if seqs:
                            seconds, phases = cost.decode_step(seqs, dec_ctx / seqs)
                            step_s += seconds
                            _accumulate(phase_totals, phases)
                        sp.set_attribute("prefill_tokens", step_prefill)
                        sp.set_attribute("model_seconds", step_s)

                    if not step_s > 0.0:
                        raise ValueError(
                            f"{self._ns} step priced at {step_s!r} s "
                            f"(batch sequences {seqs}, prefill tokens "
                            f"{step_prefill}): every step must take time"
                        )

                    step_start = now
                    now += step_s
                    if pool is not None:
                        # ``now`` itself: the timelines share one float per step.
                        pool.record_step(step_start, now, seqs)
                    busy_s += step_s
                    clock.steps += 1
                    prefill_tokens += step_prefill
                    generated_tokens += seqs

                    # 5. Post-step bookkeeping: token emissions, prefill
                    #    completions (a prefix of the prefilling list: a
                    #    flight left unfinished took all the budget), then
                    #    request completions in admission order.
                    dec_ctx += seqs
                    if starting:
                        for f in starting:
                            f.first_token_s = now
                        starting.clear()
                    finishing = due.pop(clock.steps, 0)
                    if prompts_done:
                        for f in prefilling[:prompts_done]:
                            f.prefill_done_s = now
                            f.decode_ready = True
                            if f.request.generate_len:
                                start_decoding(f)
                            else:
                                finishing += 1
                        del prefilling[:prompts_done]
                    if finishing:
                        kept = []
                        for f in running:
                            if not f.done:
                                kept.append(f)
                                continue
                            finish(f, now)
                            r = f.request
                            run_seqs -= r.batch
                            run_tokens -= r.total_context
                            if r.generate_len:
                                dec_seqs -= r.batch
                                dec_ctx -= (r.prompt_len + r.generate_len) * r.batch
                        running[:] = kept

                    occ = float(run_seqs)
                    occupancy.append((now, occ))
                    occupancy_weighted += occ * step_s
                    peak_occupancy = max(peak_occupancy, run_seqs)
            finally:
                tel.record_run(
                    [occ for _, occ in occupancy],
                    requests_queued=queued,
                    requests_admitted=admitted,
                    requests_completed=len(stats) - rejected,
                    requests_rejected=rejected,
                    steps=clock.steps,
                    prefill_tokens=prefill_tokens,
                    decode_tokens=generated_tokens,
                )

            makespan_s = max(now, last_finish)
            run_span.set_attribute("completed", len(stats) - rejected)
            run_span.set_attribute("rejected", rejected)
            run_span.set_attribute("model_makespan_s", makespan_s)
            if pool is not None:
                pool.annotate(run_span)

        degradation = scope.summary
        if degradation is not None and degradation.degraded:
            obs.get_registry().counter(f"{self._ns}.degraded_runs").inc()

        done = [s for s in stats.values() if not s.rejected]
        pool_fields = {"busy_s": busy_s}
        if pool is not None:
            pool_fields = pool.result_fields(busy_s)
            prefill_tokens += pool.prefill_tokens
        return ScheduleResult(
            policy=policy,
            completed=len(done),
            rejected=rejected,
            steps=clock.steps,
            makespan_s=makespan_s,
            prefill_tokens=prefill_tokens,
            generated_tokens=generated_tokens,
            **_latency_fields(done),
            mean_batch_occupancy=(
                occupancy_weighted / busy_s if busy_s > 0 else 0.0
            ),
            peak_batch_occupancy=peak_occupancy,
            occupancy_timeline=tuple(occupancy),
            requests=tuple(stats[r.request_id] for r in ordered),
            degradation=degradation,
            phase_seconds=phase_totals,
            **pool_fields,
        )


def poisson_requests(
    num_requests: int,
    arrival_rate_rps: float,
    prompt_len: Union[int, Sequence[int]] = 128,
    generate_len: Union[int, Sequence[int]] = 32,
    batch: int = 1,
    arrivals: str = "poisson",
    seed: int = 0,
    sessions: Optional[int] = None,
) -> List[Request]:
    """A request stream with Poisson (or uniform) arrivals.

    ``prompt_len`` / ``generate_len`` may be single values or sequences to
    sample from uniformly (seeded; the arrival stream uses the same seed,
    so a stream is fully reproducible from ``(seed, rate, n)``).
    ``sessions`` tags each request with a session id drawn uniformly from
    ``range(sessions)`` (seeded) for the cluster's session-affinity
    routing; ``None`` leaves requests sessionless.
    """
    if sessions is not None and sessions <= 0:
        raise ValueError("sessions must be positive when given")
    times = generate_arrivals(arrival_rate_rps, num_requests, arrivals, seed)
    rng = np.random.default_rng(seed + 1)

    def draw(spec: Union[int, Sequence[int]]) -> List[int]:
        if isinstance(spec, (int, np.integer)):
            return [int(spec)] * num_requests
        choices = list(spec)
        if not choices:
            raise ValueError("length choices must be non-empty")
        return [int(c) for c in rng.choice(choices, size=num_requests)]

    prompts = draw(prompt_len)
    gens = draw(generate_len)
    tags = (
        [int(s) for s in rng.integers(0, sessions, size=num_requests)]
        if sessions is not None
        else [None] * num_requests
    )
    return [
        Request(
            request_id=i,
            arrival_s=float(times[i]),
            prompt_len=prompts[i],
            generate_len=gens[i],
            batch=batch,
            session=tags[i],
        )
        for i in range(num_requests)
    ]


def _load_streams(
    scheduler,
    utilizations: Sequence[float],
    num_requests: int,
    prompt_len: int,
    generate_len: int,
    batch: int,
    arrivals: str,
    seed: int,
    sessions: Optional[int] = None,
) -> List[Tuple[float, float, List[Request]]]:
    """``(rho, arrival rate, stream)`` per load level of a sweep.

    Load is normalized to ``scheduler``'s FIFO service time of one
    request.  Every level is validated before anything is simulated, by
    an explicit non-positive check (``0.0`` is an error, never "use a
    default" — the ``serve-sim`` --rate/--utilization convention).
    """
    for rho in utilizations:
        if rho <= 0.0:
            raise ValueError(f"utilizations must be positive, got {rho}")
    probe = Request(
        request_id=-1,
        arrival_s=0.0,
        prompt_len=prompt_len,
        generate_len=generate_len,
        batch=batch,
    )
    service_s = scheduler.fifo_service_time(probe)
    streams = []
    for rho in utilizations:
        rate = rho / service_s
        stream = poisson_requests(
            num_requests,
            rate,
            prompt_len=prompt_len,
            generate_len=generate_len,
            batch=batch,
            arrivals=arrivals,
            seed=seed,
            sessions=sessions,
        )
        streams.append((rho, rate, stream))
    return streams


def _point_json(point) -> dict:
    """A sweep point's fields as JSON, its result through ``to_jsonable``."""
    out = {f.name: getattr(point, f.name) for f in fields(point)}
    out["result"] = point.result.to_jsonable()
    return out


@dataclass(frozen=True)
class SweepPoint:
    """One utilization level of :func:`scheduler_load_sweep`."""

    target_utilization: float
    arrival_rate_rps: float
    batched: ScheduleResult
    fifo: Optional[ScheduleResult] = None


def scheduler_load_sweep(
    scheduler: RequestScheduler,
    utilizations: Sequence[float] = (0.3, 0.5, 0.7, 0.9),
    num_requests: int = 100,
    prompt_len: int = 128,
    generate_len: int = 32,
    batch: int = 1,
    arrivals: str = "poisson",
    seed: int = 0,
    compare_fifo: bool = True,
) -> List[SweepPoint]:
    """``queueing.load_sweep``-style sweep under continuous batching.

    Utilization targets are expressed against the *FIFO* service time of
    one request (the same normalization :func:`~repro.engine.queueing.load_sweep`
    uses), so ``rho >= 1`` deliberately offers more load than a
    single-server FIFO can sustain — the regime where batching shows its
    capacity win.  With ``compare_fifo`` each point also runs the identical
    stream through the batch-1 policy.
    """
    streams = _load_streams(
        scheduler, utilizations, num_requests, prompt_len, generate_len,
        batch, arrivals, seed,
    )
    fifo_sched = RequestScheduler(
        scheduler.server, scheduler.config, policy=scheduler.policy.fifo()
    )
    fifo_sched.cost = scheduler.cost  # share the memoized engine costs
    return [
        SweepPoint(
            target_utilization=float(rho),
            arrival_rate_rps=rate,
            batched=scheduler.run(stream),
            fifo=fifo_sched.run(stream) if compare_fifo else None,
        )
        for rho, rate, stream in streams
    ]
