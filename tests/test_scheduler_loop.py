"""The O(1)-per-step serving loop against the loop it replaced.

``ReferenceLoop`` keeps ``RequestScheduler._simulate`` and ``_fits`` as they
were before the loop kept its batch sums: every step summed the running
batch for admission, listed the decoding flights, scanned the whole batch
for prefill work and for finished flights, summed the occupancy, and
counted each flight's generated tokens one by one (``_InFlight`` here
is that flight record).  On seeded streams over the policy, placement,
engine and resilience matrix, each loop runs on a fresh server and cost
model, and the two must agree exactly:

* every result field, floats by ``float.hex`` — the occupancy timeline,
  the per-request stats, ``phase_seconds`` with its key order and the
  pool timeline included;
* the argument sequences of ``cost.prefill`` / ``cost.decode_step``;
* the spans (the step spans' attributes, and the cost-model-miss spans
  nested under them) and every registry instrument, whose retained
  latency samples fix the order in which flights finish.

Also here: a step priced at no time (or NaN) raises instead of spinning,
and the ``serving.replay`` bench times a fixed number of steps.
"""

import contextlib
import math
import signal
from collections import deque
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pytest

from repro import obs
from repro.baselines import wimpy_host
from repro.cluster import ClusterScheduler, ReplicaFailure
from repro.engine import (
    DisaggScheduler,
    EngineCostModel,
    GenerationServer,
    Request,
    RequestScheduler,
    SchedulerPolicy,
    poisson_requests,
)
from repro.engine import disagg as disagg_module
from repro.engine.scheduler import (
    RequestStats,
    ScheduleResult,
    _accumulate,
    _latency_fields,
    _ordered,
    _stats,
    _Telemetry,
)
from repro.pim import get_platform
from repro.resilience import FaultInjector, FaultPlan, RecoveryManager
from repro.resilience.recovery import _DegradationScope
from repro.workloads import opt_style

CONFIG = opt_style(256, seq_len=64, batch_size=1)


# ----------------------------------------------------------------------
# The reference: the flight record and the loop as they were
# ----------------------------------------------------------------------
@dataclass
class _InFlight:
    """Mutable bookkeeping for one admitted request."""

    request: Request
    admitted_s: float
    prefilled: int = 0
    generated: int = 0
    prefill_done_s: Optional[float] = None
    first_token_s: Optional[float] = None
    #: Set at the end of the step that finished prefill; the request
    #: starts decoding on the *next* step.
    decode_ready: bool = False

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


class ReferenceLoop:
    """``RequestScheduler``'s admission test and event loop, verbatim."""

    def _fits(self, request: Request, running: List[_InFlight]) -> bool:
        seqs = sum(f.request.batch for f in running)
        tokens = sum(f.request.total_context for f in running)
        return (
            seqs + request.batch <= self.policy.max_batch_size
            and tokens + request.total_context <= self.policy.max_context_tokens
        )

    def _simulate(self, requests: Sequence[Request]) -> ScheduleResult:
        """The event loop every scheduler class runs (see :meth:`run`).

        Telemetry is paid once per run: the loop keeps local counts and
        records them, with the occupancy series, when the run ends — even
        when it raises.  Only the ``<ns>.step`` span is opened per step.
        """
        policy = self.policy
        tracer = obs.get_tracer()
        ordered = _ordered(requests)
        tel = _Telemetry(self._ns)
        cost = self.cost

        waiting: deque = deque()
        running: List[_InFlight] = []
        stats: Dict[int, RequestStats] = {}
        queued = 0
        admitted = 0
        rejected = 0
        steps = 0
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

        def admit(flight: _InFlight) -> None:
            nonlocal admitted
            running.append(flight)
            admitted += 1

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
                        while landed and self._fits(landed[0].request, running):
                            admit(landed.popleft())
                    while waiting:
                        head = waiting[0]
                        if pool is not None and pool.place(head, now, running):
                            waiting.popleft()
                        elif self._fits(head, running):
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
                    #    PIM system: prefill work, then a decode iteration).
                    step_s = 0.0
                    step_prefill = 0
                    decoding = [f for f in running if f.decode_ready]
                    budget = (
                        policy.prefill_chunk
                        if policy.chunked_prefill
                        else float("inf")
                    )
                    prefilling: List[_InFlight] = []
                    with tracer.span(tel.step) as sp:
                        for f in running:
                            if f.prefill_remaining <= 0 or budget <= 0:
                                continue
                            take = f.prefill_remaining
                            if policy.chunked_prefill:
                                take = min(take, int(budget))
                            seconds, phases = cost.prefill(take, f.request.batch)
                            step_s += seconds
                            _accumulate(phase_totals, phases)
                            f.prefilled += take
                            budget -= take
                            step_prefill += take * f.request.batch
                            prefilling.append(f)

                        seqs = sum(f.request.batch for f in decoding)
                        if seqs:
                            total_ctx = sum(
                                f.context_len * f.request.batch for f in decoding
                            )
                            seconds, phases = cost.decode_step(seqs, total_ctx / seqs)
                            step_s += seconds
                            _accumulate(phase_totals, phases)
                        sp.set_attribute("batch_seqs", seqs)
                        sp.set_attribute("prefill_tokens", step_prefill)
                        sp.set_attribute("model_seconds", step_s)

                    if step_s <= 0.0:
                        # Nothing runnable this step (all admitted requests
                        # are freshly prefilled, none decode-ready yet).
                        for f in running:
                            f.decode_ready = f.prefilled >= f.request.prompt_len
                        continue

                    step_start = now
                    now += step_s
                    if pool is not None:
                        # ``now`` itself: the timelines share one float per step.
                        pool.record_step(step_start, now, seqs)
                    busy_s += step_s
                    steps += 1
                    prefill_tokens += step_prefill
                    generated_tokens += seqs

                    # 5. Post-step bookkeeping: prefill completions, token
                    #    emissions, request completions.
                    for f in prefilling:
                        if f.prefill_remaining <= 0 and f.prefill_done_s is None:
                            f.prefill_done_s = now
                            f.decode_ready = True
                    for f in decoding:
                        f.generated += 1
                        if f.first_token_s is None:
                            f.first_token_s = now
                    for f in list(running):
                        if f.done:
                            if f.prefill_done_s is None:
                                f.prefill_done_s = now
                            finish(f, now)
                            running.remove(f)

                    occ = float(sum(f.request.batch for f in running))
                    occupancy.append((now, occ))
                    occupancy_weighted += occ * step_s
                    peak_occupancy = max(peak_occupancy, int(occ))
            finally:
                tel.record_run(
                    [occ for _, occ in occupancy],
                    requests_queued=queued,
                    requests_admitted=admitted,
                    requests_completed=len(stats) - rejected,
                    requests_rejected=rejected,
                    steps=steps,
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
            steps=steps,
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


class ReferenceScheduler(ReferenceLoop, RequestScheduler):
    pass


class ReferenceDisagg(ReferenceLoop, DisaggScheduler):
    pass


@contextlib.contextmanager
def _reference_flights():
    """The prefill pool builds reference flight records while active."""
    saved = disagg_module._InFlight
    disagg_module._InFlight = _InFlight
    try:
        yield
    finally:
        disagg_module._InFlight = saved


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
class RecordingCost(EngineCostModel):
    """An :class:`EngineCostModel` that logs its per-step lookups."""

    def __init__(self, server, config):
        super().__init__(server, config)
        self.calls: List[tuple] = []

    def prefill(self, tokens: int, batch: int = 1):
        self.calls.append(("prefill", tokens, batch))
        return super().prefill(tokens, batch)

    def decode_step(self, batch_seqs: int, context_len: float):
        self.calls.append(("decode_step", batch_seqs, float(context_len).hex()))
        return super().decode_step(batch_seqs, context_len)


def _server(overlap=False, resilient=False):
    manager = (RecoveryManager(FaultInjector(FaultPlan(failed_ranks=(0,))))
               if resilient else None)
    return GenerationServer(get_platform("upmem"), wimpy_host(),
                            resilience=manager, overlap=overlap)


@dataclass(frozen=True)
class Case:
    kind: str = "colocated"  # colocated | disagg | cluster
    placement: Optional[str] = None
    policy: dict = None
    rho: float = 1.4
    prompts: Tuple[int, ...] = (32, 64, 128)
    gens: Tuple[int, ...] = (0, 8, 16, 32)
    batches: Tuple[int, ...] = (1,)
    overlap: bool = False
    resilient: bool = False
    fail_at: Optional[float] = None  # fraction of the arrival span


CASES = {
    "whole": Case(),
    "chunked": Case(policy=dict(chunked_prefill=True, prefill_chunk=24)),
    "mixed-batch": Case(batches=(1, 2, 3)),
    "mixed-batch-chunked": Case(batches=(1, 2, 3), policy=dict(
        chunked_prefill=True, prefill_chunk=48)),
    "prefill-only": Case(gens=(0,), policy=dict(chunked_prefill=True,
                                                 prefill_chunk=40)),
    "fifo": Case(policy=dict(max_batch_size=1)),
    "context-bound": Case(batches=(1, 2), policy=dict(max_context_tokens=420)),
    "queue-bound": Case(rho=3.0, policy=dict(max_batch_size=4, max_queue_len=3)),
    "disagg-colocated": Case(kind="disagg", placement="colocated"),
    "disagg-hybrid": Case(kind="disagg", placement="hybrid", batches=(1, 2, 3)),
    "disagg-hybrid-chunked": Case(kind="disagg", placement="hybrid", policy=dict(
        chunked_prefill=True, prefill_chunk=24)),
    "disagg-disaggregated": Case(kind="disagg", placement="disaggregated",
                                 policy=dict(max_batch_size=4)),
    # Short generations and long chunked prompts: migrated flights start
    # decoding before older colocated ones and finish in the same steps.
    "disagg-hybrid-short": Case(kind="disagg", placement="hybrid",
                                gens=(0, 1, 2, 3, 4, 5), batches=(1, 2),
                                policy=dict(chunked_prefill=True, prefill_chunk=16)),
    "cluster": Case(kind="cluster", rho=2.5),
    "cluster-hybrid-failover": Case(kind="cluster", placement="hybrid", rho=2.5,
                                    fail_at=0.5),
    "overlap": Case(overlap=True, batches=(1, 2)),
    "resilient": Case(kind="disagg", placement="hybrid", resilient=True),
}


@pytest.fixture(scope="module")
def service_s():
    sched = RequestScheduler(_server(), CONFIG)
    return sched.fifo_service_time(Request(-1, 0.0, 64, 16))


def _stream(case: Case, service_s: float, seed: int, n: int = 120):
    stream = poisson_requests(n, case.rho / service_s,
                              prompt_len=list(case.prompts),
                              generate_len=list(case.gens), seed=seed)
    if case.batches != (1,):
        hints = np.random.default_rng(seed + 100).choice(case.batches, size=n)
        stream = [replace(r, batch=int(b)) for r, b in zip(stream, hints)]
    return stream


def _build(case: Case, reference: bool, stream):
    """A fresh server, cost model and scheduler for one loop."""
    server = _server(case.overlap, case.resilient)
    cost = RecordingCost(server, CONFIG)
    policy = SchedulerPolicy(**(case.policy or {}))
    if case.kind == "cluster":
        failures = ()
        if case.fail_at is not None:
            at_s = case.fail_at * stream[-1].arrival_s
            failures = (ReplicaFailure(replica=0, at_s=at_s),)
        sched = ClusterScheduler(server, CONFIG, replicas=2, policy=policy,
                                 router="p2c", seed=3, cost_model=cost,
                                 placement=case.placement, failures=failures)
        if reference:
            for replica in sched.schedulers:
                replica.__class__ = (ReferenceDisagg
                                     if isinstance(replica, DisaggScheduler)
                                     else ReferenceScheduler)
        return sched, cost
    if case.kind == "disagg":
        cls = ReferenceDisagg if reference else DisaggScheduler
        sched = cls(server, CONFIG, policy=policy, placement=case.placement)
        sched.prefill_cost = cost
    else:
        cls = ReferenceScheduler if reference else RequestScheduler
        sched = cls(server, CONFIG, policy=policy)
    sched.cost = cost
    return sched, cost


def _canon(value):
    """``value`` as nested tuples: floats as ``float.hex``, dict key order kept."""
    if isinstance(value, float):
        return ("float", value.hex())
    if value is None or isinstance(value, (bool, int, str)):
        return (type(value).__name__, value)
    if is_dataclass(value):
        return (type(value).__name__,
                tuple((f.name, _canon(getattr(value, f.name))) for f in fields(value)))
    if isinstance(value, dict):
        return ("dict", tuple((_canon(k), _canon(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple, deque)):
        return (type(value).__name__, tuple(_canon(v) for v in value))
    raise TypeError(f"no canonical form for {type(value).__name__}")


def _span_forest(spans):
    """Each span's name, attributes and parent position, in finish order."""
    position = {sp.span_id: i for i, sp in enumerate(spans)}
    return [(sp.name, _canon(sp.attributes), position.get(sp.parent_id))
            for sp in spans]


def _replay(case: Case, reference: bool, stream):
    sched, cost = _build(case, reference, stream)
    obs.reset()
    try:
        if reference:
            with _reference_flights():
                result = sched.run(stream)
        else:
            result = sched.run(stream)
        spans = obs.get_tracer().finished_spans()
        registry = obs.get_registry().snapshot()
    finally:
        obs.reset()
    return result, cost.calls, spans, registry


# ----------------------------------------------------------------------
# The new loop equals the reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [11, 12])
@pytest.mark.parametrize("name", list(CASES))
def test_loop_matches_the_reference(name, seed, service_s):
    case = CASES[name]
    stream = _stream(case, service_s, seed)
    result, calls, spans, registry = _replay(case, False, stream)
    ref_result, ref_calls, ref_spans, ref_registry = _replay(case, True, stream)

    assert result.steps > len(stream)  # the stream really batches
    assert _canon(result) == _canon(ref_result)
    assert calls == ref_calls
    steps = [sp for sp in spans if sp.name.endswith(".step")]
    ref_steps = [sp for sp in ref_spans if sp.name.endswith(".step")]
    assert [_canon(sp.attributes) for sp in steps] == [
        _canon(sp.attributes) for sp in ref_steps]
    assert _span_forest(spans) == _span_forest(ref_spans)
    assert _canon(registry) == _canon(ref_registry)


def test_the_matrix_reaches_every_path(service_s):
    """The cases above reject, bind each admission cap, migrate KV caches,
    fail a replica over and chunk prompts across steps."""
    def run(name):
        case = CASES[name]
        return _replay(case, False, _stream(case, service_s, 11))[:2]

    assert run("queue-bound")[0].rejected > 0
    context, _ = run("context-bound")
    assert 0 < context.peak_batch_occupancy < 8
    hybrid, _ = run("disagg-hybrid")
    assert 0 < hybrid.kv_transfers < len(hybrid.requests)
    assert run("cluster-hybrid-failover")[0].failovers > 0
    _, calls = run("chunked")
    chunks = {tokens for kind, tokens, _ in calls if kind == "prefill"}
    assert chunks - set(CASES["chunked"].prompts)  # prompts split across steps


def test_cost_misses_nest_under_the_step_span(service_s):
    case = CASES["whole"]
    _, _, spans, _ = _replay(case, False, _stream(case, service_s, 11))
    by_id = {sp.span_id: sp for sp in spans}
    misses = [sp for sp in spans if sp.name == "engine.run"]
    assert misses
    for sp in misses:
        assert by_id[sp.parent_id].name == "scheduler.step"


# ----------------------------------------------------------------------
# A step priced at no time raises
# ----------------------------------------------------------------------
class FlatCost(EngineCostModel):
    """Prices every prefill and decode step at ``(prefill_s, decode_s)``."""

    def __init__(self, server, config, prefill_s, decode_s):
        super().__init__(server, config)
        self.prices = (prefill_s, decode_s)

    def prefill(self, tokens: int, batch: int = 1):
        return (self.prices[0], ())

    def decode_step(self, batch_seqs: int, context_len: float):
        return (self.prices[1], ())


@contextlib.contextmanager
def _deadline(seconds: int):
    """Fail, rather than hang, when the body runs past ``seconds``."""
    if not hasattr(signal, "SIGALRM"):
        pytest.skip("the platform has no SIGALRM")

    def expire(signum, frame):
        raise TimeoutError(f"run still going after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


PRICES = {
    "zero": (0.0, 0.0),
    "negative": (-1e-3, -1e-3),
    "nan-decode": (1e-3, math.nan),
    "nan-prefill": (math.nan, 1e-3),
}
RUNNERS = ("colocated", "disagg-hybrid", "disagg-disaggregated", "cluster")


def _flat_scheduler(runner, cost):
    server = cost.server
    if runner == "cluster":
        return ClusterScheduler(server, CONFIG, replicas=2, cost_model=cost)
    if runner.startswith("disagg-"):
        sched = DisaggScheduler(server, CONFIG, placement=runner.split("-", 1)[1])
        sched.prefill_cost = cost
    else:
        sched = RequestScheduler(server, CONFIG)
    sched.cost = cost
    return sched


@pytest.mark.parametrize("runner", RUNNERS)
@pytest.mark.parametrize("price", list(PRICES))
def test_a_step_priced_at_no_time_raises(runner, price):
    prefill_s, decode_s = PRICES[price]
    cost = FlatCost(_server(), CONFIG, prefill_s, decode_s)
    sched = _flat_scheduler(runner, cost)
    # A later arrival: a NaN clock would never reach it.
    stream = [Request(0, 0.0, 32, 4), Request(1, 5.0, 32, 4)]
    obs.reset()
    try:
        with _deadline(5), pytest.raises(ValueError, match="every step must take time"):
            sched.run(stream)
    finally:
        obs.reset()


def test_the_error_names_the_step():
    cost = FlatCost(_server(), CONFIG, 0.0, 0.0)
    sched = _flat_scheduler("colocated", cost)
    with _deadline(5), pytest.raises(ValueError) as err:
        sched.run([Request(0, 0.0, 32, 4, batch=2)])
    assert "batch sequences 0, prefill tokens 64" in str(err.value)


# ----------------------------------------------------------------------
# bench id serving.replay
# ----------------------------------------------------------------------
#: Steps of the bench's seeded replay; a change here is a change of stream.
REPLAY_STEPS = 4071


def test_serving_replay_bench_times_a_fixed_step_count():
    """`bench` id `serving.replay`: one warm-up replay, then best of 5, of
    one seeded colocated stream; the value is microseconds per step."""
    from repro.cli import _bench_serving_replay

    obs.reset()
    try:
        value, meta = _bench_serving_replay("upmem")
        steps = obs.get_registry().counter("scheduler.steps").value
    finally:
        obs.reset()
    assert meta["unit"] == "us"
    assert meta["steps"] == REPLAY_STEPS
    assert steps == 6 * REPLAY_STEPS
    assert 0.0 < value
