"""Guards: the serving event loop pays for telemetry per run, not per step.

The scheduler step loop is the hottest code in a serving replay (~100k
steps for a 2,000-request stream), so its telemetry is recorded once per
run: local counts ``inc`` each ``<ns>.*`` counter once, and the occupancy
series is filled by one :meth:`~repro.obs.Series.extend`.  Only the
``<ns>.step`` span stays per step.  Two guards pin this:

* **deterministic** — counting wrappers on the registry's recording
  methods show that a replay makes a number of registry calls bounded by
  its requests and runs, never by its steps, while every step still gets
  its span;
* **timing** — the interleaved min-of-k design of the tuner guard
  (``tests/test_obs_overhead.py``) bounds the telemetry-on / -off wall
  time ratio of a seeded colocated replay.

Also covered: the deque-backed :class:`~repro.obs.Series` and its
``extend``, and when the span :meth:`Tracer.span` returns opens.
"""

import collections
import gc
import time

import pytest

from repro import obs
from repro.baselines import wimpy_host
from repro.cluster import ClusterScheduler
from repro.engine import (
    DisaggScheduler,
    GenerationServer,
    Request,
    RequestScheduler,
    SchedulerPolicy,
    poisson_requests,
)
from repro.obs import Counter, Histogram, Series, Tracer
from repro.obs.metrics import NULL_REGISTRY
from repro.pim import get_platform
from repro.workloads import opt_style


@pytest.fixture(scope="module")
def colocated():
    config = opt_style(256, seq_len=64, batch_size=1)
    server = GenerationServer(get_platform("upmem"), wimpy_host())
    return RequestScheduler(server, config,
                            policy=SchedulerPolicy(max_batch_size=8))


def _stream(sched, n, seed):
    service_s = sched.fifo_service_time(Request(-1, 0.0, 64, 32))
    return poisson_requests(n, 1.4 / service_s, prompt_len=[32, 64, 128],
                            generate_len=[0, 16, 32, 64], seed=seed)


@pytest.fixture(scope="module")
def schedulers(colocated):
    """The three serving schedulers over one shared, memoized cost model."""
    server, config, policy = colocated.server, colocated.config, colocated.policy
    hybrid = DisaggScheduler(server, config, policy=policy, placement="hybrid")
    hybrid.cost = hybrid.prefill_cost = colocated.cost
    cluster = ClusterScheduler(server, config, replicas=2, policy=policy,
                               cost_model=colocated.cost)
    return {"colocated": colocated, "hybrid": hybrid, "cluster": cluster}


@pytest.fixture()
def registry_calls(monkeypatch):
    """``{instrument name: recording calls}`` while the test runs."""
    calls = collections.Counter()
    for cls, method in ((Counter, "inc"), (Series, "append"),
                        (Series, "extend"), (Histogram, "observe")):
        original = getattr(cls, method)

        def counted(self, *args, _original=original, **kwargs):
            calls[self.name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, method, counted)
    return calls


class TestRegistryCallsPerRun:
    @pytest.mark.parametrize("kind", ["colocated", "hybrid", "cluster"])
    def test_registry_calls_scale_with_requests_not_steps(
        self, schedulers, registry_calls, kind
    ):
        sched = schedulers[kind]
        stream = _stream(schedulers["colocated"], n=120, seed=11)
        sched.run(stream)  # fill the cost memos: no engine runs below
        obs.reset()
        registry_calls.clear()
        try:
            result = sched.run(stream)
            spans = obs.get_tracer().finished_spans()
        finally:
            obs.reset()

        ns = "disagg" if kind == "hybrid" else "scheduler"
        runs = sum(1 for sp in spans if sp.name == f"{ns}.run")
        assert runs == (2 if kind == "cluster" else 1)
        assert result.steps > 10 * len(stream)  # steps dominate requests
        # Every step keeps its span...
        assert sum(1 for sp in spans if sp.name == f"{ns}.step") == result.steps
        # ...but the per-run instruments are recorded once per run.
        for name in ("steps", "prefill_tokens", "decode_tokens",
                     "requests_queued", "requests_admitted",
                     "requests_completed", "requests_rejected",
                     "batch_occupancy"):
            assert registry_calls[f"{ns}.{name}"] == runs, name
        # Per-request instruments (latency histograms, routing, pool
        # placement) record at most once per request.
        worst = max(registry_calls.values())
        assert worst <= len(stream), registry_calls.most_common(3)
        assert sum(registry_calls.values()) <= 8 * len(stream) + 10 * runs


#: Min-of-30 on/off ratios measured on a 2-core host with one BLAS
#: thread, 6 runs each: 1.44-1.56x with per-run telemetry (the step span
#: remains), 1.68-2.19x when every step also bumped three counters and
#: appended to the occupancy series.
RATIO_BOUND = 1.70
#: Half a millisecond against a ~20 ms replay: the tuner guard's 2 ms
#: would add ten points to the ratio.
ABSOLUTE_SLACK_S = 0.0005
MIN_REPS = 3
MAX_REPS = 30


def _replay_s(sched, stream) -> float:
    obs.reset()  # each replay starts from an empty span buffer...
    gc.collect()  # ...and a clean collector, whichever ran before it
    start = time.perf_counter()
    sched.run(stream)
    return time.perf_counter() - start


def test_serving_telemetry_overhead_is_bounded(colocated):
    stream = _stream(colocated, n=300, seed=5)
    colocated.run(stream)  # warm the cost memos off the clock

    enabled_times, disabled_times = [], []
    try:
        for rep in range(MAX_REPS):
            obs.set_enabled(True)
            enabled_times.append(_replay_s(colocated, stream))
            obs.set_enabled(False)
            disabled_times.append(_replay_s(colocated, stream))
            if rep + 1 >= MIN_REPS and (
                min(enabled_times)
                <= min(disabled_times) * RATIO_BOUND + ABSOLUTE_SLACK_S
            ):
                break
    finally:
        obs.set_enabled(True)
        obs.reset()

    enabled, disabled = min(enabled_times), min(disabled_times)
    assert enabled <= disabled * RATIO_BOUND + ABSOLUTE_SLACK_S, (
        f"serving telemetry overhead too high after {len(enabled_times)} "
        f"reps: {enabled:.4f}s on vs {disabled:.4f}s off "
        f"({enabled / disabled:.2f}x)"
    )


class TestSeriesExtend:
    @pytest.mark.parametrize("prefill", [0, 3])
    @pytest.mark.parametrize("n", [0, 2, 5, 7, 12])
    def test_extend_equals_repeated_append(self, n, prefill):
        """Below, at and above capacity 5, onto empty and non-empty."""
        appended, extended = Series("a", capacity=5), Series("e", capacity=5)
        for v in range(prefill):
            appended.append(-v)
            extended.append(-v)
        values = [v * 0.5 for v in range(n)]
        for v in values:
            appended.append(v)
        extended.extend(iter(values))
        assert extended.points() == appended.points()
        assert extended.count == appended.count == prefill + n
        assert extended.snapshot() == appended.snapshot()

    def test_values_become_floats(self):
        s = Series("s", capacity=2)
        s.extend([1, 2, 3])
        assert s.points() == [(1, 2.0), (2, 3.0)]
        assert all(type(v) is float for v in s.values())

    def test_disabled_registry_extend_is_a_no_op(self):
        series = NULL_REGISTRY.series("s")
        series.extend([1.0, 2.0])
        assert series.points() == []


class TestSpanContextManager:
    def test_span_opens_on_enter_and_parents_to_the_open_span(self):
        """The span starts at ``with``, not at ``span()``: it parents to
        the span open when it is entered."""
        tracer = Tracer()
        pending = tracer.span("later", k=1)
        with tracer.span("outer") as outer:
            with pending as inner:
                assert tracer.current_span() is inner
        assert inner.parent_id == outer.span_id
        assert inner.span_id > outer.span_id
        assert inner.attributes == {"k": 1}
        assert tracer.current_span() is None
        assert [sp.name for sp in tracer.finished_spans()] == ["later", "outer"]
