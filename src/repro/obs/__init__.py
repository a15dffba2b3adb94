"""Unified telemetry layer: metrics, span tracing, and trace export.

Every subsystem (tuner, calibration, engines, serving, simulator bridge)
records into one process-wide :class:`MetricsRegistry` and one
:class:`Tracer`, giving a single place to ask "where did the time go" for
an end-to-end run:

>>> from repro import obs
>>> registry, tracer = obs.get_registry(), obs.get_tracer()
>>> with tracer.span("my.region", note="demo"):
...     obs.get_registry().counter("my.counter").inc()
>>> snapshot = registry.snapshot()

Exporters (:mod:`repro.obs.export`) render finished spans as JSONL or as
Chrome-trace-format JSON (Perfetto / ``chrome://tracing``), and bridges
(:mod:`repro.obs.bridge`) convert :class:`~repro.engine.report.EngineReport`
op lists and simulator :class:`~repro.pim.trace.KernelTrace` streams into
the same Chrome-trace schema so modeled timelines and wall-clock spans
land in one viewable file.  The CLI exposes this via ``--emit-trace``
(e.g. ``repro simulate ... --emit-trace PATH``) and ``--metrics-json``.

Telemetry is always-on and cheap: ``tests/test_obs_overhead.py`` holds a
tuner search to <5% over disabled, and ``tests/test_serving_telemetry.py``
holds a serving replay to a bounded on/off ratio with registry calls per
run, not per step.  What remains per scheduler step is its span: on a
2-core host about 1.6-3 us in a 300-request replay, and 3-4.3 us once the
span buffer is full and every new span evicts one.  :func:`set_enabled`
swaps in null implementations when even that overhead is unwanted.
"""

from __future__ import annotations

from typing import Optional

from .metrics import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    Series,
    percentiles,
)
from .tracing import NULL_TRACER, NullTracer, Span, Tracer
from .export import (
    build_chrome_trace,
    dump_json,
    spans_to_chrome_events,
    spans_to_jsonl_lines,
    to_jsonable,
    write_chrome_trace,
    write_spans_jsonl,
)
from .bridge import (
    cluster_to_chrome_events,
    kernel_trace_to_chrome_events,
    profile_to_chrome_events,
    report_to_chrome_events,
    schedule_to_chrome_events,
)
from .profiler import (
    PHASE_ORDER,
    BottleneckReport,
    PhaseProfile,
    PhaseSegment,
    attribute_bottleneck,
    build_rank_timelines,
    sorted_phases,
)
from .baseline import (
    BaselineStore,
    BenchRecord,
    RegressionVerdict,
    current_git_sha,
    detect_regression,
    host_fingerprint,
    robust_stats,
)

_default_registry = MetricsRegistry()
_default_tracer = Tracer()
_enabled = True


def get_registry() -> MetricsRegistry:
    """The process-wide registry (a no-op registry when disabled)."""
    return _default_registry if _enabled else NULL_REGISTRY


def get_tracer() -> Tracer:
    """The process-wide tracer (a no-op tracer when disabled)."""
    return _default_tracer if _enabled else NULL_TRACER


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the default registry (e.g. for test isolation); returns the old."""
    global _default_registry
    old, _default_registry = _default_registry, registry
    return old


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the default tracer; returns the old one."""
    global _default_tracer
    old, _default_tracer = _default_tracer, tracer
    return old


def set_enabled(enabled: bool) -> None:
    """Globally enable/disable telemetry recording."""
    global _enabled
    _enabled = bool(enabled)


def enabled() -> bool:
    return _enabled


def reset(max_spans: Optional[int] = None) -> None:
    """Clear all recorded telemetry (fresh registry + tracer).

    ``max_spans`` bounds the new tracer's buffer (``None``: the default);
    a non-positive value raises before anything is cleared.
    """
    global _default_registry, _default_tracer
    tracer = Tracer() if max_spans is None else Tracer(max_spans)
    _default_registry, _default_tracer = MetricsRegistry(), tracer


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Series",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "DEFAULT_TIME_BUCKETS",
    "percentiles",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_registry",
    "get_tracer",
    "set_registry",
    "set_tracer",
    "set_enabled",
    "enabled",
    "reset",
    "to_jsonable",
    "dump_json",
    "spans_to_jsonl_lines",
    "write_spans_jsonl",
    "spans_to_chrome_events",
    "build_chrome_trace",
    "write_chrome_trace",
    "report_to_chrome_events",
    "kernel_trace_to_chrome_events",
    "profile_to_chrome_events",
    "cluster_to_chrome_events",
    "schedule_to_chrome_events",
    "PHASE_ORDER",
    "PhaseProfile",
    "PhaseSegment",
    "BottleneckReport",
    "attribute_bottleneck",
    "build_rank_timelines",
    "sorted_phases",
    "BaselineStore",
    "BenchRecord",
    "RegressionVerdict",
    "robust_stats",
    "detect_regression",
    "host_fingerprint",
    "current_git_sha",
]
