"""Metrics primitives: counters, gauges, fixed-bucket histograms, series.

A :class:`MetricsRegistry` is a named collection of instruments.  Every
subsystem records into the process-wide default registry (see
:func:`repro.obs.get_registry`), so after any run — a tuner search, a
calibration pass, an end-to-end engine comparison — a single
``snapshot()`` answers "what happened", and ``to_json()`` makes it
machine-readable for the CLI's ``--metrics-json`` flag.

Instruments are cheap (a lock plus a few float ops) and always-on; the
``repro.obs`` package swaps in null instruments when telemetry is
disabled.  Hot loops still record per run, not per call: the serving
scheduler counts its steps locally and calls each counter's ``inc`` and
the occupancy series' :meth:`Series.extend` once per run.
``tests/test_obs_overhead.py`` (tuner search) and
``tests/test_serving_telemetry.py`` (serving replay) guard the overhead.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

#: Default histogram bucket upper edges for latencies in seconds
#: (1 us .. 100 s, log-spaced by decade thirds).
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = tuple(
    base * 10.0 ** exp
    for exp in range(-6, 3)
    for base in (1.0, 2.0, 5.0)
)


def _check_percentile(q: float) -> None:
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")


def _interpolate(ordered: Sequence[float], q: float) -> float:
    """Linear interpolation between order statistics (``numpy.percentile``)."""
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def percentiles(values: Sequence[float], qs: Sequence[float]) -> List[float]:
    """The ``qs``-th percentiles (0..100) of ``values``, sorting once.

    Identical to :meth:`Histogram.percentile` over a histogram that
    retained every value, without building one per call; an empty
    ``values`` gives 0.0 for every ``q``.
    """
    for q in qs:
        _check_percentile(q)
    if len(values) == 0:
        return [0.0] * len(qs)
    ordered = sorted(float(v) for v in values)
    return [_interpolate(ordered, q) for q in qs]


def left_sum(values: Iterable[float]) -> float:
    """Sum ``values`` left to right, one rounded addition at a time.

    Builtin ``sum`` compensates float additions (Neumaier) from Python 3.12
    on, so its last bit depends on the interpreter.  Recorded figures (the
    parity tests' literals) are this left fold's on every version; like
    ``sum``, it starts from the int ``0``.
    """
    total = 0
    for value in values:
        total += value
    return total


class Counter:
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, description: str = ""):
        self.name = name
        self.description = description
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> dict:
        return {"type": self.kind, "value": self._value}


class Gauge:
    """Last-write-wins scalar (e.g. best-cost-so-far)."""

    kind = "gauge"

    def __init__(self, name: str, description: str = ""):
        self.name = name
        self.description = description
        self._lock = threading.Lock()
        self._value: Optional[float] = None

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, amount: float) -> None:
        with self._lock:
            self._value = (self._value or 0.0) + amount

    @property
    def value(self) -> Optional[float]:
        return self._value

    def snapshot(self) -> dict:
        return {"type": self.kind, "value": self._value}


class Histogram:
    """Fixed-bucket histogram with count/sum/min/max and percentiles.

    ``buckets`` are ascending upper edges; an observation lands in the
    first bucket whose edge is >= the value, or in the overflow slot.
    The first ``sample_capacity`` raw observations are additionally
    retained so :meth:`percentile` is exact for runs that fit; beyond
    that the samples are discarded and percentiles interpolate from the
    bucket bounds.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
        description: str = "",
        sample_capacity: int = 2048,
    ):
        edges = tuple(float(b) for b in buckets)
        if not edges:
            raise ValueError("histogram needs at least one bucket edge")
        if list(edges) != sorted(set(edges)):
            raise ValueError(f"bucket edges must be strictly ascending: {edges}")
        self.name = name
        self.description = description
        self.edges = edges
        self.sample_capacity = max(0, int(sample_capacity))
        self._lock = threading.Lock()
        self._counts = [0] * (len(edges) + 1)  # +1 overflow
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._samples: Optional[List[float]] = [] if self.sample_capacity else None

    def observe(self, value: float) -> None:
        value = float(value)
        idx = bisect_left(self.edges, value)
        with self._lock:
            self._counts[idx] += 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value
            if self._samples is not None:
                if len(self._samples) < self.sample_capacity:
                    self._samples.append(value)
                else:
                    # Exactness is all-or-nothing: a partial sample set
                    # would silently bias the tail percentiles.
                    self._samples = None

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else float("nan")

    def bucket_counts(self) -> List[Tuple[Optional[float], int]]:
        """(upper_edge, count) pairs; the final edge ``None`` is overflow."""
        edges: List[Optional[float]] = list(self.edges) + [None]
        return list(zip(edges, self._counts))

    @property
    def samples_complete(self) -> bool:
        """True while every observation so far is retained verbatim."""
        return self._samples is not None

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0..100) of the observed values.

        Exact (linear interpolation between order statistics, matching
        ``numpy.percentile``) while the retained samples cover every
        observation; otherwise interpolated from the bucket bounds, with
        the observed min/max tightening the two edge buckets.  ``q=0`` and
        ``q=100`` always return the exact observed min/max.  An empty
        histogram returns 0.0 on every path — never NaN, so callers can
        render snapshots without NaN-propagation or numpy warnings.
        """
        _check_percentile(q)
        with self._lock:
            if self._count == 0:
                return 0.0
            if self._samples is not None:
                return _interpolate(sorted(self._samples), q)
            # Bucket interpolation: walk the cumulative distribution to the
            # target rank, then place the value proportionally inside the
            # bucket that crosses it.  The observed min/max tighten the
            # first and last (overflow) buckets.
            target = q / 100.0 * self._count
            cumulative = 0
            prev_edge: Optional[float] = None
            for edge, count in zip(list(self.edges) + [None], self._counts):
                if count:
                    lo = prev_edge if prev_edge is not None else self._min
                    hi = edge if edge is not None else self._max
                    if self._min is not None:
                        lo = max(lo, self._min) if lo is not None else self._min
                    if self._max is not None:
                        hi = min(hi, self._max) if hi is not None else self._max
                    hi = max(hi, lo)
                    if cumulative + count >= target:
                        frac = (target - cumulative) / count
                        return lo + (hi - lo) * frac
                    cumulative += count
                if edge is not None:
                    prev_edge = edge
            return float(self._max) if self._max is not None else 0.0

    def snapshot(self) -> dict:
        snap = {
            "type": self.kind,
            "count": self._count,
            "sum": self._sum,
            "min": self._min,
            "max": self._max,
            "buckets": [
                {"le": edge, "count": count} for edge, count in self.bucket_counts()
            ],
        }
        if self._samples is not None:
            snap["samples"] = list(self._samples)
        return snap

    @classmethod
    def from_snapshot(
        cls, name: str, snap: dict, description: str = ""
    ) -> "Histogram":
        """Rebuild a histogram from its :meth:`snapshot` dict.

        Percentiles of the round-tripped instrument match the original:
        exactly when the snapshot carried the full sample set, and to the
        same bucket interpolation otherwise.
        """
        if snap.get("type") != cls.kind:
            raise ValueError(f"not a histogram snapshot: {snap.get('type')!r}")
        buckets = snap.get("buckets", [])
        edges = [b["le"] for b in buckets if b.get("le") is not None]
        if not edges:
            raise ValueError("snapshot has no bucket edges")
        samples = snap.get("samples")
        hist = cls(
            name,
            buckets=edges,
            description=description,
            sample_capacity=len(samples) if samples is not None else 0,
        )
        hist._counts = [int(b.get("count", 0)) for b in buckets]
        if len(hist._counts) != len(edges) + 1:
            hist._counts += [0] * (len(edges) + 1 - len(hist._counts))
        hist._count = int(snap.get("count", 0))
        hist._sum = float(snap.get("sum", 0.0))
        hist._min = snap.get("min")
        hist._max = snap.get("max")
        hist._samples = [float(v) for v in samples] if samples is not None else None
        return hist


class Series:
    """Bounded append-only time series — per-step loss curves and the like.

    Keeps the most recent ``capacity`` points as ``(index, value)`` pairs;
    the index is the global observation number, so a truncated series still
    shows *where* in the run its points came from.  A full series drops its
    oldest point in O(1).
    """

    kind = "series"

    def __init__(self, name: str, capacity: int = 4096, description: str = ""):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.name = name
        self.description = description
        self.capacity = capacity
        self._lock = threading.Lock()
        self._points: Deque[Tuple[int, float]] = deque(maxlen=capacity)
        self._next_index = 0

    def append(self, value: float) -> None:
        with self._lock:
            self._points.append((self._next_index, float(value)))
            self._next_index += 1

    def extend(self, values: Iterable[float]) -> None:
        """Append every value in order; the same state as one
        :meth:`append` per value, converting only the points it keeps."""
        values = list(values)
        kept = values[-self.capacity:]
        with self._lock:
            self._next_index += len(values)
            self._points.extend(
                zip(range(self._next_index - len(kept), self._next_index),
                    map(float, kept))
            )

    @property
    def count(self) -> int:
        return self._next_index

    def points(self) -> List[Tuple[int, float]]:
        with self._lock:
            return list(self._points)

    def values(self) -> List[float]:
        return [v for _, v in self.points()]

    def snapshot(self) -> dict:
        return {
            "type": self.kind,
            "count": self._next_index,
            "points": [[i, v] for i, v in self.points()],
        }


class MetricsRegistry:
    """Named collection of instruments with get-or-create semantics."""

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments: Dict[str, object] = {}

    def _get_or_create(self, name: str, factory, kind: str):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if existing.kind != kind:
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            instrument = factory()
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, description: str = "") -> Counter:
        return self._get_or_create(name, lambda: Counter(name, description), "counter")

    def gauge(self, name: str, description: str = "") -> Gauge:
        return self._get_or_create(name, lambda: Gauge(name, description), "gauge")

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
        description: str = "",
        sample_capacity: int = 2048,
    ) -> Histogram:
        return self._get_or_create(
            name,
            lambda: Histogram(name, buckets, description, sample_capacity),
            "histogram",
        )

    def series(
        self, name: str, capacity: int = 4096, description: str = ""
    ) -> Series:
        return self._get_or_create(
            name, lambda: Series(name, capacity, description), "series"
        )

    def get(self, name: str):
        return self._instruments.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._instruments)

    def reset(self) -> None:
        with self._lock:
            self._instruments.clear()

    def snapshot(self) -> Dict[str, dict]:
        """Plain-dict view of every instrument, keyed by name."""
        with self._lock:
            instruments = dict(self._instruments)
        return {name: inst.snapshot() for name, inst in sorted(instruments.items())}

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments


class _NullInstrument:
    """No-op stand-in used when telemetry is disabled."""

    kind = "null"
    name = "null"
    description = ""
    value = None
    count = 0
    sum = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def add(self, amount: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def percentile(self, q: float) -> float:
        # Matches an empty Histogram: 0.0, never NaN.
        return 0.0

    def append(self, value: float) -> None:
        pass

    def extend(self, values) -> None:
        pass

    def points(self) -> list:
        return []

    def values(self) -> list:
        return []

    def snapshot(self) -> dict:
        return {"type": "null"}


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry(MetricsRegistry):
    """Registry that hands out shared no-op instruments and records nothing."""

    def _get_or_create(self, name, factory, kind):
        return _NULL_INSTRUMENT

    def snapshot(self) -> Dict[str, dict]:
        return {}


NULL_REGISTRY = NullRegistry()
