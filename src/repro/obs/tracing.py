"""Span tracing: nested, thread-safe, wall-clock timed regions.

A :class:`Tracer` opens spans (:class:`Span`) through context managers::

    with tracer.span("tuner.tune", shape=str(shape)) as sp:
        ...
        sp.set_attribute("candidates", n)

Spans nest per thread (the enclosing span becomes the parent), carry
key-value attributes, and are timed with ``time.perf_counter`` against the
tracer's epoch so all spans of one process share a timebase.  Finished
spans accumulate in a bounded buffer; exporters (``repro.obs.export``)
render them as JSONL or Chrome-trace JSON viewable in Perfetto /
``chrome://tracing``.

The buffer holds no ``Span`` objects.  A closed span is kept as a record
``(name, span_id, parent_id, thread_id, start_s, end_s)`` plus its
attribute dict, in two deques of the same bound, and
:meth:`Tracer.finished_spans` builds the ``Span`` views on request.
CPython's cyclic GC untracks a tuple of atomic values at its first young
collection and never tracks a dict of atomic values, so a full buffer
gives a full collection nothing to walk.  A slotted ``Span`` stays
tracked for as long as it lives: 100,000 of them buffered set off four
full collections in one perfbench serve-stream call.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from time import perf_counter
from typing import Dict, List, Optional, Tuple

#: A finished span as buffered: name, span id, parent id, thread id,
#: start and end seconds.
_Record = Tuple[str, int, Optional[int], int, float, float]


class Span:
    """One timed region, and the context manager that times it.

    :meth:`Tracer.span` returns the span unopened.  ``__enter__`` takes its
    id, its parent (the thread's current span), its thread and its start;
    ``__exit__`` closes it and buffers its record, exception or not, and
    lets the exception propagate.  ``start_s``/``end_s`` are seconds since
    the tracer's epoch; ``end_s`` is ``None`` while the span is open, and
    the id, parent, thread and start are set only once it has been entered.

    One slotted object: the serving scheduler opens a span per step, and
    its step span (one attribute at open, two set inside) costs 1.3 us on
    a 2-core host, against 1.8 us when a separate context-manager object
    opened a dataclass span (best of 250 runs of 4,000 spans each).
    """

    __slots__ = ("name", "span_id", "parent_id", "thread_id", "start_s",
                 "end_s", "attributes", "_tracer", "_stack")

    def __init__(self, tracer: "Tracer", name: str,
                 attributes: Dict[str, object]):
        self._tracer = tracer
        self.name = name
        self.attributes = attributes
        self.end_s: Optional[float] = None

    def __enter__(self) -> "Span":
        tracer = self._tracer
        thread = tracer._thread
        stack = self._stack = thread.stack
        self.span_id = next(tracer._ids)
        self.parent_id = stack[-1].span_id if stack else None
        self.thread_id = thread.ident
        stack.append(self)
        self.start_s = perf_counter() - tracer.epoch_perf
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        end_s = self.end_s = perf_counter() - tracer.epoch_perf
        self._stack.pop()
        with tracer._lock:
            tracer._finished.append((self.name, self.span_id, self.parent_id,
                                     self.thread_id, self.start_s, end_s))
            tracer._attributes.append(self.attributes)
        return False

    @classmethod
    def _closed(cls, record: _Record, attributes: Dict[str, object]) -> "Span":
        """A closed span's view of a buffered record and its attributes."""
        span = cls.__new__(cls)
        (span.name, span.span_id, span.parent_id, span.thread_id,
         span.start_s, span.end_s) = record
        span.attributes = attributes
        return span

    @property
    def duration_s(self) -> float:
        if self.end_s is None:
            raise ValueError(f"span {self.name!r} is still open")
        return self.end_s - self.start_s

    def set_attribute(self, key: str, value: object) -> None:
        self.attributes[key] = value

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "thread_id": self.thread_id,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_s": self.end_s - self.start_s if self.end_s is not None else None,
            "attributes": dict(self.attributes),
        }

    def __repr__(self) -> str:
        return (f"Span(name={self.name!r}, span_id={getattr(self, 'span_id', None)}, "
                f"parent_id={getattr(self, 'parent_id', None)}, end_s={self.end_s})")


class _ThreadSpans(threading.local):
    """One thread's id and open-span stack, made on its first span."""

    def __init__(self) -> None:
        self.ident = threading.get_ident()
        self.stack: List[Span] = []


class Tracer:
    """Produces nested spans and buffers the finished ones.

    Parameters
    ----------
    max_spans:
        Bound on the finished-span buffer (oldest dropped first), so
        always-on tracing cannot grow memory without limit.  Must be
        positive: a zero-length buffer would silently record nothing.
    """

    def __init__(self, max_spans: int = 100_000):
        if max_spans <= 0:
            raise ValueError("max_spans must be positive")
        self.epoch_perf = perf_counter()
        self.epoch_unix = time.time()
        self._ids = itertools.count(1)
        #: Finished spans as records, and their attribute dicts, in step.
        self._finished: deque = deque(maxlen=max_spans)
        self._attributes: deque = deque(maxlen=max_spans)
        self._lock = threading.Lock()
        self._thread = _ThreadSpans()

    def current_span(self) -> Optional[Span]:
        stack = self._thread.stack
        return stack[-1] if stack else None

    def span(self, name: str, **attributes) -> Span:
        """A child span of the thread's current span when it is entered."""
        return Span(self, name, attributes)

    def finished_spans(self) -> List[Span]:
        """Views of the buffered spans, oldest first.

        Each view's ``attributes`` is the span's own dict, so a value set
        on the span after it closed shows.
        """
        with self._lock:
            records, attributes = list(self._finished), list(self._attributes)
        return list(map(Span._closed, records, attributes))

    def clear(self) -> None:
        with self._lock:
            self._finished.clear()
            self._attributes.clear()

    def __len__(self) -> int:
        return len(self._finished)


class _NullSpan:
    """Shared no-op span handed out by :class:`NullTracer`."""

    name = "null"
    span_id = 0
    parent_id = None
    thread_id = 0
    start_s = 0.0
    end_s = 0.0
    duration_s = 0.0
    attributes: Dict[str, object] = {}

    def set_attribute(self, key: str, value: object) -> None:
        pass

    def to_dict(self) -> dict:
        return {}

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer(Tracer):
    """Tracer that records nothing; ``span()`` costs one attribute lookup."""

    def __init__(self):
        super().__init__(max_spans=1)

    def span(self, name: str, **attributes) -> _NullSpan:  # type: ignore[override]
        return _NULL_SPAN

    def current_span(self) -> None:
        return None


NULL_TRACER = NullTracer()
