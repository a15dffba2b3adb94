"""Execution tracing for the PIM kernel simulator.

Records the per-tile event stream of one PE's micro-kernel execution —
which tensor tiles were loaded/stored when, and how long each event took —
and renders it as a text timeline.  Useful for understanding *why* a mapping
is slow (e.g. seeing output partial-sum thrashing when the CB loop sits
outside the N/F loops, paper §5.2.2).

The events come from the simulator's own explicit loop-nest walk, so
tracing is intended for sub-LUT tiles of moderate size (the same
``MAX_EXPLICIT_TILES`` bound as the simulator).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..core.codebook import LUTShape
from ..mapping.space import Mapping, _loop_trips, is_legal
from .platforms import PIMPlatform
from .simulator import MAX_EXPLICIT_TILES, PIMSimulator


@dataclass(frozen=True)
class TraceEvent:
    """One micro-kernel event on the traced PE."""

    time_s: float
    duration_s: float
    kind: str  # "index_load" | "output_load" | "output_store" | "lut_load" | "reduce"
    tile: tuple  # loop indices (n, f, cb) at the event

    @property
    def end_s(self) -> float:
        return self.time_s + self.duration_s


@dataclass
class KernelTrace:
    """Event stream of one PE executing one sub-LUT workload."""

    shape: LUTShape
    mapping: Mapping
    events: List[TraceEvent] = field(default_factory=list)

    @property
    def total_s(self) -> float:
        return self.events[-1].end_s if self.events else 0.0

    def time_by_kind(self) -> dict:
        out: dict = {}
        for event in self.events:
            out[event.kind] = out.get(event.kind, 0.0) + event.duration_s
        return out

    def count_by_kind(self) -> dict:
        out: dict = {}
        for event in self.events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    def to_chrome_events(self, pid: int = 2) -> List[dict]:
        """This trace as Chrome-trace events (one timeline row per kind).

        The bridge in :mod:`repro.obs.bridge` owns the schema, so
        micro-kernel timelines merge with engine spans in one file; see
        ``repro.obs.write_chrome_trace`` / ``python -m repro trace-export``.
        """
        from ..obs.bridge import kernel_trace_to_chrome_events

        return kernel_trace_to_chrome_events(self, pid=pid)

    def to_jsonable(self) -> dict:
        """Machine-readable summary of the event stream."""
        return {
            "total_s": self.total_s,
            "events": len(self.events),
            "time_by_kind": self.time_by_kind(),
            "count_by_kind": self.count_by_kind(),
        }

    def render(self, width: int = 64, max_rows: int = 40) -> str:
        """Plain-text timeline: one row per event kind, '#' marks busy time."""
        if not self.events:
            return "(empty trace)"
        total = self.total_s
        kinds = sorted({e.kind for e in self.events})
        lines = [f"kernel trace: {len(self.events)} events, {total * 1e6:.1f} us"]
        for kind in kinds:
            row = [" "] * width
            busy = 0.0
            for event in self.events:
                if event.kind != kind:
                    continue
                busy += event.duration_s
                start = int(event.time_s / total * (width - 1))
                stop = max(int(event.end_s / total * (width - 1)), start)
                for i in range(start, stop + 1):
                    row[i] = "#"
            lines.append(f"{kind:>13} |{''.join(row)}| {busy / total:6.1%}")
        summary = ", ".join(
            f"{kind}={count}" for kind, count in sorted(self.count_by_kind().items())
        )
        lines.append(f"events: {summary}")
        return "\n".join(lines)


def trace_kernel(
    shape: LUTShape, mapping: Mapping, platform: PIMPlatform
) -> KernelTrace:
    """Trace one PE's micro-kernel execution under ``mapping``.

    The trace is a view of :class:`~repro.pim.simulator.PIMSimulator`'s
    explicit loop-nest walk: each event carries the simulator's own cost,
    and the loop overhead that opens every tile advances the clock without
    an event, so ``trace.total_s`` is the simulator's per-PE kernel time
    (up to summation order).
    """
    if not is_legal(shape, mapping, platform):
        raise ValueError(f"illegal mapping {mapping} for shape {shape}")
    trips = _loop_trips(shape, mapping)
    total_tiles = trips["n"] * trips["f"] * trips["cb"]
    if total_tiles > MAX_EXPLICIT_TILES:
        raise ValueError(
            f"trace would cover {total_tiles} tiles; "
            f"choose larger m-tiles (bound {MAX_EXPLICIT_TILES})"
        )

    trace = KernelTrace(shape=shape, mapping=mapping)
    clock = 0.0

    def step(kind: str, seconds: float, tile: tuple) -> None:
        nonlocal clock
        if kind != "overhead":
            trace.events.append(TraceEvent(clock, seconds, kind, tile))
        clock += seconds

    PIMSimulator(platform)._micro_kernel_time(shape, mapping, sink=step)
    return trace
