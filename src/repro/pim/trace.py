"""Execution tracing for the PIM kernel simulator.

Records the per-tile event stream of one PE's micro-kernel execution —
which tensor tiles were loaded/stored when, and how long each event took —
and renders it as a text timeline.  Useful for understanding *why* a mapping
is slow (e.g. seeing output partial-sum thrashing when the CB loop sits
outside the N/F loops, paper §5.2.2).

The events are a replay of the simulator's own loop-nest walk.  The
simulator prices any tile count; a trace keeps one Python object per
event, so :func:`trace_kernel` refuses sub-LUT tiles past the trace bound,
:data:`MAX_TRACE_TILES`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from ..core.codebook import LUTShape
from ..mapping.space import Mapping, is_legal
from .platforms import PIMPlatform
from .simulator import TILE_EVENTS, PIMSimulator, _clock

#: The trace bound: most m-tiles one trace records (it bounds the event
#: list, not the simulated timing).
MAX_TRACE_TILES = 100_000


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
        ``repro.obs.write_chrome_trace`` / ``python -m repro simulate
        --emit-trace PATH``.
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

    def render(self, width: int = 64) -> str:
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

    The trace replays :class:`~repro.pim.simulator.PIMSimulator`'s walk:
    each event carries the simulator's own cost, and the loop overhead
    that opens every tile advances the clock without an event, so
    ``trace.total_s`` is the simulator's per-PE kernel time (up to
    summation order).
    """
    if not is_legal(shape, mapping, platform):
        raise ValueError(f"illegal mapping {mapping} for shape {shape}")
    simulator = PIMSimulator(platform)
    costs = simulator._event_costs(shape, mapping)
    if costs.tiles > MAX_TRACE_TILES:
        raise ValueError(
            f"trace would cover {costs.tiles} tiles; "
            f"choose larger m-tiles (trace bound {MAX_TRACE_TILES})"
        )

    seconds = costs.tile_seconds
    trace = KernelTrace(shape=shape, mapping=mapping)
    clock = 0.0
    if mapping.load_scheme == "static":
        trace.events.append(TraceEvent(clock, costs.static_stage, "lut_load", (-1, -1, -1)))
        clock += costs.static_stage
    for indices, events in simulator._walk(mapping, costs):
        starts = _clock(clock, np.where(events, seconds, 0.0)).tolist()
        clock = starts[-1]
        tiles = list(zip(*(index.tolist() for index in indices)))
        for row, kind in zip(*np.nonzero(events[:, 1:])):
            kind += 1  # the overhead column issues no event
            trace.events.append(TraceEvent(
                starts[row * len(TILE_EVENTS) + kind], seconds[kind],
                TILE_EVENTS[kind], tiles[row],
            ))
    trace.events.append(TraceEvent(clock, costs.output_move, "output_store", tiles[-1]))
    return trace
