"""Tests for span tracing, the exporters, and the Chrome-trace bridges."""

import gc
import json
import sys
import threading

import pytest

from repro.obs import (
    Tracer,
    build_chrome_trace,
    report_to_chrome_events,
    spans_to_chrome_events,
    spans_to_jsonl_lines,
    to_jsonable,
    write_chrome_trace,
    write_spans_jsonl,
)
from repro.core import LUTShape
from repro.engine.report import EngineReport, OpLatency
from repro.mapping import AutoTuner
from repro.pim import PIMSimulator, get_platform, trace_kernel


@pytest.fixture()
def tracer():
    return Tracer()


def make_spans(tracer):
    with tracer.span("outer", stage="demo"):
        with tracer.span("inner-1"):
            pass
        with tracer.span("inner-2") as sp:
            sp.set_attribute("k", 3)
    return tracer.finished_spans()


class TestTracer:
    def test_nested_span_parenting(self, tracer):
        spans = make_spans(tracer)
        by_name = {s.name: s for s in spans}
        outer = by_name["outer"]
        assert outer.parent_id is None
        assert by_name["inner-1"].parent_id == outer.span_id
        assert by_name["inner-2"].parent_id == outer.span_id
        assert by_name["inner-2"].attributes["k"] == 3

    def test_children_finish_before_parent(self, tracer):
        spans = make_spans(tracer)
        # Finished order: children first, then the parent.
        assert [s.name for s in spans] == ["inner-1", "inner-2", "outer"]
        outer = spans[-1]
        for child in spans[:-1]:
            assert child.start_s >= outer.start_s
            assert child.end_s <= outer.end_s

    def test_duration_requires_closed_span(self, tracer):
        with tracer.span("open") as sp:
            with pytest.raises(ValueError):
                _ = sp.duration_s
        assert sp.duration_s >= 0.0

    def test_threads_do_not_share_span_stacks(self, tracer):
        seen = {}

        def work(tag):
            with tracer.span(f"thread-{tag}") as sp:
                seen[tag] = sp.parent_id

        with tracer.span("main-root"):
            threads = [
                threading.Thread(target=work, args=(i,)) for i in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        # Spans opened on other threads must not parent onto main's stack.
        assert seen == {0: None, 1: None}

    def test_finished_buffer_is_bounded(self):
        tracer = Tracer(max_spans=4)
        for i in range(10):
            with tracer.span(f"s{i}"):
                pass
        names = [s.name for s in tracer.finished_spans()]
        assert names == ["s6", "s7", "s8", "s9"]

    def test_exception_still_closes_span(self, tracer):
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        (span,) = tracer.finished_spans()
        assert span.end_s is not None
        assert tracer.current_span() is None


_FIELDS = ("name", "span_id", "parent_id", "thread_id", "start_s", "end_s",
           "duration_s")


class TestFinishedSpanBuffer:
    """Finished spans are buffered as records and read back as views."""

    def test_buffered_spans_leave_nothing_for_the_gc_to_track(self):
        tracer = Tracer()
        gc.collect()
        before = len(gc.get_objects())
        for i in range(10_000):
            with tracer.span("step", batch_seqs=i % 8) as sp:
                sp.set_attribute("prefill_tokens", i)
                sp.set_attribute("model_seconds", i * 1e-3)
                sp.set_attribute("note", None)
        gc.collect()
        assert len(tracer) == 10_000
        # A buffered Span object would add 10,000 tracked objects.
        assert len(gc.get_objects()) - before < 100

    def test_views_equal_the_live_spans_field_by_field(self, tracer):
        live = []
        with tracer.span("outer", stage="demo") as outer:
            live.append(outer)
            for i in range(3):
                with tracer.span("inner", index=i) as sp:
                    sp.set_attribute("k", i * 0.5)
                live.append(sp)
        views = tracer.finished_spans()
        assert [v.name for v in views] == ["inner"] * 3 + ["outer"]
        for view, span in zip(views, live[1:] + live[:1]):
            assert view is not span
            for name in _FIELDS:
                assert getattr(view, name) == getattr(span, name), name
            assert view.attributes is span.attributes
            assert view.to_dict() == span.to_dict()

    def test_a_value_set_after_close_is_visible(self, tracer):
        with tracer.span("run") as sp:
            pass
        sp.set_attribute("completed", 12)
        (view,) = tracer.finished_spans()
        assert view.attributes == {"completed": 12}

    def test_threads_keep_records_and_attributes_in_step(self):
        """More threads than cores close spans at once, switching often:
        every view still carries its own span's attributes."""
        tracer = Tracer(max_spans=20_000)
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def work(tag):
                for i in range(6_000):
                    with tracer.span(f"t{tag}-{i}", label=f"t{tag}-{i}",
                                     owner=threading.get_ident()):
                        pass

            threads = [threading.Thread(target=work, args=(tag,), daemon=True)
                       for tag in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(previous)
        views = tracer.finished_spans()
        assert len(views) == 20_000  # the oldest 16,000 were evicted
        for view in views:
            assert view.attributes == {"label": view.name,
                                       "owner": view.thread_id}

    def test_eviction_drops_records_and_attributes_in_step(self):
        tracer = Tracer(max_spans=4)
        for i in range(10):
            with tracer.span(f"s{i}", index=i):
                pass
        views = tracer.finished_spans()
        assert len(tracer) == 4
        assert [(v.name, v.attributes) for v in views] == [
            (f"s{i}", {"index": i}) for i in range(6, 10)]
        tracer.clear()
        assert len(tracer) == 0 and tracer.finished_spans() == []
        with tracer.span("after", index=10):
            pass
        assert [(v.name, v.attributes) for v in tracer.finished_spans()] == [
            ("after", {"index": 10})]


class TestJsonlExport:
    def test_lines_are_valid_json(self, tracer):
        lines = spans_to_jsonl_lines(make_spans(tracer))
        assert len(lines) == 3
        parsed = [json.loads(line) for line in lines]
        assert {p["name"] for p in parsed} == {"outer", "inner-1", "inner-2"}
        for p in parsed:
            assert p["duration_s"] >= 0.0

    def test_write_jsonl_file(self, tracer, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        count = write_spans_jsonl(path, make_spans(tracer))
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert count == len(lines) == 3


class TestChromeSpansExport:
    def test_complete_events_have_ts_and_dur(self, tracer):
        events = spans_to_chrome_events(make_spans(tracer))
        timed = [e for e in events if e["ph"] == "X"]
        assert len(timed) == 3
        for e in timed:
            assert e["dur"] >= 0.0 and e["ts"] >= 0.0
            assert "span_id" in e["args"]

    def test_begin_end_pairs_are_balanced_and_ordered(self, tracer):
        events = spans_to_chrome_events(make_spans(tracer), complete=False)
        begins = [e for e in events if e["ph"] == "B"]
        ends = [e for e in events if e["ph"] == "E"]
        assert len(begins) == len(ends) == 3
        starts = {e["name"]: e["ts"] for e in begins}
        stops = {e["name"]: e["ts"] for e in ends}
        for name in starts:
            assert starts[name] <= stops[name]


class TestBridges:
    def test_report_events_are_sequential(self):
        report = EngineReport(engine="e", model="m")
        report.ops = [
            OpLatency("a", "host", "gemm", 1.0),
            OpLatency("b", "pim", "lut", 2.0),
            OpLatency("c", "host", "elementwise", 0.5),
        ]
        events = report_to_chrome_events(report, pid=7)
        timed = [e for e in events if e["ph"] == "X"]
        assert [e["ts"] for e in timed] == [0.0, 1e6, 3e6]
        assert [e["dur"] for e in timed] == [1e6, 2e6, 0.5e6]
        assert all(e["pid"] == 7 for e in timed)
        # host and pim land on different rows
        assert timed[0]["tid"] != timed[1]["tid"]

    def test_kernel_trace_bridge_matches_event_stream(self):
        platform = get_platform("upmem")
        shape = LUTShape(n=512, h=64, f=128, v=4, ct=8)
        mapping = AutoTuner(platform).tune(shape).mapping
        trace = trace_kernel(shape, mapping, platform)
        events = trace.to_chrome_events(pid=3)
        timed = [e for e in events if e["ph"] == "X"]
        assert len(timed) == len(trace.events)
        assert timed == sorted(timed, key=lambda e: e["ts"])
        assert {e["cat"] for e in timed} == {"pim-kernel"}
        # total modeled time round-trips (ts+dur of the last event).
        last = max(timed, key=lambda e: e["ts"] + e["dur"])
        assert (last["ts"] + last["dur"]) / 1e6 == pytest.approx(trace.total_s)


class TestChromeTraceDocument:
    def test_round_trip_valid_json_and_monotonic_ts(self, tracer, tmp_path):
        platform = get_platform("upmem")
        shape = LUTShape(n=512, h=64, f=128, v=4, ct=8)
        mapping = AutoTuner(platform).tune(shape).mapping
        trace = trace_kernel(shape, mapping, platform)
        report = EngineReport(engine="e", model="m")
        report.ops = [OpLatency("a", "host", "gemm", 1.0)]

        path = str(tmp_path / "trace.json")
        write_chrome_trace(
            path,
            spans=make_spans(tracer),
            reports=[report],
            kernel_traces=[trace],
            metrics={"k": 1},
        )
        with open(path) as fh:
            document = json.load(fh)

        assert document["displayTimeUnit"] == "ms"
        assert document["otherData"]["metrics"] == {"k": 1}
        events = document["traceEvents"]
        timed = [e for e in events if e["ph"] != "M"]
        assert timed  # spans + report ops + kernel events all present
        ts = [e["ts"] for e in timed]
        assert ts == sorted(ts)
        pids = {e["pid"] for e in timed}
        assert len(pids) == 3  # wall spans, engine report, kernel trace
        # metadata names every process
        names = {
            e["pid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert set(names) == pids

    def test_empty_document_is_valid(self):
        document = build_chrome_trace()
        assert document["traceEvents"] == []
        json.dumps(document)

    def test_mixed_sources_with_per_rank_lanes(self, tracer, tmp_path):
        """Satellite: wall spans + engine timeline + kernel trace + per-rank
        profile lanes coexist in one Perfetto-valid document."""
        platform = get_platform("upmem")
        shape = LUTShape(n=512, h=64, f=128, v=4, ct=8)
        mapping = AutoTuner(platform).tune(shape).mapping
        trace = trace_kernel(shape, mapping, platform)
        sim_report = PIMSimulator(platform).run(shape, mapping)
        engine_report = EngineReport(engine="e", model="m")
        engine_report.ops = [OpLatency("a", "host", "gemm", 1.0)]

        path = str(tmp_path / "mixed.json")
        document = write_chrome_trace(
            path,
            spans=make_spans(tracer),
            reports=[engine_report],
            kernel_traces=[trace],
            profiles=[sim_report.profile],
        )
        with open(path) as fh:
            assert json.load(fh) == document

        events = document["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        timed = [e for e in events if e["ph"] != "M"]

        # Perfetto-valid: metadata first, then ts-sorted timed events with
        # the required keys and non-negative durations.
        assert events[: len(metadata)] == metadata
        assert [e["ts"] for e in timed] == sorted(e["ts"] for e in timed)
        for e in timed:
            assert {"name", "ph", "ts", "pid", "tid"} <= set(e)
            if e["ph"] == "X":
                assert e["dur"] >= 0

        # Each source owns a distinct pid; within a pid, (tid, lane) rows
        # never collide across sources.
        assert len({e["pid"] for e in timed}) == 4
        rank_lanes = [e for e in timed if e.get("cat") == "pim-rank"]
        assert rank_lanes
        (rank_pid,) = {e["pid"] for e in rank_lanes}
        assert all(
            e["pid"] == rank_pid for e in timed if e.get("cat") == "pim-rank"
        )
        assert all(
            e["pid"] != rank_pid for e in timed if e.get("cat") != "pim-rank"
        )

        # Per-rank lanes: one thread per used rank, named in metadata.
        used_ranks = set(sim_report.profile.rank_segments)
        lane_tids = {e["tid"] for e in rank_lanes}
        assert lane_tids == {rank + 1 for rank in used_ranks}
        thread_names = {
            (e["pid"], e["tid"]): e["args"]["name"]
            for e in metadata
            if e["name"] == "thread_name"
        }
        for tid in lane_tids:
            assert "rank" in thread_names[(rank_pid, tid)]
        # The rank timeline spans the kernel's modeled duration.
        end = max(e["ts"] + e["dur"] for e in rank_lanes)
        assert end / 1e6 == pytest.approx(
            sim_report.total_s - sim_report.launch_s
        )


class TestToJsonable:
    def test_handles_numpy_and_dataclasses(self):
        import numpy as np
        from dataclasses import dataclass

        @dataclass
        class Point:
            x: int
            tag: tuple

        payload = to_jsonable(
            {
                "arr": np.arange(3),
                "scalar": np.float64(1.5),
                "point": Point(1, ("a", "b")),
                "set": {1},
                3: "int-key",
            }
        )
        assert payload["arr"] == [0, 1, 2]
        assert payload["scalar"] == 1.5
        assert payload["point"] == {"x": 1, "tag": ["a", "b"]}
        assert payload["set"] == [1]
        assert payload["3"] == "int-key"
        json.dumps(payload)
