"""Smoke tests for the CLI's observability surface: --json output modes,
--emit-trace / --metrics-json flags, tune --progress, simulate --profile,
and trace export through simulate --emit-trace."""

import json
import os

import pytest

from repro import obs
from repro.cli import main


@pytest.fixture(autouse=True)
def fresh_obs():
    obs.reset()
    yield
    obs.reset()


SHAPE_ARGS = ["--n", "512", "--h", "64", "--f", "128", "--v", "4", "--ct", "8"]


class TestJsonOutputModes:
    def test_platforms_json(self, capsys):
        assert main(["platforms", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "upmem" in payload
        assert payload["upmem"]["num_pes"] > 0
        assert payload["upmem"]["buffer_bytes"] > 0

    def test_flops_json(self, capsys):
        assert main(["flops", "--n", "1024", "--h", "1024", "--f", "1024",
                     "--v", "2", "--ct", "16", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["flop_reduction"] == pytest.approx(3.657, abs=1e-3)
        assert payload["gemm"]["total"] > payload["lut_nn"]["total"]
        assert 0 <= payload["lut_nn"]["multiplication_fraction"] <= 1

    def test_compare_json(self, capsys):
        assert main(["compare", "--model", "bert-base", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["model"] == "BERT-base"
        engines = payload["engines"]
        assert any(name.startswith("pim-dl") for name in engines)
        for report in engines.values():
            assert report["total_s"] > 0
            assert "per_category_seconds" in report


class TestTelemetryFlags:
    def test_tune_progress_and_metrics_json(self, capsys, tmp_path):
        metrics_path = str(tmp_path / "metrics.json")
        assert main(["tune", *SHAPE_ARGS, "--progress", "20",
                     "--metrics-json", metrics_path]) == 0
        err = capsys.readouterr().err
        assert "[tune] 20 candidates" in err
        with open(metrics_path) as fh:
            metrics = json.load(fh)
        assert metrics["tuner.candidates_evaluated"]["value"] > 0
        assert metrics["tuner.best_cost_s"]["value"] > 0

    def test_simulate_emit_trace(self, tmp_path):
        trace_path = str(tmp_path / "sim.json")
        assert main(["simulate", *SHAPE_ARGS, "--emit-trace", trace_path]) == 0
        with open(trace_path) as fh:
            document = json.load(fh)
        cats = {e.get("cat") for e in document["traceEvents"]}
        assert "pim-kernel" in cats  # simulator micro-kernel timeline

    def test_compare_emit_trace_is_loadable_and_complete(self, tmp_path):
        """Acceptance: one file holds engine op spans + micro-kernel events."""
        trace_path = str(tmp_path / "compare.json")
        assert main(["compare", "--model", "bert-base",
                     "--emit-trace", trace_path]) == 0
        assert os.path.exists(trace_path)
        with open(trace_path) as fh:
            document = json.load(fh)
        events = document["traceEvents"]
        cats = {e.get("cat") for e in events}
        # Engine-level op timelines...
        assert {"lut", "ccs", "gemm", "attention", "elementwise"} <= cats
        # ...and simulated micro-kernel events, in the same file.
        assert "pim-kernel" in cats
        timed = [e for e in events if e.get("ph") != "M"]
        ts = [e["ts"] for e in timed]
        assert ts == sorted(ts)
        assert all(e["dur"] >= 0 for e in timed if e["ph"] == "X")
        # The metrics snapshot rides along.
        assert document["otherData"]["metrics"]["engine.runs"]["value"] == 4


class TestProfileFlag:
    def test_simulate_profile_prints_bottleneck(self, capsys):
        assert main(["simulate", *SHAPE_ARGS, "--profile"]) == 0
        out = capsys.readouterr().out
        assert "bottleneck:" in out
        assert "reduce" in out

    def test_simulate_profile_writes_per_rank_trace(self, capsys, tmp_path):
        """Acceptance: --profile prints a BottleneckReport, and the per-rank
        lanes ride in the --emit-trace file."""
        trace_path = str(tmp_path / "ranks.json")
        assert main(["simulate", *SHAPE_ARGS, "--profile",
                     "--emit-trace", trace_path]) == 0
        out = capsys.readouterr().out
        assert "bottleneck:" in out
        with open(trace_path) as fh:
            document = json.load(fh)
        rank_events = [
            e for e in document["traceEvents"] if e.get("cat") == "pim-rank"
        ]
        assert rank_events
        assert all(e["ph"] == "X" for e in rank_events)

    def test_compare_attribution_per_engine(self, capsys):
        assert main(["compare", "--model", "bert-base", "--attribution"]) == 0
        out = capsys.readouterr().out
        assert "[pim-dl" in out
        assert out.count("bottleneck:") >= 2  # every engine with phases


class TestServeSimRateValidation:
    ARGS = ["serve-sim", "--model", "bert-base", "--requests", "2"]

    def test_zero_rate_rejected(self, capsys):
        assert main([*self.ARGS, "--rate", "0"]) == 2
        assert "--rate must be positive" in capsys.readouterr().err

    def test_negative_rate_rejected(self, capsys):
        assert main([*self.ARGS, "--rate", "-3"]) == 2
        assert "--rate must be positive" in capsys.readouterr().err

    def test_zero_utilization_rejected(self, capsys):
        assert main([*self.ARGS, "--utilization", "0"]) == 2
        assert "--utilization must be positive" in capsys.readouterr().err


class TestTraceExport:
    def test_trace_export_writes_loadable_file(self, capsys, tmp_path):
        """A simulated kernel's Chrome trace is exported by
        ``simulate --emit-trace``: the kernel's micro-kernel events and the
        tuner's span land in one loadable file."""
        out = str(tmp_path / "kernel.json")
        assert main(["simulate", *SHAPE_ARGS, "--emit-trace", out]) == 0
        assert "chrome trace written" in capsys.readouterr().err
        with open(out) as fh:
            document = json.load(fh)
        events = document["traceEvents"]
        assert any(e.get("cat") == "pim-kernel" for e in events)
        assert any(e["name"] == "tuner.tune" for e in events)
        kinds = {e["name"] for e in events if e.get("cat") == "pim-kernel"}
        assert "reduce" in kinds
