"""Unit tests for mapping serialization, kernel tracing, and the CLI."""

import json
import os

import pytest

from repro.cli import main
from repro.core import LUTShape
from repro.mapping import (
    AutoTuner,
    Mapping,
    MappingCache,
    mapping_from_dict,
    mapping_to_dict,
)
from repro.pim import PIMSimulator, get_platform, trace_kernel


@pytest.fixture(scope="module")
def platform():
    return get_platform("upmem")


@pytest.fixture(scope="module")
def tuned(platform):
    shape = LUTShape(n=512, h=64, f=128, v=4, ct=8)
    return shape, AutoTuner(platform).tune(shape)


class TestMappingSerialization:
    def test_round_trip(self):
        m = Mapping(64, 32, 8, 8, 4, traversal=("f", "n", "cb"),
                    load_scheme="coarse", cb_load_tile=2, f_load_tile=4)
        assert mapping_from_dict(mapping_to_dict(m)) == m

    def test_dict_is_json_compatible(self):
        m = Mapping(64, 32, 8, 8, 4)
        assert json.loads(json.dumps(mapping_to_dict(m))) == mapping_to_dict(m)


class TestKernelTrace:
    def test_trace_total_matches_simulator_kernel_time(self, platform, tuned):
        shape, result = tuned
        trace = trace_kernel(shape, result.mapping, platform)
        sim = PIMSimulator(platform).run(shape, result.mapping)
        assert trace.total_s == pytest.approx(sim.kernel_s, rel=1e-9)

    def test_events_are_ordered_and_disjoint(self, platform, tuned):
        shape, result = tuned
        trace = trace_kernel(shape, result.mapping, platform)
        for before, after in zip(trace.events, trace.events[1:]):
            assert after.time_s >= before.end_s - 1e-15

    def test_time_by_kind_sums_to_busy_time(self, platform, tuned):
        shape, result = tuned
        trace = trace_kernel(shape, result.mapping, platform)
        busy = sum(trace.time_by_kind().values())
        assert busy <= trace.total_s + 1e-12
        assert "reduce" in trace.time_by_kind()

    def test_render_produces_rows(self, platform, tuned):
        shape, result = tuned
        text = trace_kernel(shape, result.mapping, platform).render(width=40)
        assert "reduce" in text
        assert "|" in text

    def test_rejects_illegal_mapping(self, platform):
        shape = LUTShape(n=512, h=64, f=128, v=4, ct=8)
        with pytest.raises(ValueError):
            trace_kernel(shape, Mapping(100, 32, 4, 8, 4), platform)

    def test_rejects_oversized_traces(self, platform):
        shape = LUTShape(n=65536, h=2048, f=4096, v=4, ct=16)
        huge = Mapping(n_s_tile=65536, f_s_tile=8, n_m_tile=1, f_m_tile=1,
                       cb_m_tile=1, load_scheme="fine", f_load_tile=1)
        with pytest.raises(ValueError):
            trace_kernel(shape, huge, platform)


class TestCLI:
    def test_platforms_command(self, capsys):
        assert main(["platforms"]) == 0
        out = capsys.readouterr().out
        assert "UPMEM" in out and "AiM" in out

    def test_flops_command(self, capsys):
        assert main(["flops", "--n", "1024", "--h", "1024", "--f", "1024",
                     "--v", "2", "--ct", "16"]) == 0
        out = capsys.readouterr().out
        assert "3.66x" in out

    def test_tune_cache_keys_amortization_mode(self, capsys, tmp_path, platform):
        """``tune --cache --amortize-lut`` must not answer with the full-mode
        entry: at this shape the full mode picks a static mapping and the
        resident-LUT mode a fine-grain one."""
        cache = str(tmp_path / "cache")
        args = ["--n", "128", "--h", "768", "--f", "768", "--v", "4", "--ct", "16"]
        shape = LUTShape(n=128, h=768, f=768, v=4, ct=16)
        full = AutoTuner(platform).tune(shape)
        amortized = AutoTuner(platform, amortize_lut_distribution=True).tune(shape)
        assert full.mapping != amortized.mapping

        assert main(["tune", *args, "--cache", cache]) == 0
        capsys.readouterr()
        assert main(["tune", *args, "--cache", cache, "--amortize-lut"]) == 0
        out = capsys.readouterr().out
        assert "search (" in out and "search skipped" not in out
        assert f"{amortized.cost * 1e3:.3f} ms" in out
        assert main(["tune", *args, "--cache", cache, "--amortize-lut"]) == 0
        assert "search skipped" in capsys.readouterr().out

        loaded = MappingCache(cache)
        assert len(loaded) == 2
        assert loaded.get(platform, shape).mapping == full.mapping
        assert loaded.get(platform, shape, amortize=True).mapping == amortized.mapping

        # simulate reads the full-mode entry.
        assert main(["simulate", *args, "--cache", cache]) == 0
        assert f"mapping source: cache {cache} (search skipped)" in (
            capsys.readouterr().out
        )

    def test_tune_rejects_jobs_flag(self, capsys):
        """``tune --jobs`` is gone: argparse rejects it with status 2."""
        args = ["--n", "256", "--h", "32", "--f", "64", "--v", "4", "--ct", "8"]
        with pytest.raises(SystemExit) as exc:
            main(["tune", *args, "--jobs", "2"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, rejected", [
        (["tune", "--store", "maps.json"], "--store"),
        (["simulate", "--store", "maps.json"], "--store"),
        (["trace-export", "--out", "k.json"], "trace-export"),
        (["simulate", "--profile", "ranks.json"], "ranks.json"),
    ], ids=["tune-store", "simulate-store", "trace-export", "simulate-profile-path"])
    def test_removed_mapping_and_trace_flags_exit_2(self, capsys, argv, rejected):
        """The JSON mapping store, ``trace-export`` and the PATH form of
        ``simulate --profile`` are gone: argparse exits 2 before tuning."""
        args = ["--n", "256", "--h", "32", "--f", "64", "--v", "4", "--ct", "8"]
        with pytest.raises(SystemExit) as exc:
            main([argv[0], *args, *argv[1:]])
        assert exc.value.code == 2
        assert rejected in capsys.readouterr().err

    def test_tune_cache_warm_start(self, capsys, tmp_path):
        from repro import obs

        cache = str(tmp_path / "cache")
        args = ["--n", "512", "--h", "64", "--f", "128", "--v", "4", "--ct", "8"]
        assert main(["tune", *args, "--cache", cache]) == 0
        first = capsys.readouterr().out
        assert "search" in first
        assert os.listdir(cache)

        counter = obs.get_registry().counter("tuner.candidates_evaluated")
        before = counter.value
        assert main(["tune", *args, "--cache", cache]) == 0
        out = capsys.readouterr().out
        assert counter.value == before
        assert "search skipped" in out

    def test_simulate_reads_cache(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        args = ["--n", "512", "--h", "64", "--f", "128", "--v", "4", "--ct", "8"]
        assert main(["tune", *args, "--cache", cache]) == 0
        capsys.readouterr()
        assert main(["simulate", *args, "--cache", cache]) == 0
        out = capsys.readouterr().out
        assert f"mapping source: cache {cache} (search skipped)" in out

    def test_compare_command(self, capsys):
        assert main(["compare", "--model", "bert-base"]) == 0
        out = capsys.readouterr().out
        assert "pim-dl" in out and "cpu-fp32" in out

    def test_compare_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["compare", "--model", "gpt-17"])
