"""Tests for the persistent benchmark baseline store, the robust
regression detector, and the ``bench`` CLI subcommand.

ISSUE acceptance: ``bench compare`` must detect a synthetic 20% slowdown
while passing on identical re-runs.
"""

import json
import math
import os

import pytest

from repro import cli
from repro.obs.baseline import (
    BaselineStore,
    BenchRecord,
    current_git_sha,
    detect_regression,
    host_fingerprint,
    robust_stats,
)


class TestRobustStats:
    def test_median_and_mad(self):
        mid, mad = robust_stats([1.0, 2.0, 3.0, 4.0, 100.0])
        assert mid == 3.0
        assert mad == 1.0  # |1-3|,|2-3|,|3-3|,|4-3|,|97| -> median 1

    def test_empty_is_nan(self):
        mid, mad = robust_stats([])
        assert mid != mid and mad != mad  # NaN


class TestDetectRegression:
    BASE = [1.00, 1.01, 0.99, 1.00, 1.02]

    def test_synthetic_20pct_slowdown_is_regression(self):
        verdict = detect_regression("b", 1.20, self.BASE, threshold=0.10)
        assert verdict.status == "regression"
        assert verdict.is_regression
        assert verdict.delta_rel == pytest.approx(0.20, abs=0.01)

    def test_identical_rerun_is_ok(self):
        verdict = detect_regression("b", 1.00, self.BASE, threshold=0.10)
        assert verdict.status == "ok"
        assert not verdict.is_regression

    def test_large_speedup_is_improvement(self):
        verdict = detect_regression("b", 0.50, self.BASE, threshold=0.10)
        assert verdict.status == "improvement"

    def test_fewer_than_two_baselines_warn_only(self):
        for baselines in ([], [1.0]):
            verdict = detect_regression("b", 99.0, baselines)
            assert verdict.status == "insufficient-baseline"
            assert not verdict.is_regression

    def test_mad_band_absorbs_noise(self):
        # Noisy history: MAD band wider than the relative threshold.
        noisy = [1.0, 1.4, 0.7, 1.3, 0.8]
        verdict = detect_regression("b", 1.15, noisy, threshold=0.01)
        assert verdict.status == "ok"

    def test_higher_is_better_flips_direction(self):
        verdict = detect_regression(
            "tput", 0.80, self.BASE, threshold=0.10, lower_is_better=False
        )
        assert verdict.status == "regression"
        verdict = detect_regression(
            "tput", 1.50, self.BASE, threshold=0.10, lower_is_better=False
        )
        assert verdict.status == "improvement"

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            detect_regression("b", 1.0, self.BASE, threshold=-0.1)

    def test_render_and_jsonable(self):
        verdict = detect_regression("b", 1.20, self.BASE, threshold=0.10)
        assert "regression" in verdict.render()
        payload = json.loads(json.dumps(verdict.to_jsonable()))
        assert payload["bench_id"] == "b"
        assert payload["status"] == "regression"


class TestBaselineStore:
    def test_record_and_read_round_trip(self, tmp_path):
        store = BaselineStore(str(tmp_path / "store"))
        rec = store.record("sim.kernel", 1.25, fingerprint="abc",
                           meta={"shape": "x"})
        (back,) = store.records("sim.kernel", "abc")
        assert back == rec
        assert back.meta["shape"] == "x"
        assert back.timestamp > 0

    def test_append_only_history_in_order(self, tmp_path):
        store = BaselineStore(str(tmp_path / "store"))
        for v in (1.0, 2.0, 3.0):
            store.record("b", v, fingerprint="f")
        assert [r.value for r in store.records("b", "f")] == [1.0, 2.0, 3.0]

    def test_fingerprints_do_not_mix(self, tmp_path):
        store = BaselineStore(str(tmp_path / "store"))
        store.record("b", 1.0, fingerprint="hostA")
        store.record("b", 2.0, fingerprint="hostB")
        assert [r.value for r in store.records("b", "hostA")] == [1.0]
        assert store.path_for("b", "hostA") != store.path_for("b", "hostB")

    def test_corrupt_lines_skipped(self, tmp_path):
        store = BaselineStore(str(tmp_path / "store"))
        path = store.append(
            BenchRecord(bench_id="b", value=1.0, fingerprint="f")
        )
        with open(path, "a") as fh:
            fh.write("not json\n{\"half\": \n")
        store.record("b", 2.0, fingerprint="f")
        assert [r.value for r in store.records("b", "f")] == [1.0, 2.0]

    def test_baseline_values_excludes_current_sha(self, tmp_path):
        store = BaselineStore(str(tmp_path / "store"))
        store.record("b", 1.0, git_sha="old1", fingerprint="f")
        store.record("b", 1.1, git_sha="old2", fingerprint="f")
        store.record("b", 9.9, git_sha="cur", fingerprint="f")
        assert store.baseline_values("b", "f", exclude_sha="cur") == [1.0, 1.1]

    def test_bench_ids_enumerates_pairs(self, tmp_path):
        store = BaselineStore(str(tmp_path / "store"))
        assert store.bench_ids() == []
        store.record("b1", 1.0, fingerprint="f1")
        store.record("b2", 1.0, fingerprint="f2")
        assert store.bench_ids() == [("b1", "f1"), ("b2", "f2")]

    def test_missing_store_reads_empty(self, tmp_path):
        store = BaselineStore(str(tmp_path / "nowhere"))
        assert store.records("b", "f") == []


class TestFingerprints:
    def test_stable_and_extra_sensitive(self):
        assert host_fingerprint() == host_fingerprint()
        assert host_fingerprint({"platform": "upmem"}) != host_fingerprint(
            {"platform": "aim"}
        )
        assert len(host_fingerprint()) == 12

    def test_current_git_sha_in_this_repo(self):
        sha = current_git_sha(os.path.dirname(os.path.dirname(__file__)))
        assert sha == "unknown" or len(sha) >= 7


def _fake_registry(value_box):
    """A one-bench registry whose 'measurement' reads from value_box."""
    def run(platform_name):
        return value_box["value"], {"synthetic": True}

    return {"synthetic.bench": ("modeled", run)}


@pytest.fixture()
def synthetic_bench(monkeypatch):
    box = {"value": 1.0}
    monkeypatch.setattr(cli, "_BENCH_REGISTRY", _fake_registry(box))
    return box


class TestBenchCLI:
    def test_run_appends_and_list_shows(self, synthetic_bench, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert cli.main(["bench", "run", "--store", store]) == 0
        assert cli.main(["bench", "list", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "synthetic.bench" in out

    def test_compare_detects_20pct_slowdown(
        self, synthetic_bench, tmp_path, capsys
    ):
        store = str(tmp_path / "store")
        assert cli.main(["bench", "run", "--store", store]) == 0
        assert cli.main(["bench", "run", "--store", store]) == 0
        # Identical re-run passes...
        assert cli.main(["bench", "compare", "--store", store]) == 0
        # ...a 20% slowdown against a 2% threshold fails the gate.
        synthetic_bench["value"] = 1.20
        code = cli.main(["bench", "compare", "--store", store])
        assert code == 1
        assert "regression" in capsys.readouterr().out

    def test_compare_json_writes_bench_file(
        self, synthetic_bench, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        store = str(tmp_path / "store")
        for _ in range(2):
            assert cli.main(["bench", "run", "--store", store]) == 0
        out_path = str(tmp_path / "BENCH_out.json")
        assert cli.main(
            ["bench", "compare", "--store", store, "--json", out_path]
        ) == 0
        with open(out_path) as fh:
            payload = json.load(fh)
        assert payload["regressions"] == 0
        (verdict,) = payload["verdicts"]
        assert verdict["bench_id"] == "synthetic.bench"
        assert verdict["status"] == "ok"

    def test_compare_json_default_name_uses_sha(
        self, synthetic_bench, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        store = str(tmp_path / "store")
        assert cli.main(["bench", "compare", "--store", store, "--json"]) == 0
        written = [p for p in os.listdir(tmp_path) if p.startswith("BENCH_")]
        assert len(written) == 1 and written[0].endswith(".json")

    def test_compare_empty_store_warn_only(
        self, synthetic_bench, tmp_path, capsys
    ):
        store = str(tmp_path / "store")
        assert cli.main(["bench", "compare", "--store", store]) == 0
        assert "insufficient-baseline" in capsys.readouterr().out

    def test_compare_record_appends_after_comparing(
        self, synthetic_bench, tmp_path, capsys
    ):
        store = str(tmp_path / "store")
        for _ in range(3):
            assert cli.main(
                ["bench", "compare", "--store", store, "--record"]
            ) == 0
        assert cli.main(["bench", "list", "--store", store]) == 0
        # Three comparisons each appended one record.
        assert " 3" in capsys.readouterr().out

    def test_threshold_override(self, synthetic_bench, tmp_path):
        store = str(tmp_path / "store")
        for _ in range(2):
            assert cli.main(["bench", "run", "--store", store]) == 0
        synthetic_bench["value"] = 1.20
        assert cli.main(
            ["bench", "compare", "--store", store, "--threshold", "0.5"]
        ) == 0

    def test_runner_names_its_unit(self, tmp_path, monkeypatch, capsys):
        """A runner's ``meta["unit"]`` labels its records and verdicts;
        seconds otherwise."""
        monkeypatch.setattr(cli, "_BENCH_REGISTRY", {
            "per-step.bench": ("measured", lambda p: (7.5, {"unit": "us"})),
            "seconds.bench": ("measured", lambda p: (0.5, {})),
        })
        store = str(tmp_path / "store")
        for _ in range(2):
            assert cli.main(["bench", "run", "--store", store,
                             "--suite", "measured"]) == 0
        assert "7.5 us" in capsys.readouterr().out
        history = BaselineStore(store)
        units = {bench_id: {r.unit for r in history.records(bench_id, fp)}
                 for bench_id, fp in history.bench_ids()}
        assert units == {"per-step.bench": {"us"}, "seconds.bench": {"s"}}
        assert cli.main(["bench", "compare", "--store", store,
                         "--suite", "measured"]) == 0
        out = capsys.readouterr().out
        assert "current 7.5 us" in out and "current 0.5 s" in out

    def test_empty_suite_is_an_error(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_BENCH_REGISTRY", {})
        code = cli.main(
            ["bench", "run", "--store", str(tmp_path / "store")]
        )
        assert code == 2

    def test_real_modeled_suite_records(self, tmp_path, capsys):
        """The shipped modeled suite runs end-to-end (no monkeypatching)."""
        store = str(tmp_path / "store")
        assert cli.main(
            ["bench", "run", "--store", store, "--suite", "modeled"]
        ) == 0
        out = capsys.readouterr().out
        assert "sim.lut-kernel" in out
        assert "engine.bert-base" in out

    def test_real_measured_suite_records(self, tmp_path):
        """The shipped measured suite runs end-to-end and records each of
        its ids once, each a finite positive value."""
        store = str(tmp_path / "store")
        assert cli.main(
            ["bench", "run", "--store", store, "--suite", "measured"]
        ) == 0
        history = BaselineStore(store)
        recorded = {}
        for bench_id, fp in history.bench_ids():
            recorded.setdefault(bench_id, []).extend(
                r.value for r in history.records(bench_id, fp))
        measured = {bench_id for bench_id, (kind, _)
                    in cli._BENCH_REGISTRY.items() if kind == "measured"}
        assert set(recorded) == measured
        for bench_id, values in recorded.items():
            assert len(values) == 1, bench_id
            assert math.isfinite(values[0]) and values[0] > 0, bench_id
