"""End-to-end checks that the subsystems record coherent telemetry."""

import numpy as np
import pytest

from repro import obs
from repro.baselines import wimpy_host
from repro.core import LUTShape
from repro.engine import GenerationServer, PIMDLEngine
from repro.mapping import AutoTuner, TuneProgress
from repro.mapping.space import enumerate_sub_lut_tilings
from repro.pim import get_platform
from repro.workloads import bert_base


@pytest.fixture()
def fresh_obs():
    obs.reset()
    yield
    obs.reset()


@pytest.fixture(scope="module")
def platform():
    return get_platform("upmem")


SHAPE = LUTShape(n=512, h=64, f=128, v=4, ct=8)

#: One-layer BERT-ish config keeps the engine tests fast while still
#: exercising every op category.
SMALL_CONFIG = bert_base(seq_len=128, batch_size=4).with_(num_layers=1)


class TestTunerTelemetry:
    def test_counters_match_mapping_space_size(self, fresh_obs, platform):
        result = AutoTuner(platform).tune(SHAPE)
        snap = obs.get_registry().snapshot()
        tilings = len(list(enumerate_sub_lut_tilings(SHAPE, platform)))
        assert snap["tuner.candidates_evaluated"]["value"] == tilings
        assert result.candidates_evaluated == tilings
        pruned = snap["tuner.tilings_pruned"]["value"]
        assert 0 <= pruned < tilings
        assert snap["tuner.best_cost_s"]["value"] == pytest.approx(result.cost)
        assert snap["tuner.tune_calls"]["value"] == 1

    def test_cache_hit_counter(self, fresh_obs, platform):
        tuner = AutoTuner(platform)
        tuner.tune(SHAPE)
        before = obs.get_registry().snapshot()["tuner.candidates_evaluated"]["value"]
        tuner.tune(SHAPE)
        snap = obs.get_registry().snapshot()
        assert snap["tuner.cache_hits"]["value"] == 1
        assert snap["tuner.candidates_evaluated"]["value"] == before

    def test_progress_callback_ticks_every_candidate(self, fresh_obs, platform):
        ticks = []
        result = AutoTuner(platform, progress_callback=ticks.append).tune(SHAPE)
        assert len(ticks) == result.candidates_evaluated
        assert all(isinstance(t, TuneProgress) for t in ticks)
        assert [t.evaluated for t in ticks] == list(range(1, len(ticks) + 1))
        assert ticks[-1].best_cost == pytest.approx(result.cost)

    def test_exhaustive_counts_every_mapping(self, fresh_obs, platform):
        small = LUTShape(n=64, h=16, f=32, v=4, ct=4)
        result = AutoTuner(platform, max_micro_kernels=50).tune_exhaustive(small)
        snap = obs.get_registry().snapshot()
        assert snap["tuner.candidates_evaluated"]["value"] == (
            result.candidates_evaluated
        )
        assert result.candidates_evaluated > len(
            list(enumerate_sub_lut_tilings(small, platform))
        )

    def test_per_candidate_spans_nest_under_tune_root(self, fresh_obs, platform):
        AutoTuner(platform).tune(SHAPE)
        spans = obs.get_tracer().finished_spans()
        root = [s for s in spans if s.name == "tuner.tune"]
        assert len(root) == 1
        tilings = [s for s in spans if s.name == "tuner.tiling"]
        assert len(tilings) == root[0].attributes["candidates"]
        assert all(s.parent_id == root[0].span_id for s in tilings)


class TestEngineTelemetry:
    def test_per_op_spans_carry_engine_and_category(self, fresh_obs, platform):
        report = PIMDLEngine(platform, wimpy_host()).run(SMALL_CONFIG)
        spans = obs.get_tracer().finished_spans()
        op_spans = [s for s in spans if s.name.startswith("op:")]
        assert len(op_spans) == len(report.ops)
        categories = {s.attributes["category"] for s in op_spans}
        assert {"lut", "ccs", "attention", "elementwise"} <= categories
        root = [s for s in spans if s.name == "engine.run"]
        assert len(root) == 1
        assert root[0].attributes["model_total_s"] == pytest.approx(report.total_s)
        snap = obs.get_registry().snapshot()
        assert snap["engine.ops"]["value"] == len(report.ops)
        assert snap["engine.op_model_seconds"]["count"] == len(report.ops)

    def test_serving_records_request_spans_and_counters(self, fresh_obs, platform):
        server = GenerationServer(platform, wimpy_host())
        report = server.run(SMALL_CONFIG, generate_len=4)
        spans = {s.name for s in obs.get_tracer().finished_spans()}
        assert {"serving.request", "serving.prefill", "serving.decode"} <= spans
        snap = obs.get_registry().snapshot()
        assert snap["serving.requests"]["value"] == 1
        assert snap["serving.generated_tokens"]["value"] == (
            report.batch_size * report.generate_len
        )
        assert snap["serving.request_model_seconds"]["count"] == 1


class TestCalibrationTelemetry:
    def test_per_step_loss_series(self, fresh_obs):
        from repro.core import ELUTNNCalibrator, convert_to_lut_nn
        from repro.nn import TextClassifier

        rng = np.random.default_rng(0)
        model = TextClassifier(
            vocab_size=30, max_seq_len=8, num_classes=3,
            dim=16, num_layers=2, num_heads=2, rng=rng,
        )
        tokens = rng.integers(0, 30, size=(16, 8))
        labels = rng.integers(0, 3, size=16)
        convert_to_lut_nn(model, [tokens], v=2, ct=4, rng=rng)
        batches = [(tokens, labels)]
        result = ELUTNNCalibrator(lr=1e-3).calibrate(model, batches, epochs=6)
        snap = obs.get_registry().snapshot()
        assert snap["calibration.steps"]["value"] == result.steps == 6
        assert snap["calibration.loss"]["points"] == [
            [i, v] for i, v in enumerate(result.loss_history)
        ]
        assert snap["calibration.last_loss"]["value"] == result.final_loss
        names = [s.name for s in obs.get_tracer().finished_spans()]
        assert "calibration.calibrate" in names


class TestReportAggregations:
    def test_per_category_seconds_with_device_filter(self, fresh_obs, platform):
        report = PIMDLEngine(platform, wimpy_host()).run(SMALL_CONFIG)
        cats = report.per_category_seconds()
        assert sum(cats.values()) == pytest.approx(
            report.total_s + report.overlap_hidden_s
        )
        assert report.per_category_seconds(device="pim") == {"lut": cats["lut"]}
        host_cats = report.per_category_seconds(device="host")
        assert "lut" not in host_cats and "ccs" in host_cats
        devices = report.per_device_seconds()
        assert devices["host"] == pytest.approx(report.host_s)
        assert devices["pim"] == pytest.approx(report.pim_s)
        shares = report.category_shares()
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_to_jsonable_round_trips(self, fresh_obs, platform):
        import json

        report = PIMDLEngine(platform, wimpy_host()).run(SMALL_CONFIG)
        payload = json.loads(json.dumps(obs.to_jsonable(report.to_jsonable())))
        assert payload["engine"] == report.engine
        assert payload["total_s"] == pytest.approx(report.total_s)
        assert len(payload["ops"]) == len(report.ops)
        assert payload["per_category_seconds"]["lut"] > 0
