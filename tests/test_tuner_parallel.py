"""Auto-Tuner ``jobs``: determinism, validation, model helpers.

The headline guarantee under test: ``AutoTuner(jobs=N)`` returns results
bit-identical to ``jobs=1`` for every N — the value is accepted and
validated but no longer changes the bound-pruned serial search.  A seeded
property sweep runs in tier-1 on a handful of shapes; the wider sweep is
marked ``slow``.
"""

import random

import pytest

from repro import obs
from repro.core import LUTShape
from repro.mapping import (
    AutoTuner,
    enumerate_sub_lut_tilings,
    model_lut_shapes,
    tune_model_parallel,
)
from repro.pim import get_platform
from repro.workloads import EVAL_MODELS


def random_shape(rng: random.Random) -> LUTShape:
    return LUTShape(
        n=rng.choice([64, 128, 256, 512]),
        h=rng.choice([16, 32, 64]),
        f=rng.choice([32, 64, 128]),
        v=4,
        ct=rng.choice([4, 8, 16]),
    )


def assert_results_identical(reference, other):
    assert other.mapping == reference.mapping
    assert other.cost == reference.cost  # bit-identical, not approx
    assert other.candidates_evaluated == reference.candidates_evaluated


class TestParallelMatchesSerial:
    def test_property_seeded_shapes(self):
        """jobs in {1, 2, 4} agree on random shape/platform pairs."""
        rng = random.Random(20240711)
        for _ in range(4):
            shape = random_shape(rng)
            platform = get_platform(rng.choice(["upmem", "hbm-pim", "aim"]))
            amortize = rng.random() < 0.5
            serial = AutoTuner(
                platform, amortize_lut_distribution=amortize
            ).tune(shape)
            for jobs in (2, 4):
                parallel = AutoTuner(
                    platform, amortize_lut_distribution=amortize, jobs=jobs
                ).tune(shape)
                assert_results_identical(serial, parallel)

    @pytest.mark.slow
    def test_property_seeded_shapes_wide(self):
        """The same property over a much larger seeded sample."""
        rng = random.Random(7)
        for _ in range(20):
            shape = random_shape(rng)
            platform = get_platform(rng.choice(["upmem", "hbm-pim", "aim"]))
            serial = AutoTuner(platform).tune(shape)
            for jobs in (2, 3, 4):
                parallel = AutoTuner(platform, jobs=jobs).tune(shape)
                assert_results_identical(serial, parallel)

    def test_parallel_counter_aggregation_matches_serial(self):
        shape = LUTShape(n=256, h=32, f=64, v=4, ct=8)
        platform = get_platform("upmem")
        counter = obs.get_registry().counter("tuner.candidates_evaluated")

        before = counter.value
        serial = AutoTuner(platform).tune(shape)
        serial_delta = counter.value - before

        before = counter.value
        AutoTuner(platform, jobs=2).tune(shape)
        parallel_delta = counter.value - before

        assert serial_delta == parallel_delta
        assert serial_delta == serial.candidates_evaluated

    def test_parallel_progress_callback_reaches_totals(self):
        shape = LUTShape(n=256, h=32, f=64, v=4, ct=8)
        platform = get_platform("upmem")
        ticks = []
        AutoTuner(platform, jobs=2, progress_callback=ticks.append).tune(shape)
        assert ticks, "progress callback never fired"
        total = len(list(enumerate_sub_lut_tilings(shape, platform)))
        assert ticks[-1].evaluated == total
        assert ticks[-1].best_cost is not None


class TestFallbackAndValidation:
    def test_negative_jobs_rejected(self):
        with pytest.raises(ValueError):
            AutoTuner(get_platform("upmem"), jobs=-1)

    def test_jobs_zero_means_cpu_count(self):
        import os

        tuner = AutoTuner(get_platform("upmem"), jobs=0)
        assert tuner.jobs == (os.cpu_count() or 1)

    def test_parallel_impossible_shape_raises(self):
        from dataclasses import replace

        platform = get_platform("upmem")
        broken = replace(
            platform, local_memory=replace(platform.local_memory, buffer_bytes=1)
        )
        with pytest.raises(RuntimeError):
            AutoTuner(broken, jobs=2).tune(LUTShape(n=64, h=16, f=32, v=4, ct=4))


class TestModelHelpers:
    def test_model_lut_shapes_dedupes(self):
        config = EVAL_MODELS["bert-base"].with_(seq_len=32, batch_size=2)
        shapes = model_lut_shapes(config)
        assert len(shapes) == len(set(shapes)) == 4
        assert all(s.n == config.tokens for s in shapes)

    def test_model_lut_shapes_checks_divisibility(self):
        config = EVAL_MODELS["bert-base"].with_(seq_len=32, batch_size=2)
        with pytest.raises(ValueError):
            model_lut_shapes(config, v=7)

    def test_tune_model_parallel_matches_per_shape_serial(self):
        config = EVAL_MODELS["bert-base"].with_(seq_len=16, batch_size=2)
        platform = get_platform("upmem")
        results = tune_model_parallel(config, platform, jobs=2)
        assert len(results) == 4
        serial = AutoTuner(platform)
        for shape, result in results.items():
            assert_results_identical(serial.tune(shape), result)

    def test_tune_many_memoises_repeats(self):
        platform = get_platform("upmem")
        tuner = AutoTuner(platform)
        shape = LUTShape(n=128, h=16, f=32, v=4, ct=4)
        out = tuner.tune_many([shape, shape, shape])
        assert list(out) == [shape]
