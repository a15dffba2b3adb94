"""Auto-Tuner model helpers, and the removed ``jobs`` knob.

``model_lut_shapes`` / ``tune_many`` tune a whole model through one
bound-pruned serial search per distinct shape.
``AutoTuner(jobs=...)`` was accepted and ignored once the search stopped
using a process pool; the keyword is now rejected.
"""

import pytest

from repro.core import LUTShape
from repro.mapping import AutoTuner, model_lut_shapes
from repro.pim import get_platform
from repro.workloads import EVAL_MODELS


def assert_results_identical(reference, other):
    assert other.mapping == reference.mapping
    assert other.cost == reference.cost  # bit-identical, not approx
    assert other.candidates_evaluated == reference.candidates_evaluated


class TestJobsRemoved:
    def test_autotuner_rejects_jobs_keyword(self):
        """The ignored ``jobs`` knob is gone, not silently accepted."""
        with pytest.raises(TypeError):
            AutoTuner(get_platform("upmem"), jobs=2)


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

    def test_tune_many_matches_per_shape_serial(self):
        config = EVAL_MODELS["bert-base"].with_(seq_len=16, batch_size=2)
        platform = get_platform("upmem")
        results = AutoTuner(platform).tune_many(model_lut_shapes(config))
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
