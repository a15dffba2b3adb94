"""``obs.metrics.percentiles``: one sort, Histogram-exact interpolation."""

import numpy as np
import pytest

from repro import obs
from repro.obs.metrics import Histogram, percentiles

QS = (0, 1, 25, 50, 90, 95, 99, 99.9, 100)


def _histogram(values):
    hist = Histogram("h", sample_capacity=len(values))
    for v in values:
        hist.observe(v)
    return hist


@pytest.mark.parametrize("seed", range(12))
def test_bit_identical_to_histogram_percentile(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 300))
    values = rng.exponential(0.05, size=n)
    if seed % 2:
        # Ties: draw from a handful of distinct values.
        values = rng.choice(values[:4], size=n)
    values = [float(v) for v in values]
    hist = _histogram(values)
    assert percentiles(values, QS) == [hist.percentile(q) for q in QS]


def test_single_value_and_extremes():
    assert percentiles([0.25], QS) == [0.25] * len(QS)
    values = [3.0, 1.0, 2.0, 2.0]
    assert percentiles(values, (0, 100)) == [1.0, 3.0]
    hist = _histogram(values)
    assert percentiles(values, (0, 50, 100)) == [
        hist.percentile(0), hist.percentile(50), hist.percentile(100)]


def test_empty_input_is_zero_for_every_q():
    assert percentiles([], QS) == [0.0] * len(QS)
    assert percentiles(np.array([]), (50,)) == [0.0]


def test_rejects_out_of_range_q():
    for bad in (-1, 100.5):
        with pytest.raises(ValueError, match="percentile"):
            percentiles([1.0], (50, bad))


def test_exported_from_obs():
    assert obs.percentiles is percentiles
