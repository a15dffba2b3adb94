"""Recorded figures do not depend on the Python version's ``sum``.

From Python 3.12 on, builtin ``sum`` adds floats with Neumaier's
compensated summation, where 3.10 and 3.11 add left to right: ``sum([0.1]
* 10)`` is ``0x1.fffffffffffffp-1`` on 3.11 and ``0x1.0000000000000p+0``
on 3.12.  The parity literals were recorded with left-to-right addition,
and every float total that reaches them is a left fold
(:func:`repro.obs.metrics.left_sum`).  These tests rerun a few engine
parity cells and every serving replay with ``builtins.sum`` replaced by
``sum_py312``, an emulation of CPython 3.12's ``sum`` step for step, and
hold them to the same literals, so a float ``sum()`` on such a path fails
on any interpreter.
"""

import builtins
import math

import pytest

from repro.mapping import MappingCache
from repro.obs.metrics import left_sum

from .test_cost_model_parity import (
    EXPECTED_ENGINES,
    _cell_id,
    engine_cells,
    engine_fingerprint,
)
from .test_serving_parity import EXPECTED_METRICS, EXPECTED_PHASES, EXPECTED_STEPS, replays

_LONG_MIN, _LONG_MAX = -(2 ** 63), 2 ** 63 - 1


def sum_py312(iterable, /, start=0):
    """CPython 3.12's builtin ``sum``, step for step.

    An int start sums ints exactly while they fit a C long.  From a float
    total on, exact floats are added with a Neumaier compensation term and
    C-long ints are added plainly; the compensation is added once, when
    the floats end (unless it is zero or not finite).  Any other item is
    added with ``+`` for the rest of the sum.
    """
    it = iter(iterable)
    result = start
    if type(result) is int and _LONG_MIN <= result <= _LONG_MAX:
        for item in it:
            if type(item) in (int, bool) and _LONG_MIN <= item <= _LONG_MAX:
                total = result + item
                if _LONG_MIN <= total <= _LONG_MAX:
                    result = total
                    continue
            result = result + item
            break
        else:
            return result
    if type(result) is float:
        total, compensation = result, 0.0
        for item in it:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    compensation += (total - t) + item
                else:
                    compensation += (item - t) + total
                total = t
                continue
            if isinstance(item, int) and _LONG_MIN <= item <= _LONG_MAX:
                total += float(item)
                continue
            if compensation and math.isfinite(compensation):
                total += compensation
            result = total + item
            break
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            return total
    for item in it:
        result = result + item
    return result


def test_the_emulation_compensates_and_left_sum_does_not():
    """The cases below read the same on a real CPython 3.12."""
    tenths = [0.1] * 10
    assert sum_py312(tenths).hex() == "0x1.0000000000000p+0"
    assert left_sum(tenths).hex() == "0x1.fffffffffffffp-1"
    # Float items are compensated, int items joining a float total are not.
    assert sum_py312([1e16, 1.0, 1.0]) == 1e16 + 2
    assert sum_py312([1e16, 1, 1]) == 1e16
    # Ints alone stay exact ints, from any int start.
    assert sum_py312([2, 3], 4) == 9 and type(sum_py312([2, 3])) is int
    assert left_sum([]) == 0 and type(left_sum([])) is int


#: Cells of ``tests/test_cost_model_parity.py`` whose figures moved under
#: a compensated ``sum`` before their totals became left folds.
ENGINE_CELLS = (
    "upmem-seq-roofline-healthy-dense",
    "hbm-pim-overlap-profile-fallback-moe",
    "aim-overlap-profile-straggler-dense",
)


@pytest.fixture
def py312_sum(monkeypatch):
    monkeypatch.setattr(builtins, "sum", sum_py312)


@pytest.mark.parametrize("cell_id", ENGINE_CELLS)
def test_engine_cells_hold_their_literals_under_compensated_sum(
    py312_sum, tmp_path, cell_id
):
    cell = next(c for c in engine_cells() if _cell_id(c) == cell_id)
    assert engine_fingerprint(cell, MappingCache(str(tmp_path))) == EXPECTED_ENGINES[cell_id]


def test_serving_replays_hold_their_literals_under_compensated_sum(py312_sum):
    for kind, (result, metrics) in replays().items():
        assert result.steps == EXPECTED_STEPS[kind], kind
        assert metrics == EXPECTED_METRICS[kind], kind
        phases = {key: seconds.hex() for key, seconds in result.phase_seconds.items()}
        assert phases == EXPECTED_PHASES[kind], kind
