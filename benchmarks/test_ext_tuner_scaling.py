"""Extension experiment — Auto-Tuner scaling: bound pruning and the cache.

The paper reports Algorithm 1 takes ~1 s per model on a CPU (§5.3); ATiM
(PAPERS.md) prunes PIM tensor-program search with a cost model.  Here the
bound comes from the tuner's own analytical model, so the pruning is exact.
For every distinct BERT-base linear shape this bench reports (1) the
sub-LUT tilings the search considered, (2) how many of them it actually
searched — the rest were skipped by the lower bound — (3) the cold-search
wall time and (4) the warm-start wall time from a persistent
:class:`~repro.mapping.MappingCache`, which must evaluate zero candidates.

Wall times depend on the machine, so the assertions are on the cache
behaviour (zero candidates, warm well under cold); the table is recorded
for inspection.
"""

import time

import pytest

from repro import obs
from repro.analysis import format_table
from repro.mapping import AutoTuner, MappingCache, model_lut_shapes
from repro.pim import get_platform
from repro.workloads import bert_base

pytestmark = pytest.mark.slow


def test_ext_tuner_scaling(report, tmp_path):
    platform = get_platform("upmem")
    shapes = model_lut_shapes(bert_base())
    registry = obs.get_registry()
    considered = registry.counter("tuner.candidates_evaluated")
    skipped = registry.counter("tuner.tilings_bound_pruned")

    # Cold search, filling the cache.
    cache = MappingCache(str(tmp_path / "cache"))
    cold_tuner = AutoTuner(platform, cache=cache)
    rows = []
    cold = {}
    for shape in shapes:
        before = (considered.value, skipped.value)
        start = time.perf_counter()
        cold[shape] = cold_tuner.tune(shape)
        cold_s = time.perf_counter() - start
        tilings = int(considered.value - before[0])
        searched = tilings - int(skipped.value - before[1])
        assert tilings == cold[shape].candidates_evaluated
        rows.append([shape, tilings, searched, cold_s])

    # Warm start from the cache: zero candidates evaluated.
    before = considered.value
    warm_tuner = AutoTuner(platform, cache=cache)
    for row in rows:
        shape = row[0]
        start = time.perf_counter()
        warm = warm_tuner.tune(shape)
        row.append(time.perf_counter() - start)
        assert warm.mapping == cold[shape].mapping
    assert considered.value == before, "warm cache must evaluate zero candidates"

    table = [
        [f"N={s.n} H={s.h} F={s.f}", tilings, searched,
         f"{cold_s:.4f}", f"{warm_s:.4f}"]
        for s, tilings, searched, cold_s, warm_s in rows
    ]
    cold_total = sum(row[3] for row in rows)
    warm_total = sum(row[4] for row in rows)
    table.append(["total", sum(row[1] for row in rows),
                  sum(row[2] for row in rows),
                  f"{cold_total:.4f}", f"{warm_total:.4f}"])
    report(
        "ext_tuner_scaling",
        format_table(
            ["shape", "tilings considered", "tilings searched",
             "cold search s", "warm cache s"],
            table,
        ),
    )

    # The warm path does no enumeration at all.
    assert warm_total < cold_total / 2
