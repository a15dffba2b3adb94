"""Tests for the measured host kernel-schedule search and its cache.

The schedule search replaces the hand-tuned ``DEFAULT_BLOCK_ROWS`` /
gather-strategy heuristics with per-(shape, dtype, CT) measurements,
persisted in a content-addressed :class:`repro.kernels.KernelScheduleCache`
(the host-side sibling of :class:`repro.mapping.MappingCache`).
"""

import json
import os

import numpy as np
import pytest

from repro import obs
from repro.kernels import (
    DEFAULT_BLOCK_ROWS,
    KernelSchedule,
    KernelScheduleCache,
    search_kernel_schedule,
)
from repro.kernels.lut import GATHER_STRATEGIES, lut_gather_reduce
from repro.kernels.schedule import FORMAT_VERSION
from repro.pim import get_platform

# Small enough that the measured search stays fast in CI.
SEARCH_KW = dict(n=64, h=64, f=32, v=4, ct=16, repeats=1)


def _search(cache=None, seed=0, **overrides):
    kw = {**SEARCH_KW, **overrides}
    return search_kernel_schedule(
        rng=np.random.default_rng(seed), cache=cache, **kw
    )


class TestSearch:
    def test_winner_never_slower_than_default(self):
        schedule = _search()
        # The default config is always a candidate and the baseline is its
        # own measured time, so this holds structurally, not statistically.
        assert schedule.speedup_vs_default >= 1.0
        assert schedule.candidates_evaluated > 0

    def test_searched_fields_are_legal(self):
        schedule = _search()
        assert schedule.ccs_block_rows > 0
        assert schedule.gather_block_rows > 0
        assert schedule.gather_strategy in GATHER_STRATEGIES
        assert schedule.total_seconds == pytest.approx(
            schedule.ccs_seconds + schedule.gather_seconds
        )

    def test_to_profile_carries_measured_throughput(self):
        schedule = _search()
        profile = schedule.to_profile()
        assert profile.block_rows == schedule.ccs_block_rows
        assert profile.dtype == schedule.dtype
        assert profile.ccs_ops_per_s > 0
        assert profile.gather_elements_per_s > 0

    def test_gather_strategy_is_numerically_transparent(self):
        # Forcing either strategy must not change the kernel's output —
        # the schedule search only picks between equivalent loop shapes.
        rng = np.random.default_rng(0)
        indices = rng.integers(0, 16, size=(32, 16)).astype(np.int32)
        lut = rng.normal(size=(16, 16, 8))
        base = lut_gather_reduce(indices, lut)
        for strategy in GATHER_STRATEGIES:
            np.testing.assert_array_equal(
                lut_gather_reduce(indices, lut, strategy=strategy), base
            )

    def test_unknown_strategy_rejected(self):
        rng = np.random.default_rng(0)
        indices = rng.integers(0, 16, size=(4, 4)).astype(np.int32)
        lut = rng.normal(size=(4, 16, 8))
        with pytest.raises(ValueError, match="strategy"):
            lut_gather_reduce(indices, lut, strategy="bogus")


class TestCache:
    def test_roundtrip_hit_skips_all_candidates(self, tmp_path):
        cache = KernelScheduleCache(str(tmp_path))
        cold = _search(cache=cache)
        assert cold.candidates_evaluated > 0
        warm = _search(cache=cache)
        assert warm.candidates_evaluated == 0
        # The hit returns the identical winner.
        assert warm.ccs_block_rows == cold.ccs_block_rows
        assert warm.gather_block_rows == cold.gather_block_rows
        assert warm.gather_strategy == cold.gather_strategy
        assert warm.total_seconds == cold.total_seconds

    def test_miss_on_different_shape_or_dtype(self, tmp_path):
        cache = KernelScheduleCache(str(tmp_path))
        _search(cache=cache)
        assert cache.get(n=128, h=64, f=32, v=4, ct=16, dtype="float32") is None
        assert cache.get(dtype="float64", **{k: SEARCH_KW[k]
                                             for k in "nhfv"},
                         ct=SEARCH_KW["ct"]) is None

    def test_corrupt_entry_is_a_warned_miss(self, tmp_path):
        cache = KernelScheduleCache(str(tmp_path))
        schedule = _search(cache=cache)
        path = cache.entry_path(
            n=SEARCH_KW["n"], h=SEARCH_KW["h"], f=SEARCH_KW["f"],
            v=SEARCH_KW["v"], ct=SEARCH_KW["ct"], dtype="float32",
        )
        assert os.path.exists(path)
        with open(path, "w") as fh:
            fh.write("{not json")
        with pytest.warns(RuntimeWarning):
            assert cache.get(
                n=SEARCH_KW["n"], h=SEARCH_KW["h"], f=SEARCH_KW["f"],
                v=SEARCH_KW["v"], ct=SEARCH_KW["ct"], dtype="float32",
            ) is None
        assert schedule.speedup_vs_default >= 1.0

    def test_foreign_fingerprint_rejected(self, tmp_path):
        writer = KernelScheduleCache(str(tmp_path), fingerprint="deadbeef0000")
        reader = KernelScheduleCache(str(tmp_path))
        schedule = _search(cache=writer)
        assert writer.get(
            n=SEARCH_KW["n"], h=SEARCH_KW["h"], f=SEARCH_KW["f"],
            v=SEARCH_KW["v"], ct=SEARCH_KW["ct"], dtype="float32",
        ) is not None
        # A different machine fingerprint must not reuse measured timings.
        assert reader.get(
            n=SEARCH_KW["n"], h=SEARCH_KW["h"], f=SEARCH_KW["f"],
            v=SEARCH_KW["v"], ct=SEARCH_KW["ct"], dtype="float32",
        ) is None
        assert schedule.shape == (
            SEARCH_KW["n"], SEARCH_KW["h"], SEARCH_KW["f"],
            SEARCH_KW["v"], SEARCH_KW["ct"],
        )

    def test_format_version_pins_entries(self, tmp_path):
        cache = KernelScheduleCache(str(tmp_path))
        _search(cache=cache)
        path = cache.entry_path(
            n=SEARCH_KW["n"], h=SEARCH_KW["h"], f=SEARCH_KW["f"],
            v=SEARCH_KW["v"], ct=SEARCH_KW["ct"], dtype="float32",
        )
        with open(path) as fh:
            payload = json.load(fh)
        assert payload["format_version"] == FORMAT_VERSION
        payload["format_version"] = FORMAT_VERSION + 1
        with open(path, "w") as fh:
            json.dump(payload, fh)
        with pytest.warns(RuntimeWarning):
            assert cache.get(
                n=SEARCH_KW["n"], h=SEARCH_KW["h"], f=SEARCH_KW["f"],
                v=SEARCH_KW["v"], ct=SEARCH_KW["ct"], dtype="float32",
            ) is None

    def test_schedule_roundtrips_through_json(self):
        from dataclasses import replace

        schedule = _search()
        clone = KernelSchedule.from_dict(schedule.to_jsonable())
        # A deserialized entry re-measured nothing, so its evaluation
        # count resets to 0 (that's how cache hits advertise themselves).
        assert clone == replace(schedule, candidates_evaluated=0)

    def test_default_block_rows_always_candidate(self):
        schedule = _search(block_rows_candidates=(7,))
        # Even a hostile candidate list keeps the hand-tuned default in
        # the race, so "searched >= default" can't be vacuously broken.
        assert schedule.ccs_block_rows in (7, DEFAULT_BLOCK_ROWS)
        assert schedule.speedup_vs_default >= 1.0


class TestWarmStart:
    def test_serving_warmup_installs_measured_profile(self, tmp_path):
        from repro.baselines import wimpy_host
        from repro.engine.serving import GenerationServer
        from repro.workloads import bert_base

        config = bert_base(seq_len=32, batch_size=1).with_(num_layers=1)
        server = GenerationServer(
            get_platform("upmem"), wimpy_host(),
            schedule_cache=str(tmp_path),
        )
        assert server.prefill_engine.host_kernel_profile is None
        server.warmup(config)
        assert server.prefill_engine.host_kernel_profile is not None
        assert server.decode_engine.host_kernel_profile is not None
        assert len(os.listdir(str(tmp_path))) >= 1
        # A second server warming from the same directory re-measures
        # nothing: the schedule comes from the cache.
        registry = obs.get_registry()
        measured = registry.counter("kernel_schedule.candidates")
        hits = registry.counter("kernel_schedule_cache.hits")
        before = (measured.value, hits.value)
        again = GenerationServer(
            get_platform("upmem"), wimpy_host(),
            schedule_cache=str(tmp_path),
        )
        again.warmup(config)
        assert (measured.value, hits.value) == (before[0], before[1] + 1)
        assert again.prefill_engine.host_kernel_profile is not None

    def test_serving_warmup_respects_explicit_profile(self, tmp_path):
        from repro.baselines import wimpy_host
        from repro.engine.serving import GenerationServer
        from repro.kernels import measure_host_kernels
        from repro.workloads import bert_base

        profile = measure_host_kernels(n=32, h=32, f=16, repeats=1)
        config = bert_base(seq_len=32, batch_size=1).with_(num_layers=1)
        server = GenerationServer(
            get_platform("upmem"), wimpy_host(),
            host_kernel_profile=profile, schedule_cache=str(tmp_path),
        )
        server.warmup(config)
        # An explicitly measured profile wins over the derived one.
        assert server.prefill_engine.host_kernel_profile is profile


class TestMeasureRepeats:
    def test_measure_host_kernels_records_repeats(self):
        from repro.kernels import measure_host_kernels

        profile = measure_host_kernels(n=32, h=32, f=16, repeats=2)
        assert profile.repeats == 2

    def test_repeats_floor_is_one(self):
        from repro.kernels import measure_host_kernels

        profile = measure_host_kernels(n=32, h=32, f=16, repeats=0)
        assert profile.repeats == 1
