"""Persistent mapping cache: round-trips, fault injection, concurrency."""

import json
import os
import threading
import warnings

import pytest

from repro import obs
from repro.core import LUTShape
from repro.mapping import (
    FORMAT_VERSION,
    AutoTuner,
    MappingCache,
    platform_fingerprint,
)
from repro.pim import get_platform


@pytest.fixture(scope="module")
def platform():
    return get_platform("upmem")


@pytest.fixture(scope="module")
def tuned(platform):
    shape = LUTShape(n=256, h=32, f=64, v=4, ct=8)
    return shape, AutoTuner(platform).tune(shape)


class TestPlatformFingerprint:
    def test_stable_across_instances(self):
        assert platform_fingerprint(get_platform("upmem")) == platform_fingerprint(
            get_platform("upmem")
        )

    def test_differs_between_platforms(self):
        assert platform_fingerprint(get_platform("upmem")) != platform_fingerprint(
            get_platform("aim")
        )

    def test_sensitive_to_any_constant(self, platform):
        from dataclasses import replace

        tweaked = replace(platform, kernel_launch_s=platform.kernel_launch_s * 2)
        assert platform_fingerprint(platform) != platform_fingerprint(tweaked)


class TestMappingCacheRoundTrip:
    def test_put_get_equality(self, platform, tuned, tmp_path):
        shape, result = tuned
        cache = MappingCache(str(tmp_path))
        assert cache.get(platform, shape) is None
        path = cache.put(platform, result)
        assert os.path.exists(path)
        loaded = cache.get(platform, shape)
        assert loaded.mapping == result.mapping
        assert loaded.latency == result.latency
        assert loaded.candidates_evaluated == result.candidates_evaluated
        assert len(cache) == 1

    def test_amortized_entries_do_not_collide(self, platform, tuned, tmp_path):
        shape, result = tuned
        cache = MappingCache(str(tmp_path))
        cache.put(platform, result, amortize=True)
        assert cache.get(platform, shape) is None
        assert cache.get(platform, shape, amortize=True) is not None

    def test_other_platform_misses(self, tuned, tmp_path):
        shape, result = tuned
        cache = MappingCache(str(tmp_path))
        cache.put(get_platform("upmem"), result)
        assert cache.get(get_platform("aim"), shape) is None

    def test_missing_directory_is_a_miss(self, platform, tuned):
        shape, _ = tuned
        cache = MappingCache("/nonexistent/mapping-cache")
        assert cache.get(platform, shape) is None
        assert len(cache) == 0


class TestMappingCacheFaults:
    def _entry_path(self, platform, tuned, tmp_path):
        shape, result = tuned
        cache = MappingCache(str(tmp_path))
        cache.put(platform, result)
        return cache, shape, cache.entry_path(platform, shape)

    def test_corrupt_json_skipped_with_warning(self, platform, tuned, tmp_path):
        cache, shape, path = self._entry_path(platform, tuned, tmp_path)
        with open(path, "w") as fh:
            fh.write("{ not json")
        with pytest.warns(RuntimeWarning, match="unreadable entry"):
            assert cache.get(platform, shape) is None

    def test_wrong_format_version_skipped(self, platform, tuned, tmp_path):
        cache, shape, path = self._entry_path(platform, tuned, tmp_path)
        with open(path) as fh:
            payload = json.load(fh)
        payload["version"] = FORMAT_VERSION + 10
        with open(path, "w") as fh:
            json.dump(payload, fh)
        with pytest.warns(RuntimeWarning, match="format version"):
            assert cache.get(platform, shape) is None

    def test_fingerprint_mismatch_skipped(self, platform, tuned, tmp_path):
        cache, shape, path = self._entry_path(platform, tuned, tmp_path)
        with open(path) as fh:
            payload = json.load(fh)
        payload["fingerprint"] = "0" * 16
        with open(path, "w") as fh:
            json.dump(payload, fh)
        with pytest.warns(RuntimeWarning, match="fingerprint"):
            assert cache.get(platform, shape) is None

    def test_malformed_entry_skipped(self, platform, tuned, tmp_path):
        cache, shape, path = self._entry_path(platform, tuned, tmp_path)
        with open(path) as fh:
            payload = json.load(fh)
        del payload["entry"]["mapping"]
        with open(path, "w") as fh:
            json.dump(payload, fh)
        with pytest.warns(RuntimeWarning, match="malformed entry"):
            assert cache.get(platform, shape) is None

    def test_rejections_are_counted(self, platform, tuned, tmp_path):
        cache, shape, path = self._entry_path(platform, tuned, tmp_path)
        with open(path, "w") as fh:
            fh.write("")
        counter = obs.get_registry().counter("mapping_cache.rejected")
        before = counter.value
        with pytest.warns(RuntimeWarning):
            cache.get(platform, shape)
        assert counter.value == before + 1


class TestMappingCacheConcurrency:
    def test_concurrent_writers_never_torch_the_entry(
        self, platform, tuned, tmp_path
    ):
        """Many threads rewriting one entry: readers always see a full file."""
        shape, result = tuned
        cache = MappingCache(str(tmp_path))
        cache.put(platform, result)
        errors = []

        def writer():
            for _ in range(25):
                cache.put(platform, result)

        def reader():
            for _ in range(50):
                loaded = cache.get(platform, shape)
                if loaded is None or loaded.mapping != result.mapping:
                    errors.append("torn or missing entry")

        threads = [threading.Thread(target=writer) for _ in range(4)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not errors
        # A torn read would have warned through the reject path.
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        # No stray temp files survive the stampede.
        leftovers = [n for n in os.listdir(str(tmp_path)) if ".tmp-" in n]
        assert leftovers == []


class TestTunerCacheIntegration:
    def test_warm_cache_evaluates_zero_candidates(self, platform, tmp_path):
        shape = LUTShape(n=512, h=64, f=128, v=4, ct=8)
        cache = MappingCache(str(tmp_path))
        cold = AutoTuner(platform, cache=cache).tune(shape)

        counter = obs.get_registry().counter("tuner.candidates_evaluated")
        before = counter.value
        warm = AutoTuner(platform, cache=cache).tune(shape)  # fresh tuner
        assert counter.value == before  # acceptance: zero candidates
        assert warm.mapping == cold.mapping
        assert warm.latency == cold.latency

    def test_parallel_tuner_fills_cache_too(self, platform, tmp_path):
        shape = LUTShape(n=256, h=32, f=64, v=4, ct=8)
        cache = MappingCache(str(tmp_path))
        AutoTuner(platform, cache=cache).tune(shape)
        assert cache.get(platform, shape) is not None

    def test_amortize_modes_cached_separately(self, platform, tmp_path):
        shape = LUTShape(n=256, h=32, f=64, v=4, ct=8)
        cache = MappingCache(str(tmp_path))
        full = AutoTuner(platform, cache=cache).tune(shape)
        amortized = AutoTuner(
            platform, amortize_lut_distribution=True, cache=cache
        ).tune(shape)
        assert amortized.cost < full.cost
        assert len(cache) == 2


class TestServingWarmup:
    def test_server_loads_mappings_instead_of_retuning(self, tmp_path):
        from repro.baselines import wimpy_host
        from repro.engine.serving import GenerationServer

        platform = get_platform("upmem")
        config_kwargs = dict(prompt_len=32, generate_len=4, batch_size=2)
        from repro.workloads import EVAL_MODELS

        config = EVAL_MODELS["bert-base"].with_(seq_len=32, batch_size=2)
        cache_dir = str(tmp_path / "serving-cache")

        offline = GenerationServer(platform, wimpy_host(), mapping_cache=cache_dir)
        offline.warmup(config, prompt_len=32, batch_size=2)

        counter = obs.get_registry().counter("tuner.candidates_evaluated")
        server = GenerationServer(platform, wimpy_host(), mapping_cache=cache_dir)
        before = counter.value
        report = server.run(config, **config_kwargs)
        assert counter.value == before  # every mapping came from the cache
        assert report.request_latency_s > 0
