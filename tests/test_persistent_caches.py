"""The persistent caches on one entry primitive: corrupt entries, counter
balance (in the CLI's tune and simulate too), and on-disk compatibility.

``MappingCache`` and ``KernelScheduleCache`` both sit on
:class:`repro.obs.entries.EntryDirectory`, so every corrupt entry must be
a warned miss counted under ``<family>.rejected`` and ``<family>.misses``
alike, and files written by earlier releases must keep hitting.
"""

import json
import os

import numpy as np
import pytest

from repro import obs
from repro.cli import main
from repro.core import LUTShape
from repro.kernels import KernelScheduleCache, search_kernel_schedule
from repro.mapping import AutoTuner, MappingCache, platform_fingerprint
from repro.pim import get_platform

SHAPE = LUTShape(n=256, h=32, f=64, v=4, ct=8)
SEARCH_KW = dict(n=64, h=64, f=32, v=4, ct=16, dtype="float32")

#: Entry files no reader can use, by what is wrong with them.
CORRUPT_ENTRIES = {
    "non-utf8": b"\x80\x81\xfe\xff not utf-8",
    "json-list": b"[]",
    "json-string": b'"x"',
    "json-null": b"null",
    "truncated": b'{"version": 2, "fingerprint": "3e4e',
    "empty": b"",
}

#: A mapping-cache entry exactly as the v2 format writes it (the
#: fingerprint is filled in, since it hashes the platform constants).
LEGACY_MAPPING_NAME = "v2-{fingerprint}-n256_h32_f64_v4_ct8-full.json"
LEGACY_MAPPING_ENTRY = """{
  "amortize_lut_distribution": false,
  "entry": {
    "breakdown": {
      "kernel_reduce": 4.973714285714286e-05,
      "kernel_transfer": 9.070967741935482e-06,
      "launch": 6e-05,
      "sub_index": 3.6896e-05,
      "sub_lut": 3.8432e-05,
      "sub_output": 8.971914893617021e-05
    },
    "candidates_evaluated": 53,
    "latency_s": 0.00028385525953524856,
    "mapping": {
      "cb_load_tile": 1,
      "cb_m_tile": 8,
      "f_load_tile": 1,
      "f_m_tile": 16,
      "f_s_tile": 16,
      "load_scheme": "static",
      "n_m_tile": 32,
      "n_s_tile": 32,
      "traversal": [
        "n",
        "f",
        "cb"
      ]
    },
    "platform": "UPMEM PIM-DIMM",
    "shape": {
      "ct": 8,
      "f": 64,
      "h": 32,
      "n": 256,
      "v": 4
    }
  },
  "fingerprint": "{fingerprint}",
  "version": 2
}"""

#: A kernel-schedule entry exactly as the v1 format writes it.
LEGACY_SCHEDULE_NAME = "v1-deadbeef0000-n64_h64_f32_v4_ct16-float32.json"
LEGACY_SCHEDULE_ENTRY = (
    '{"fingerprint": "deadbeef0000", "format_version": 1, "schedule": '
    '{"baseline_seconds": 0.005, "ccs_block_rows": 1024, "ccs_seconds": '
    '0.00125, "dtype": "float32", "gather_block_rows": 256, '
    '"gather_seconds": 0.0025, "gather_strategy": "flat", "repeats": 3, '
    '"shape": [64, 64, 32, 4, 16]}}'
)


@pytest.fixture(scope="module")
def platform():
    return get_platform("upmem")


@pytest.fixture(scope="module")
def tuned(platform):
    return AutoTuner(platform).tune(SHAPE)


def _counts(family):
    registry = obs.get_registry()
    return {
        name: registry.counter(f"{family}.{name}").value
        for name in ("hits", "misses", "rejected", "writes")
    }


def _delta(family, before):
    return {k: v - before[k] for k, v in _counts(family).items()}


def _targets(tmp_path, platform):
    """``(family, entry path, lookup)`` for every lenient cache reader."""
    mappings = MappingCache(str(tmp_path / "mappings"))
    schedules = KernelScheduleCache(str(tmp_path / "schedules"))
    return {
        "MappingCache.get": (
            "mapping_cache",
            mappings.entry_path(platform, SHAPE),
            lambda: mappings.get(platform, SHAPE),
        ),
        "KernelScheduleCache.get": (
            "kernel_schedule_cache",
            schedules.entry_path(**SEARCH_KW),
            lambda: schedules.get(**SEARCH_KW),
        ),
        "search_kernel_schedule": (
            "kernel_schedule_cache",
            schedules.entry_path(**SEARCH_KW),
            lambda: search_kernel_schedule(
                repeats=1, rng=np.random.default_rng(0), cache=schedules,
                **SEARCH_KW,
            ),
        ),
    }


@pytest.mark.parametrize("case", sorted(CORRUPT_ENTRIES))
@pytest.mark.parametrize(
    "reader",
    ["MappingCache.get", "KernelScheduleCache.get", "search_kernel_schedule"],
)
def test_corrupt_entry_is_a_counted_warned_miss(reader, case, platform, tmp_path):
    family, path, lookup = _targets(tmp_path, platform)[reader]
    os.makedirs(os.path.dirname(path))
    with open(path, "wb") as fh:
        fh.write(CORRUPT_ENTRIES[case])
    before = _counts(family)
    with pytest.warns(RuntimeWarning, match="unreadable entry"):
        value = lookup()
    delta = _delta(family, before)
    assert delta["rejected"] == 1
    assert delta["hits"] + delta["misses"] == 1  # one lookup
    if reader == "search_kernel_schedule":
        # The miss re-measures and rewrites the entry, which now hits.
        assert value.candidates_evaluated > 0
        assert delta["writes"] == 1
        assert lookup().candidates_evaluated == 0
    else:
        assert value is None


def test_hits_plus_misses_equals_lookups(platform, tuned, tmp_path):
    """Absent, present and rejected lookups, for both families."""
    mappings = MappingCache(str(tmp_path / "mappings"))
    schedules = KernelScheduleCache(str(tmp_path / "schedules"))
    schedule = search_kernel_schedule(repeats=1, **SEARCH_KW)
    families = {
        "mapping_cache": (
            lambda: mappings.get(platform, SHAPE),
            lambda: mappings.put(platform, tuned),
            "version",
        ),
        "kernel_schedule_cache": (
            lambda: schedules.get(**SEARCH_KW),
            lambda: schedules.put(schedule),
            "format_version",
        ),
    }
    for family, (get, put, version_field) in families.items():
        before = _counts(family)
        assert get() is None
        path = put()
        assert get() is not None
        with open(path) as fh:
            payload = json.load(fh)
        payload[version_field] += 10
        with open(path, "w") as fh:
            json.dump(payload, fh)
        with pytest.warns(RuntimeWarning, match="format version"):
            assert get() is None
        assert _delta(family, before) == {
            "hits": 1, "misses": 2, "rejected": 1, "writes": 1,
        }, family


@pytest.mark.parametrize("command", ["tune", "simulate"])
def test_cli_cache_lookup_is_counted_once(command, platform, tmp_path, capsys):
    """One ``--cache`` lookup per command: a cold run misses once and
    writes the search's result back; a warm run hits once and evaluates no
    candidate; a rejected entry is one warned miss, searched and rewritten."""
    cache = str(tmp_path / "mappings")
    argv = [command, "--n", "256", "--h", "32", "--f", "64", "--v", "4",
            "--ct", "8", "--cache", cache]
    names = [f"mapping_cache.{name}" for name in ("hits", "misses", "rejected", "writes")]
    names += [f"tuner.{name}" for name in
              ("store_hits", "store_misses", "candidates_evaluated")]
    registry = obs.get_registry()

    def run() -> dict:
        before = {name: registry.counter(name).value for name in names}
        assert main(argv) == 0
        return {name: registry.counter(name).value - before[name] for name in names}

    def assert_searched(delta):
        assert delta["mapping_cache.hits"] == 0
        assert delta["mapping_cache.misses"] == 1
        assert delta["mapping_cache.writes"] == 1
        assert (delta["tuner.store_hits"], delta["tuner.store_misses"]) == (0, 1)
        assert delta["tuner.candidates_evaluated"] > 0
        assert "search (" in capsys.readouterr().out

    cold = run()
    assert_searched(cold)
    assert cold["mapping_cache.rejected"] == 0

    warm = run()
    assert (warm["mapping_cache.hits"], warm["mapping_cache.misses"]) == (1, 0)
    assert warm["mapping_cache.writes"] == 0
    assert (warm["tuner.store_hits"], warm["tuner.store_misses"]) == (1, 0)
    assert warm["tuner.candidates_evaluated"] == 0
    assert f"cache {cache} (search skipped)" in capsys.readouterr().out

    with open(MappingCache(cache).entry_path(platform, SHAPE), "wb") as fh:
        fh.write(CORRUPT_ENTRIES["truncated"])
    with pytest.warns(RuntimeWarning, match="unreadable entry"):
        rejected = run()
    assert_searched(rejected)
    assert rejected["mapping_cache.rejected"] == 1
    assert run()["mapping_cache.hits"] == 1


class TestOnDiskCompatibility:
    def test_v2_mapping_entry_hits_and_rewrites_identically(
        self, platform, tmp_path
    ):
        fingerprint = platform_fingerprint(platform)
        name = LEGACY_MAPPING_NAME.format(fingerprint=fingerprint)
        text = LEGACY_MAPPING_ENTRY.replace("{fingerprint}", fingerprint)
        cache = MappingCache(str(tmp_path))
        with open(tmp_path / name, "w") as fh:
            fh.write(text)
        before = _counts("mapping_cache")
        hit = cache.get(platform, SHAPE)
        assert _delta("mapping_cache", before)["hits"] == 1
        assert hit.candidates_evaluated == 53
        assert hit.mapping.traversal == ("n", "f", "cb")
        assert hit.cost == pytest.approx(0.00028385525953524856, rel=1e-15)

        os.remove(tmp_path / name)
        path = cache.put(platform, hit)
        assert os.path.basename(path) == name
        with open(path) as fh:
            assert json.load(fh) == json.loads(text)

    def test_v1_schedule_entry_hits_and_rewrites_identically(self, tmp_path):
        cache = KernelScheduleCache(str(tmp_path), fingerprint="deadbeef0000")
        with open(tmp_path / LEGACY_SCHEDULE_NAME, "w") as fh:
            fh.write(LEGACY_SCHEDULE_ENTRY)
        before = _counts("kernel_schedule_cache")
        hit = cache.get(**SEARCH_KW)
        assert _delta("kernel_schedule_cache", before)["hits"] == 1
        assert (hit.ccs_block_rows, hit.gather_strategy) == (1024, "flat")
        assert hit.candidates_evaluated == 0

        os.remove(tmp_path / LEGACY_SCHEDULE_NAME)
        path = cache.put(hit)
        assert os.path.basename(path) == LEGACY_SCHEDULE_NAME
        with open(path) as fh:
            assert json.load(fh) == json.loads(LEGACY_SCHEDULE_ENTRY)
