"""Exact bound pruning in the Auto-Tuner.

``AutoTuner.tune`` visits sub-LUT tilings in ascending lower bound
(:func:`~repro.mapping.tiling_lower_bound`: the tiling's fixed cost terms)
and skips the rest once a bound clears the best cost found.  These tests
hold the bound below every cost it claims to bound, and the pruned search
to a full scan's answer bit for bit.  The tier-1 cells cover BERT-base and
a few seeded shapes; the ``slow`` cell covers the 36 paper
(platform x model x shape) pairs in both modes plus 150 random shapes.
"""

import random

import numpy as np
import pytest

import repro.mapping.tuner as tuner_mod
from repro import obs
from repro.core import LUTShape
from repro.mapping import (
    AutoTuner,
    LatencyBreakdown,
    Mapping,
    enumerate_micro_kernels,
    enumerate_sub_lut_tilings,
    estimate_latency,
    model_lut_shapes,
    search_micro_kernels,
    tiling_lower_bound,
)
from repro.pim import get_platform
from repro.workloads import EVAL_MODELS, bert_base

PLATFORMS = ("upmem", "hbm-pim", "aim")


def random_shape(rng: random.Random) -> LUTShape:
    return LUTShape(
        n=rng.choice([64, 128, 256, 512, 1024, 2048]),
        h=rng.choice([16, 32, 64, 128, 256]),
        f=rng.choice([32, 64, 128, 256, 768]),
        v=4,
        ct=rng.choice([4, 8, 16]),
    )


def full_scan(shape, platform, amortize):
    """Reference: search every tiling, keep the min over (cost, index)."""
    tilings = list(enumerate_sub_lut_tilings(shape, platform))
    best = None
    for index, (n_s, f_s) in enumerate(tilings):
        found = search_micro_kernels(shape, n_s, f_s, platform)
        if found is None:
            continue
        cost = estimate_latency(
            shape, found[0], platform, amortize_lut_distribution=amortize
        ).total
        if best is None or (cost, index) < best[:2]:
            best = (cost, index, found[0])
    return best, len(tilings)


def assert_matches_full_scan(shape, platform, amortize):
    (cost, _, mapping), tilings = full_scan(shape, platform, amortize)
    result = AutoTuner(platform, amortize_lut_distribution=amortize).tune(shape)
    assert result.mapping == mapping, shape
    assert result.cost == cost, shape  # bit-identical, not approx
    assert result.candidates_evaluated == tilings, shape


class TestSoundness:
    @pytest.mark.parametrize("platform_name", PLATFORMS)
    def test_bound_below_every_tiling_winner(self, platform_name):
        platform = get_platform(platform_name)
        rng = random.Random(PLATFORMS.index(platform_name) + 31)
        for _ in range(4):
            shape = random_shape(rng)
            for n_s, f_s in enumerate_sub_lut_tilings(shape, platform):
                found = search_micro_kernels(shape, n_s, f_s, platform)
                if found is None:
                    continue
                for amortize in (False, True):
                    bound = tiling_lower_bound(shape, n_s, f_s, platform, amortize)
                    cost = estimate_latency(
                        shape, found[0], platform, amortize_lut_distribution=amortize
                    ).total
                    assert bound <= cost, (shape, n_s, f_s, amortize)

    @pytest.mark.parametrize(
        "shape, platform_name, amortize",
        [
            (LUTShape(n=16, h=8, f=16, v=4, ct=4), "upmem", False),
            (LUTShape(n=32, h=8, f=16, v=4, ct=4), "hbm-pim", True),
            (LUTShape(n=64, h=8, f=32, v=4, ct=4), "aim", False),
        ],
    )
    def test_bound_below_every_mapping(self, shape, platform_name, amortize):
        platform = get_platform(platform_name)
        for n_s, f_s in enumerate_sub_lut_tilings(shape, platform):
            bound = tiling_lower_bound(shape, n_s, f_s, platform, amortize)
            for mapping in enumerate_micro_kernels(shape, n_s, f_s, platform):
                cost = estimate_latency(
                    shape, mapping, platform, amortize_lut_distribution=amortize
                ).total
                assert bound <= cost, mapping


class TestExactness:
    @pytest.mark.parametrize(
        "platform_name, amortize", [("upmem", False), ("hbm-pim", True)]
    )
    def test_bert_base_matches_full_scan(self, platform_name, amortize):
        platform = get_platform(platform_name)
        for shape in model_lut_shapes(bert_base()):
            assert_matches_full_scan(shape, platform, amortize)

    @pytest.mark.parametrize("amortize", [False, True])
    def test_seeded_shapes_match_full_scan(self, amortize):
        rng = random.Random(20261017)
        for _ in range(8):
            shape = random_shape(rng)
            platform = get_platform(rng.choice(PLATFORMS))
            assert_matches_full_scan(shape, platform, amortize)

    @pytest.mark.slow
    def test_paper_pairs_and_random_shapes_match_full_scan(self):
        for platform_name in PLATFORMS:
            platform = get_platform(platform_name)
            for config in EVAL_MODELS.values():
                for shape in model_lut_shapes(config):
                    for amortize in (False, True):
                        assert_matches_full_scan(shape, platform, amortize)
        rng = random.Random(150)
        for _ in range(150):
            shape = random_shape(rng)
            platform = get_platform(rng.choice(PLATFORMS))
            assert_matches_full_scan(shape, platform, rng.random() < 0.5)

    def test_shape_without_legal_mapping_raises(self):
        from dataclasses import replace

        platform = get_platform("upmem")
        broken = replace(
            platform, local_memory=replace(platform.local_memory, buffer_bytes=1)
        )
        with pytest.raises(RuntimeError):
            AutoTuner(broken).tune(LUTShape(n=64, h=16, f=32, v=4, ct=4))


class TestTieBreak:
    def test_equal_cost_earlier_tiling_wins_despite_higher_bound(self, monkeypatch):
        """Two tilings cost exactly the same; the later one in enumeration
        order has the lower bound, so it is searched first.  The earlier one
        must still win: the winner is the min over (cost, index)."""
        shape = LUTShape(n=256, h=32, f=64, v=4, ct=8)
        platform = get_platform("upmem")
        tilings = list(enumerate_sub_lut_tilings(shape, platform))
        early, late = tilings[0], tilings[-1]
        bounds = {early: 2.0, late: 1.0}
        costs = {early: 5.0, late: 5.0}
        searched = []

        def fake_search(shape, n_s, f_s, platform):
            searched.append((n_s, f_s))
            return Mapping(n_s, f_s, 1, 1, 1), 0.0

        def fake_estimate(shape, mapping, platform, amortize_lut_distribution):
            cost = costs[(mapping.n_s_tile, mapping.f_s_tile)]
            return LatencyBreakdown(0.0, 0.0, 0.0, 0.0, cost, 0.0)

        def fake_bounds(shape, n_s, f_s, platform, amortize):
            # The tuner bounds all tilings at once, over arrays of factors.
            return np.array([bounds.get(t, 10.0) for t in zip(n_s.tolist(), f_s.tolist())])

        monkeypatch.setattr(tuner_mod, "tiling_lower_bound", fake_bounds)
        monkeypatch.setattr(tuner_mod, "search_micro_kernels", fake_search)
        monkeypatch.setattr(tuner_mod, "estimate_latency", fake_estimate)

        result = AutoTuner(platform).tune(shape)
        assert searched == [late, early]
        assert (result.mapping.n_s_tile, result.mapping.f_s_tile) == early
        assert result.cost == 5.0
        assert result.candidates_evaluated == len(tilings)


class TestCounters:
    def test_bound_pruning_telemetry(self, monkeypatch):
        obs.reset()
        shape = model_lut_shapes(bert_base())[0]
        platform = get_platform("upmem")
        calls = []

        def counting_search(*args):
            calls.append(args)
            return search_micro_kernels(*args)

        monkeypatch.setattr(tuner_mod, "search_micro_kernels", counting_search)
        try:
            result = AutoTuner(platform).tune(shape)
            snap = obs.get_registry().snapshot()
            spans = obs.get_tracer().finished_spans()
        finally:
            obs.reset()
        tilings = len(list(enumerate_sub_lut_tilings(shape, platform)))
        bound_pruned = snap["tuner.tilings_bound_pruned"]["value"]
        assert bound_pruned > 0
        assert len(calls) == tilings - bound_pruned
        assert result.candidates_evaluated == tilings
        assert snap["tuner.candidates_evaluated"]["value"] == tilings
        root = [s for s in spans if s.name == "tuner.tune"]
        assert len(root) == 1
        assert root[0].attributes["bound_pruned"] == bound_pruned
        skipped = [
            s for s in spans
            if s.name == "tuner.tiling" and s.attributes.get("bound_pruned")
        ]
        assert len(skipped) == bound_pruned
