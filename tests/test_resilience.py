"""Tests for the fault-injection and graceful-degradation layer.

Covers the guarantees the resilience design makes:

* an **empty fault plan is a strict no-op** — simulator reports, engine
  reports, and functional outputs are bit-identical to runs without an
  injector;
* injection is **seeded and deterministic** — equal plans corrupt tables
  byte-for-byte identically;
* the per-codebook **checksums catch every injected bit flip**;
* the recovery ladder behaves as specified: transients are retried with
  exponential backoff and escalate when the budget is exhausted, rank
  failures remap onto the surviving capacity (cached under the degraded
  platform's fingerprint), and the last-resort host fallback produces
  output **bit-identical to the trusted host kernel**;
* serving survives a scripted rank kill end to end, with the degradation
  recorded in the ServingReport, the metrics registry, and the trace.
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.baselines import wimpy_host
from repro.cli import main as cli_main
from repro.core import LUTShape
from repro.engine import PIMDLEngine
from repro.engine.serving import GenerationServer
from repro.kernels import lut_checksums, lut_gather_reduce, verify_lut
from repro.mapping import AutoTuner
from repro.pim import PIMSimulator, get_platform
from repro.resilience import (
    DegradationLedger,
    FaultInjector,
    FaultPlan,
    RankFailure,
    RecoveryManager,
    RetryPolicy,
    run_kernel_with_recovery,
)
from repro.workloads.configs import TransformerConfig

SHAPE = LUTShape(n=8, h=64, f=32, v=4, ct=16)

TINY = TransformerConfig(
    name="tiny", num_layers=1, hidden_dim=128, num_heads=4,
    ffn_dim=256, seq_len=16, batch_size=1,
)


@pytest.fixture(autouse=True)
def _fresh_telemetry():
    obs.reset()
    yield
    obs.reset()


@pytest.fixture(scope="module")
def platform():
    return get_platform("upmem")


@pytest.fixture(scope="module")
def tuned_mapping(platform):
    return AutoTuner(platform).tune(SHAPE).mapping


@pytest.fixture(scope="module")
def functional_inputs():
    rng = np.random.default_rng(42)
    indices = rng.integers(0, SHAPE.ct, size=(SHAPE.n, SHAPE.cb))
    lut = rng.normal(size=(SHAPE.cb, SHAPE.ct, SHAPE.f)).astype(np.float32)
    return indices, lut


class TestFaultPlan:
    def test_empty_plan(self):
        assert FaultPlan().is_empty
        assert not FaultInjector(FaultPlan()).active

    def test_any_fault_makes_it_non_empty(self):
        for plan in (
            FaultPlan(failed_ranks=(1,)),
            FaultPlan(failed_pes=2),
            FaultPlan(straggler_factor=1.5),
            FaultPlan(transfer_timeouts=1),
            FaultPlan(lut_bit_flips=1),
        ):
            assert not plan.is_empty
            assert FaultInjector(plan).active

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(straggler_factor=0.5)
        with pytest.raises(ValueError):
            FaultPlan(failed_ranks=(1, 1))
        with pytest.raises(ValueError):
            FaultPlan(transfer_timeouts=-1)

    def test_round_trip_and_rank_sorting(self):
        plan = FaultPlan(seed=3, failed_ranks=(5, 2), lut_bit_flips=7)
        assert plan.failed_ranks == (2, 5)
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_unknown_scenario_field_rejected(self):
        with pytest.raises(ValueError, match="unknown fault plan fields"):
            FaultPlan.from_dict({"seed": 0, "typo_field": 1})

    def test_scenario_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"seed": 9, "transfer_timeouts": 2}))
        plan = FaultPlan.from_json(str(path))
        assert plan == FaultPlan(seed=9, transfer_timeouts=2)


class TestEmptyPlanIsStrictNoOp:
    def test_simulator_report_bit_identical(
        self, platform, tuned_mapping, functional_inputs
    ):
        indices, lut = functional_inputs
        sim = PIMSimulator(platform)
        plain = sim.run(SHAPE, tuned_mapping, indices, lut)
        injected = sim.run(
            SHAPE, tuned_mapping, indices, lut, injector=FaultInjector(FaultPlan())
        )
        assert injected.total_s == plain.total_s
        assert injected.distribution_s == plain.distribution_s
        assert injected.kernel_s == plain.kernel_s
        assert injected.gather_s == plain.gather_s
        assert injected.event_counts == plain.event_counts
        assert injected.faults == ()
        assert injected.device_lut is None
        assert np.array_equal(injected.output, plain.output)

    def test_engine_report_identical(self, platform):
        host = wimpy_host()
        plain = PIMDLEngine(platform, host).run(TINY)
        manager = RecoveryManager(FaultInjector(FaultPlan()))
        guarded = PIMDLEngine(platform, host, resilience=manager).run(TINY)
        assert guarded.total_s == plain.total_s
        assert [(o.name, o.device, o.seconds) for o in guarded.ops] == [
            (o.name, o.device, o.seconds) for o in plain.ops
        ]
        assert not manager.ledger.summary().degraded

    def test_serving_report_identical(self, platform):
        host = wimpy_host()
        plain = GenerationServer(platform, host).run(
            TINY, prompt_len=8, generate_len=2
        )
        manager = RecoveryManager(FaultInjector(FaultPlan()))
        guarded = GenerationServer(platform, host, resilience=manager).run(
            TINY, prompt_len=8, generate_len=2
        )
        assert guarded.prefill_s == plain.prefill_s
        assert guarded.decode_s == plain.decode_s
        assert guarded.degraded is None


class TestChecksums:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("flips", [1, 3, 17])
    def test_catches_every_injected_flip(self, dtype, seed, flips):
        rng = np.random.default_rng(100 + seed)
        lut = rng.normal(size=(4, 8, 16)).astype(dtype)
        reference = lut_checksums(lut)
        injector = FaultInjector(FaultPlan(seed=seed, lut_bit_flips=flips))
        corrupted = injector.corrupt_lut(lut)
        assert not np.array_equal(corrupted, lut), "flips must change the table"
        bad = verify_lut(corrupted, reference)
        assert bad.size > 0, "corruption must fail verification"

    def test_clean_table_passes(self):
        lut = np.arange(4 * 8 * 16, dtype=np.float32).reshape(4, 8, 16)
        assert verify_lut(lut, lut_checksums(lut)).size == 0

    def test_corruption_is_deterministic(self):
        lut = np.random.default_rng(0).normal(size=(4, 8, 16))
        plan = FaultPlan(seed=11, lut_bit_flips=5)
        a = FaultInjector(plan).corrupt_lut(lut)
        b = FaultInjector(plan).corrupt_lut(lut)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, lut)

    def test_host_copy_untouched(self):
        lut = np.random.default_rng(0).normal(size=(4, 8, 16))
        before = lut.copy()
        FaultInjector(FaultPlan(lut_bit_flips=8)).corrupt_lut(lut)
        assert np.array_equal(lut, before)


class TestRetryPolicy:
    def test_exponential_backoff(self):
        policy = RetryPolicy(max_retries=4, base_backoff_s=0.5,
                             backoff_multiplier=3.0)
        assert policy.backoff_s(0) == 0.5
        assert policy.backoff_s(1) == 1.5
        assert policy.backoff_s(2) == 4.5

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_multiplier=0.5)


class TestRecoveryLadder:
    def _manager(self, plan, **policy_kwargs):
        policy = RetryPolicy(base_backoff_s=1e-4, **policy_kwargs)
        return RecoveryManager(FaultInjector(plan), policy=policy)

    def test_transient_retry_succeeds_within_budget(self, platform):
        manager = self._manager(FaultPlan(transfer_timeouts=2), max_retries=3)
        tuner = AutoTuner(platform)
        seconds, device = manager.lut_op_seconds(
            SHAPE, platform, tuner, wimpy_host()
        )
        assert device == "pim"
        summary = manager.ledger.summary()
        assert summary.retries == 2
        assert summary.fallbacks == 0
        # Exponential backoff of both retries is part of the modeled time.
        expected_backoff = 1e-4 * (1 + 2.0)
        assert summary.backoff_s == pytest.approx(expected_backoff)
        assert seconds > tuner.tune(SHAPE).latency.total

    def test_retry_exhaustion_escalates_to_fallback(self, platform):
        manager = self._manager(FaultPlan(transfer_timeouts=10), max_retries=2)
        seconds, device = manager.lut_op_seconds(
            SHAPE, platform, AutoTuner(platform), wimpy_host()
        )
        # No rank died, so remap has nothing to change — the exhausted
        # transient escalates all the way to the host.
        assert device == "host"
        summary = manager.ledger.summary()
        assert summary.retries == 2
        assert summary.fallbacks == 1
        assert summary.fallback_layers == ("lut",)
        assert seconds > 0

    def test_rank_failure_remaps_to_survivors(self, platform):
        manager = self._manager(FaultPlan(failed_ranks=(0,)))
        tuner = AutoTuner(platform)
        seconds, device = manager.lut_op_seconds(
            SHAPE, platform, tuner, wimpy_host()
        )
        assert device == "pim"
        summary = manager.ledger.summary()
        assert summary.remaps == 1
        assert summary.fallbacks == 0
        degraded = manager.injector.degraded_platform(platform)
        assert degraded.ranks == platform.ranks - 1
        assert degraded.num_pes == platform.num_pes - platform.pes_per_rank
        # The remapped mapping is tuned for (and cached under) the
        # degraded platform; its latency is what the op is charged.
        expected = AutoTuner(degraded).tune(SHAPE).latency.total
        assert seconds == pytest.approx(expected)

    def test_remap_recorded_once_per_shape(self, platform):
        manager = self._manager(FaultPlan(failed_ranks=(0,)))
        tuner = AutoTuner(platform)
        first, _ = manager.lut_op_seconds(SHAPE, platform, tuner, wimpy_host())
        second, device = manager.lut_op_seconds(
            SHAPE, platform, tuner, wimpy_host()
        )
        assert device == "pim"
        assert second == pytest.approx(first)
        # Steady state: the op keeps running remapped, but the remap event
        # itself is not re-counted.
        assert manager.ledger.summary().remaps == 1

    def test_total_capacity_loss_falls_back_to_host(self, platform):
        all_ranks = tuple(range(platform.ranks))
        manager = self._manager(FaultPlan(failed_ranks=all_ranks))
        seconds, device = manager.lut_op_seconds(
            SHAPE, platform, AutoTuner(platform), wimpy_host()
        )
        assert device == "host"
        assert manager.ledger.summary().fallbacks == 1
        assert seconds > 0

    def test_checksum_recovery_charged_once(self, platform):
        manager = self._manager(FaultPlan(lut_bit_flips=3))
        tuner = AutoTuner(platform)
        healthy = tuner.tune(SHAPE).latency.total
        first, _ = manager.lut_op_seconds(SHAPE, platform, tuner, wimpy_host())
        second, _ = manager.lut_op_seconds(SHAPE, platform, tuner, wimpy_host())
        assert first > healthy  # re-distribution of the repaired table
        assert second == pytest.approx(healthy)  # table now resident
        assert manager.ledger.summary().checksum_failures == 1

    def test_ladder_emits_metrics_and_spans(self, platform):
        manager = self._manager(FaultPlan(failed_ranks=(0,)))
        manager.lut_op_seconds(SHAPE, platform, AutoTuner(platform), wimpy_host())
        assert obs.get_registry().counter("resilience.remap").value == 1
        names = [s.name for s in obs.get_tracer().finished_spans()]
        assert "resilience.remap" in names


class TestFunctionalRecovery:
    def test_remap_output_bit_identical(
        self, platform, tuned_mapping, functional_inputs
    ):
        indices, lut = functional_inputs
        injector = FaultInjector(FaultPlan(failed_ranks=(0,)))
        ledger = DegradationLedger()
        output, report = run_kernel_with_recovery(
            PIMSimulator(platform), SHAPE, tuned_mapping, indices, lut,
            injector, ledger=ledger,
        )
        assert report is not None, "remapped run should complete on PIM"
        assert ledger.remaps == 1 and ledger.fallbacks == 0
        assert np.array_equal(output, lut_gather_reduce(indices, lut))

    def test_fallback_output_bit_identical(
        self, platform, tuned_mapping, functional_inputs
    ):
        indices, lut = functional_inputs
        injector = FaultInjector(
            FaultPlan(failed_ranks=tuple(range(platform.ranks)))
        )
        ledger = DegradationLedger()
        output, report = run_kernel_with_recovery(
            PIMSimulator(platform), SHAPE, tuned_mapping, indices, lut,
            injector, ledger=ledger,
        )
        assert report is None, "no surviving rank: must fall back to host"
        assert ledger.fallbacks == 1
        assert np.array_equal(output, lut_gather_reduce(indices, lut))

    def test_corrupted_table_detected_then_host_output(
        self, platform, tuned_mapping, functional_inputs
    ):
        indices, lut = functional_inputs
        injector = FaultInjector(FaultPlan(lut_bit_flips=4))
        ledger = DegradationLedger()
        output, report = run_kernel_with_recovery(
            PIMSimulator(platform), SHAPE, tuned_mapping, indices, lut,
            injector, ledger=ledger,
        )
        assert ledger.checksum_failures == 1
        assert ledger.fallbacks == 1
        assert report is None
        # Fallback uses the trusted host copy: exact host-kernel output.
        assert np.array_equal(output, lut_gather_reduce(indices, lut))

    def test_transient_exhaustion_still_correct(
        self, platform, tuned_mapping, functional_inputs
    ):
        indices, lut = functional_inputs
        injector = FaultInjector(FaultPlan(transfer_timeouts=50))
        policy = RetryPolicy(max_retries=2, base_backoff_s=1e-4)
        ledger = DegradationLedger()
        output, report = run_kernel_with_recovery(
            PIMSimulator(platform), SHAPE, tuned_mapping, indices, lut,
            injector, policy=policy, ledger=ledger,
        )
        assert report is None
        assert ledger.retries == 2
        assert ledger.fallbacks == 1
        assert np.array_equal(output, lut_gather_reduce(indices, lut))


class TestFaultsInModels:
    def test_simulator_straggler_stretches_kernel_only(
        self, platform, tuned_mapping
    ):
        sim = PIMSimulator(platform)
        plain = sim.run(SHAPE, tuned_mapping)
        slowed = sim.run(
            SHAPE, tuned_mapping,
            injector=FaultInjector(FaultPlan(straggler_factor=2.0)),
        )
        assert slowed.kernel_s == pytest.approx(2.0 * plain.kernel_s)
        assert slowed.distribution_s == plain.distribution_s
        assert slowed.gather_s == plain.gather_s
        assert "straggler" in slowed.faults

    def test_simulator_rank_failure_raises(self, platform, tuned_mapping):
        injector = FaultInjector(FaultPlan(failed_ranks=(0,)))
        with pytest.raises(RankFailure):
            PIMSimulator(platform).run(SHAPE, tuned_mapping, injector=injector)


class TestServingUnderFaults:
    def test_rank_kill_request_completes_and_is_recorded(self, platform):
        manager = RecoveryManager(
            FaultInjector(FaultPlan(seed=1, failed_ranks=(0,))),
            policy=RetryPolicy(base_backoff_s=1e-4),
        )
        server = GenerationServer(platform, wimpy_host(), resilience=manager)
        report = server.run(TINY, prompt_len=8, generate_len=2)

        assert report.request_latency_s > 0
        assert report.degraded is not None and report.degraded.degraded
        assert report.degraded.remaps > 0
        assert report.degraded.fallbacks == 0

        registry = obs.get_registry()
        assert registry.counter("resilience.remap").value > 0
        assert registry.counter("serving.degraded_requests").value == 1
        span_names = [s.name for s in obs.get_tracer().finished_spans()]
        assert "resilience.remap" in span_names
        assert "serving.request" in span_names

    def test_second_request_reaches_steady_state(self, platform):
        manager = RecoveryManager(
            FaultInjector(FaultPlan(failed_ranks=(0,), lut_bit_flips=2)),
            policy=RetryPolicy(base_backoff_s=1e-4),
        )
        server = GenerationServer(platform, wimpy_host(), resilience=manager)
        first = server.run(TINY, prompt_len=8, generate_len=2)
        second = server.run(TINY, prompt_len=8, generate_len=2)
        assert first.degraded.degraded
        # Recovery (remap + table re-send) happened on the first request;
        # the second runs on the remapped steady state.
        assert second.degraded is not None
        assert not second.degraded.degraded
        assert second.prefill_s < first.prefill_s


class TestFaultsCLI:
    def test_scripted_scenario_end_to_end(self, capsys):
        rc = cli_main([
            "faults", "--layers", "1", "--prompt-len", "16",
            "--generate-len", "2", "--requests", "2",
            "--fail-ranks", "0", "--bit-flips", "2",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "remaps" in out
        assert "functional parity: PASS" in out

    def test_json_output_with_scenario_file(self, tmp_path, capsys):
        scenario = tmp_path / "plan.json"
        scenario.write_text(json.dumps({"seed": 7, "transfer_timeouts": 5}))
        rc = cli_main([
            "faults", "--layers", "1", "--prompt-len", "16",
            "--generate-len", "2", "--requests", "1",
            "--scenario", str(scenario), "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["plan"]["transfer_timeouts"] == 5
        assert payload["degradation"]["degraded"]
        assert payload["degradation"]["retries"] > 0
        assert payload["functional_check"]["bit_identical_to_host"]

    def test_bad_scenario_is_a_usage_error(self, tmp_path, capsys):
        scenario = tmp_path / "bad.json"
        scenario.write_text(json.dumps({"not_a_field": 1}))
        rc = cli_main(["faults", "--scenario", str(scenario)])
        assert rc == 2
        assert "bad fault scenario" in capsys.readouterr().err
