"""Detection and graceful degradation: retry -> remap -> host fallback.

The recovery ladder mirrors what a real UPMEM serving deployment does when
hardware misbehaves, ordered by how much performance each step gives up:

1. **Bounded retry with exponential backoff** — transient faults
   (:class:`~repro.resilience.faults.TransferTimeout`) are retried up to
   ``RetryPolicy.max_retries`` times; each retry adds its backoff delay to
   the request's modeled latency.  Exhausting the budget escalates the
   fault to permanent.
2. **Remap around dead ranks** — permanent capacity loss
   (:class:`~repro.resilience.faults.RankFailure`) re-runs the Auto-Tuner
   against the *degraded* platform (dead ranks removed).  The degraded
   hardware description has its own platform fingerprint, so remapped
   tunings land in the same :class:`~repro.mapping.store.MappingCache`
   under a distinct key — a restarted server warm-starts its degraded
   mappings exactly like healthy ones.
3. **Host fallback** — when no legal mapping survives (all ranks dead, or
   the degraded buffer can't fit any tile), the affected layer runs on the
   host CCS/LUT kernel path.  Functionally this is *bit-identical* to the
   pure-host engine (same :func:`repro.kernels.lut_gather_reduce` on the
   trusted host copy of the table); in the latency model it is costed from
   the measured :class:`~repro.kernels.HostKernelProfile` when available,
   else the host roofline.

Corrupted LUT tables (bit flips caught by the per-codebook checksums of
:mod:`repro.kernels.integrity`) re-distribute the table once per layer —
step 0 of the ladder, recorded as a checksum failure.

Every step lands in a :class:`DegradationLedger` (shared across the
prefill/decode engines of one server), in the ``repro.obs`` registry under
``resilience.*``, and as ``resilience.*`` spans in Chrome traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import obs
from ..kernels import lut_checksums, lut_gather_reduce, verify_lut
from ..mapping.analytical import estimate_latency
from ..mapping.tuner import AutoTuner
from ..pim.platforms import PIMPlatform
from ..pim.simulator import PIMSimulator, SimulationReport
from .faults import FaultInjector, PIMFault, RankFailure, TransferTimeout


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff for transient PIM faults."""

    max_retries: int = 3
    base_backoff_s: float = 1e-3
    backoff_multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.base_backoff_s < 0 or self.backoff_multiplier < 1.0:
            raise ValueError("backoff must be non-negative and non-decreasing")

    def backoff_s(self, attempt: int) -> float:
        """Delay before retry number ``attempt`` (0-based)."""
        return self.base_backoff_s * self.backoff_multiplier**attempt


@dataclass(frozen=True)
class DegradationSummary:
    """Immutable roll-up of one request/run's degradation (ServingReport)."""

    retries: int = 0
    remaps: int = 0
    fallbacks: int = 0
    checksum_failures: int = 0
    backoff_s: float = 0.0
    recovery_s: float = 0.0
    fallback_layers: Tuple[str, ...] = ()

    @property
    def degraded(self) -> bool:
        return bool(
            self.retries or self.remaps or self.fallbacks or self.checksum_failures
        )

    def to_jsonable(self) -> dict:
        return {
            "degraded": self.degraded,
            "retries": self.retries,
            "remaps": self.remaps,
            "fallbacks": self.fallbacks,
            "checksum_failures": self.checksum_failures,
            "backoff_s": self.backoff_s,
            "recovery_s": self.recovery_s,
            "fallback_layers": list(self.fallback_layers),
        }


@dataclass
class DegradationLedger:
    """Mutable event collector shared by every engine of one server."""

    retries: int = 0
    remaps: int = 0
    fallbacks: int = 0
    checksum_failures: int = 0
    backoff_s: float = 0.0
    recovery_s: float = 0.0
    fallback_layers: List[str] = field(default_factory=list)
    events: List[Dict[str, object]] = field(default_factory=list)
    #: Open attribution scopes, keyed by owner name: each maps to its
    #: opening snapshot and fallback-layer index.  Scopes with distinct
    #: owners may be open concurrently (one per cluster replica, or a
    #: cluster-level scope enclosing per-replica ones); re-opening an
    #: owner that is already open is the genuine single-node ambiguity
    #: and still raises.
    _scopes: Dict[str, Tuple[DegradationSummary, int]] = field(
        default_factory=dict, init=False, repr=False
    )

    def note(self, kind: str, **detail: object) -> None:
        self.events.append({"kind": kind, **detail})
        obs.get_registry().counter(f"resilience.{kind}").inc()

    def open_request_scope(self, owner: str = "request") -> str:
        """Begin attributing ledger growth to one named scope.

        Attribution slices the ledger between two snapshots, so a scope's
        slice covers *everything* that landed while it was open.  That is
        exact for scopes that do not overlap in wall-clock time (one
        request at a time, or cluster replicas simulated one after the
        other on a shared ledger) and deliberately inclusive for nested
        scopes (a cluster-level scope's slice contains its replicas').
        Only re-opening an owner that is already open raises — two
        attribution windows under one name cannot be told apart.
        """
        if owner in self._scopes:
            raise RuntimeError(
                f"degradation ledger already has an open request scope "
                f"({owner!r}); concurrent scopes must use distinct owner "
                f"names (e.g. one per cluster replica) so their slices "
                f"stay attributable"
            )
        self._scopes[owner] = (self.summary(), len(self.fallback_layers))
        return owner

    def close_request_scope(self, owner: str) -> DegradationSummary:
        """End the named scope and return its slice of the ledger.

        The ``fallback_layers`` slice is taken by index from the scope's
        opening snapshot, so it contains exactly the layers appended while
        the scope was open.
        """
        if owner not in self._scopes:
            open_names = ", ".join(repr(o) for o in sorted(self._scopes)) or "none"
            raise RuntimeError(
                f"closing request scope {owner!r} but the open scope is "
                f"{open_names}"
            )
        before, base = self._scopes.pop(owner)
        after = self.summary()
        return DegradationSummary(
            retries=after.retries - before.retries,
            remaps=after.remaps - before.remaps,
            fallbacks=after.fallbacks - before.fallbacks,
            checksum_failures=after.checksum_failures - before.checksum_failures,
            backoff_s=after.backoff_s - before.backoff_s,
            recovery_s=after.recovery_s - before.recovery_s,
            fallback_layers=tuple(self.fallback_layers[base:]),
        )

    def summary(self) -> DegradationSummary:
        return DegradationSummary(
            retries=self.retries,
            remaps=self.remaps,
            fallbacks=self.fallbacks,
            checksum_failures=self.checksum_failures,
            backoff_s=self.backoff_s,
            recovery_s=self.recovery_s,
            fallback_layers=tuple(self.fallback_layers),
        )


class _DegradationScope:
    """A run's ledger request scope, open while the run executes.

    A no-op unless ``manager`` is an active :class:`RecoveryManager`;
    otherwise the scope closes on exit, error or not, and ``summary`` holds
    the run's degradation slice.
    """

    def __init__(self, manager: Optional["RecoveryManager"], owner: str):
        active = manager is not None and manager.active
        self.ledger = manager.ledger if active else None
        self.owner = owner
        self.summary: Optional[DegradationSummary] = None

    def __enter__(self) -> "_DegradationScope":
        if self.ledger is not None:
            self.scope = self.ledger.open_request_scope(self.owner)
        return self

    def __exit__(self, *exc) -> None:
        if self.ledger is not None:
            self.summary = self.ledger.close_request_scope(self.scope)


class RecoveryManager:
    """Runs the retry/remap/fallback ladder for LUT operators.

    One manager (holding one :class:`FaultInjector`, one
    :class:`RetryPolicy`, one :class:`DegradationLedger`) is shared by the
    prefill and decode engines of a :class:`~repro.engine.serving.GenerationServer`,
    so a request's degradation is summarized in one place.
    """

    def __init__(
        self,
        injector: FaultInjector,
        policy: Optional[RetryPolicy] = None,
        ledger: Optional[DegradationLedger] = None,
    ):
        self.injector = injector
        self.policy = policy or RetryPolicy()
        self.ledger = ledger or DegradationLedger()
        self._remap_tuners: Dict[Tuple[int, bool], AutoTuner] = {}
        #: Shapes whose LUT was already integrity-checked / remapped once;
        #: a resident table is verified on load, not on every inference,
        #: and a remap is a one-time event per layer shape.
        self._verified: set = set()
        self._remapped: set = set()

    @property
    def active(self) -> bool:
        return self.injector.active

    # ------------------------------------------------------------------
    # Latency-model ladder (used by the engines)
    # ------------------------------------------------------------------
    def _remap_tuner(self, tuner: AutoTuner, degraded: PIMPlatform) -> AutoTuner:
        """An AutoTuner for the degraded platform sharing ``tuner``'s cache."""
        key = (id(degraded), tuner.amortize_lut_distribution)
        if key not in self._remap_tuners:
            self._remap_tuners[key] = AutoTuner(
                degraded,
                amortize_lut_distribution=tuner.amortize_lut_distribution,
                cache=tuner.cache,
            )
        return self._remap_tuners[key]

    def _host_lut_seconds(self, shape, host, host_kernel_profile) -> float:
        """Host-side cost of the LUT gather-reduce for one fallen-back layer."""
        if host_kernel_profile is not None:
            return host_kernel_profile.gather_time(shape.n, shape.cb, shape.f)
        # Roofline: N*CB*F adds over an N*CB*F-element gathered stream
        # (4 bytes each) plus the output write-back.
        elements = float(shape.n) * shape.cb * shape.f
        return host.op_time(elements, 4.0 * elements + 4.0 * shape.n * shape.f)

    def _integrity_seconds(self, shape, tuner: AutoTuner, platform) -> float:
        """Cost of re-distributing a layer's LUT after a checksum failure."""
        tuned = tuner.tune(shape)
        if not tuner.amortize_lut_distribution:
            # The healthy estimate already includes the LUT transfer; one
            # re-send doubles only that term.
            return tuned.latency.sub_lut
        # Amortized serving excludes the transfer, so price a fresh one.
        full = estimate_latency(
            shape, tuned.mapping, platform, amortize_lut_distribution=False
        )
        return full.sub_lut

    def lut_op_seconds(
        self,
        shape,
        platform: PIMPlatform,
        tuner: AutoTuner,
        host,
        host_kernel_profile=None,
        op_name: str = "lut",
    ) -> Tuple[float, str]:
        """Modeled seconds (and device) for one LUT op under the ladder.

        Returns ``(seconds, device)`` where ``device`` is ``"pim"`` while
        PIM execution (healthy, retried, or remapped) survives and
        ``"host"`` once the layer fell back.
        """
        tracer = obs.get_tracer()
        if not self.active:
            return tuner.tune(shape).latency.total, "pim"

        seconds = 0.0
        # Step 0: table integrity on load.  Bit flips are caught by the
        # per-codebook checksum and the table is re-distributed — once per
        # layer shape, since the repaired table stays resident after that.
        if self.injector.plan.lut_bit_flips > 0 and shape not in self._verified:
            self._verified.add(shape)
            with tracer.span("resilience.checksum_recover", op=op_name) as sp:
                resend = self._integrity_seconds(shape, tuner, platform)
                sp.set_attribute("model_seconds", resend)
            seconds += resend
            self.ledger.checksum_failures += 1
            self.ledger.recovery_s += resend
            self.ledger.note("checksum_failure", op=op_name, resend_s=resend)

        # Steps 1-3: attempt PIM, retrying transients, then remap, then
        # fall back to the host kernels.
        attempt = 0
        while True:
            try:
                self.injector.check_launch(platform)
                self.injector.check_transfer()
                tuned = tuner.tune(shape)
                slowdown = self.injector.straggler_slowdown()
                op_s = tuned.latency.total
                if slowdown > 1.0:
                    stretch = tuned.latency.micro_kernel * (slowdown - 1.0)
                    op_s += stretch
                    self.ledger.note(
                        "straggler_stretch", op=op_name, stretch_s=stretch
                    )
                return seconds + op_s, "pim"
            except TransferTimeout:
                if attempt >= self.policy.max_retries:
                    self.ledger.note("retries_exhausted", op=op_name)
                    break  # escalate: transient budget exhausted
                backoff = self.policy.backoff_s(attempt)
                attempt += 1
                self.ledger.retries += 1
                self.ledger.backoff_s += backoff
                seconds += backoff
                with tracer.span("resilience.retry", op=op_name, attempt=attempt) as sp:
                    sp.set_attribute("backoff_s", backoff)
                self.ledger.note("retry", op=op_name, attempt=attempt)
            except RankFailure:
                break  # permanent: no point retrying

        # Step 2: remap onto the surviving ranks.  The re-tune (and the
        # ledger event) happens once per layer shape; later ops with the
        # same shape run on the remapped mapping via the tuner's memo.
        try:
            degraded = self.injector.degraded_platform(platform)
            if degraded is not platform:
                with tracer.span("resilience.remap", op=op_name) as sp:
                    remapped = self._remap_tuner(tuner, degraded).tune(shape)
                    sp.set_attribute("model_seconds", remapped.latency.total)
                if shape not in self._remapped:
                    self._remapped.add(shape)
                    self.ledger.remaps += 1
                    self.ledger.note("remap", op=op_name, ranks=degraded.ranks)
                op_s = remapped.latency.total
                slowdown = self.injector.straggler_slowdown()
                if slowdown > 1.0:
                    op_s += remapped.latency.micro_kernel * (slowdown - 1.0)
                return seconds + op_s, "pim"
        except (PIMFault, RuntimeError):
            pass  # no surviving capacity or no legal mapping -> fall back

        # Step 3: host fallback.
        with tracer.span("resilience.fallback", op=op_name) as sp:
            host_s = self._host_lut_seconds(shape, host, host_kernel_profile)
            sp.set_attribute("model_seconds", host_s)
        self.ledger.fallbacks += 1
        self.ledger.fallback_layers.append(op_name)
        self.ledger.note("fallback", op=op_name, host_s=host_s)
        return seconds + host_s, "host"


def run_kernel_with_recovery(
    simulator: PIMSimulator,
    shape,
    mapping,
    indices: np.ndarray,
    lut: np.ndarray,
    injector: FaultInjector,
    policy: Optional[RetryPolicy] = None,
    ledger: Optional[DegradationLedger] = None,
) -> Tuple[np.ndarray, Optional[SimulationReport]]:
    """Functionally execute one LUT kernel, surviving injected faults.

    The functional counterpart of :meth:`RecoveryManager.lut_op_seconds`:
    runs the event-level simulator with fault injection, walking the same
    ladder, and *always* returns a correct output matrix —

    * transient timeouts are retried (bounded, with the backoff recorded);
    * a rank failure re-tunes on the degraded platform and re-runs there;
    * checksum-detected LUT corruption or exhausted capacity fall back to
      the host :func:`~repro.kernels.lut_gather_reduce` on the trusted
      host copy of the table, whose output is bit-identical to the
      pure-host engine.

    Returns ``(output, report)``; ``report`` is ``None`` when the kernel
    fell back to the host (there is no PIM execution to report).
    """
    policy = policy or RetryPolicy()
    ledger = ledger or DegradationLedger()
    checksums = lut_checksums(lut)

    def attempt(sim: PIMSimulator, use_mapping) -> Optional[SimulationReport]:
        for attempt_no in range(policy.max_retries + 1):
            try:
                return sim.run(shape, use_mapping, indices, lut, injector=injector)
            except TransferTimeout:
                if attempt_no >= policy.max_retries:
                    ledger.note("retries_exhausted", op="kernel")
                    return None
                ledger.retries += 1
                ledger.backoff_s += policy.backoff_s(attempt_no)
                ledger.note("retry", op="kernel", attempt=attempt_no + 1)
        return None

    report: Optional[SimulationReport] = None
    try:
        report = attempt(simulator, mapping)
    except RankFailure:
        # Remap: re-tune for the surviving ranks and retry there.
        try:
            degraded = injector.degraded_platform(simulator.platform)
            remapped = AutoTuner(degraded).tune(shape)
            ledger.remaps += 1
            ledger.note("remap", op="kernel", ranks=degraded.ranks)
            report = attempt(PIMSimulator(degraded), remapped.mapping)
        except (PIMFault, RuntimeError):
            report = None

    if report is not None and report.output is not None:
        corrupted = verify_lut(report.device_lut, checksums) if (
            report.device_lut is not None
        ) else np.array([], dtype=np.int64)
        if corrupted.size == 0:
            return report.output, report
        ledger.checksum_failures += 1
        ledger.note("checksum_failure", op="kernel", codebooks=corrupted.tolist())

    # Host fallback: trusted host table, same kernel as the host engine.
    ledger.fallbacks += 1
    ledger.fallback_layers.append("kernel")
    ledger.note("fallback", op="kernel")
    return lut_gather_reduce(np.asarray(indices), np.asarray(lut)), None
