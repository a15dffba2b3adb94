"""End-to-end generation serving: prefill + decode on one system.

Combines the two regimes the paper discusses into one request model:

* **Prefill** — the prompt's tokens are processed as a batched GEMM
  workload (PIM-DL's home turf: the :class:`~repro.engine.engine.PIMDLEngine`
  path, or a GEMM baseline);
* **Decode** — tokens are generated one step at a time against a growing
  KV cache (the GEMV regime HBM-PIM/AiM were built for, here served by the
  decode engines of :mod:`repro.engine.decode`).

The report gives time-to-first-token, per-token decode latency, and
request throughput — the quantities a serving operator actually provisions
for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

from .. import obs
from ..baselines.roofline import RooflineDevice
from ..core.codebook import LUTShape
from ..kernels import HostKernelProfile
from ..mapping.store import MappingCache
from ..mapping.tuner import AutoTuner, TuningResult, model_lut_shapes
from ..pim.platforms import PIMPlatform
from ..resilience.recovery import (
    DegradationSummary,
    RecoveryManager,
    _DegradationScope,
)
from ..workloads.configs import TransformerConfig
from .decode import GEMVDecodeEngine, LUTDecodeEngine
from .engine import GEMMPIMEngine, PIMDLEngine


@dataclass(frozen=True)
class ServingReport:
    """Cost of one generation request (prompt -> generated tokens)."""

    engine: str
    model: str
    prompt_len: int
    generate_len: int
    batch_size: int
    prefill_s: float
    decode_s: float
    #: Degradation summary of this request under fault injection; ``None``
    #: when the server has no resilience manager (or the plan is empty
    #: and nothing degraded).
    degraded: Optional[DegradationSummary] = None

    @property
    def time_to_first_token_s(self) -> float:
        return self.prefill_s

    @property
    def per_token_decode_s(self) -> float:
        if self.generate_len == 0:
            return 0.0
        return self.decode_s / self.generate_len

    @property
    def request_latency_s(self) -> float:
        return self.prefill_s + self.decode_s

    @property
    def generated_tokens_per_s(self) -> float:
        if self.generate_len == 0:
            # Prefill-only request: no tokens were generated, so the rate
            # is zero — not the infinity 0/0 used to produce here.
            return 0.0
        if self.decode_s == 0:
            return float("inf")
        return self.batch_size * self.generate_len / self.decode_s


def _resolve_request_shape(
    config: TransformerConfig,
    prompt_len: Optional[int],
    batch_size: Optional[int],
) -> "tuple[int, int]":
    """Apply config defaults to an explicit ``None`` only, then validate.

    ``prompt_len or config.seq_len`` would silently replace an explicit 0
    with the config default; here 0 (and any non-positive value) is an
    error and only ``None`` means "use the config's value".
    """
    if prompt_len is None:
        prompt_len = config.seq_len
    if batch_size is None:
        batch_size = config.batch_size
    if prompt_len <= 0:
        raise ValueError(f"prompt_len must be positive, got {prompt_len}")
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    return prompt_len, batch_size


class GenerationServer:
    """Serve generation requests with PIM-DL prefill + LUT decode.

    Parameters
    ----------
    lut_nn:
        When True (default) both phases use LUT-NN kernels; when False the
        request runs on the platform's native GEMM/GEMV paths — the
        comparison baseline.
    mapping_cache:
        A :class:`~repro.mapping.store.MappingCache` (or a directory path
        for one).  The serving tuners warm-start from it, so a server
        whose model was tuned offline (``repro tune --cache DIR`` or
        :meth:`~repro.mapping.tuner.AutoTuner.tune_many` with the same
        cache) never re-runs Algorithm 1; searches it does perform are
        persisted for the next process.
    host_kernel_profile:
        Measured host CCS throughput (:func:`repro.kernels.measure_host_kernels`);
        forwarded to both the prefill and decode engines so their latency
        models use this machine's real kernel speed instead of the roofline.
    resilience:
        A :class:`~repro.resilience.recovery.RecoveryManager` shared by
        the prefill and decode engines.  Requests then survive the
        manager's fault plan (retry → remap → host fallback) and each
        :class:`ServingReport` carries the ``degraded`` summary of what
        the ladder did.  ``None`` (default) serves fault-free.
    overlap:
        Double-buffer the LUT micro-kernel loop in both phases: the
        transfer of tile *i+1* overlaps the lookup/reduce of tile *i*,
        so the reports charge only the exposed transfer time.
    """

    def __init__(
        self,
        platform: PIMPlatform,
        host: RooflineDevice,
        v: int = 4,
        ct: int = 16,
        lut_nn: bool = True,
        mapping_cache: Optional[Union[MappingCache, str]] = None,
        host_kernel_profile: Optional[HostKernelProfile] = None,
        resilience: Optional[RecoveryManager] = None,
        overlap: bool = False,
    ):
        self.platform = platform
        self.host = host
        self.v = v
        self.ct = ct
        self.lut_nn = lut_nn
        self.overlap = overlap
        if isinstance(mapping_cache, str):
            mapping_cache = MappingCache(mapping_cache)
        self.mapping_cache = mapping_cache
        self.resilience = resilience if lut_nn else None
        if lut_nn:
            # Prefill follows the PIMDLEngine default (LUTs resident only on
            # platforms that keep weights in PIM banks); decode always
            # amortizes.  The regimes tune distinct shapes, so they get
            # separate tuners sharing one persistent cache.
            prefill_amortize = bool(platform.extras.get("lut_resident", 0))
            self._prefill = PIMDLEngine(
                platform, host, v=v, ct=ct,
                tuner=AutoTuner(
                    platform,
                    amortize_lut_distribution=prefill_amortize,
                    cache=mapping_cache,
                ),
                host_kernel_profile=host_kernel_profile,
                resilience=self.resilience,
                overlap=overlap,
            )
            self._decode = LUTDecodeEngine(
                platform, host, v=v, ct=ct,
                tuner=AutoTuner(
                    platform,
                    amortize_lut_distribution=True,
                    cache=mapping_cache,
                ),
                host_kernel_profile=host_kernel_profile,
                resilience=self.resilience,
                overlap=overlap,
            )
        else:
            self._prefill = GEMMPIMEngine(platform, host)
            self._decode = GEMVDecodeEngine(platform, host)

    @property
    def name(self) -> str:
        mode = "lut-nn" if self.lut_nn else "native"
        return f"serve[{self.platform.name}, {mode}]"

    def warmup(
        self,
        config: TransformerConfig,
        prompt_len: Optional[int] = None,
        batch_size: Optional[int] = None,
    ) -> Dict[LUTShape, TuningResult]:
        """Pre-tune every LUT shape one request of ``config`` needs.

        With a populated ``mapping_cache`` this loads mappings instead of
        searching (zero candidates evaluated); on a cold cache it runs the
        searches once and persists them.

        Returns the tuned results by shape; a no-op for native serving.
        """
        if not self.lut_nn:
            return {}
        prompt_len, batch_size = _resolve_request_shape(config, prompt_len, batch_size)
        prefill_config = config.with_(seq_len=prompt_len, batch_size=batch_size)
        tuned: Dict[LUTShape, TuningResult] = {}
        with obs.get_tracer().span(
            "serving.warmup", engine=self.name, model=config.name
        ) as span:
            prefill_shapes = model_lut_shapes(prefill_config, v=self.v, ct=self.ct)
            tuned.update(self._prefill.tuner.tune_many(prefill_shapes))
            decode_shapes = [
                LUTShape(n=batch_size, h=h, f=f, v=self.v, ct=self.ct)
                for _, h, f in config.linear_layer_shapes()
            ]
            tuned.update(self._decode.tuner.tune_many(decode_shapes))
            span.set_attribute("shapes", len(tuned))
        obs.get_registry().counter("serving.warmup_shapes").inc(len(tuned))
        return tuned

    def run(
        self,
        config: TransformerConfig,
        prompt_len: Optional[int] = None,
        generate_len: int = 64,
        batch_size: Optional[int] = None,
    ) -> ServingReport:
        """Cost one request batch: prefill ``prompt_len`` then decode.

        The decode phase's attention cost uses the *average* KV-cache
        length over the generation (prompt + generate/2).
        """
        if generate_len < 0:
            raise ValueError("generate_len must be non-negative")
        prompt_len, batch_size = _resolve_request_shape(config, prompt_len, batch_size)
        prefill_config = config.with_(seq_len=prompt_len, batch_size=batch_size)

        tracer = obs.get_tracer()
        registry = obs.get_registry()
        # Per-request degradation is an exclusive ledger scope: the ledger
        # itself rejects a second concurrent request, so interleaved callers
        # (the continuous-batching scheduler) must drive the engines
        # directly and account at the batch level.
        with tracer.span(
            "serving.request",
            engine=self.name,
            model=config.name,
            prompt_len=prompt_len,
            generate_len=generate_len,
            batch_size=batch_size,
        ) as request_span:
            with _DegradationScope(self.resilience, "serving.request") as scope:
                with tracer.span("serving.prefill", engine=self.name) as sp:
                    prefill_s = self._prefill.run(prefill_config).total_s
                    sp.set_attribute("model_seconds", prefill_s)

                decode_s = 0.0
                if generate_len:
                    average_context = prompt_len + generate_len // 2
                    with tracer.span(
                        "serving.decode", engine=self.name, context_len=average_context
                    ) as sp:
                        token = self._decode.run(
                            prefill_config,
                            batch_size=batch_size,
                            context_len=average_context,
                        )
                        decode_s = token.token_latency_s * generate_len
                        sp.set_attribute("model_seconds", decode_s)
                request_span.set_attribute("model_seconds", prefill_s + decode_s)

            degraded = scope.summary
            if degraded is not None:
                request_span.set_attribute("degraded", degraded.degraded)
                request_span.set_attribute("fallbacks", degraded.fallbacks)

        registry.counter("serving.requests").inc()
        registry.counter("serving.generated_tokens").inc(batch_size * generate_len)
        registry.histogram("serving.request_model_seconds").observe(
            prefill_s + decode_s
        )
        if degraded is not None and degraded.degraded:
            registry.counter("serving.degraded_requests").inc()

        return ServingReport(
            engine=self.name,
            model=config.name,
            prompt_len=prompt_len,
            generate_len=generate_len,
            batch_size=batch_size,
            prefill_s=prefill_s,
            decode_s=decode_s,
            degraded=degraded,
        )

    @property
    def prefill_engine(self):
        """The prefill cost engine (PIM-DL or native GEMM)."""
        return self._prefill

    @property
    def decode_engine(self):
        """The decode cost engine (LUT or native GEMV)."""
        return self._decode
