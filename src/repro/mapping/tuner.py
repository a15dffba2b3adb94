"""PIM-DL Auto-Tuner (paper Algorithm 1).

Given a LUT workload shape and a target platform, the tuner considers every
legal sub-LUT tiling factor pair; for each it searches the micro-kernel
mapping space (tile sizes x traversal orders x load schemes) with the
analytical model, and returns the globally cheapest mapping.

Exact bound pruning: the sub-LUT partition terms (Eqs. 3–5), the base
reduce + lookup time (Eq. 10) and the launch time are fixed once a tiling
is chosen, and every micro-kernel transfer term is non-negative, so their
sum (:func:`~repro.mapping.analytical.tiling_lower_bound`, one array pass
over all of a shape's tilings) bounds each tiling's cost from below.
Tilings are visited in ascending ``(bound, enumeration index)``; once a
bound exceeds the best cost found, no later tiling can win, and the rest
are skipped without a micro-kernel search.
The winner is the minimum over ``(cost, enumeration index)``: exactly the
mapping a full scan in enumeration order keeps, with a bit-identical cost.

Tuning is offline and fast (the paper reports ~1 s per model on a CPU): the
cost of a candidate is a closed-form evaluation, and per-layer results are
memoised by workload shape.

Telemetry: every search records into ``repro.obs`` — counters
``tuner.candidates_evaluated`` (tilings considered, skipped ones included),
``tuner.tilings_pruned`` (searched tilings with no legal micro-kernel) and
``tuner.tilings_bound_pruned`` (tilings skipped by the bound), gauge
``tuner.best_cost_s``, and one ``tuner.tiling`` span per tiling under a
``tuner.tune`` root span.  An optional ``progress_callback`` surfaces the
same stream synchronously (the CLI uses it for ``--progress``).

Lookups before a search have their own counters: ``tuner.tune_calls``
counts :meth:`AutoTuner.tune` calls, ``tuner.cache_hits`` the hits in the
tuner's in-process memo (not the persistent cache), and
``tuner.store_hits`` / ``tuner.store_misses`` the lookups in the
persistent :class:`~repro.mapping.store.MappingCache`, made only on a memo
miss.  ``--metrics-json`` snapshots carry these names, and the benchmark's
``mapping.memo_hits`` reads ``tuner.cache_hits``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from .. import obs
from ..core.codebook import LUTShape
from ..pim.platforms import PIMPlatform
from .analytical import (
    LatencyBreakdown,
    estimate_latency,
    search_micro_kernels,
    tiling_lower_bound,
)
from .space import Mapping, enumerate_micro_kernels, enumerate_sub_lut_tilings

if TYPE_CHECKING:  # pragma: no cover - import cycle (store imports TuningResult)
    from .store import MappingCache

#: Relative guard on the bound comparison: a tiling is skipped only when its
#: bound clears the best cost by more than float rounding could explain.
BOUND_GUARD = 1.0 - 1e-12


@dataclass(frozen=True)
class TuningResult:
    """Best mapping found for one workload shape."""

    shape: LUTShape
    mapping: Mapping
    latency: LatencyBreakdown
    candidates_evaluated: int

    @property
    def cost(self) -> float:
        return self.latency.total


@dataclass(frozen=True)
class TuneProgress:
    """One progress tick of a running search (see ``progress_callback``)."""

    evaluated: int
    pruned: int
    best_cost: Optional[float]


ProgressCallback = Callable[[TuneProgress], None]


class AutoTuner:
    """Bound-pruned mapping search over the PIM-DL design space.

    Parameters
    ----------
    platform:
        Target DRAM-PIM platform (constants from ``repro.pim.platforms``).
    amortize_lut_distribution:
        Treat LUTs as resident in PIM memory across invocations (steady-state
        serving).  Defaults to False, matching the paper's per-kernel model.
    max_micro_kernels:
        Optional cap on the micro-kernel candidates :meth:`tune_exhaustive`
        scores per sub-LUT tiling.  :meth:`tune` ignores it: it always
        searches the full micro-kernel space.
    progress_callback:
        Invoked with a :class:`TuneProgress` after every candidate
        evaluation (per sub-LUT tiling in :meth:`tune`, skipped tilings
        included; per mapping in :meth:`tune_exhaustive`).  The search is
        silent without it.
    cache:
        Optional persistent :class:`~repro.mapping.store.MappingCache`.
        Checked before any search (warm start: a hit evaluates zero
        candidates) and updated after every completed search.
    """

    def __init__(
        self,
        platform: PIMPlatform,
        amortize_lut_distribution: bool = False,
        max_micro_kernels: Optional[int] = None,
        progress_callback: Optional[ProgressCallback] = None,
        cache: Optional["MappingCache"] = None,
    ):
        self.platform = platform
        self.amortize_lut_distribution = amortize_lut_distribution
        self.max_micro_kernels = max_micro_kernels
        self.progress_callback = progress_callback
        self.cache = cache
        self._cache: Dict[Tuple, TuningResult] = {}

    def _progress(self, evaluated: int, pruned: int, best_cost) -> None:
        if self.progress_callback is not None:
            self.progress_callback(
                TuneProgress(evaluated=evaluated, pruned=pruned, best_cost=best_cost)
            )

    def tune(self, shape: LUTShape) -> TuningResult:
        """Run Algorithm 1 for ``shape`` and return the optimal mapping.

        Lookup order: in-process memo, then the persistent ``cache`` (both
        evaluate zero candidates), then the bound-pruned search.
        """
        registry = obs.get_registry()
        registry.counter("tuner.tune_calls").inc()
        key = (shape, self.amortize_lut_distribution)
        if key in self._cache:
            registry.counter("tuner.cache_hits").inc()
            return self._cache[key]
        if self.cache is not None:
            stored = self.cache.get(
                self.platform, shape, amortize=self.amortize_lut_distribution
            )
            if stored is not None:
                registry.counter("tuner.store_hits").inc()
                self._cache[key] = stored
                return stored
            registry.counter("tuner.store_misses").inc()

        best = self._search(shape)
        self._cache[key] = best
        if self.cache is not None:
            self.cache.put(
                self.platform, best, amortize=self.amortize_lut_distribution
            )
        return best

    def _search(self, shape: LUTShape) -> TuningResult:
        """Algorithm 1 with exact bound pruning (see the module docstring)."""
        registry = obs.get_registry()
        candidates = registry.counter("tuner.candidates_evaluated")
        pruned_counter = registry.counter("tuner.tilings_pruned")
        bound_counter = registry.counter("tuner.tilings_bound_pruned")
        best_gauge = registry.gauge("tuner.best_cost_s")
        tracer = obs.get_tracer()

        tilings = list(enumerate_sub_lut_tilings(shape, self.platform))
        # Every tiling's bound in one array pass, bit for bit the scalar one.
        n_s_tiles, f_s_tiles = np.array(tilings, dtype=np.int64).reshape(-1, 2).T
        bounds = tiling_lower_bound(
            shape, n_s_tiles, f_s_tiles, self.platform, self.amortize_lut_distribution
        )
        order = np.argsort(bounds, kind="stable").tolist()  # by (bound, index)
        bounds = bounds.tolist()
        # (cost, enumeration index, mapping, breakdown) of the best so far.
        best: Optional[Tuple[float, int, Mapping, LatencyBreakdown]] = None
        evaluated = 0
        pruned = 0
        bound_pruned = 0
        with tracer.span(
            "tuner.tune",
            platform=self.platform.name,
            shape=f"N={shape.n} CB={shape.cb} CT={shape.ct} F={shape.f}",
        ) as root:
            for index in order:
                n_s, f_s = tilings[index]
                with tracer.span("tuner.tiling", n_s=n_s, f_s=f_s) as tile_span:
                    evaluated += 1
                    candidates.inc()
                    # Once a bound clears the best cost, every later tiling's
                    # bound does too: none of them can beat (or tie) it.
                    skip = best is not None and bounds[index] * BOUND_GUARD > best[0]
                    found = None if skip else search_micro_kernels(
                        shape, n_s, f_s, self.platform
                    )
                    if skip:
                        bound_pruned += 1
                        bound_counter.inc()
                        tile_span.set_attribute("bound_pruned", True)
                    elif found is None:
                        pruned += 1
                        pruned_counter.inc()
                        tile_span.set_attribute("pruned", True)
                    else:
                        # Re-score the winner with the full model (adds the
                        # sub-LUT partition terms of Eq. 3, which are constant
                        # per tiling pair).
                        breakdown = estimate_latency(
                            shape,
                            found[0],
                            self.platform,
                            amortize_lut_distribution=self.amortize_lut_distribution,
                        )
                        tile_span.set_attribute("cost_s", breakdown.total)
                        if best is None or (breakdown.total, index) < best[:2]:
                            best = (breakdown.total, index, found[0], breakdown)
                            best_gauge.set(breakdown.total)
                self._progress(evaluated, pruned, best[0] if best else None)
            root.set_attribute("candidates", evaluated)
            root.set_attribute("pruned", pruned)
            root.set_attribute("bound_pruned", bound_pruned)
            if best is not None:
                root.set_attribute("best_cost_s", best[0])
        if best is None:
            raise RuntimeError(f"no legal mapping found for shape {shape}")
        return TuningResult(shape, best[2], best[3], evaluated)

    def tune_many(self, shapes: Iterable[LUTShape]) -> Dict[LUTShape, TuningResult]:
        """Tune every distinct shape, preserving first-seen order."""
        out: Dict[LUTShape, TuningResult] = {}
        for shape in shapes:
            if shape not in out:
                out[shape] = self.tune(shape)
        return out

    def tune_exhaustive(self, shape: LUTShape) -> TuningResult:
        """Reference scalar-loop implementation of Algorithm 1.

        Evaluates every candidate with :func:`estimate_latency` one at a
        time.  Orders of magnitude slower than :meth:`tune`; retained for
        validating the vectorized search on small shapes.
        """
        registry = obs.get_registry()
        registry.counter("tuner.tune_calls").inc()
        candidates = registry.counter("tuner.candidates_evaluated")
        pruned_counter = registry.counter("tuner.tilings_pruned")
        best_gauge = registry.gauge("tuner.best_cost_s")
        tracer = obs.get_tracer()

        best: Optional[TuningResult] = None
        evaluated = 0
        pruned = 0
        with tracer.span(
            "tuner.tune_exhaustive",
            platform=self.platform.name,
            shape=f"N={shape.n} CB={shape.cb} CT={shape.ct} F={shape.f}",
        ) as root:
            for n_s, f_s in enumerate_sub_lut_tilings(shape, self.platform):
                tiling_had_legal = False
                for mapping in enumerate_micro_kernels(
                    shape, n_s, f_s, self.platform, max_points=self.max_micro_kernels
                ):
                    tiling_had_legal = True
                    breakdown = estimate_latency(
                        shape,
                        mapping,
                        self.platform,
                        amortize_lut_distribution=self.amortize_lut_distribution,
                    )
                    evaluated += 1
                    if best is None or breakdown.total < best.latency.total:
                        best = TuningResult(shape, mapping, breakdown, evaluated)
                        best_gauge.set(breakdown.total)
                    self._progress(evaluated, pruned, best.latency.total)
                if not tiling_had_legal:
                    pruned += 1
                    pruned_counter.inc()
            # Counted once at the end: per-mapping registry updates would be
            # the hot path of the scalar loop.
            candidates.inc(evaluated)
            root.set_attribute("candidates", evaluated)
            root.set_attribute("pruned", pruned)
        if best is None:
            raise RuntimeError(f"no legal mapping found for shape {shape}")
        return TuningResult(best.shape, best.mapping, best.latency, evaluated)


def model_lut_shapes(config, v: int = 4, ct: int = 16) -> List[LUTShape]:
    """Distinct LUT workload shapes of a transformer config's linears.

    ``config`` is any object with ``tokens`` and ``linear_layer_shapes()``
    (see :class:`~repro.workloads.configs.TransformerConfig`); layers that
    repeat a (H, F) shape — every block of the model — collapse to one
    entry, which is why a whole model tunes in a handful of searches.
    """
    shapes: List[LUTShape] = []
    seen = set()
    for _, h, f in config.linear_layer_shapes():
        if h % v:
            raise ValueError(f"hidden dim {h} not divisible by V={v}")
        shape = LUTShape(n=config.tokens, h=h, f=f, v=v, ct=ct)
        if shape not in seen:
            seen.add(shape)
            shapes.append(shape)
    return shapes

