"""Per-layer (V, CT) co-optimization: accuracy-vs-latency configuration.

The paper fixes one (V, CT) pair for the whole model and explores the
trade-off globally (Fig. 12-a/b: larger V and smaller CT are faster but
approximate more coarsely).  Different layers tolerate approximation very
differently, though — exactly what :class:`~repro.analysis.ErrorProbe`
measures.  This module closes the co-optimization loop at layer
granularity:

1. for every layer and every candidate (V, CT), *measure* the output
   approximation error on calibration activations and *model* the deployed
   latency (tuned LUT kernel + host CCS);
2. pick a per-layer assignment that minimizes total predicted error subject
   to a latency budget, by Lagrangian sweep over the per-layer Pareto
   frontiers.

The result is a :class:`LayerConfigPlan` mapping layer names to (V, CT),
directly consumable by ``convert_to_lut_nn``'s per-layer converter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..baselines.roofline import RooflineDevice
from ..mapping.tuner import AutoTuner
from ..nn.module import Module
from ..obs.metrics import left_sum
from ..pim.platforms import PIMPlatform
from .ccs import ccs_roofline_time, hard_replace
from .codebook import Codebooks, LUTShape
from .conversion import LayerFilter, find_target_linears, record_activations

#: Default candidate grid, spanning the paper's evaluated settings.
DEFAULT_CANDIDATES: Tuple[Tuple[int, int], ...] = (
    (2, 16), (2, 8), (4, 16), (4, 8), (8, 16), (8, 8)
)


@dataclass(frozen=True)
class CandidatePoint:
    """One (V, CT) option for one layer."""

    v: int
    ct: int
    error: float  # relative output error on calibration activations
    latency_s: float  # tuned LUT kernel + host CCS


@dataclass
class LayerConfigPlan:
    """Chosen per-layer configuration plus its predicted totals."""

    assignment: Dict[str, Tuple[int, int]]
    predicted_latency_s: float
    predicted_error: float
    frontier: Dict[str, List[CandidatePoint]] = field(default_factory=dict)

    def config_for(self, layer_name: str) -> Tuple[int, int]:
        return self.assignment[layer_name]


def measure_candidates(
    model: Module,
    forward_batches: Sequence,
    platform: PIMPlatform,
    host: RooflineDevice,
    serving_rows: int,
    candidates: Sequence[Tuple[int, int]] = DEFAULT_CANDIDATES,
    layer_filter: Optional[LayerFilter] = None,
    rng: Optional[np.random.Generator] = None,
    max_rows: int = 4096,
) -> Dict[str, List[CandidatePoint]]:
    """Per-layer error/latency of every legal candidate (step 1)."""
    rng = rng or np.random.default_rng()
    targets = find_target_linears(model, layer_filter)
    if not targets:
        raise ValueError("no linear layers matched the filter")
    recorder = record_activations(model, forward_batches, targets, max_rows=max_rows)
    tuner = AutoTuner(platform)

    frontier: Dict[str, List[CandidatePoint]] = {}
    for name, layer in targets:
        activations = recorder.activations(name)
        weight = layer.weight.data
        exact = activations @ weight
        exact_norm = np.linalg.norm(exact) or 1.0
        points = []
        for v, ct in candidates:
            if layer.in_features % v or activations.shape[0] < ct:
                continue
            codebooks = Codebooks.from_activations(activations, v=v, ct=ct, rng=rng)
            approx = hard_replace(activations, codebooks) @ weight
            error = float(np.linalg.norm(approx - exact) / exact_norm)
            shape = LUTShape(
                n=serving_rows, h=layer.in_features, f=layer.out_features, v=v, ct=ct
            )
            latency = tuner.tune(shape).cost
            latency += ccs_roofline_time(
                host, serving_rows, layer.in_features, v, ct
            )
            points.append(CandidatePoint(v=v, ct=ct, error=error, latency_s=latency))
        if not points:
            raise ValueError(f"no legal candidates for layer {name!r}")
        frontier[name] = sorted(points, key=lambda p: p.latency_s)
    return frontier


def _assign_for_lambda(
    frontier: Dict[str, List[CandidatePoint]], lam: float
) -> Dict[str, CandidatePoint]:
    """Per-layer argmin of ``error + lam * latency`` (separable objective)."""
    return {
        name: min(points, key=lambda p: p.error + lam * p.latency_s)
        for name, points in frontier.items()
    }


def plan_layer_configs(
    frontier: Dict[str, List[CandidatePoint]],
    latency_budget_s: float,
    sweep_points: int = 64,
) -> LayerConfigPlan:
    """Choose per-layer (V, CT) minimizing error under the budget (step 2).

    The objective is separable across layers, so sweeping the Lagrange
    multiplier traces the convex hull of the global error/latency frontier;
    the tightest assignment meeting the budget is returned.  Raises when
    even the all-fastest assignment exceeds the budget.
    """
    if latency_budget_s <= 0:
        raise ValueError("latency budget must be positive")

    fastest = {name: min(p.latency_s for p in points) for name, points in frontier.items()}
    if left_sum(fastest.values()) > latency_budget_s:
        raise ValueError(
            f"budget {latency_budget_s:.4f}s below the fastest feasible "
            f"total {left_sum(fastest.values()):.4f}s"
        )

    best: Optional[Tuple[float, Dict[str, CandidatePoint]]] = None
    for lam in np.logspace(-3, 6, sweep_points):
        chosen = _assign_for_lambda(frontier, lam)
        total_latency = left_sum(p.latency_s for p in chosen.values())
        total_error = left_sum(p.error for p in chosen.values())
        if total_latency <= latency_budget_s:
            if best is None or total_error < best[0]:
                best = (total_error, chosen)
    if best is None:  # pragma: no cover - guarded by the fastest check
        raise RuntimeError("Lagrangian sweep found no feasible assignment")

    total_error, chosen = best
    return LayerConfigPlan(
        assignment={name: (p.v, p.ct) for name, p in chosen.items()},
        predicted_latency_s=left_sum(p.latency_s for p in chosen.values()),
        predicted_error=total_error,
        frontier=frontier,
    )


def uniform_plan(
    frontier: Dict[str, List[CandidatePoint]], v: int, ct: int
) -> LayerConfigPlan:
    """The paper's uniform-(V, CT) assignment, for comparison."""
    assignment = {}
    latency = 0.0
    error = 0.0
    for name, points in frontier.items():
        match = next((p for p in points if (p.v, p.ct) == (v, ct)), None)
        if match is None:
            raise KeyError(f"({v}, {ct}) not measured for layer {name!r}")
        assignment[name] = (v, ct)
        latency += match.latency_s
        error += match.error
    return LayerConfigPlan(
        assignment=assignment,
        predicted_latency_s=latency,
        predicted_error=error,
        frontier=frontier,
    )
