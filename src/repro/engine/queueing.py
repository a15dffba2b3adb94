"""Queueing analysis: the FIFO oracle for the serving simulators.

The engine reports give the *service time* of one request; an operator also
needs to know how latency behaves under a request arrival stream.  This
module runs a single-server FIFO discrete-event simulation over
deterministic service times (per-request cost from any engine/server
report) and Poisson or deterministic arrivals, reporting utilization and
P50/P95/P99 sojourn times.

Kept deliberately simple — one PIM system, one queue, the single-node
scope of the paper — and independent of the serving event loop: a
batch-1 unchunked scheduler and a prefill-only stream on the
disaggregated prefill pool must both reduce to :func:`simulate_queue`
exactly, which is what their parity tests check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np


@dataclass(frozen=True)
class QueueStats:
    """Result of one queueing simulation."""

    arrival_rate_rps: float
    service_time_s: float
    utilization: float
    completed: int
    p50_latency_s: float
    p95_latency_s: float
    p99_latency_s: float
    mean_latency_s: float

    @property
    def queueing_inflation(self) -> float:
        """Mean sojourn time relative to the bare service time."""
        return self.mean_latency_s / self.service_time_s


def generate_arrivals(
    arrival_rate_rps: float,
    num_requests: int,
    arrivals: str = "poisson",
    seed: int = 0,
) -> np.ndarray:
    """Arrival timestamps for a request stream.

    ``"poisson"`` draws exponential inter-arrival gaps from a
    ``default_rng(seed)``; ``"uniform"`` spaces requests deterministically
    (the seed is ignored, so uniform streams are seed-invariant).  Shared
    by :func:`simulate_queue` and the continuous-batching scheduler
    (:mod:`repro.engine.scheduler`) so both disciplines can be compared on
    the *same* arrival stream.
    """
    if arrival_rate_rps <= 0:
        raise ValueError("arrival rate must be positive")
    if num_requests <= 0:
        raise ValueError("num_requests must be positive")
    if arrivals not in ("poisson", "uniform"):
        raise ValueError(f"unknown arrival process {arrivals!r}")
    if arrivals == "poisson":
        rng = np.random.default_rng(seed)
        gaps = rng.exponential(1.0 / arrival_rate_rps, size=num_requests)
    else:
        gaps = np.full(num_requests, 1.0 / arrival_rate_rps)
    return np.cumsum(gaps)


def simulate_queue(
    service_time_s: float,
    arrival_rate_rps: float,
    num_requests: int = 2000,
    arrivals: str = "poisson",
    seed: int = 0,
) -> QueueStats:
    """FIFO single-server queue with deterministic service times.

    Parameters
    ----------
    service_time_s:
        Per-request cost (e.g. ``EngineReport.total_s`` or
        ``ServingReport.request_latency_s``).
    arrival_rate_rps:
        Offered load in requests/second; must keep utilization < 1 for a
        steady state (checked).
    arrivals:
        ``"poisson"`` (exponential inter-arrivals) or ``"uniform"``
        (deterministic spacing).
    """
    if service_time_s <= 0:
        raise ValueError("service time must be positive")
    utilization = arrival_rate_rps * service_time_s if arrival_rate_rps > 0 else 0.0
    if utilization >= 1.0:
        raise ValueError(
            f"offered load {utilization:.2f} >= 1: the queue is unstable"
        )
    arrival_times = generate_arrivals(arrival_rate_rps, num_requests, arrivals, seed)

    latencies = np.empty(num_requests)
    server_free_at = 0.0
    for i, arrived in enumerate(arrival_times):
        start = max(arrived, server_free_at)
        done = start + service_time_s
        latencies[i] = done - arrived
        server_free_at = done

    return QueueStats(
        arrival_rate_rps=arrival_rate_rps,
        service_time_s=service_time_s,
        utilization=utilization,
        completed=num_requests,
        p50_latency_s=float(np.percentile(latencies, 50)),
        p95_latency_s=float(np.percentile(latencies, 95)),
        p99_latency_s=float(np.percentile(latencies, 99)),
        mean_latency_s=float(latencies.mean()),
    )


def load_sweep(
    service_time_s: float,
    utilizations: Sequence[float] = (0.3, 0.5, 0.7, 0.9),
    **kwargs,
) -> List[QueueStats]:
    """Queue statistics across target utilization levels."""
    out = []
    for rho in utilizations:
        if not 0.0 < rho < 1.0:
            raise ValueError("utilizations must lie in (0, 1)")
        rate = rho / service_time_s
        out.append(simulate_queue(service_time_s, rate, **kwargs))
    return out
