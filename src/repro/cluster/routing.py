"""Pluggable request-routing policies for the cluster scheduler.

The router sees each arrival *once*, in time order, together with the set
of alive replicas and a cheap virtual-load view of each (queue depth and
backlog seconds estimated from FIFO service times).  It returns the
replica id the request is dispatched to.  Routers are deterministic given
their seed: :meth:`Router.reset` is called once per cluster run, so the
same seeded stream through the same policy always lands identically —
the property tests in ``tests/test_cluster.py`` rely on this.

Policies (names accepted by :func:`make_router`):

* ``round-robin`` — stride over replica ids, skipping dead ones.
* ``least-loaded`` — argmin of backlog seconds (ties: queue depth, id).
* ``p2c`` — power-of-two-choices [Mitzenmacher]: sample two distinct
  alive replicas (seeded), send to the shallower queue.
* ``session-affinity`` — rendezvous (highest-random-weight) hashing on
  the request's session tag, so a session sticks to one replica and,
  when that replica dies, *all* of its sessions re-land consistently
  without reshuffling sessions on surviving replicas.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Sequence

from ..engine.scheduler import Request

__all__ = [
    "ReplicaLoad",
    "Router",
    "RoundRobinRouter",
    "LeastLoadedRouter",
    "PowerOfTwoRouter",
    "SessionAffinityRouter",
    "ROUTER_POLICIES",
    "make_router",
]


@dataclass(frozen=True)
class ReplicaLoad:
    """Virtual load of one alive replica at a routing instant.

    ``queue_depth`` counts requests whose estimated (FIFO) finish time is
    still in the future; ``backlog_s`` is how far the replica's virtual
    busy horizon extends beyond *now*.  Both are router-visible estimates,
    not simulator ground truth — the point is that every policy sees the
    same signal, so policies are comparable.
    """

    replica: int
    queue_depth: int
    backlog_s: float


class Router:
    """Base class: stateful, seeded, one instance per cluster run."""

    name = "router"

    def reset(self, replicas: int, seed: int = 0) -> None:
        """Called once before a run; clears any per-run state."""

    def choose(
        self,
        request: Request,
        alive: Sequence[int],
        loads: Sequence[ReplicaLoad],
    ) -> int:
        """Pick a replica id from ``alive`` (``loads`` aligns with it)."""
        raise NotImplementedError


class RoundRobinRouter(Router):
    """Stride over replica ids in order, skipping dead replicas."""

    name = "round-robin"

    def __init__(self) -> None:
        self._replicas = 0
        self._cursor = 0

    def reset(self, replicas: int, seed: int = 0) -> None:
        self._replicas = replicas
        self._cursor = 0

    def choose(
        self,
        request: Request,
        alive: Sequence[int],
        loads: Sequence[ReplicaLoad],
    ) -> int:
        alive_set = set(alive)
        # Advance the cursor over *all* ids so the stripe stays stable
        # when a replica dies (survivors keep their phase).
        for _ in range(self._replicas):
            candidate = self._cursor % self._replicas
            self._cursor += 1
            if candidate in alive_set:
                return candidate
        raise RuntimeError("round-robin router called with no alive replica")


class LeastLoadedRouter(Router):
    """Send to the replica with the smallest virtual backlog."""

    name = "least-loaded"

    def choose(
        self,
        request: Request,
        alive: Sequence[int],
        loads: Sequence[ReplicaLoad],
    ) -> int:
        best = min(loads, key=lambda ld: (ld.backlog_s, ld.queue_depth, ld.replica))
        return best.replica


class PowerOfTwoRouter(Router):
    """Power-of-two-choices: probe two random replicas, join the shorter.

    The classic result: sampling *two* queues and picking the shallower
    drops the maximum queue length exponentially versus random (and in
    practice versus blind round-robin on skewed streams) at O(1) probe
    cost — the property test pins that ordering down.
    """

    name = "p2c"

    def __init__(self) -> None:
        self._rng = None

    def reset(self, replicas: int, seed: int = 0) -> None:
        import numpy as np

        self._rng = np.random.default_rng(seed)

    def choose(
        self,
        request: Request,
        alive: Sequence[int],
        loads: Sequence[ReplicaLoad],
    ) -> int:
        if self._rng is None:
            raise RuntimeError("router used before reset()")
        if len(alive) == 1:
            return alive[0]
        i, j = self._rng.choice(len(alive), size=2, replace=False)
        a, b = loads[int(i)], loads[int(j)]
        best = min(a, b, key=lambda ld: (ld.queue_depth, ld.backlog_s, ld.replica))
        return best.replica


class SessionAffinityRouter(Router):
    """Rendezvous hashing on the session tag (request id if untagged).

    Each (key, replica) pair gets a stable pseudo-random weight; the key
    routes to the alive replica with the highest weight.  Removing a
    replica only re-homes *its* keys — sessions on surviving replicas
    never move, which is the property that makes affinity routing safe
    under failover.
    """

    name = "session-affinity"

    @staticmethod
    def _weight(key: int, replica: int) -> int:
        digest = hashlib.blake2b(
            f"{key}/{replica}".encode(), digest_size=8
        ).digest()
        return int.from_bytes(digest, "big")

    def choose(
        self,
        request: Request,
        alive: Sequence[int],
        loads: Sequence[ReplicaLoad],
    ) -> int:
        key = request.session if request.session is not None else request.request_id
        return max(alive, key=lambda r: (self._weight(key, r), -r))


ROUTER_POLICIES: Dict[str, type] = {
    RoundRobinRouter.name: RoundRobinRouter,
    LeastLoadedRouter.name: LeastLoadedRouter,
    PowerOfTwoRouter.name: PowerOfTwoRouter,
    SessionAffinityRouter.name: SessionAffinityRouter,
}


def make_router(policy: str) -> Router:
    """Instantiate a router by policy name (see :data:`ROUTER_POLICIES`)."""
    try:
        cls = ROUTER_POLICIES[policy]
    except KeyError:
        known = ", ".join(sorted(ROUTER_POLICIES))
        raise ValueError(f"unknown routing policy {policy!r} (known: {known})")
    return cls()
