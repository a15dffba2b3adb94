"""Bit-level parity of the serving schedulers' telemetry and phase seconds.

One seeded, overloaded replay — long enough to wrap the
``<ns>.batch_occupancy`` series past its 4,096-point capacity, with
rejections and prefill-only requests in it — runs through the colocated
:class:`~repro.engine.RequestScheduler`, the hybrid
:class:`~repro.engine.DisaggScheduler` and a 2-replica
:class:`~repro.cluster.ClusterScheduler`.  A second replay of the same
shape, on a 4-layer stack, runs through two layer-sharded 2-replica
clusters: 2 shards, and 3 shards under hybrid placement, whose phases
carry the ``prefill/shard_transfer`` and ``decode/shard_transfer``
boundary transfers of :class:`~repro.cluster.ShardedCostModel`.  Every
``scheduler.*`` / ``disagg.*`` / ``cluster.*`` instrument and every
``phase_seconds`` entry is compared with literals recorded before the
serving hot path batched its telemetry per run (the sharded kinds: before
the sharded cost model priced a step through one hook): counters exactly,
floats by ``float.hex``, and the retained series points and histogram
samples by digest.  A change to the event loop or the cost models that
moves any recorded value by one bit fails here.
"""

import hashlib

import pytest

from repro import obs
from repro.baselines import wimpy_host
from repro.cluster import ClusterScheduler
from repro.engine import (
    DisaggScheduler,
    GenerationServer,
    Request,
    RequestScheduler,
    SchedulerPolicy,
    poisson_requests,
)
from repro.pim import get_platform
from repro.workloads import opt_style

NAMESPACES = ("scheduler.", "disagg.", "cluster.")


def _hex(value):
    return None if value is None else float(value).hex()


def _digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


def _fingerprint(snap: dict):
    """A literal-friendly, bit-exact summary of one instrument snapshot."""
    if snap["type"] == "counter":
        return snap["value"]
    if snap["type"] == "histogram":
        return (
            snap["count"], _hex(snap["sum"]), _hex(snap["min"]),
            _hex(snap["max"]), _digest((snap["buckets"], snap.get("samples"))),
        )
    if snap["type"] == "series":
        points = snap["points"]
        return (snap["count"], points[0][0], len(points), _digest(points))
    raise AssertionError(f"unexpected instrument type {snap['type']!r}")


#: The replays' load probe: one request at the stream's median lengths.
PROBE = Request(-1, 0.0, 64, 32)


def _stream(service_s: float):
    """The seeded, overloaded stream at 2.2x one ``service_s`` server."""
    return poisson_requests(
        600, 2.2 / service_s, prompt_len=[32, 64, 128],
        generate_len=[0, 16, 32, 64], seed=7,
    )


def replays():
    """``{kind: (result, {metric: fingerprint})}`` of the seeded replays."""
    config = opt_style(256, seq_len=64, batch_size=1)
    server = GenerationServer(get_platform("upmem"), wimpy_host())
    policy = SchedulerPolicy(max_batch_size=4, max_queue_len=12)
    colocated = RequestScheduler(server, config, policy=policy)
    stream = _stream(colocated.fifo_service_time(PROBE))
    hybrid = DisaggScheduler(server, config, policy=policy,
                             placement="hybrid")
    hybrid.cost = hybrid.prefill_cost = colocated.cost
    cluster = ClusterScheduler(server, config, replicas=2, policy=policy,
                               cost_model=colocated.cost)
    # The sharded kinds split a 4-layer stack (3 shards: 2 + 1 + 1
    # layers, so merging the stages' phases depends on their order).
    deep = config.with_(num_layers=4)
    sharded = ClusterScheduler(server, deep, replicas=2, shards=2,
                               policy=policy)
    sharded_hybrid = ClusterScheduler(server, deep, replicas=2, shards=3,
                                      policy=policy, placement="hybrid")
    deep_stream = _stream(sharded.fifo_service_time(PROBE))
    out = {}
    for kind, sched, requests in (
        ("colocated", colocated, stream),
        ("hybrid", hybrid, stream),
        ("cluster", cluster, stream),
        ("sharded", sharded, deep_stream),
        ("sharded-hybrid", sharded_hybrid, deep_stream),
    ):
        obs.reset()
        result = sched.run(requests)
        metrics = {
            name: _fingerprint(snap)
            for name, snap in obs.get_registry().snapshot().items()
            if name.startswith(NAMESPACES)
        }
        out[kind] = (result, metrics)
    obs.reset()
    return out


@pytest.fixture(scope="module")
def recorded():
    return replays()


# Recorded on the commit before per-run telemetry batching; the sharded
# kinds on the commit before ShardedCostModel priced through one hook.
EXPECTED_STEPS = {"colocated": 5186, "hybrid": 7515, "cluster": 10959,
                  "sharded": 10963, "sharded-hybrid": 12282}

EXPECTED_METRICS = {
    "colocated": {
        "scheduler.batch_occupancy": (5186, 1090, 4096, "f70bfa4ee243b2d4"),
        "scheduler.decode_tokens": 16480.0,
        "scheduler.e2e_s": (595, "0x1.8489bc5f290bcp+5",
                            "0x1.a24fa7fc11000p-9", "0x1.1ea8fd9b39840p-2",
                            "05f38f2e8f2f25fb"),
        "scheduler.prefill_tokens": 44896.0,
        "scheduler.requests_admitted": 595.0,
        "scheduler.requests_completed": 595.0,
        "scheduler.requests_queued": 595.0,
        "scheduler.requests_rejected": 5.0,
        "scheduler.steps": 5186.0,
        "scheduler.tpot_s": (456, "0x1.67fddb48615c4p-1",
                             "0x1.b17c952a2a600p-11", "0x1.49b869f68de00p-9",
                             "647af91e556f4d61"),
        "scheduler.ttft_s": (595, "0x1.816114405ab52p+4",
                             "0x1.a24fa7fc11000p-9", "0x1.5e61f969e32e0p-3",
                             "61c4e571bbfad28f"),
    },
    "hybrid": {
        "disagg.batch_occupancy": (7515, 3419, 4096, "32457ac4e31c925c"),
        "disagg.decode_tokens": 16576.0,
        "disagg.e2e_s": (600, "0x1.67cf85765d3f0p+4",
                         "0x1.a24fa7fc11000p-9", "0x1.06d6a5d8e9c00p-3",
                         "41c9929d39f93f46"),
        "disagg.kv_transfer_s": (406, "0x1.301ef62ee564ap-6",
                                 "0x1.0365ebc7ea6aap-15",
                                 "0x1.0b2355252be9fp-14",
                                 "e9d240b011de3f13"),
        "disagg.kv_transfers": 406.0,
        "disagg.placed_colocated": 69.0,
        "disagg.placed_pool": 531.0,
        "disagg.pool_prefills": 531.0,
        "disagg.prefill_tokens": 4736.0,
        "disagg.requests_admitted": 475.0,
        "disagg.requests_completed": 600.0,
        "disagg.requests_queued": 600.0,
        "disagg.requests_rejected": 0.0,
        "disagg.steps": 7515.0,
        "disagg.tpot_s": (460, "0x1.14daa87430165p-1",
                          "0x1.b17c952a2a600p-11", "0x1.23d820968a440p-8",
                          "2acb52af927398ff"),
        "disagg.ttft_s": (600, "0x1.6cdbc498d4c94p+2",
                          "0x1.a24fa7fc11000p-9", "0x1.e8ae876c9bb80p-5",
                          "a2a5ceff976682db"),
    },
    "cluster": {
        "cluster.completed": (1, 0, 1, "c4f082937c29d62e"),
        "cluster.requests_routed": 600.0,
        "cluster.router_backlog_s": (600, "0x1.57f06b646eaa2p+6",
                                     "-0x1.f800000000000p-52",
                                     "0x1.a4ecfe0f6a086p-2",
                                     "503b8f50c495deb8"),
        "cluster.runs": 1.0,
        "scheduler.batch_occupancy": (10959, 6863, 4096, "ca81777159fe0058"),
        "scheduler.decode_tokens": 16576.0,
        "scheduler.e2e_s": (600, "0x1.5e5bcc904d514p+4",
                            "0x1.a24fa7fc10f80p-9", "0x1.bb6a68d1204c0p-4",
                            "90d166f01d737a6a"),
        "scheduler.prefill_tokens": 45216.0,
        "scheduler.requests_admitted": 600.0,
        "scheduler.requests_completed": 600.0,
        "scheduler.requests_queued": 600.0,
        "scheduler.requests_rejected": 0.0,
        "scheduler.steps": 10959.0,
        "scheduler.tpot_s": (460, "0x1.01b35f7ed5c74p-1",
                             "0x1.b17c952a2a600p-11", "0x1.087520d070d00p-9",
                             "ccc7d6be82d2e4cb"),
        "scheduler.ttft_s": (600, "0x1.0646b5cc72cdcp+2",
                             "0x1.a24fa7fc10f80p-9", "0x1.6fec806d13840p-5",
                             "31af449898c405d0"),
    },
    "sharded": {
        "cluster.completed": (1, 0, 1, "c4f082937c29d62e"),
        "cluster.requests_routed": 600.0,
        "cluster.router_backlog_s": (600, "0x1.596777b5ccdc2p+8",
                                     "-0x1.be00000000000p-50",
                                     "0x1.a74870ec3d511p+0",
                                     "97932a93941de011"),
        "cluster.runs": 1.0,
        "scheduler.batch_occupancy": (10963, 6867, 4096, "084f9c5278149191"),
        "scheduler.decode_tokens": 16576.0,
        "scheduler.e2e_s": (600, "0x1.5fcedf4dd0560p+6",
                            "0x1.a3253dc818000p-7",
                            "0x1.bcc0e9a69ac00p-2",
                            "7699d37dae4932d3"),
        "scheduler.prefill_tokens": 45216.0,
        "scheduler.requests_admitted": 600.0,
        "scheduler.requests_completed": 600.0,
        "scheduler.requests_queued": 600.0,
        "scheduler.requests_rejected": 0.0,
        "scheduler.steps": 10963.0,
        "scheduler.tpot_s": (460, "0x1.02fd9a49a3173p+1",
                             "0x1.b42165df3f500p-9",
                             "0x1.095c0872f9300p-7",
                             "e6446eb125aee8aa"),
        "scheduler.ttft_s": (600, "0x1.05e2551b12e19p+4",
                             "0x1.a3253dc818000p-7",
                             "0x1.7078751f76940p-3",
                             "ed6f477ee0f16de9"),
    },
    "sharded-hybrid": {
        "cluster.completed": (1, 0, 1, "c4f082937c29d62e"),
        "cluster.requests_routed": 600.0,
        "cluster.router_backlog_s": (600, "0x1.78da6869af393p+8",
                                     "-0x1.8b00000000000p-50",
                                     "0x1.c7a7e2b1eccfdp+0",
                                     "3a7343aba49b1ae1"),
        "cluster.runs": 1.0,
        "disagg.batch_occupancy": (12282, 8186, 4096, "3d0ce41c3de51c0c"),
        "disagg.decode_tokens": 16576.0,
        "disagg.e2e_s": (600, "0x1.25d6b42fa1460p+6", "0x1.a3fad39420000p-7",
                         "0x1.3cebea5aed800p-2",
                         "727bfcabbe9c7b31"),
        "disagg.kv_transfer_s": (266, "0x1.069ff11067c6fp-5",
                                 "0x1.0b2355252be9fp-14",
                                 "0x1.98726915035e4p-13",
                                 "e06dde6e931f7dee"),
        "disagg.kv_transfers": 266.0,
        "disagg.placed_colocated": 245.0,
        "disagg.placed_pool": 355.0,
        "disagg.pool_prefills": 355.0,
        "disagg.prefill_tokens": 18272.0,
        "disagg.requests_admitted": 511.0,
        "disagg.requests_completed": 600.0,
        "disagg.requests_queued": 600.0,
        "disagg.requests_rejected": 0.0,
        "disagg.steps": 12282.0,
        "disagg.tpot_s": (460, "0x1.b49df3d00fd28p+0", "0x1.b6c6369452800p-9",
                          "0x1.771b0fe188400p-8",
                          "9aa33f002c19e00d"),
        "disagg.ttft_s": (600, "0x1.c2f1d6d918609p+3", "0x1.a3fad39420000p-7",
                          "0x1.f2c40f1c08d00p-5",
                          "62bda5da67a223f9"),
    },
}

EXPECTED_PHASES = {
    "colocated": {
        "prefill/ccs": "0x1.734c22eca7132p-3",
        "prefill/distribution": "0x1.7e247326e9213p-1",
        "prefill/dma": "0x1.44ead6d38d3aap-4",
        "prefill/reduce": "0x1.a39aaa7e4f967p-1",
        "prefill/gather": "0x1.56c37455534bap-1",
        "prefill/launch": "0x1.2474538ef34d8p-3",
        "prefill/attention": "0x1.03e9745a68540p-4",
        "prefill/elementwise": "0x1.bf84e7653c603p-6",
        "decode/distribution": "0x1.74c744441f03bp-1",
        "decode/dma": "0x1.b6a6931536f65p-2",
        "decode/reduce": "0x1.3e016122ed106p+0",
        "decode/gather": "0x1.813da06987e1cp+0",
        "decode/launch": "0x1.3cc8de2ac335cp+0",
        "decode/ccs": "0x1.0e2c89caa10ffp-2",
        "decode/attention": "0x1.4aa6b2d5d7674p-4",
        "decode/elementwise": "0x1.7415147e00297p-4",
    },
    "hybrid": {
        "prefill/ccs": "0x1.76018c36a2837p-3",
        "prefill/distribution": "0x1.812457ce1d2d1p-1",
        "prefill/dma": "0x1.479736daef88bp-4",
        "prefill/reduce": "0x1.a6d6fb2a1ae6fp-1",
        "prefill/gather": "0x1.59671c42ee827p-1",
        "prefill/launch": "0x1.26e978d4fdf3bp-3",
        "prefill/attention": "0x1.0588470d37fd8p-4",
        "prefill/elementwise": "0x1.c2e53b85468e2p-6",
        "decode/distribution": "0x1.f6a1640ab91a5p-1",
        "decode/dma": "0x1.206d506573308p-1",
        "decode/reduce": "0x1.6ebd71cd6b871p+0",
        "decode/gather": "0x1.ec5290a690444p+0",
        "decode/launch": "0x1.c9e98dcdb39bdp+0",
        "decode/ccs": "0x1.6c9a4a36c7433p-2",
        "decode/attention": "0x1.7a7dc9f8c2e90p-4",
        "decode/elementwise": "0x1.00c41d603f178p-3",
        "kv_transfer": "0x1.301ef62ee564ap-6",
    },
    "cluster": {
        "prefill/ccs": "0x1.76018c36a2869p-3",
        "prefill/distribution": "0x1.812457ce1d2ecp-1",
        "prefill/dma": "0x1.479736daef888p-4",
        "prefill/reduce": "0x1.a6d6fb2a1aea9p-1",
        "prefill/gather": "0x1.59671c42ee804p-1",
        "prefill/launch": "0x1.26e978d4fdf31p-3",
        "prefill/attention": "0x1.0588470d37fd6p-4",
        "prefill/elementwise": "0x1.c2e53b85468dfp-6",
        "decode/distribution": "0x1.52d7611cc8012p+0",
        "decode/dma": "0x1.865d33f616331p-1",
        "decode/reduce": "0x1.bdf9d15553e84p+0",
        "decode/gather": "0x1.399eb148517a6p+1",
        "decode/launch": "0x1.4a0e410b631f4p+1",
        "decode/ccs": "0x1.f366ed1228e2ap-2",
        "decode/attention": "0x1.bdf3d078a72c4p-4",
        "decode/elementwise": "0x1.65dd9784c8703p-3",
    },
    "sharded": {
        "prefill/ccs": "0x1.76018c36a2869p-1",
        "prefill/distribution": "0x1.812457ce1d2eep+1",
        "prefill/dma": "0x1.479736daef888p-2",
        "prefill/reduce": "0x1.a6d6fb2a1aea2p+1",
        "prefill/gather": "0x1.59671c42ee804p+1",
        "prefill/launch": "0x1.26e978d4fdf31p-1",
        "prefill/attention": "0x1.0588470d37fd6p-2",
        "prefill/elementwise": "0x1.c2e53b85468dfp-4",
        "prefill/shard_transfer": "0x1.430a8583d1cc2p-6",
        "decode/distribution": "0x1.52f2253224f98p+2",
        "decode/dma": "0x1.867cae3871748p+1",
        "decode/reduce": "0x1.be10a27d243bep+2",
        "decode/gather": "0x1.39b2c5fe2948ap+3",
        "decode/launch": "0x1.4a2db61bb0746p+3",
        "decode/ccs": "0x1.f390de7d3aa98p+0",
        "decode/attention": "0x1.be03e0988004ap-2",
        "decode/elementwise": "0x1.65fd0c9515c56p-1",
        "decode/shard_transfer": "0x1.be0824d38af70p-3",
    },
    "sharded-hybrid": {
        "prefill/ccs": "0x1.76018c36a2869p-1",
        "prefill/distribution": "0x1.812457ce1d2eep+1",
        "prefill/dma": "0x1.479736daef888p-2",
        "prefill/reduce": "0x1.a6d6fb2a1aea2p+1",
        "prefill/gather": "0x1.59671c42ee804p+1",
        "prefill/launch": "0x1.26e978d4fdf31p-1",
        "prefill/attention": "0x1.0588470d37fd6p-2",
        "prefill/elementwise": "0x1.c2e53b85468dfp-4",
        "prefill/shard_transfer": "0x1.430a8583d1cc2p-5",
        "decode/distribution": "0x1.7359aec7ff3dbp+2",
        "decode/dma": "0x1.afab8839a2cb8p+1",
        "decode/reduce": "0x1.e11f88d63a40cp+2",
        "decode/gather": "0x1.50f8639e7b5f2p+3",
        "decode/launch": "0x1.71c6d1e108dbep+3",
        "decode/ccs": "0x1.142e81c22d9c4p+1",
        "decode/attention": "0x1.d92f45d0b538ep-2",
        "decode/elementwise": "0x1.8d96285a6e353p-1",
        "decode/shard_transfer": "0x1.f2d449daab834p-2",
        "kv_transfer": "0x1.069ff11067c61p-5",
    },
}


@pytest.mark.parametrize("kind", list(EXPECTED_STEPS))
class TestServingParity:
    def test_replay_wraps_the_occupancy_series(self, recorded, kind):
        result, _ = recorded[kind]
        assert result.steps == EXPECTED_STEPS[kind]
        assert result.steps > 4096

    def test_every_namespace_instrument_matches(self, recorded, kind):
        _, metrics = recorded[kind]
        assert sorted(metrics) == sorted(EXPECTED_METRICS[kind])
        for name, expected in EXPECTED_METRICS[kind].items():
            assert metrics[name] == expected, name

    def test_every_phase_second_matches_bit_for_bit(self, recorded, kind):
        result, _ = recorded[kind]
        phases = {key: seconds.hex()
                  for key, seconds in result.phase_seconds.items()}
        assert phases == EXPECTED_PHASES[kind]
        # Insertion order too: it fixes the summation order downstream.
        assert list(phases) == list(EXPECTED_PHASES[kind])
