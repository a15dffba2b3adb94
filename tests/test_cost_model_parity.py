"""Bit-level parity of the LUT cost model: engines, simulator and trace.

Three guards hold every modeled LUT number in place:

* **Engine literals.**  ``PIMDLEngine.run`` and ``LUTDecodeEngine.run``
  over upmem / hbm-pim / aim x kernel overlap x a measured host profile x
  fault plans (retry, remap, host fallback with bit flips, straggler) x
  MoE.  Each cell's total and hidden seconds are compared by ``float.hex``
  and its ops, phase seconds, energy and degradation ledger by digest.
* **Simulator digest.**  ``SimulationReport`` fields of a seeded mapping
  sweep, with overlap on and off.
* **Trace vs. walk.**  For every load scheme x traversal, ``trace_kernel``
  emits the events the simulator's walk counts, each with the simulator's
  per-event cost, and ends at the simulator's kernel time.

The literals were recorded before the engines shared one LUT-op pricer
and the trace became a view of the simulator's walk; a change that moves
any modeled value by one bit fails here.
"""

import hashlib
import itertools
import math
import random
from dataclasses import asdict

import pytest

import repro.pim.simulator as simmod
from repro.baselines import wimpy_host
from repro.core import LUTShape
from repro.engine import LUTDecodeEngine, PIMDLEngine
from repro.kernels import HostKernelProfile
from repro.mapping import AutoTuner, Mapping, MappingCache, enumerate_sub_lut_tilings
from repro.mapping.space import (
    INDEX_BYTES,
    LOAD_SCHEMES,
    LUT_BYTES,
    OUTPUT_BYTES,
    TRAVERSALS,
    is_legal,
)
from repro.pim import PIMSimulator, get_platform, trace_kernel
from repro.resilience import FaultInjector, FaultPlan, RecoveryManager
from repro.workloads import MoEConfig, bert_base

PLATFORMS = ("upmem", "hbm-pim", "aim")
PLANS = {
    "healthy": None,
    "retry": FaultPlan(transfer_timeouts=2),
    "remap": FaultPlan(failed_ranks=(1,)),
    "fallback": FaultPlan(seed=3, transfer_timeouts=9, lut_bit_flips=4),
    "straggler": FaultPlan(straggler_factor=1.5),
}
PROFILE = HostKernelProfile(
    dtype="float64",
    block_rows=256,
    ccs_ops_per_s=3.0e9,
    gather_elements_per_s=1.5e9,
    measured_shape=(128, 768, 768, 4, 16),
)
MOE = MoEConfig(num_experts=8, top_k=2, routing="zipf", zipf_s=1.1, seed=3)
CONFIG = bert_base(seq_len=32, batch_size=2).with_(num_layers=2)
#: (batch_size, context_len) of the decode runs, in call order on one engine.
DECODE_SHAPES = ((1, 128), (8, 512))


def _hex(value) -> str:
    return float(value).hex()


def _digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


def _ledger(manager):
    if manager is None:
        return None
    summary = manager.ledger.summary()
    return (
        summary.retries, summary.remaps, summary.fallbacks,
        summary.checksum_failures, _hex(summary.backoff_s),
        _hex(summary.recovery_s), summary.fallback_layers,
    )


def _engine_kwargs(platform, amortize, cache, plan, overlap, profiled):
    """Engine arguments of one cell; every tuner shares ``cache``.

    The dense, per-rank (MoE) and remap tuners all read and fill one
    :class:`MappingCache`, so each LUT shape is searched once per run of
    this module instead of once per cell.
    """
    manager = RecoveryManager(FaultInjector(plan)) if plan is not None else None
    kwargs = dict(
        v=4, ct=16, overlap=overlap, resilience=manager,
        host_kernel_profile=PROFILE if profiled else None,
        tuner=AutoTuner(platform, amortize_lut_distribution=amortize, cache=cache),
    )
    return manager, kwargs


def prefill_cell(platform, cache, overlap, profiled, plan, moe):
    """``(total_s, overlap_hidden_s, listing)`` of one ``PIMDLEngine.run``."""
    # PIMDLEngine's default: LUTs stay resident where the platform keeps
    # weights in its banks.
    amortize = bool(platform.extras.get("lut_resident", 0))
    manager, kwargs = _engine_kwargs(platform, amortize, cache, plan, overlap, profiled)
    engine = PIMDLEngine(platform, wimpy_host(), **kwargs)
    report = engine.run(CONFIG, moe=moe)
    listing = (
        [(op.name, op.device, op.category, _hex(op.seconds)) for op in report.ops],
        [(phase, _hex(s)) for phase, s in report.phase_seconds.items()],
        [(k, _hex(v)) for k, v in asdict(report.energy).items()],
        _ledger(manager),
    )
    return _hex(report.total_s), _hex(report.overlap_hidden_s), listing


def decode_cell(platform, cache, overlap, profiled, plan, moe):
    """``(token latency per decode shape, listing)`` of ``LUTDecodeEngine.run``."""
    manager, kwargs = _engine_kwargs(platform, True, cache, plan, overlap, profiled)
    engine = LUTDecodeEngine(platform, wimpy_host(), **kwargs)
    latencies, listing = [], []
    for batch, context in DECODE_SHAPES:
        report = engine.run(CONFIG, batch_size=batch, context_len=context, moe=moe)
        latencies.append(_hex(report.token_latency_s))
        listing.append((
            _hex(report.linear_s), _hex(report.attention_s), _hex(report.other_s),
            _hex(report.overlap_hidden_s),
            [(phase, _hex(s)) for phase, s in report.phase_seconds.items()],
            _ledger(manager),
        ))
    return latencies, listing


def engine_cells():
    return list(itertools.product(
        PLATFORMS, (False, True), (False, True), PLANS, (False, True)
    ))


def _cell_id(cell) -> str:
    platform, overlap, profiled, plan, moe = cell
    return "-".join((
        platform, "overlap" if overlap else "seq",
        "profile" if profiled else "roofline", plan, "moe" if moe else "dense",
    ))


def record_engines(cache_dir):
    """``{cell id: fingerprint}``.

    A fingerprint holds the prefill total and hidden seconds, the decode
    token latency at each of ``DECODE_SHAPES``, and a digest of both
    engines' ops, phase seconds, energy, hidden seconds and ledgers.
    """
    cache = MappingCache(str(cache_dir))
    return {_cell_id(cell): engine_fingerprint(cell, cache) for cell in engine_cells()}


def engine_fingerprint(cell, cache):
    """One cell's fingerprint (see :func:`record_engines`)."""
    platform, overlap, profiled, plan_name, moe = cell
    args = (get_platform(platform), cache, overlap, profiled,
            PLANS[plan_name], MOE if moe else None)
    total, hidden, prefill = prefill_cell(*args)
    latencies, decode = decode_cell(*args)
    return (total, hidden, *latencies, _digest((prefill, decode)))


# ----------------------------------------------------------------------
# Simulator
# ----------------------------------------------------------------------
#: (platform, shape) pairs of the seeded mapping sweep; 4 of the last
#: one's mappings have 131,072 to 2,097,152 m-tiles, so the walk crosses
#: chunk boundaries.
SIM_SHAPES = (
    ("upmem", LUTShape(n=512, h=64, f=128, v=4, ct=8)),
    ("hbm-pim", LUTShape(n=256, h=128, f=256, v=4, ct=16)),
    ("aim", LUTShape(n=128, h=96, f=192, v=2, ct=16)),
    ("upmem", LUTShape(n=8192, h=512, f=1024, v=4, ct=16)),
)
SIM_SAMPLES = 48


def _pow2_tiles(value):
    return [d for d in (1 << k for k in range(value.bit_length())) if value % d == 0]


def _sweep_mappings(platform, shape, rng):
    """``SIM_SAMPLES`` seeded legal mappings over every load scheme."""
    tilings = list(enumerate_sub_lut_tilings(shape, platform))
    mappings = []
    while len(mappings) < SIM_SAMPLES:
        n_s, f_s = rng.choice(tilings)
        mapping = Mapping(
            n_s, f_s,
            n_m_tile=rng.choice(_pow2_tiles(n_s)),
            f_m_tile=rng.choice(_pow2_tiles(f_s)),
            cb_m_tile=rng.choice(_pow2_tiles(shape.cb)),
            traversal=rng.choice(TRAVERSALS),
            load_scheme=LOAD_SCHEMES[len(mappings) % len(LOAD_SCHEMES)],
            cb_load_tile=rng.choice(_pow2_tiles(shape.cb)),
            f_load_tile=rng.choice(_pow2_tiles(f_s)),
        )
        if is_legal(shape, mapping, platform):
            mappings.append(mapping)
    return mappings


def _sim_fields(report):
    return (
        report.num_pes, _hex(report.distribution_s), _hex(report.kernel_s),
        _hex(report.gather_s), _hex(report.launch_s), _hex(report.total_s),
        _hex(report.overlap_hidden_s), sorted(report.event_counts.items()),
        [(k, _hex(v)) for k, v in report.profile.phase_seconds.items()],
    )


def record_simulator():
    """``{platform/shape: (mappings, digest)}``.

    Every sampled mapping runs with overlap off and on.
    """
    rng = random.Random(20261018)
    out = {}
    for name, shape in SIM_SHAPES:
        platform = get_platform(name)
        simulator = PIMSimulator(platform)
        mappings = _sweep_mappings(platform, shape, rng)
        out[f"{name}/{shape.n}x{shape.h}x{shape.f}"] = (len(mappings), _digest([
            _sim_fields(simulator.run(shape, mapping, overlap=overlap))
            for mapping in mappings
            for overlap in (False, True)
        ]))
    return out


# Recorded on the commit before the shared LUT-op pricer.
EXPECTED_ENGINES = {
    "upmem-seq-roofline-healthy-dense": (
        "0x1.d9f4f87857bb2p-6", "0x0.0p+0", "0x1.9972ee5cad9d3p-9",
        "0x1.e133696e1cbbdp-8", "4932a9424a75252b"),
    "upmem-seq-roofline-healthy-moe": (
        "0x1.c1156cf7f3b58p-4", "0x0.0p+0", "0x1.afa94ae666a23p-8",
        "0x1.d41200e21b63fp-7", "12649d0a8f7dccd3"),
    "upmem-seq-roofline-retry-dense": (
        "0x1.058df0f8965c9p-5", "0x0.0p+0", "0x1.2af8617a7f5f0p-7",
        "0x1.e133696e1cbbdp-8", "2135479bef52f6e7"),
    "upmem-seq-roofline-retry-moe": (
        "0x1.cd5f275628f4ep-4", "0x0.0p+0", "0x1.9c704b568748dp-7",
        "0x1.d41200e21b63fp-7", "ac491d0db96b59cd"),
    "upmem-seq-roofline-remap-dense": (
        "0x1.d9f4f87857bb2p-6", "0x0.0p+0", "0x1.9972ee5cad9d3p-9",
        "0x1.e133696e1cbbdp-8", "0363cbc15b9f99d3"),
    "upmem-seq-roofline-remap-moe": (
        "0x1.c1156cf7f3b58p-4", "0x0.0p+0", "0x1.afa94ae666a23p-8",
        "0x1.d41200e21b63fp-7", "652ebfe7a1e26bb8"),
    "upmem-seq-roofline-fallback-dense": (
        "0x1.84c217096773ap-5", "0x0.0p+0", "0x1.5881a8e54e475p-5",
        "0x1.2a9fa0e519f44p-5", "4efc5eddc449a7d4"),
    "upmem-seq-roofline-fallback-moe": (
        "0x1.00c48891931e7p-3", "0x0.0p+0", "0x1.2e25aaa79e1dfp-5",
        "0x1.aac25d6345e20p-6", "12c29225679530b6"),
    "upmem-seq-roofline-straggler-dense": (
        "0x1.14449b8ad79eap-5", "0x0.0p+0", "0x1.f75c3a1e10196p-9",
        "0x1.1a8825c6306a7p-7", "d12bb5e3cf2296e8"),
    "upmem-seq-roofline-straggler-moe": (
        "0x1.c92ec3f246c4cp-4", "0x0.0p+0", "0x1.c26151f083150p-8",
        "0x1.e558dd9ee5415p-7", "9cf8a39cf3c356a6"),
    "upmem-seq-profile-healthy-dense": (
        "0x1.3b7b664e0245ap-5", "0x0.0p+0", "0x1.a2c3533cbfb5cp-9",
        "0x1.15941d4ef98afp-7", "031ae93ed5e0ffde"),
    "upmem-seq-profile-healthy-moe": (
        "0x1.01bad5b4c8cb3p-3", "0x0.0p+0", "0x1.b8c4ab16f00aap-8",
        "0x1.0763e142d9528p-6", "cb155a00efe2bf44"),
    "upmem-seq-profile-retry-dense": (
        "0x1.540edb0a6cc49p-5", "0x0.0p+0", "0x1.2d4c7ab283e54p-7",
        "0x1.15941d4ef98afp-7", "ab9e6cd510c228c5"),
    "upmem-seq-profile-retry-moe": (
        "0x1.07dfb2e3e36aep-3", "0x0.0p+0", "0x1.a0fdfb6ecbfd1p-7",
        "0x1.0763e142d9528p-6", "beab419ec046c6f0"),
    "upmem-seq-profile-remap-dense": (
        "0x1.3b7b664e0245ap-5", "0x0.0p+0", "0x1.a2c3533cbfb5cp-9",
        "0x1.15941d4ef98afp-7", "99e29b4e417cbb0b"),
    "upmem-seq-profile-remap-moe": (
        "0x1.01bad5b4c8cb3p-3", "0x0.0p+0", "0x1.b8c4ab16f00aap-8",
        "0x1.0763e142d9528p-6", "be8addc9c63321e0"),
    "upmem-seq-profile-fallback-dense": (
        "0x1.3ee8078eb4f55p-4", "0x0.0p+0", "0x1.5e41cdfdfb498p-5",
        "0x1.33de3b0b14bf8p-5", "e157b4f9277630b9"),
    "upmem-seq-profile-fallback-moe": (
        "0x1.4c97eb4aed12ap-3", "0x0.0p+0", "0x1.347435785b2bbp-5",
        "0x1.c81d3e3511828p-6", "600eb33f72495444"),
    "upmem-seq-profile-straggler-dense": (
        "0x1.62c5859cae06bp-5", "0x0.0p+0", "0x1.00564f7f1118fp-8",
        "0x1.3f828e5e1b977p-7", "d1658f7122d05a76"),
    "upmem-seq-profile-straggler-moe": (
        "0x1.05c78131f252dp-3", "0x0.0p+0", "0x1.cb7cb2210c7d7p-8",
        "0x1.10074fa13e414p-6", "219b65f5e1f23618"),
    "upmem-overlap-roofline-healthy-dense": (
        "0x1.d7427d2a5f20ep-6", "0x1.593da6fc4d1fep-13", "0x1.88393ab32880ep-9",
        "0x1.d6d6975a9ebd2p-8", "d46c56be0bc6f638"),
    "upmem-overlap-roofline-healthy-moe": (
        "0x1.c1156cf7f3b58p-4", "0x0.0p+0", "0x1.afa94ae666a23p-8",
        "0x1.d41200e21b63fp-7", "12649d0a8f7dccd3"),
    "upmem-overlap-roofline-retry-dense": (
        "0x1.058df0f8965c9p-5", "0x0.0p+0", "0x1.2af8617a7f5f0p-7",
        "0x1.e133696e1cbbdp-8", "2135479bef52f6e7"),
    "upmem-overlap-roofline-retry-moe": (
        "0x1.cd5f275628f4ep-4", "0x0.0p+0", "0x1.9c704b568748dp-7",
        "0x1.d41200e21b63fp-7", "ac491d0db96b59cd"),
    "upmem-overlap-roofline-remap-dense": (
        "0x1.d9f4f87857bb2p-6", "0x0.0p+0", "0x1.9972ee5cad9d3p-9",
        "0x1.e133696e1cbbdp-8", "0363cbc15b9f99d3"),
    "upmem-overlap-roofline-remap-moe": (
        "0x1.c1156cf7f3b58p-4", "0x0.0p+0", "0x1.afa94ae666a23p-8",
        "0x1.d41200e21b63fp-7", "652ebfe7a1e26bb8"),
    "upmem-overlap-roofline-fallback-dense": (
        "0x1.84c217096773ap-5", "0x0.0p+0", "0x1.5881a8e54e475p-5",
        "0x1.2a9fa0e519f44p-5", "4efc5eddc449a7d4"),
    "upmem-overlap-roofline-fallback-moe": (
        "0x1.00c48891931e7p-3", "0x0.0p+0", "0x1.2e25aaa79e1dfp-5",
        "0x1.aac25d6345e20p-6", "12c29225679530b6"),
    "upmem-overlap-roofline-straggler-dense": (
        "0x1.14449b8ad79eap-5", "0x0.0p+0", "0x1.f75c3a1e10196p-9",
        "0x1.1a8825c6306a7p-7", "d12bb5e3cf2296e8"),
    "upmem-overlap-roofline-straggler-moe": (
        "0x1.c92ec3f246c4cp-4", "0x0.0p+0", "0x1.c26151f083150p-8",
        "0x1.e558dd9ee5415p-7", "9cf8a39cf3c356a6"),
    "upmem-overlap-profile-healthy-dense": (
        "0x1.3a2228a705f88p-5", "0x1.593da6fc4d1fep-13", "0x1.91899f933a997p-9",
        "0x1.1065b4453a8bap-7", "4291b1f47fd78ed6"),
    "upmem-overlap-profile-healthy-moe": (
        "0x1.01bad5b4c8cb3p-3", "0x0.0p+0", "0x1.b8c4ab16f00aap-8",
        "0x1.0763e142d9528p-6", "cb155a00efe2bf44"),
    "upmem-overlap-profile-retry-dense": (
        "0x1.540edb0a6cc49p-5", "0x0.0p+0", "0x1.2d4c7ab283e54p-7",
        "0x1.15941d4ef98afp-7", "ab9e6cd510c228c5"),
    "upmem-overlap-profile-retry-moe": (
        "0x1.07dfb2e3e36aep-3", "0x0.0p+0", "0x1.a0fdfb6ecbfd1p-7",
        "0x1.0763e142d9528p-6", "beab419ec046c6f0"),
    "upmem-overlap-profile-remap-dense": (
        "0x1.3b7b664e0245ap-5", "0x0.0p+0", "0x1.a2c3533cbfb5cp-9",
        "0x1.15941d4ef98afp-7", "99e29b4e417cbb0b"),
    "upmem-overlap-profile-remap-moe": (
        "0x1.01bad5b4c8cb3p-3", "0x0.0p+0", "0x1.b8c4ab16f00aap-8",
        "0x1.0763e142d9528p-6", "be8addc9c63321e0"),
    "upmem-overlap-profile-fallback-dense": (
        "0x1.3ee8078eb4f55p-4", "0x0.0p+0", "0x1.5e41cdfdfb498p-5",
        "0x1.33de3b0b14bf8p-5", "e157b4f9277630b9"),
    "upmem-overlap-profile-fallback-moe": (
        "0x1.4c97eb4aed12ap-3", "0x0.0p+0", "0x1.347435785b2bbp-5",
        "0x1.c81d3e3511828p-6", "600eb33f72495444"),
    "upmem-overlap-profile-straggler-dense": (
        "0x1.62c5859cae06bp-5", "0x0.0p+0", "0x1.00564f7f1118fp-8",
        "0x1.3f828e5e1b977p-7", "d1658f7122d05a76"),
    "upmem-overlap-profile-straggler-moe": (
        "0x1.05c78131f252dp-3", "0x0.0p+0", "0x1.cb7cb2210c7d7p-8",
        "0x1.10074fa13e414p-6", "219b65f5e1f23618"),
    "hbm-pim-seq-roofline-healthy-dense": (
        "0x1.1eae98961ebb9p-9", "0x0.0p+0", "0x1.6b8e9f6c80877p-12",
        "0x1.481732a26880ep-10", "11c57486e121e499"),
    "hbm-pim-seq-roofline-healthy-moe": (
        "0x1.d4e75d44929f8p-9", "0x0.0p+0", "0x1.c68240671e5fbp-12",
        "0x1.bccd1e59f5d53p-10", "2f3bcd839fc44bfe"),
    "hbm-pim-seq-roofline-retry-dense": (
        "0x1.53f2f22e63557p-8", "0x0.0p+0", "0x1.9ff035bd6ff81p-8",
        "0x1.481732a26880ep-10", "65c553a06c89b6b5"),
    "hbm-pim-seq-roofline-retry-moe": (
        "0x1.af0f54859d476p-8", "0x0.0p+0", "0x1.a59f6fcd19d5ap-8",
        "0x1.bccd1e59f5d53p-10", "3231e06c1e4e0ab6"),
    "hbm-pim-seq-roofline-remap-dense": (
        "0x1.1eae98961ebb9p-9", "0x0.0p+0", "0x1.6b8e9f6c80877p-12",
        "0x1.481732a26880ep-10", "d1d5ab9f057dece0"),
    "hbm-pim-seq-roofline-remap-moe": (
        "0x1.d4e75d44929f8p-9", "0x0.0p+0", "0x1.c68240671e5fbp-12",
        "0x1.bccd1e59f5d53p-10", "078726cfb1161de7"),
    "hbm-pim-seq-roofline-fallback-dense": (
        "0x1.a9f5ac9a53782p-6", "0x0.0p+0", "0x1.f7a226b3ec78ap-6",
        "0x1.52ed581115905p-9", "576eb37d8b36b94d"),
    "hbm-pim-seq-roofline-fallback-moe": (
        "0x1.8806f8a5d806bp-6", "0x0.0p+0", "0x1.d4ddd0c01afc4p-6",
        "0x1.0fdb2f16350f5p-8", "e2495d126915aa0a"),
    "hbm-pim-seq-roofline-straggler-dense": (
        "0x1.2c6064a62f598p-9", "0x0.0p+0", "0x1.7387ca7a0579ap-12",
        "0x1.4d5a5494627a2p-10", "3163fc6d375c30e1"),
    "hbm-pim-seq-roofline-straggler-moe": (
        "0x1.da2e3a46c037ep-9", "0x0.0p+0", "0x1.c9331d6c6bb9ep-12",
        "0x1.be980c31472b4p-10", "01beb1699e247310"),
    "hbm-pim-seq-profile-healthy-dense": (
        "0x1.81af4e6ce14f2p-7", "0x0.0p+0", "0x1.b611c66d114c3p-12",
        "0x1.37f53bb0e0f48p-9", "a08e5fbf3cb4df5a"),
    "hbm-pim-seq-profile-healthy-moe": (
        "0x1.441de56f09d7ap-6", "0x0.0p+0", "0x1.2c1c21b7da732p-11",
        "0x1.c93d95bb57ef4p-9", "92bd9a3caf168620"),
    "hbm-pim-seq-profile-retry-dense": (
        "0x1.e3fd215e8b4b1p-7", "0x0.0p+0", "0x1.a498682d79047p-8",
        "0x1.37f53bb0e0f48p-9", "a0ac83de1c6634c4"),
    "hbm-pim-seq-profile-retry-moe": (
        "0x1.7544cee7ded5ap-6", "0x0.0p+0", "0x1.aebacffda33e1p-8",
        "0x1.c93d95bb57ef4p-9", "ed1a0200b8773100"),
    "hbm-pim-seq-profile-remap-dense": (
        "0x1.81af4e6ce14f2p-7", "0x0.0p+0", "0x1.b611c66d114c3p-12",
        "0x1.37f53bb0e0f48p-9", "e81b8e5bb2214060"),
    "hbm-pim-seq-profile-remap-moe": (
        "0x1.441de56f09d7ap-6", "0x0.0p+0", "0x1.2c1c21b7da732p-11",
        "0x1.c93d95bb57ef4p-9", "141f1238122e4eb7"),
    "hbm-pim-seq-profile-fallback-dense": (
        "0x1.ce08ce612c330p-5", "0x0.0p+0", "0x1.01913872a33e9p-5",
        "0x1.e6d6fa70c2446p-9", "6d21aac04389b273"),
    "hbm-pim-seq-profile-fallback-moe": (
        "0x1.f351073853d42p-5", "0x0.0p+0", "0x1.e17ae6619517dp-6",
        "0x1.8546b25d6391bp-8", "ba1ed80aedaec2d6"),
    "hbm-pim-seq-profile-straggler-dense": (
        "0x1.851bc170e5769p-7", "0x0.0p+0", "0x1.be0af17a963e6p-12",
        "0x1.3a96cca9ddf12p-9", "be3e5569cc4c0502"),
    "hbm-pim-seq-profile-straggler-moe": (
        "0x1.44c6c10f4f8aap-6", "0x0.0p+0", "0x1.2d74903a81204p-11",
        "0x1.ca230ca7009a5p-9", "a2faebfac2977def"),
    "hbm-pim-overlap-roofline-healthy-dense": (
        "0x1.1b851200247a7p-9", "0x1.94c34afd208f6p-16", "0x1.6951f5df9b78dp-12",
        "0x1.46bf99b445782p-10", "450713f2e90e33ed"),
    "hbm-pim-overlap-roofline-healthy-moe": (
        "0x1.d4e75d44929f8p-9", "0x0.0p+0", "0x1.c68240671e5fbp-12",
        "0x1.bccd1e59f5d53p-10", "2f3bcd839fc44bfe"),
    "hbm-pim-overlap-roofline-retry-dense": (
        "0x1.53f2f22e63557p-8", "0x0.0p+0", "0x1.9ff035bd6ff81p-8",
        "0x1.481732a26880ep-10", "65c553a06c89b6b5"),
    "hbm-pim-overlap-roofline-retry-moe": (
        "0x1.af0f54859d476p-8", "0x0.0p+0", "0x1.a59f6fcd19d5ap-8",
        "0x1.bccd1e59f5d53p-10", "3231e06c1e4e0ab6"),
    "hbm-pim-overlap-roofline-remap-dense": (
        "0x1.1eae98961ebb9p-9", "0x0.0p+0", "0x1.6b8e9f6c80877p-12",
        "0x1.481732a26880ep-10", "d1d5ab9f057dece0"),
    "hbm-pim-overlap-roofline-remap-moe": (
        "0x1.d4e75d44929f8p-9", "0x0.0p+0", "0x1.c68240671e5fbp-12",
        "0x1.bccd1e59f5d53p-10", "078726cfb1161de7"),
    "hbm-pim-overlap-roofline-fallback-dense": (
        "0x1.a9f5ac9a53782p-6", "0x0.0p+0", "0x1.f7a226b3ec78ap-6",
        "0x1.52ed581115905p-9", "576eb37d8b36b94d"),
    "hbm-pim-overlap-roofline-fallback-moe": (
        "0x1.8806f8a5d806bp-6", "0x0.0p+0", "0x1.d4ddd0c01afc4p-6",
        "0x1.0fdb2f16350f5p-8", "e2495d126915aa0a"),
    "hbm-pim-overlap-roofline-straggler-dense": (
        "0x1.2c6064a62f598p-9", "0x0.0p+0", "0x1.7387ca7a0579ap-12",
        "0x1.4d5a5494627a2p-10", "3163fc6d375c30e1"),
    "hbm-pim-overlap-roofline-straggler-moe": (
        "0x1.da2e3a46c037ep-9", "0x0.0p+0", "0x1.c9331d6c6bb9ep-12",
        "0x1.be980c31472b4p-10", "01beb1699e247310"),
    "hbm-pim-overlap-profile-healthy-dense": (
        "0x1.80e4ecc762beep-7", "0x1.94c34afd208f6p-16", "0x1.b3d51ce02c3d9p-12",
        "0x1.37496f39cf701p-9", "cb603798630deae3"),
    "hbm-pim-overlap-profile-healthy-moe": (
        "0x1.441de56f09d7ap-6", "0x0.0p+0", "0x1.2c1c21b7da732p-11",
        "0x1.c93d95bb57ef4p-9", "92bd9a3caf168620"),
    "hbm-pim-overlap-profile-retry-dense": (
        "0x1.e3fd215e8b4b1p-7", "0x0.0p+0", "0x1.a498682d79047p-8",
        "0x1.37f53bb0e0f48p-9", "a0ac83de1c6634c4"),
    "hbm-pim-overlap-profile-retry-moe": (
        "0x1.7544cee7ded5ap-6", "0x0.0p+0", "0x1.aebacffda33e1p-8",
        "0x1.c93d95bb57ef4p-9", "ed1a0200b8773100"),
    "hbm-pim-overlap-profile-remap-dense": (
        "0x1.81af4e6ce14f2p-7", "0x0.0p+0", "0x1.b611c66d114c3p-12",
        "0x1.37f53bb0e0f48p-9", "e81b8e5bb2214060"),
    "hbm-pim-overlap-profile-remap-moe": (
        "0x1.441de56f09d7ap-6", "0x0.0p+0", "0x1.2c1c21b7da732p-11",
        "0x1.c93d95bb57ef4p-9", "141f1238122e4eb7"),
    "hbm-pim-overlap-profile-fallback-dense": (
        "0x1.ce08ce612c330p-5", "0x0.0p+0", "0x1.01913872a33e9p-5",
        "0x1.e6d6fa70c2446p-9", "6d21aac04389b273"),
    "hbm-pim-overlap-profile-fallback-moe": (
        "0x1.f351073853d42p-5", "0x0.0p+0", "0x1.e17ae6619517dp-6",
        "0x1.8546b25d6391bp-8", "ba1ed80aedaec2d6"),
    "hbm-pim-overlap-profile-straggler-dense": (
        "0x1.851bc170e5769p-7", "0x0.0p+0", "0x1.be0af17a963e6p-12",
        "0x1.3a96cca9ddf12p-9", "be3e5569cc4c0502"),
    "hbm-pim-overlap-profile-straggler-moe": (
        "0x1.44c6c10f4f8aap-6", "0x0.0p+0", "0x1.2d74903a81204p-11",
        "0x1.ca230ca7009a5p-9", "a2faebfac2977def"),
    "aim-seq-roofline-healthy-dense": (
        "0x1.0a7e7bc1acad5p-9", "0x0.0p+0", "0x1.45759fa930bb9p-12",
        "0x1.3b2cb3a52e527p-10", "84ed5f67a628449b"),
    "aim-seq-roofline-healthy-moe": (
        "0x1.e175c8ca130ebp-9", "0x0.0p+0", "0x1.a5f2c4a82f23bp-12",
        "0x1.a5ab567187c81p-10", "c3c006003b4d4d0b"),
    "aim-seq-roofline-retry-dense": (
        "0x1.49dae3c42a4e5p-8", "0x0.0p+0", "0x1.9d8ea5c13afb4p-8",
        "0x1.3b2cb3a52e527p-10", "5abdc573c1de5f95"),
    "aim-seq-roofline-retry-moe": (
        "0x1.b5568a485d7efp-8", "0x0.0p+0", "0x1.a39678112ae1dp-8",
        "0x1.a5ab567187c81p-10", "85a3743aff44cc37"),
    "aim-seq-roofline-remap-dense": (
        "0x1.0a7e7bc1acad5p-9", "0x0.0p+0", "0x1.45759fa930bb9p-12",
        "0x1.3b2cb3a52e527p-10", "77ad7a4112940770"),
    "aim-seq-roofline-remap-moe": (
        "0x1.e175c8ca130ebp-9", "0x0.0p+0", "0x1.a5f2c4a82f23bp-12",
        "0x1.a5ab567187c81p-10", "95c42b191ceae32f"),
    "aim-seq-roofline-fallback-dense": (
        "0x1.97654398e2322p-6", "0x0.0p+0", "0x1.f643c256034a3p-6",
        "0x1.25b917039d001p-9", "18574f367be35a07"),
    "aim-seq-roofline-fallback-moe": (
        "0x1.86279f87bac93p-6", "0x0.0p+0", "0x1.d444adcf6ea33p-6",
        "0x1.0387338f74056p-8", "8a11a993c301a263"),
    "aim-seq-roofline-straggler-dense": (
        "0x1.1078d95779e53p-9", "0x0.0p+0", "0x1.4b8593643995fp-12",
        "0x1.3e5086be727d9p-10", "9ce157ad473f200f"),
    "aim-seq-roofline-straggler-moe": (
        "0x1.e3c39e5ed6ad5p-9", "0x0.0p+0", "0x1.a7feeadb64571p-12",
        "0x1.a6ab2d0d77d6cp-10", "75b04f97e8cd9764"),
    "aim-seq-profile-healthy-dense": (
        "0x1.7ca34737c4cb9p-7", "0x0.0p+0", "0x1.8ff8c6a9c1805p-12",
        "0x1.317ffc3243dd5p-9", "46a2ced5249efcc5"),
    "aim-seq-profile-healthy-moe": (
        "0x1.45afb2dfb9e58p-6", "0x0.0p+0", "0x1.1bd463d862d52p-11",
        "0x1.bdacb1c720e8bp-9", "7c5401b89d02eb9b"),
    "aim-seq-profile-retry-dense": (
        "0x1.def11a296ec78p-7", "0x0.0p+0", "0x1.a236d8314407ap-8",
        "0x1.317ffc3243dd5p-9", "f19ec1db04df8718"),
    "aim-seq-profile-retry-moe": (
        "0x1.76d69c588ee37p-6", "0x0.0p+0", "0x1.acb1d841b44a5p-8",
        "0x1.bdacb1c720e8bp-9", "cd32a5de8e083d19"),
    "aim-seq-profile-remap-dense": (
        "0x1.7ca34737c4cb9p-7", "0x0.0p+0", "0x1.8ff8c6a9c1805p-12",
        "0x1.317ffc3243dd5p-9", "38aaed92b0a3fb6a"),
    "aim-seq-profile-remap-moe": (
        "0x1.45afb2dfb9e58p-6", "0x0.0p+0", "0x1.1bd463d862d52p-11",
        "0x1.bdacb1c720e8bp-9", "c1c9253294da6568"),
    "aim-seq-profile-fallback-dense": (
        "0x1.c4c099e0738fdp-5", "0x0.0p+0", "0x1.00e20643aea76p-5",
        "0x1.b9a2b96349b43p-9", "f7f782139475ec3e"),
    "aim-seq-profile-fallback-moe": (
        "0x1.f2615aa945355p-5", "0x0.0p+0", "0x1.e0e1c370e8becp-6",
        "0x1.78f2b6d6a287ap-8", "1d1e1d408ec14483"),
    "aim-seq-profile-straggler-dense": (
        "0x1.7e21de9d38199p-7", "0x0.0p+0", "0x1.9608ba64ca5aap-12",
        "0x1.3311e5bee5f2dp-9", "a9533cff6cf9576c"),
    "aim-seq-profile-straggler-moe": (
        "0x1.45f96d9252595p-6", "0x0.0p+0", "0x1.1cda76f1fd6eep-11",
        "0x1.be2c9d1518f00p-9", "c7fa0b7dc6dd0a5c"),
    "aim-overlap-roofline-healthy-dense": (
        "0x1.088ef06544918p-9", "0x1.ef8b5c681bc9cp-17", "0x1.443ad4c9e5b68p-12",
        "0x1.3a5e8b164c806p-10", "96737b157d3248da"),
    "aim-overlap-roofline-healthy-moe": (
        "0x1.e175c8ca130ebp-9", "0x0.0p+0", "0x1.a5f2c4a82f23bp-12",
        "0x1.a5ab567187c81p-10", "c3c006003b4d4d0b"),
    "aim-overlap-roofline-retry-dense": (
        "0x1.49dae3c42a4e5p-8", "0x0.0p+0", "0x1.9d8ea5c13afb4p-8",
        "0x1.3b2cb3a52e527p-10", "5abdc573c1de5f95"),
    "aim-overlap-roofline-retry-moe": (
        "0x1.b5568a485d7efp-8", "0x0.0p+0", "0x1.a39678112ae1dp-8",
        "0x1.a5ab567187c81p-10", "85a3743aff44cc37"),
    "aim-overlap-roofline-remap-dense": (
        "0x1.0a7e7bc1acad5p-9", "0x0.0p+0", "0x1.45759fa930bb9p-12",
        "0x1.3b2cb3a52e527p-10", "77ad7a4112940770"),
    "aim-overlap-roofline-remap-moe": (
        "0x1.e175c8ca130ebp-9", "0x0.0p+0", "0x1.a5f2c4a82f23bp-12",
        "0x1.a5ab567187c81p-10", "95c42b191ceae32f"),
    "aim-overlap-roofline-fallback-dense": (
        "0x1.97654398e2322p-6", "0x0.0p+0", "0x1.f643c256034a3p-6",
        "0x1.25b917039d001p-9", "18574f367be35a07"),
    "aim-overlap-roofline-fallback-moe": (
        "0x1.86279f87bac93p-6", "0x0.0p+0", "0x1.d444adcf6ea33p-6",
        "0x1.0387338f74056p-8", "8a11a993c301a263"),
    "aim-overlap-roofline-straggler-dense": (
        "0x1.1078d95779e53p-9", "0x0.0p+0", "0x1.4b8593643995fp-12",
        "0x1.3e5086be727d9p-10", "9ce157ad473f200f"),
    "aim-overlap-roofline-straggler-moe": (
        "0x1.e3c39e5ed6ad5p-9", "0x0.0p+0", "0x1.a7feeadb64571p-12",
        "0x1.a6ab2d0d77d6cp-10", "75b04f97e8cd9764"),
    "aim-overlap-profile-healthy-dense": (
        "0x1.7c276460aac4ap-7", "0x1.ef8b5c681bc9cp-17", "0x1.8ebdfbca767b3p-12",
        "0x1.3118e7ead2f44p-9", "c8c232330b233046"),
    "aim-overlap-profile-healthy-moe": (
        "0x1.45afb2dfb9e58p-6", "0x0.0p+0", "0x1.1bd463d862d52p-11",
        "0x1.bdacb1c720e8bp-9", "7c5401b89d02eb9b"),
    "aim-overlap-profile-retry-dense": (
        "0x1.def11a296ec78p-7", "0x0.0p+0", "0x1.a236d8314407ap-8",
        "0x1.317ffc3243dd5p-9", "f19ec1db04df8718"),
    "aim-overlap-profile-retry-moe": (
        "0x1.76d69c588ee37p-6", "0x0.0p+0", "0x1.acb1d841b44a5p-8",
        "0x1.bdacb1c720e8bp-9", "cd32a5de8e083d19"),
    "aim-overlap-profile-remap-dense": (
        "0x1.7ca34737c4cb9p-7", "0x0.0p+0", "0x1.8ff8c6a9c1805p-12",
        "0x1.317ffc3243dd5p-9", "38aaed92b0a3fb6a"),
    "aim-overlap-profile-remap-moe": (
        "0x1.45afb2dfb9e58p-6", "0x0.0p+0", "0x1.1bd463d862d52p-11",
        "0x1.bdacb1c720e8bp-9", "c1c9253294da6568"),
    "aim-overlap-profile-fallback-dense": (
        "0x1.c4c099e0738fdp-5", "0x0.0p+0", "0x1.00e20643aea76p-5",
        "0x1.b9a2b96349b43p-9", "f7f782139475ec3e"),
    "aim-overlap-profile-fallback-moe": (
        "0x1.f2615aa945355p-5", "0x0.0p+0", "0x1.e0e1c370e8becp-6",
        "0x1.78f2b6d6a287ap-8", "1d1e1d408ec14483"),
    "aim-overlap-profile-straggler-dense": (
        "0x1.7e21de9d38199p-7", "0x0.0p+0", "0x1.9608ba64ca5aap-12",
        "0x1.3311e5bee5f2dp-9", "a9533cff6cf9576c"),
    "aim-overlap-profile-straggler-moe": (
        "0x1.45f96d9252595p-6", "0x0.0p+0", "0x1.1cda76f1fd6eep-11",
        "0x1.be2c9d1518f00p-9", "c7fa0b7dc6dd0a5c"),
}

# The first three digests were recorded from the tile-by-tile Python walk
# on the commit before the shared LUT-op pricer.  The last was re-recorded
# when the numpy walk replaced the closed form above 100,000 m-tiles; it
# equals the Python walk run over every tile.
EXPECTED_SIMULATOR = {
    "upmem/512x64x128": (48, "e155234461b707f5"),
    "hbm-pim/256x128x256": (48, "e0dfdd8607d6ee95"),
    "aim/128x96x192": (48, "e543c60acd0f935c"),
    "upmem/8192x512x1024": (48, "63d5f4c71a1381c8"),
}


@pytest.fixture(scope="module")
def engines(tmp_path_factory):
    return record_engines(tmp_path_factory.mktemp("mapping-cache"))


@pytest.mark.parametrize("cell", [_cell_id(c) for c in engine_cells()])
def test_engine_reports_bit_identical(engines, cell):
    assert engines[cell] == EXPECTED_ENGINES[cell]


def test_engine_cells_cover_the_recorded_matrix(engines):
    assert set(engines) == set(EXPECTED_ENGINES)


def test_simulator_reports_bit_identical():
    assert record_simulator() == EXPECTED_SIMULATOR


# ----------------------------------------------------------------------
# Trace vs. walk
# ----------------------------------------------------------------------
def _align(size):
    return simmod.ALIGN_BYTES * math.ceil(size / simmod.ALIGN_BYTES)


def _event_costs(shape, mapping, platform):
    """Per-event seconds of the simulator's walk, from the platform."""
    local, compute = platform.local_memory, platform.compute
    index = _align(mapping.n_m_tile * mapping.cb_m_tile * INDEX_BYTES)
    output = _align(mapping.n_m_tile * mapping.f_m_tile * OUTPUT_BYTES)
    rows = mapping.n_m_tile * mapping.cb_m_tile
    f_chunks = math.ceil(mapping.f_m_tile / mapping.f_load_tile)
    lookup = compute.lookup_time(rows)
    if mapping.load_scheme == "static":
        lut_total = shape.cb * shape.ct * mapping.f_s_tile * LUT_BYTES
        lut = local.latency(_align(lut_total), min(lut_total, 2048))
        chunks = 0
    else:
        if mapping.load_scheme == "coarse":
            chunk = _align(
                mapping.cb_load_tile * shape.ct * mapping.f_load_tile * LUT_BYTES
            )
            chunks = math.ceil(mapping.cb_m_tile / mapping.cb_load_tile) * f_chunks
        else:
            chunk = _align(mapping.f_load_tile * LUT_BYTES)
            chunks = rows * f_chunks
            lookup += compute.lookup_time(rows * max(f_chunks - 1, 0))
        lut = chunks * local.latency(chunk, chunk)
    return {
        "index_load": local.latency(index, index),
        "output_load": local.latency(output, output),
        "output_store": local.latency(output, output),
        "lut_load": lut,
        "reduce": compute.add_time(rows * mapping.f_m_tile) + lookup,
    }, chunks


TRACE_SHAPE = LUTShape(n=512, h=64, f=128, v=4, ct=8)
TRACE_TILING = dict(n_s_tile=64, f_s_tile=32, n_m_tile=16, f_m_tile=8, cb_m_tile=4)
TRACE_LOADS = {
    "static": {},
    "coarse": dict(cb_load_tile=2, f_load_tile=4),
    "fine": dict(f_load_tile=2),
}


@pytest.mark.parametrize("platform_name", PLATFORMS)
@pytest.mark.parametrize("scheme", sorted(TRACE_LOADS))
@pytest.mark.parametrize("traversal", TRAVERSALS)
def test_trace_replays_the_simulator_walk(platform_name, scheme, traversal):
    platform = get_platform(platform_name)
    mapping = Mapping(**TRACE_TILING, traversal=traversal, load_scheme=scheme,
                      **TRACE_LOADS[scheme])
    trace = trace_kernel(TRACE_SHAPE, mapping, platform)
    report = PIMSimulator(platform).run(TRACE_SHAPE, mapping)
    counts = report.event_counts
    by_kind = trace.count_by_kind()
    costs, chunks = _event_costs(TRACE_SHAPE, mapping, platform)

    assert by_kind.get("index_load", 0) == counts["index_loads"]
    assert by_kind.get("output_load", 0) == counts["output_loads"]
    assert by_kind.get("output_store", 0) == counts["output_stores"]
    assert by_kind["reduce"] == counts["tiles"]
    if scheme == "static":
        assert by_kind["lut_load"] == 1
    else:
        assert by_kind["lut_load"] * chunks == counts["lut_loads"]
    for event in trace.events:
        assert event.duration_s == costs[event.kind], (event.kind, event.tile)
    assert abs(trace.total_s - report.kernel_s) <= 1e-12
