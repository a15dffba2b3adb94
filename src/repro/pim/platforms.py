"""Commodity DRAM-PIM platform descriptions (paper Tables 1 and 3, Fig. 7).

Every hardware constant used anywhere in the repository lives here.  Values
are taken from the paper where stated (PE counts, peak bandwidth/throughput,
frequencies, buffer sizes, powers) and from the UPMEM benchmarking study the
paper cites [Gomez-Luna et al., 33] for the transfer-pattern-dependent
host<->PIM bandwidths and the on-chip access-size effects.

The architecture abstraction matches Fig. 7: a host processor drives one or
more PIM modules; each module holds distributed computation nodes (PE + local
memory bank); PEs in a rank share the external data bus; there is no direct
inter-PE datapath (limitation L2).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Optional

import numpy as np


def _where(condition, if_true, if_false):
    """``np.where`` over an array ``condition``; over a scalar one a plain
    pick, so a scalar query keeps its Python scalar."""
    if isinstance(condition, np.ndarray):
        return np.where(condition, if_true, if_false)
    return if_true if condition else if_false


@dataclass(frozen=True)
class TransferBandwidth:
    """Host<->PIM bandwidth for one transfer pattern.

    Two effects shape the achieved rate, both measured for UPMEM in [33]
    and referenced by the paper (Sections 5.2, 6.5):

    * a fixed ``setup_latency_s`` per burst, and
    * a *per-PE tile-size* dependence — the parallel transfer only reaches
      ``peak_bytes_per_s`` when each PE's buffer is large (>= several KB);
      tiny per-PE tiles collapse the bandwidth.  Modeled as
      ``peak * tile / (tile + tile_knee_bytes)``.

    ``tile_knee_bytes = 0`` disables the second effect.

    The sizes given to :meth:`rate` and :meth:`latency`, and the fields of
    a link picked per element by :func:`pick_link`, may be numpy arrays:
    the answer is then elementwise, by the same float operations as a
    scalar query (which still gets a Python float).  The tuner prices all
    of a shape's sub-LUT tilings this way in one pass.
    """

    peak_bytes_per_s: float
    setup_latency_s: float
    tile_knee_bytes: float = 0.0

    def rate(self, tile_bytes: Optional[float] = None) -> float:
        """Achievable bytes/s given the per-PE tile size."""
        if tile_bytes is None:
            return self.peak_bytes_per_s
        tile_bytes = _where(tile_bytes < 1.0, 1.0, tile_bytes)
        knee_rate = self.peak_bytes_per_s * tile_bytes / (tile_bytes + self.tile_knee_bytes)
        return _where(self.tile_knee_bytes == 0, self.peak_bytes_per_s, knee_rate)

    def latency(self, size_bytes: float, tile_bytes: Optional[float] = None) -> float:
        negative = size_bytes < 0
        if negative.any() if isinstance(negative, np.ndarray) else negative:
            raise ValueError("transfer size must be non-negative")
        seconds = self.setup_latency_s + size_bytes / self.rate(tile_bytes)
        return _where(size_bytes == 0, 0.0, seconds)

    def effective_bandwidth(
        self, size_bytes: float, tile_bytes: Optional[float] = None
    ) -> float:
        """Achieved bytes/s for a transfer of ``size_bytes``."""
        if size_bytes <= 0:
            return 0.0
        return size_bytes / self.latency(size_bytes, tile_bytes)


def pick_link(
    condition, if_true: TransferBandwidth, if_false: TransferBandwidth
) -> TransferBandwidth:
    """``if_true`` where ``condition`` holds, else ``if_false``.

    Over an array of conditions the answer is one link whose fields are
    arrays, so its :meth:`~TransferBandwidth.latency` prices each element
    on the link picked for it.
    """
    if not isinstance(condition, np.ndarray):
        return if_true if condition else if_false
    return TransferBandwidth(
        *(np.where(condition, getattr(if_true, f.name), getattr(if_false, f.name))
          for f in fields(TransferBandwidth))
    )


@dataclass(frozen=True)
class LocalMemory:
    """PE-local memory system (e.g. UPMEM's MRAM bank + WRAM scratchpad).

    ``access_bytes`` below the DMA-efficiency knee waste setup cycles; the
    alpha-beta form mirrors the measured MRAM->WRAM curves of [33] where
    8-byte accesses reach only a small fraction of the streaming bandwidth.
    """

    peak_bytes_per_s: float
    access_setup_s: float
    buffer_bytes: int  # on-chip scratchpad (WRAM / register file) per PE

    def latency(self, total_bytes: float, access_bytes: float) -> float:
        """Time to move ``total_bytes`` in chunks of ``access_bytes``."""
        if total_bytes <= 0:
            return 0.0
        access_bytes = max(min(access_bytes, total_bytes), 1.0)
        accesses = total_bytes / access_bytes
        return accesses * self.access_setup_s + total_bytes / self.peak_bytes_per_s


@dataclass(frozen=True)
class PECompute:
    """Per-PE compute capability.

    UPMEM DPUs have no hardware multiplier — an integer multiply is a
    multi-cycle software sequence — which is precisely why LUT-NN's
    adder-dominated reduction fits them (paper Sections 2.2, 7).
    """

    frequency_hz: float
    add_cycles: float  # cycles per scalar add (incl. pipeline effects)
    mult_cycles: float  # cycles per scalar multiply
    lookup_overhead_cycles: float  # address computation per table lookup
    simd_lanes: int = 1  # vector width (HBM-PIM/AiM MAC units)

    def add_time(self, count: float) -> float:
        return count * self.add_cycles / (self.frequency_hz * self.simd_lanes)

    def mult_time(self, count: float) -> float:
        return count * self.mult_cycles / (self.frequency_hz * self.simd_lanes)

    def lookup_time(self, count: float) -> float:
        return count * self.lookup_overhead_cycles / self.frequency_hz


@dataclass(frozen=True)
class PIMPlatform:
    """A complete DRAM-PIM system in the Fig. 7 abstraction."""

    name: str
    num_pes: int
    ranks: int  # PE groups sharing one external bus segment
    compute: PECompute
    local_memory: LocalMemory
    #: Host->PIM bandwidth when the same tile goes to many PEs (cache-friendly).
    broadcast: TransferBandwidth
    #: Host->PIM bandwidth for distinct per-PE tiles.
    scatter: TransferBandwidth
    #: PIM->host result collection bandwidth.
    gather: TransferBandwidth
    #: Per-kernel-launch host overhead (driver + binary dispatch).
    kernel_launch_s: float
    #: Static + dynamic power draw of all PIM modules (W).
    pim_power_w: float
    #: Power draw of the (wimpy) host driving the modules (W).
    host_power_w: float
    #: Datatype of GEMM operands on this platform, bytes (FP16/BF16 = 2).
    gemm_dtype_bytes: int = 2
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def pes_per_rank(self) -> int:
        return self.num_pes // self.ranks

    @property
    def peak_add_throughput(self) -> float:
        """Aggregate scalar adds/s across all PEs."""
        return (
            self.num_pes
            * self.compute.frequency_hz
            * self.compute.simd_lanes
            / self.compute.add_cycles
        )


def upmem_pim_dimm() -> PIMPlatform:
    """UPMEM DDR4 PIM-DIMM platform of paper Table 3 (8 DIMMs, 1024 PEs).

    * 43.8 GOP/s per DIMM peak (Table 1) -> ~0.34 GOP/s per DPU at 350 MHz.
    * Integer multiply is software (mul_step): ~10 cycles.
    * 64 KB WRAM per DPU; MRAM->WRAM streaming ~620 MB/s with high per-DMA
      setup cost at small access sizes [33].
    * Host CPU<->DIMM: broadcast ~16 GB/s aggregate, scatter ~6 GB/s,
      gather ~4.7 GB/s [33].
    * 13.92 W per DIMM at 350 MHz (paper Section 6.3) x 8 DIMMs.
    """
    return PIMPlatform(
        name="UPMEM PIM-DIMM",
        num_pes=1024,
        ranks=16,  # 8 DIMMs x 2 ranks
        compute=PECompute(
            frequency_hz=350e6,
            # Effective cycles per table-lookup accumulate: load the INT8
            # entry from WRAM, sign-extend, add into the INT32 accumulator,
            # store — ~4 cycles on the in-order 11-stage DPU pipeline.
            add_cycles=4.0,
            mult_cycles=10.0,
            lookup_overhead_cycles=4.0,
        ),
        local_memory=LocalMemory(
            peak_bytes_per_s=620e6,
            access_setup_s=0.1e-6,  # DMA setup; 8-byte loads hit ~5% of peak
            buffer_bytes=64 * 1024,
        ),
        broadcast=TransferBandwidth(
            peak_bytes_per_s=16e9, setup_latency_s=20e-6, tile_knee_bytes=8192
        ),
        scatter=TransferBandwidth(
            peak_bytes_per_s=6e9, setup_latency_s=20e-6, tile_knee_bytes=8192
        ),
        gather=TransferBandwidth(
            peak_bytes_per_s=4.7e9, setup_latency_s=20e-6, tile_knee_bytes=8192
        ),
        kernel_launch_s=60e-6,
        pim_power_w=8 * 13.92,
        host_power_w=200.0,  # dual Xeon 4210 host (2 x 85 W TDP + DRAM)
        gemm_dtype_bytes=4,  # UPMEM GEMM baseline runs FP32 in software
        extras={"fp32_mac_cycles": 55.0},
    )


def hbm_pim() -> PIMPlatform:
    """Samsung HBM-PIM platform of Table 3 (4 cubes, 512 PEs, simulated).

    * 2 TB/s bandwidth and 1.2 TFLOPS per cube (Table 1); 4 cubes.
    * FP16 MAC units, 16 SIMD lanes at ~1.2 GHz per PE pair.
    * Dataflow optimized for flat (GEMV-like) matrices — batched GEMM is
      issued row-by-row, which PIM-DL's Fig. 14 exploits.
    """
    return PIMPlatform(
        name="Samsung HBM-PIM",
        num_pes=512,
        ranks=4,
        compute=PECompute(
            frequency_hz=1.2e9,
            add_cycles=1.0,
            mult_cycles=1.0,
            lookup_overhead_cycles=2.0,
            # 16 physical FP16 lanes, but the aggregate sustained rate is
            # bounded by the paper's 4.8 TFLOPS total (= 2.4 T MAC/s):
            # 512 PEs x 1.2 GHz x 4 effective lanes = 2.46 T ops/s.
            simd_lanes=4,
        ),
        local_memory=LocalMemory(
            # 2 TB/s per cube x 4 cubes spread over 512 PEs.
            peak_bytes_per_s=4 * 2e12 / 512,
            access_setup_s=5e-9,
            buffer_bytes=32 * 1024,
        ),
        broadcast=TransferBandwidth(peak_bytes_per_s=350e9, setup_latency_s=5e-6),
        scatter=TransferBandwidth(peak_bytes_per_s=200e9, setup_latency_s=5e-6),
        gather=TransferBandwidth(peak_bytes_per_s=180e9, setup_latency_s=5e-6),
        kernel_launch_s=10e-6,
        pim_power_w=4 * 25.0,
        host_power_w=60.0,  # NVIDIA A2 host (Table 3)
        gemm_dtype_bytes=2,  # FP16
        extras={
            "gemv_command_overhead_s": 2.0e-6,
            # Per-row host-driver round trip when a batched GEMM is issued
            # as a GEMV sequence (the dataflow of paper Section 6.7).
            "gemv_row_overhead_s": 30e-6,
            # Fraction of aggregate bank bandwidth one GEMV engages: a
            # layer's weights are resident in a single cube (1/4 of the
            # system), and row activation / tCCD gaps trim the stream to
            # ~36% of that cube's peak.
            "gemv_bandwidth_efficiency": 0.09,
            # LUTs are model weights resident in the PIM banks.
            "lut_resident": 1.0,
        },
    )


def aim() -> PIMPlatform:
    """SK-Hynix AiM platform of Table 3 (16 GDDR6 chips, 512 PEs, simulated).

    * 1 TB/s and ~1 TFLOPS per chip (Table 1); 16 chips.
    * BF16 MACs running near-bank; higher aggregate compute than HBM-PIM
      (16 vs 4.8 TFLOPS per paper Section 6.7).
    """
    return PIMPlatform(
        name="SK-Hynix AiM",
        num_pes=512,
        ranks=16,
        compute=PECompute(
            frequency_hz=1.0e9,
            add_cycles=1.0,
            mult_cycles=1.0,
            lookup_overhead_cycles=2.0,
            # Effective lanes sized to the paper's 16 TFLOPS aggregate
            # (= 8 T MAC/s, Section 6.7): 512 PEs x 1 GHz x 16 = 8.2 T ops/s.
            simd_lanes=16,
        ),
        local_memory=LocalMemory(
            peak_bytes_per_s=16 * 1e12 / 512,
            access_setup_s=4e-9,
            buffer_bytes=32 * 1024,
        ),
        broadcast=TransferBandwidth(peak_bytes_per_s=450e9, setup_latency_s=4e-6),
        scatter=TransferBandwidth(peak_bytes_per_s=250e9, setup_latency_s=4e-6),
        gather=TransferBandwidth(peak_bytes_per_s=220e9, setup_latency_s=4e-6),
        kernel_launch_s=8e-6,
        pim_power_w=16 * 10.0,
        host_power_w=60.0,  # NVIDIA A2 host (Table 3)
        gemm_dtype_bytes=2,  # BF16
        extras={
            "gemv_command_overhead_s": 1.5e-6,
            "gemv_row_overhead_s": 14e-6,
            # Same single-device GEMV engagement effect as HBM-PIM: one
            # GEMV streams from the chips holding that layer's weights.
            "gemv_bandwidth_efficiency": 0.10,
            "lut_resident": 1.0,
        },
    )


PLATFORMS = {
    "upmem": upmem_pim_dimm,
    "hbm-pim": hbm_pim,
    "aim": aim,
}


def get_platform(name: str) -> PIMPlatform:
    """Look up a platform factory by short name: upmem | hbm-pim | aim."""
    key = name.lower()
    if key not in PLATFORMS:
        raise KeyError(f"unknown platform {name!r}; choose from {sorted(PLATFORMS)}")
    return PLATFORMS[key]()
