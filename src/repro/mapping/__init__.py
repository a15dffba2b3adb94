"""Hardware mapping: parameter space, analytical model, and auto-tuner."""

from .analytical import (
    LatencyBreakdown,
    estimate_latency,
    pipeline_overlap_hidden,
    search_micro_kernels,
    tiling_fixed_terms,
    tiling_lower_bound,
    with_overlap,
)
from .space import (
    FINE_GRAIN_SLOTS,
    INDEX_BYTES,
    LOAD_SCHEMES,
    LUT_BYTES,
    OUTPUT_BYTES,
    TRAVERSALS,
    Mapping,
    buffer_bytes_required,
    enumerate_micro_kernels,
    enumerate_sub_lut_tilings,
    is_legal,
    num_pes_used,
)
from .store import (
    FORMAT_VERSION,
    MappingCache,
    mapping_from_dict,
    mapping_to_dict,
    platform_fingerprint,
)
from .tuner import (
    AutoTuner,
    TuneProgress,
    TuningResult,
    model_lut_shapes,
)

__all__ = [
    "Mapping",
    "is_legal",
    "num_pes_used",
    "buffer_bytes_required",
    "enumerate_sub_lut_tilings",
    "enumerate_micro_kernels",
    "LOAD_SCHEMES",
    "TRAVERSALS",
    "INDEX_BYTES",
    "LUT_BYTES",
    "OUTPUT_BYTES",
    "FINE_GRAIN_SLOTS",
    "estimate_latency",
    "search_micro_kernels",
    "tiling_fixed_terms",
    "tiling_lower_bound",
    "pipeline_overlap_hidden",
    "with_overlap",
    "LatencyBreakdown",
    "AutoTuner",
    "TuneProgress",
    "TuningResult",
    "MappingCache",
    "FORMAT_VERSION",
    "platform_fingerprint",
    "mapping_to_dict",
    "mapping_from_dict",
    "model_lut_shapes",
]
