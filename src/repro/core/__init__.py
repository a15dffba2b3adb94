"""PIM-DL core: LUT-NN conversion, inference operators, and calibration."""

from .analytics import (
    OpCounts,
    flop_reduction,
    gemm_arithmetic_intensity,
    gemm_ops,
    lut_arithmetic_intensity,
    lut_kernel_bytes,
    lut_memory_overhead,
    lut_storage_bytes,
    lutnn_ops,
)
from .calibration import (
    BaselineLUTNNCalibrator,
    CalibrationResult,
    ELUTNNCalibrator,
    evaluate_accuracy,
)
from .ccs import ccs_flops, closest_centroid_search, hard_replace, squared_distances
from .codebook import Codebooks, LUTShape
from .autoconfig import (
    DEFAULT_CANDIDATES,
    CandidatePoint,
    LayerConfigPlan,
    measure_candidates,
    plan_layer_configs,
    uniform_plan,
)
from .export import archive_summary, load_lut_model, save_lut_model
from .conversion import (
    ActivationRecorder,
    convert_to_lut_nn,
    convert_with_plan,
    encoder_linear_filter,
    find_target_linears,
    freeze_all_luts,
    lut_layers,
    record_activations,
    set_lut_mode,
)
from .kmeans import assign, kmeans, kmeans_columns, kmeans_plusplus_init
from .lut import build_lut, lut_bytes, lut_lookup, lut_matmul, reduce_flops
from .lut_linear import LUTLinear
from .quantization import QuantizedLUT, quantization_error, quantize_lut

__all__ = [
    "LUTShape",
    "Codebooks",
    "kmeans",
    "kmeans_columns",
    "kmeans_plusplus_init",
    "assign",
    "closest_centroid_search",
    "squared_distances",
    "hard_replace",
    "ccs_flops",
    "build_lut",
    "lut_lookup",
    "lut_matmul",
    "reduce_flops",
    "lut_bytes",
    "LUTLinear",
    "QuantizedLUT",
    "quantize_lut",
    "quantization_error",
    "convert_to_lut_nn",
    "convert_with_plan",
    "find_target_linears",
    "encoder_linear_filter",
    "record_activations",
    "ActivationRecorder",
    "lut_layers",
    "set_lut_mode",
    "freeze_all_luts",
    "ELUTNNCalibrator",
    "BaselineLUTNNCalibrator",
    "CalibrationResult",
    "evaluate_accuracy",
    "OpCounts",
    "gemm_ops",
    "lutnn_ops",
    "flop_reduction",
    "lut_arithmetic_intensity",
    "gemm_arithmetic_intensity",
    "lut_kernel_bytes",
    "lut_storage_bytes",
    "lut_memory_overhead",
    "save_lut_model",
    "load_lut_model",
    "archive_summary",
    "measure_candidates",
    "plan_layer_configs",
    "uniform_plan",
    "CandidatePoint",
    "LayerConfigPlan",
    "DEFAULT_CANDIDATES",
]
