"""INT8 quantization of look-up tables.

The paper deploys INT8-quantized LUTs on UPMEM ("we conduct INT8 quantization
on the LUTs, which reports <= 0.1% accuracy drop", Section 6.3).  Tables are
quantized symmetrically per codebook, which keeps the dequantized
accumulation a simple scaled integer sum on the PIM PEs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class QuantizedLUT:
    """Symmetric per-codebook INT8 quantization of a (CB, CT, F) table."""

    values: np.ndarray  # int8, (CB, CT, F)
    scales: np.ndarray  # float64, (CB,)

    def __post_init__(self) -> None:
        if self.values.dtype != np.int8:
            raise TypeError("quantized values must be int8")
        if self.scales.shape != (self.values.shape[0],):
            raise ValueError("one scale per codebook required")

    @property
    def nbytes(self) -> int:
        return self.values.nbytes + self.scales.nbytes

    def dequantize(self) -> np.ndarray:
        return self.values.astype(np.float64) * self.scales[:, None, None]


def quantize_lut(
    lut: np.ndarray, qmax: int = 127, per_codebook: bool = True
) -> QuantizedLUT:
    """Symmetric INT8 quantization.

    With ``per_codebook=True`` (default) each codebook slice ``lut[cb]`` is
    scaled by ``max(|lut[cb]|) / 127`` and rounded to int8 — per-codebook
    scaling bounds the quantization error of the accumulated output by the
    per-slice dynamic range rather than the global one.

    ``per_codebook=False`` uses one global scale for the whole table (the
    scales vector stays per-codebook shaped but holds one value).  That is
    slightly lossier.  Both layouts cost one reduction per row block in
    :func:`repro.kernels.lut_gather_reduce_quantized`: a shared scale sums
    the int8 entries *exactly* in int32 and dequantizes with a single
    multiply, per-codebook scales contract the widened block with the
    scale vector in float64.
    """
    lut = np.asarray(lut, dtype=np.float64)
    if lut.ndim != 3:
        raise ValueError("LUT must have shape (CB, CT, F)")
    if per_codebook:
        peaks = np.max(np.abs(lut), axis=(1, 2))
    else:
        peaks = np.full(lut.shape[0], np.max(np.abs(lut)))
    scales = np.where(peaks > 0.0, peaks / qmax, 1.0)
    q = np.clip(np.round(lut / scales[:, None, None]), -qmax, qmax).astype(np.int8)
    return QuantizedLUT(values=q, scales=scales)


def quantization_error(lut: np.ndarray, qlut: QuantizedLUT) -> float:
    """Max absolute elementwise dequantization error."""
    return float(np.max(np.abs(lut - qlut.dequantize())))
