"""Serialization of converted LUT-NN models.

A deployed PIM-DL model ships three artifact groups (paper Fig. 5: the
converter hands "Codebooks, LUTs, Parameters" to the inference engine):

* the host-side parameters (every non-LUT weight, e.g. embeddings, norms,
  attention internals that stayed dense, classifier heads);
* per-layer codebooks (needed by the host CCS operator);
* per-layer quantized look-up tables + scales (loaded into PIM memory).

This module packs all of it into a single ``.npz`` archive and restores it
into a freshly constructed model of the same architecture.
"""

from __future__ import annotations

import json
from typing import Dict

import numpy as np

from ..nn.module import Module
from .conversion import lut_layers
from .lut_linear import LUTLinear
from .quantization import QuantizedLUT

FORMAT_VERSION = 1
_META_KEY = "__lutnn_meta__"


def save_lut_model(model: Module, path: str) -> str:
    """Serialize a converted (and ideally frozen) model to ``path``.

    Layers without a frozen LUT are frozen on the fly (INT8).  Returns the
    path written.
    """
    layers = lut_layers(model)
    if not layers:
        raise ValueError("model has no LUTLinear layers; nothing to export")

    arrays: Dict[str, np.ndarray] = {}
    meta = {"version": FORMAT_VERSION, "layers": {}}

    for name, param in model.named_parameters():
        arrays[f"param::{name}"] = param.data

    for name, layer in layers:
        if layer.quantized_lut is None:
            layer.freeze_lut(quantize_int8=True)
        qlut = layer.quantized_lut
        arrays[f"codebook::{name}"] = layer.centroids.data
        arrays[f"lut::{name}"] = qlut.values
        arrays[f"scale::{name}"] = qlut.scales
        meta["layers"][name] = {
            "v": layer.v,
            "ct": layer.ct,
            "in_features": layer.in_features,
            "out_features": layer.out_features,
        }

    arrays[_META_KEY] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    np.savez_compressed(path, **arrays)
    return path


def load_lut_model(model: Module, path: str) -> Module:
    """Restore a serialized LUT-NN model into ``model`` (same architecture).

    ``model`` must already be converted (contain ``LUTLinear`` layers with
    matching names and shapes) — typically by re-running the conversion on
    dummy data, or by constructing the architecture and calling
    :func:`~repro.core.conversion.convert_to_lut_nn` with any activations.
    The stored parameters, codebooks, and INT8 tables then overwrite the
    fresh ones.
    """
    with np.load(path) as archive:
        raw_meta = bytes(archive[_META_KEY].tobytes())
        meta = json.loads(raw_meta.decode("utf-8"))
        if meta.get("version") != FORMAT_VERSION:
            raise ValueError(f"unsupported LUT model version {meta.get('version')!r}")

        params = {name: p for name, p in model.named_parameters()}
        for key in archive.files:
            if not key.startswith("param::"):
                continue
            name = key[len("param::") :]
            if name not in params:
                raise KeyError(f"model has no parameter {name!r}")
            stored = archive[key]
            if stored.shape != params[name].data.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: "
                    f"{stored.shape} vs {params[name].data.shape}"
                )
            params[name].data = stored.copy()

        layers = dict(lut_layers(model))
        for name, info in meta["layers"].items():
            if name not in layers:
                raise KeyError(f"model has no LUTLinear layer {name!r}")
            layer: LUTLinear = layers[name]
            if (layer.v, layer.ct) != (info["v"], info["ct"]):
                raise ValueError(
                    f"layer {name!r} has (V, CT) = ({layer.v}, {layer.ct}), "
                    f"archive has ({info['v']}, {info['ct']})"
                )
            layer.centroids.data = archive[f"codebook::{name}"].copy()
            qlut = QuantizedLUT(
                values=archive[f"lut::{name}"].astype(np.int8),
                scales=archive[f"scale::{name}"].copy(),
            )
            layer._qlut = qlut
            layer._lut = None
            layer.set_mode("lut")
    return model


def archive_summary(path: str) -> dict:
    """Sizes (bytes) of each artifact group in a saved model."""
    with np.load(path) as archive:
        sizes = {"params": 0, "codebooks": 0, "luts": 0, "scales": 0}
        for key in archive.files:
            nbytes = archive[key].nbytes
            if key.startswith("param::"):
                sizes["params"] += nbytes
            elif key.startswith("codebook::"):
                sizes["codebooks"] += nbytes
            elif key.startswith("lut::"):
                sizes["luts"] += nbytes
            elif key.startswith("scale::"):
                sizes["scales"] += nbytes
        sizes["total"] = sum(sizes.values())
    return sizes
