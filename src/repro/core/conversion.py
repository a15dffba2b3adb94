"""LUT-NN converter front-end: turn a trained model's linear layers into LUTs.

Implements the conversion pipeline of paper Fig. 5: feed calibration data
through the model, record the input activations of every target linear layer,
cluster them into codebooks, and swap each ``Linear`` for a ``LUTLinear``
in place.  Calibration (Section 4.2) is handled separately by
:mod:`repro.core.calibration`.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..autograd import Tensor
from ..nn.layers import Linear
from ..nn.module import Module
from .lut_linear import LUTLinear

LayerFilter = Callable[[str, Linear], bool]


def encoder_linear_filter(name: str, layer: Linear) -> bool:
    """Default target filter: the four per-block linear layers of Fig. 6-(b).

    Matches QKV projections, O projections, FFN1, and FFN2 inside encoder
    stacks, while leaving poolers/classifier heads (and any linear outside an
    encoder) on the host — exactly the paper's replacement set.
    """
    return ".encoder." in f".{name}." or name.startswith("encoder.")


def find_target_linears(
    model: Module, layer_filter: Optional[LayerFilter] = None
) -> List[Tuple[str, Linear]]:
    """All (qualified_name, layer) pairs selected for LUT replacement."""
    layer_filter = layer_filter or encoder_linear_filter
    targets = []
    for name, module in model.named_modules():
        if isinstance(module, Linear) and name and layer_filter(name, module):
            targets.append((name, module))
    return targets


class ActivationRecorder:
    """Record the flattened input activations of selected linear layers.

    The module system has no forward hooks, so recording temporarily wraps
    each target layer's ``forward``; :meth:`restore` (or use as a context
    manager) puts the originals back.
    """

    def __init__(self, layers: Sequence[Tuple[str, Linear]], max_rows: int = 100_000):
        self.layers = list(layers)
        self.max_rows = max_rows
        self.records: Dict[str, List[np.ndarray]] = {name: [] for name, _ in layers}
        self._originals: Dict[str, Callable] = {}

    def __enter__(self) -> "ActivationRecorder":
        for name, layer in self.layers:
            original = layer.forward
            self._originals[name] = original

            def wrapped(x, _original=original, _name=name, _layer=layer):
                self._record(_name, x, _layer.in_features)
                return _original(x)

            layer.forward = wrapped
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        for name, layer in self.layers:
            if name in self._originals:
                self._originals.pop(name)
                # Remove the instance-level override so the class method
                # resolves again (restoring identity, not just behaviour).
                if "forward" in layer.__dict__:
                    del layer.__dict__["forward"]

    def _record(self, name: str, x, in_features: int) -> None:
        data = x.data if isinstance(x, Tensor) else np.asarray(x)
        flat = data.reshape(-1, in_features)
        stored = sum(r.shape[0] for r in self.records[name])
        room = self.max_rows - stored
        if room > 0:
            self.records[name].append(flat[:room].copy())

    def activations(self, name: str) -> np.ndarray:
        chunks = self.records[name]
        if not chunks:
            raise RuntimeError(f"no activations recorded for layer {name!r}")
        return np.concatenate(chunks, axis=0)


def record_activations(
    model: Module,
    forward_batches: Iterable,
    layers: Sequence[Tuple[str, Linear]],
    max_rows: int = 100_000,
) -> ActivationRecorder:
    """Run ``model`` over calibration batches while recording layer inputs.

    ``forward_batches`` yields arguments for ``model(...)`` — either a bare
    input or an (args tuple) — mirroring how the paper feeds <1% of the
    training set through the frozen network.
    """
    recorder = ActivationRecorder(layers, max_rows=max_rows)
    was_training = model.training
    model.eval()
    with recorder:
        for batch in forward_batches:
            if isinstance(batch, tuple):
                model(*batch)
            else:
                model(batch)
    if was_training:
        model.train()
    return recorder


def convert_to_lut_nn(
    model: Module,
    forward_batches: Iterable,
    v: int,
    ct: int,
    layer_filter: Optional[LayerFilter] = None,
    rng: Optional[np.random.Generator] = None,
    kmeans_iters: int = 25,
    centroid_init: str = "kmeans",
    max_rows: int = 100_000,
) -> List[Tuple[str, LUTLinear]]:
    """Convert every targeted ``Linear`` in ``model`` to a ``LUTLinear``.

    Returns the list of (qualified_name, new_layer) replacements.  The model
    is modified in place; each new layer starts in ``calibrate`` mode, ready
    for an eLUT-NN calibration pass.
    """
    targets = find_target_linears(model, layer_filter)
    if not targets:
        raise ValueError("no linear layers matched the conversion filter")
    return convert_with_plan(
        model,
        forward_batches,
        {name: (v, ct) for name, _ in targets},
        rng=rng,
        kmeans_iters=kmeans_iters,
        centroid_init=centroid_init,
        max_rows=max_rows,
    )


def convert_with_plan(
    model: Module,
    forward_batches: Iterable,
    plan: Dict[str, Tuple[int, int]],
    rng: Optional[np.random.Generator] = None,
    kmeans_iters: int = 25,
    centroid_init: str = "kmeans",
    max_rows: int = 100_000,
) -> List[Tuple[str, LUTLinear]]:
    """Convert with *per-layer* (V, CT) settings.

    ``plan`` maps qualified layer names to (V, CT) pairs — typically the
    assignment of :func:`repro.core.autoconfig.plan_layer_configs`.  Layers
    absent from the plan are left dense.  Layers are recorded together and
    converted in model order, drawing codebooks from ``rng`` in that order.
    """
    rng = rng or np.random.default_rng()
    targets = find_target_linears(model, lambda n, layer: n in plan)
    missing = set(plan) - {name for name, _ in targets}
    if missing:
        raise KeyError(f"plan references unknown linear layers: {sorted(missing)}")
    if not targets:
        raise ValueError("plan matched no linear layers")
    recorder = record_activations(model, forward_batches, targets, max_rows=max_rows)

    replacements: List[Tuple[str, LUTLinear]] = []
    for name, layer in targets:
        v, ct = plan[name]
        lut_layer = LUTLinear.from_linear(
            layer,
            recorder.activations(name),
            v=v,
            ct=ct,
            rng=rng,
            kmeans_iters=kmeans_iters,
            centroid_init=centroid_init,
            name=name,
        )
        model.replace_module(name, lut_layer)
        replacements.append((name, lut_layer))
    return replacements


def lut_layers(model: Module) -> List[Tuple[str, LUTLinear]]:
    """All ``LUTLinear`` layers in a converted model."""
    return [
        (name, module)
        for name, module in model.named_modules()
        if isinstance(module, LUTLinear)
    ]


def set_lut_mode(model: Module, mode: str) -> None:
    """Switch every ``LUTLinear`` in ``model`` to ``mode``."""
    for _, layer in lut_layers(model):
        layer.set_mode(mode)


def freeze_all_luts(model: Module, quantize_int8: bool = False) -> None:
    """Pre-compute deployment LUTs for every converted layer."""
    for _, layer in lut_layers(model):
        layer.freeze_lut(quantize_int8=quantize_int8)
