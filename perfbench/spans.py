"""Per-layer spans for the traced run, and the self times they add up to.

The wrappers below open one span around each public call into a layer
(kernels, core, nn, engine, cluster, mapping, pim).  Spans go to a
private :class:`repro.obs.Tracer` that is never installed as the process
tracer, so the program's own telemetry keeps its default behaviour.

Metric semantics (all per timed call, averaged over the traced calls):

* ``kernels.*``, ``core.lut_linear_self_s``, ``engine.*``, ``cluster.*``,
  ``mapping.*`` and ``pim.sim_s`` are *self* times: the span minus the
  part its child spans cover.
* ``nn.<Op>_s`` is the time of one operator of
  ``repro.engine.graph.layer_graph`` (``Add&Norm`` renamed ``AddNorm``):
  the op's span minus the nested *op* spans, so a LUT op includes its
  CCS and gather work and the ``nn`` ops partition the call.
* ``core.record_s``/``codebooks_s``/``freeze_s`` and ``setup.*`` are
  whole-span times inside the traced set-up.
"""

from __future__ import annotations

import contextlib
import functools
from collections import defaultdict
from unittest import mock

from repro import obs
from repro.cluster import ClusterScheduler
from repro.core import conversion as conversion_module
from repro.core import lut_linear as lut_linear_module
from repro.core.codebook import Codebooks
from repro.core.lut_linear import LUTLinear
from repro.engine import (DisaggScheduler, EngineCostModel, LUTDecodeEngine,
                          PIMDLEngine, RequestScheduler)
from repro.kernels import CCSKernel
from repro.mapping import AutoTuner
from repro.nn.attention import KVCache, MultiHeadAttention
from repro.nn.models import DecoderLM
from repro.nn.module import Module
from repro.nn.transformer import EncoderLayer
from repro.obs import Histogram
from repro.pim import PIMSimulator

CALL_ROOT = "call"
SETUP_ROOT = "setup"
NN_PREFIX = "nn."

#: Last component of a module's qualified name -> layer_graph op name.
_NN_OPS = {
    "qkv": "QKV",
    "attention": "Attention",
    "out_proj": "O",
    "fc1": "FFN1",
    "act": "GELU",
    "fc2": "FFN2",
    "norm1": "AddNorm",
    "norm2": "AddNorm",
    "token_embed": "Embed",
    "embed_norm": "Embed",
    "pooler": "Head",
    "pool_act": "Head",
    "classifier": "Head",
    "norm": "Head",
    "lm_head": "Head",
}
NN_OP_NAMES = ("QKV", "Attention", "O", "FFN1", "GELU", "FFN2", "AddNorm",
               "Embed", "Head", "kv_append")


def nn_op_names(model: Module) -> dict:
    """``id(module) -> "nn.<Op>"`` for the operator modules of ``model``.

    An ``EncoderLayer`` itself maps to ``AddNorm``: its own code is the
    residual additions that feed the two LayerNorms.
    """
    names = {}
    for qualified, module in model.named_modules():
        if isinstance(module, EncoderLayer):
            names[id(module)] = NN_PREFIX + "AddNorm"
        elif qualified:
            op = _NN_OPS.get(qualified.rsplit(".", 1)[-1])
            if op is not None:
                names[id(module)] = NN_PREFIX + op
    return names


@contextlib.contextmanager
def layer_spans(tracer, models=()):
    """Wrap the layers' public calls in spans on ``tracer`` while active.

    ``models`` are the ``repro.nn`` modules whose operators get ``nn.*``
    spans (none for workloads that run no functional model).
    """
    nn_names = {}
    for model in models:
        nn_names.update(nn_op_names(model))

    with contextlib.ExitStack() as stack:
        def wrap(owner, attr, make):
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                new = classmethod(make(original.__func__))
            else:
                new = make(original)
            stack.enter_context(mock.patch.object(owner, attr, new))

        def span(owner, attr, name, annotate=None):
            def make(fn):
                @functools.wraps(fn)
                def wrapper(*args, **kwargs):
                    with tracer.span(name) as sp:
                        out = fn(*args, **kwargs)
                        if annotate is not None:
                            annotate(sp, args, out)
                    return out
                return wrapper
            wrap(owner, attr, make)

        # kernels: the gather functions under the names lut_linear calls.
        def gather_attrs(sp, args, out):
            values = getattr(args[1], "values", args[1])  # QuantizedLUT or table
            cb, _, f = values.shape
            sp.set_attribute("rows", out.shape[0])
            sp.set_attribute("bytes", out.shape[0] * cb * f * values.itemsize)

        def ccs_attrs(sp, args, out):
            x, centroids = args[1], args[2]
            sp.set_attribute("ops", 3 * x.shape[0] * x.shape[1] * centroids.shape[1])

        span(lut_linear_module, "lut_gather_reduce", "kernels.gather", gather_attrs)
        span(lut_linear_module, "lut_gather_reduce_quantized", "kernels.gather_int8",
             gather_attrs)
        span(CCSKernel, "search", "kernels.ccs", ccs_attrs)

        # core
        span(LUTLinear, "forward", "core.lut_linear")
        span(conversion_module, "record_activations", "core.record")
        span(Codebooks, "from_activations", "core.codebooks")
        span(LUTLinear, "freeze_lut", "core.freeze")

        # nn: operator modules by identity, plus the decode-path methods
        # that are called directly rather than through Module.__call__.
        def make_call(fn):
            @functools.wraps(fn)
            def wrapper(module, *args, **kwargs):
                name = nn_names.get(id(module))
                if name is None:
                    return fn(module, *args, **kwargs)
                with tracer.span(name):
                    return fn(module, *args, **kwargs)
            return wrapper

        wrap(Module, "__call__", make_call)
        span(EncoderLayer, "forward_incremental", NN_PREFIX + "AddNorm")
        span(MultiHeadAttention, "forward_incremental", NN_PREFIX + "Attention")
        span(KVCache, "append", NN_PREFIX + "kv_append")
        span(DecoderLM, "_embed", NN_PREFIX + "Embed")

        # engine + cluster.  The cost model has no hit counter, so a call
        # that grew its memo tables was a miss.
        def make_cost(fn):
            @functools.wraps(fn)
            def wrapper(cost, *args, **kwargs):
                before = len(cost._prefill_cache) + len(cost._decode_cache)
                with tracer.span("engine.cost") as sp:
                    out = fn(cost, *args, **kwargs)
                    after = len(cost._prefill_cache) + len(cost._decode_cache)
                    sp.set_attribute("miss", after > before)
                return out
            return wrapper

        def make_colocated(fn):
            # Replica runs inside a cluster belong to the cluster layer.
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                parent = tracer.current_span()
                in_cluster = parent is not None and parent.name == "cluster.run"
                with tracer.span("cluster.run" if in_cluster else "engine.colocated.run"):
                    return fn(*args, **kwargs)
            return wrapper

        wrap(EngineCostModel, "prefill_s", make_cost)
        wrap(EngineCostModel, "decode_step_s", make_cost)
        span(PIMDLEngine, "run", "engine.model")
        span(LUTDecodeEngine, "run", "engine.model")
        span(Histogram, "observe", "engine.result")
        span(Histogram, "percentile", "engine.result")
        span(DisaggScheduler, "run", "engine.disagg.run")
        wrap(RequestScheduler, "run", make_colocated)
        span(ClusterScheduler, "run", "cluster.run")

        # mapping + pim
        def make_tune(fn):
            @functools.wraps(fn)
            def wrapper(tuner, shape):
                memo_hits = obs.get_registry().counter("tuner.cache_hits")
                before = memo_hits.value
                with tracer.span("mapping.tune") as sp:
                    out = fn(tuner, shape)
                    hit = memo_hits.value > before
                    sp.set_attribute("hit", hit)
                    if not hit:
                        sp.set_attribute("candidates", out.candidates_evaluated)
                return out
            return wrapper

        wrap(AutoTuner, "tune", make_tune)
        span(PIMSimulator, "run", "pim.sim")
        yield


# ----------------------------------------------------------------------
# Self times and per-layer metrics
# ----------------------------------------------------------------------
def self_times(spans):
    """``{span_id: self seconds}``: each span minus its children's spans.

    Spans of one thread nest strictly, so the children's durations never
    overlap and their sum is the part of the parent they cover.
    """
    covered = defaultdict(float)
    for sp in spans:
        if sp.parent_id is not None:
            covered[sp.parent_id] += sp.duration_s
    return {sp.span_id: sp.duration_s - covered[sp.span_id] for sp in spans}


def _roots(spans):
    """``{span_id: root span}`` (a parent always finishes after its children)."""
    by_id = {sp.span_id: sp for sp in spans}
    root = {}
    for sp in reversed(spans):
        parent = by_id.get(sp.parent_id)
        root[sp.span_id] = sp if parent is None else root[parent.span_id]
    return root


def _nn_op_times(spans, by_id):
    """Per-op time: an ``nn.*`` span minus its nearest nested ``nn.*`` spans."""
    op_time = {}
    for sp in spans:
        if sp.name.startswith(NN_PREFIX):
            op_time[sp.span_id] = op_time.get(sp.span_id, 0.0) + sp.duration_s
            parent = by_id.get(sp.parent_id)
            while parent is not None and not parent.name.startswith(NN_PREFIX):
                parent = by_id.get(parent.parent_id)
            if parent is not None:
                op_time[parent.span_id] = op_time.get(parent.span_id, 0.0) - sp.duration_s
    return op_time


class LayerTotals:
    """Accumulates span statistics of the traced calls and the set-up."""

    def __init__(self):
        self.calls = 0
        self.call_self = defaultdict(float)   # span name -> self seconds
        self.call_count = defaultdict(int)    # span name -> spans
        self.nn_op = defaultdict(float)       # "nn.<Op>" -> op seconds
        self.attr = defaultdict(float)        # "<name>.<attr>" -> sum
        self.setup_inclusive = defaultdict(float)
        #: Sum of the self times of each traced call, in call order.
        self.call_self_sums = []

    def add(self, spans):
        """Fold one batch of finished spans (whole root trees) in."""
        if not spans:
            return
        by_id = {sp.span_id: sp for sp in spans}
        selfs = self_times(spans)
        roots = _roots(spans)
        op_time = _nn_op_times(spans, by_id)
        per_root = defaultdict(float)
        for sp in spans:
            root = roots[sp.span_id]
            per_root[root.span_id] += selfs[sp.span_id]
            if root.name == SETUP_ROOT:
                self.setup_inclusive[sp.name] += sp.duration_s
                if sp.name == "engine.cost" and sp.attributes.get("miss"):
                    self.setup_inclusive["engine.cost.miss"] += sp.duration_s
                continue
            self.call_self[sp.name] += selfs[sp.span_id]
            self.call_count[sp.name] += 1
            if sp.span_id in op_time:
                self.nn_op[sp.name] += op_time[sp.span_id]
            for key, value in sp.attributes.items():
                self.attr[f"{sp.name}.{key}"] += float(value)
            if sp.name == "engine.cost" and sp.attributes.get("miss"):
                self.attr["engine.cost.miss_s"] += sp.duration_s
            if sp.name == "mapping.tune" and not sp.attributes.get("hit"):
                self.attr["mapping.tune.miss_self_s"] += selfs[sp.span_id]
        for sp in spans:
            if sp.parent_id is None and sp.name == CALL_ROOT:
                self.calls += 1
                self.call_self_sums.append(per_root[sp.span_id])

    def metrics(self, counts):
        """Per-layer metrics; ``counts`` holds per-call step counts by kind."""
        n = max(self.calls, 1)

        def per_call(name):
            return self.call_self[name] / n

        def ratio(num, den):
            return num / den if den else 0.0

        gather_s = self.call_self["kernels.gather"]
        int8_s = self.call_self["kernels.gather_int8"]
        ccs_s = self.call_self["kernels.ccs"]
        gathers = self.call_count["kernels.gather"] + self.call_count["kernels.gather_int8"]
        rows = self.attr["kernels.gather.rows"] + self.attr["kernels.gather_int8.rows"]
        tune_calls = self.call_count["mapping.tune"]
        hits = self.attr["mapping.tune.hit"]
        cost_calls = self.call_count["engine.cost"]
        out = {
            "kernels.gather_s": gather_s / n,
            "kernels.gather_calls": self.call_count["kernels.gather"] / n,
            "kernels.gather_bytes_per_s": ratio(self.attr["kernels.gather.bytes"], gather_s),
            "kernels.ccs_s": ccs_s / n,
            "kernels.ccs_ops_per_s": ratio(self.attr["kernels.ccs.ops"], ccs_s),
            "kernels.gather_int8_s": int8_s / n,
            "kernels.gather_int8_calls": self.call_count["kernels.gather_int8"] / n,
            "kernels.rows_per_call": ratio(rows, gathers),
            "core.lut_linear_self_s": per_call("core.lut_linear"),
            "core.record_s": self.setup_inclusive["core.record"],
            "core.codebooks_s": self.setup_inclusive["core.codebooks"],
            "core.freeze_s": self.setup_inclusive["core.freeze"],
            "engine.colocated.run_s": per_call("engine.colocated.run"),
            "engine.colocated.step_us": 1e6 * ratio(
                per_call("engine.colocated.run"), counts.get("colocated", 0)),
            "engine.disagg.run_s": per_call("engine.disagg.run"),
            "engine.disagg.step_us": 1e6 * ratio(
                per_call("engine.disagg.run"), counts.get("disagg", 0)),
            "engine.cost.calls": cost_calls / n,
            "engine.cost.miss_ratio": ratio(self.attr["engine.cost.miss"], cost_calls),
            "engine.cost.miss_s": self.attr["engine.cost.miss_s"] / n,
            "engine.result_s": per_call("engine.result"),
            "engine.model_s": per_call("engine.model"),
            "cluster.run_s": per_call("cluster.run"),
            "cluster.step_us": 1e6 * ratio(per_call("cluster.run"), counts.get("cluster", 0)),
            "mapping.tune_s": per_call("mapping.tune"),
            "mapping.tune_calls": tune_calls / n,
            "mapping.candidates_per_s": ratio(
                self.attr["mapping.tune.candidates"], self.attr["mapping.tune.miss_self_s"]),
            "mapping.memo_hits": hits / n,
            "pim.sim_s": per_call("pim.sim"),
            "setup.mapping.tune_s": self.setup_inclusive["mapping.tune"],
            "setup.engine.cost.miss_s": self.setup_inclusive["engine.cost.miss"],
            "trace.unattributed_s": per_call(CALL_ROOT),
        }
        for op in NN_OP_NAMES:
            out[f"nn.{op}_s"] = self.nn_op[NN_PREFIX + op] / n
        return out
