"""Conformance of the hand-written operator graph with the model it prices.

Every modeled number is built on :func:`repro.engine.graph.layer_graph`,
which lists one encoder layer's operators by hand.  These tests run a small
dense :class:`~repro.nn.TextClassifier` forward, record what each encoder
layer executes (linear shapes and FLOPs, the attention matmuls, GELU
elements and the two norms, in order), and hold the graph of the matching
:class:`~repro.workloads.configs.TransformerConfig` to that record.
"""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.engine.graph import ATTENTION, LINEAR, layer_graph
from repro.nn import GELU, EncoderLayer, LayerNorm, Linear, TextClassifier
from repro.workloads.configs import TransformerConfig

CONFIG = TransformerConfig(
    name="tiny-encoder", num_layers=2, hidden_dim=32, num_heads=4,
    ffn_dim=128, seq_len=8, batch_size=3,
)
N = CONFIG.batch_size * CONFIG.seq_len
SCORE_FLOPS = (
    2.0 * CONFIG.batch_size * CONFIG.num_heads * CONFIG.seq_len ** 2 * CONFIG.head_dim
)


@pytest.fixture(scope="module")
def executed():
    """Per encoder layer, the operators its forward ran, in order."""
    model = TextClassifier(
        vocab_size=50, max_seq_len=CONFIG.seq_len, num_classes=3,
        dim=CONFIG.hidden_dim, num_layers=CONFIG.num_layers,
        num_heads=CONFIG.num_heads,
        mlp_ratio=CONFIG.ffn_dim // CONFIG.hidden_dim,
        rng=np.random.default_rng(0),
    ).eval()
    layers = []
    # The open encoder layer's events, and the Linear whose weight matmul
    # runs now; matmuls outside a Linear are the attention's.
    state = {"layer": None, "linear": None}

    def record(event):
        if state["layer"] is not None:
            state["layer"].append(event)
        return event

    def layer(original, self, x, **kwargs):
        state["layer"] = []
        try:
            return original(self, x, **kwargs)
        finally:
            layers.append(state["layer"])
            state["layer"] = None

    def linear(original, self, x):
        state["linear"] = record({"op": "linear", "in": self.in_features,
                                  "out": self.out_features, "flops": 0})
        try:
            return original(self, x)
        finally:
            state["linear"] = None

    def matmul(original, self, other):
        out = original(self, other)
        flops = 2 * out.data.size * self.data.shape[-1]
        if state["linear"] is not None:
            state["linear"]["flops"] += flops
        else:
            record({"op": "matmul", "flops": flops})
        return out

    def elementwise(op):
        def wrapped(original, self, x):
            record({"op": op, "elements": x.data.size})
            return original(self, x)
        return wrapped

    recorders = [
        (EncoderLayer, "forward", layer),
        (Linear, "forward", linear),
        (Tensor, "matmul", matmul),
        (GELU, "forward", elementwise("gelu")),
        (LayerNorm, "forward", elementwise("norm")),
    ]
    tokens = np.random.default_rng(1).integers(
        0, 50, size=(CONFIG.batch_size, CONFIG.seq_len)
    )
    with pytest.MonkeyPatch.context() as patch:
        for cls, name, recorder in recorders:
            original = getattr(cls, name)
            patch.setattr(
                cls, name,
                lambda self, *a, _o=original, _r=recorder, **kw: _r(_o, self, *a, **kw),
            )
        model(tokens)
    assert len(layers) == CONFIG.num_layers
    return layers


@pytest.fixture(scope="module")
def graph():
    return layer_graph(CONFIG)


def _ops(events, op):
    return [e for e in events if e["op"] == op]


def test_linear_shapes_in_order(executed, graph):
    linears = [op for op in graph if op.kind == LINEAR]
    assert [op.name for op in linears] == ["QKV", "O", "FFN1", "FFN2"]
    for events in executed:
        ran = [(e["in"], e["out"]) for e in _ops(events, "linear")]
        assert ran == [(op.h, op.f) for op in linears]


def test_linear_flops_are_2nhf(executed, graph):
    linears = [op for op in graph if op.kind == LINEAR]
    for events in executed:
        for op, event in zip(linears, _ops(events, "linear")):
            assert op.flops == event["flops"] == 2 * N * op.h * op.f, op.name


def test_gelu_covers_n_by_ffn(executed, graph):
    (gelu,) = [op for op in graph if op.name == "GELU"]
    for events in executed:
        (event,) = _ops(events, "gelu")
        assert event["elements"] == gelu.flops == N * CONFIG.ffn_dim


def test_attention_matmuls_total_twice_score_flops(executed, graph):
    (attention,) = [op for op in graph if op.kind == ATTENTION]
    softmax_elems = CONFIG.batch_size * CONFIG.num_heads * CONFIG.seq_len ** 2
    assert attention.flops - 5.0 * softmax_elems == 2 * SCORE_FLOPS
    for events in executed:
        matmuls = _ops(events, "matmul")
        assert len(matmuls) == 2  # scores QK^T and context AV
        assert sum(e["flops"] for e in matmuls) == 2 * SCORE_FLOPS


def test_operator_order(executed, graph):
    """Attention follows QKV and Add&Norm-1 follows O, in the graph and in
    the forward: the executed operators, named in graph terms, are the
    graph's sequence."""
    names = [op.name for op in graph]
    assert names.index("Attention") == names.index("QKV") + 1
    assert names.index("Add&Norm-1") == names.index("O") + 1
    for events in executed:
        linear_names = iter(["QKV", "O", "FFN1", "FFN2"])
        norm_names = iter(["Add&Norm-1", "Add&Norm-2"])
        ran = []
        for event in events:
            if event["op"] == "linear":
                name = next(linear_names)
            elif event["op"] == "norm":
                name = next(norm_names)
            else:
                name = {"matmul": "Attention", "gelu": "GELU"}[event["op"]]
            if not ran or ran[-1] != name:
                ran.append(name)
        assert ran == names
