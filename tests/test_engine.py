"""Unit + integration tests for the inference engines (graph, reports, runs)."""

import pytest

from repro.baselines import cpu_server_fp32, cpu_server_int8, wimpy_host
from repro.engine import (
    ATTENTION,
    ELEMENTWISE,
    GEMMPIMEngine,
    HostEngine,
    LINEAR,
    OperatorSpec,
    PIMDLEngine,
    layer_graph,
    model_graph,
)
from repro.pim import get_platform
from repro.workloads import bert_base


@pytest.fixture(scope="module")
def small_bert():
    # Scaled-down serving shape so tuner-backed tests stay fast.
    return bert_base(seq_len=128, batch_size=8)


@pytest.fixture(scope="module")
def upmem():
    return get_platform("upmem")


class TestGraph:
    def test_layer_graph_operator_set(self, small_bert):
        ops = layer_graph(small_bert)
        names = [op.name for op in ops]
        assert names == [
            "QKV", "Attention", "O", "Add&Norm-1",
            "FFN1", "GELU", "FFN2", "Add&Norm-2",
        ]

    def test_four_linears_per_layer(self, small_bert):
        ops = layer_graph(small_bert)
        linears = [op for op in ops if op.kind == LINEAR]
        assert [op.name for op in linears] == ["QKV", "O", "FFN1", "FFN2"]
        assert linears[0].f == 3 * small_bert.hidden_dim
        assert linears[2].f == small_bert.ffn_dim

    def test_model_graph_repeats_layers(self, small_bert):
        assert len(model_graph(small_bert)) == small_bert.num_layers * 8

    def test_linear_flops_formula(self, small_bert):
        qkv = layer_graph(small_bert)[0]
        n, h = small_bert.tokens, small_bert.hidden_dim
        assert qkv.flops == 2 * n * h * 3 * h

    def test_attention_scales_with_seq_squared(self):
        short = layer_graph(bert_base(seq_len=128, batch_size=8))
        long = layer_graph(bert_base(seq_len=256, batch_size=8))
        attn_s = next(op for op in short if op.kind == ATTENTION)
        attn_l = next(op for op in long if op.kind == ATTENTION)
        # 2x seq -> 2x tokens and 4x per-token scores -> ~4x flops at fixed N?
        # tokens also double, so total grows ~4x.
        assert attn_l.flops > 3.5 * attn_s.flops

    def test_operator_spec_validation(self):
        with pytest.raises(ValueError):
            OperatorSpec("x", "magic", 1.0, 1.0)
        with pytest.raises(ValueError):
            OperatorSpec("x", LINEAR, 1.0, 1.0)  # missing h/f


class TestHostEngine:
    def test_report_rollup(self, small_bert):
        rep = HostEngine(cpu_server_fp32()).run(small_bert)
        assert rep.total_s == pytest.approx(sum(op.seconds for op in rep.ops))
        assert rep.pim_s == 0.0
        assert rep.host_s == rep.total_s
        assert rep.energy.total_j > 0

    def test_int8_faster_than_fp32(self, small_bert):
        fp32 = HostEngine(cpu_server_fp32()).run(small_bert)
        int8 = HostEngine(cpu_server_int8()).run(small_bert)
        assert int8.total_s < fp32.total_s

    def test_category_breakdown_keys(self, small_bert):
        rep = HostEngine(cpu_server_fp32()).run(small_bert)
        breakdown = rep.per_category_seconds()
        assert set(breakdown) == {"gemm", ATTENTION, ELEMENTWISE}
        assert sum(breakdown.values()) == pytest.approx(rep.total_s)


class TestGEMMPIMEngine:
    def test_linears_on_pim_rest_on_host(self, small_bert, upmem):
        rep = GEMMPIMEngine(upmem, wimpy_host()).run(small_bert)
        pim_ops = [op for op in rep.ops if op.device == "pim"]
        assert len(pim_ops) == small_bert.num_layers * 4
        assert all(op.category == "gemm" for op in pim_ops)
        assert rep.pim_s > 0 and rep.host_s > 0

    def test_energy_includes_both_components(self, small_bert, upmem):
        rep = GEMMPIMEngine(upmem, wimpy_host()).run(small_bert)
        assert rep.energy.host_j > 0 and rep.energy.pim_j > 0


class TestPIMDLEngine:
    def test_linears_split_into_ccs_and_lut(self, small_bert, upmem):
        rep = PIMDLEngine(upmem, wimpy_host(), v=4, ct=16).run(small_bert)
        cats = rep.per_category_seconds()
        assert cats["ccs"] > 0 and cats["lut"] > 0
        lut_ops = [op for op in rep.ops if op.category == "lut"]
        assert len(lut_ops) == small_bert.num_layers * 4
        assert all(op.device == "pim" for op in lut_ops)

    def test_per_operator_names(self, small_bert, upmem):
        rep = PIMDLEngine(upmem, wimpy_host(), v=4, ct=16).run(small_bert)
        per_op = rep.per_operator()
        assert "QKV/LUT" in per_op and "QKV/CCS" in per_op

    def test_rejects_bad_hyperparams(self, upmem):
        with pytest.raises(ValueError):
            PIMDLEngine(upmem, wimpy_host(), v=0)

    def test_rejects_indivisible_hidden(self, upmem):
        engine = PIMDLEngine(upmem, wimpy_host(), v=5, ct=16)
        with pytest.raises(ValueError):
            engine.lut_shape(64, 768, 768)

    def test_beats_gemm_pim_by_an_order_of_magnitude(self, small_bert, upmem):
        """The paper's headline: 12.6x-18.9x over GEMM-on-PIM (Fig. 10)."""
        host = wimpy_host()
        gemm = GEMMPIMEngine(upmem, host).run(small_bert)
        pimdl = PIMDLEngine(upmem, host, v=4, ct=16).run(small_bert)
        assert gemm.total_s / pimdl.total_s > 8

    def test_larger_v_is_faster(self, small_bert, upmem):
        host = wimpy_host()
        v2 = PIMDLEngine(upmem, host, v=2, ct=16).run(small_bert)
        v4 = PIMDLEngine(upmem, host, v=4, ct=16).run(small_bert)
        assert v4.total_s < v2.total_s

    def test_smaller_ct_is_faster(self, small_bert, upmem):
        host = wimpy_host()
        ct8 = PIMDLEngine(upmem, host, v=4, ct=8).run(small_bert)
        ct32 = PIMDLEngine(upmem, host, v=4, ct=32).run(small_bert)
        assert ct8.total_s < ct32.total_s

    def test_throughput_property(self, small_bert, upmem):
        rep = PIMDLEngine(upmem, wimpy_host(), v=4, ct=16).run(small_bert)
        assert rep.throughput_inferences_per_s == pytest.approx(1.0 / rep.total_s)

    def test_hbm_pim_amortizes_lut_by_default(self, small_bert):
        hbm = get_platform("hbm-pim")
        from repro.baselines import a2_gpu

        engine = PIMDLEngine(hbm, a2_gpu(), v=4, ct=16)
        assert engine.tuner.amortize_lut_distribution
