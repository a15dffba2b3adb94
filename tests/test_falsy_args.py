"""Regression tests for the falsy-argument sweep.

Several call sites used Python truthiness (``if args.layers:``,
``dtype_bytes or platform...``) to detect "flag not given", which makes
an explicit ``0`` indistinguishable from absent — the option is silently
ignored instead of rejected.  These tests pin the fixed behavior:
presence is resolved with ``is None``, and explicit non-positive values
are hard errors (CLI exit code 2, or ``ValueError`` at the library
layer).
"""

import numpy as np
import pytest

from repro import cli, obs
from repro.baselines import wimpy_host
from repro.cli import _apply_layers_override, _resolve_slo_s
from repro.core import Codebooks, quantize_lut
from repro.engine import LUTDecodeEngine, PIMDLEngine
from repro.kernels import (DEFAULT_BLOCK_ROWS, lut_gather_reduce,
                           lut_gather_reduce_quantized)
from repro.obs import Tracer
from repro.pim import get_platform
from repro.pim.gemm_kernels import gemm_on_pim, gemv_sequence_on_pim
from repro.workloads import bert_base


class TestHelpers:
    def test_layers_none_keeps_config(self):
        config = bert_base()
        assert _apply_layers_override(config, None) is config

    def test_layers_positive_overrides(self):
        config = _apply_layers_override(bert_base(), 3)
        assert config.num_layers == 3

    @pytest.mark.parametrize("bad", [0, -1])
    def test_layers_nonpositive_rejected(self, bad):
        with pytest.raises(ValueError, match="--layers"):
            _apply_layers_override(bert_base(), bad)

    def test_slo_none_uses_default(self):
        assert _resolve_slo_s(None, 1.5, "--slo-ttft-ms") == 1.5

    def test_slo_value_converts_ms(self):
        assert _resolve_slo_s(250.0, 1.5, "--slo-ttft-ms") == 0.25

    @pytest.mark.parametrize("bad", [0.0, -5.0])
    def test_slo_nonpositive_rejected(self, bad):
        with pytest.raises(ValueError, match="--slo-e2e-ms"):
            _resolve_slo_s(bad, 1.5, "--slo-e2e-ms")


class TestCLIZeroFlags:
    """``--layers 0`` / ``--slo-*-ms 0`` must exit 2, never run silently."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["faults", "--layers", "0"],
            ["serve-sim", "--layers", "0"],
            ["serve-cluster", "--layers", "0"],
            ["serve-disagg", "--layers", "0"],
            ["moe", "--layers", "0"],
        ],
    )
    def test_zero_layers_exits_2(self, argv, capsys):
        assert cli.main(argv) == 2
        assert "--layers" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["serve-sim", "serve-cluster", "serve-disagg"])
    @pytest.mark.parametrize("flag", ["--slo-ttft-ms", "--slo-e2e-ms"])
    def test_zero_slo_exits_2(self, command, flag, capsys):
        argv = [command, "--layers", "1", flag, "0"]
        assert cli.main(argv) == 2
        assert flag in capsys.readouterr().err

    def test_zero_shards_exits_2(self, capsys):
        """A single ``serve-cluster`` run never simulates unsharded."""
        argv = ["serve-cluster", "--layers", "1", "--requests", "4",
                "--shards", "0", "--json"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert "shards must be >= 1" in captured.err
        assert captured.out == ""


class TestClusterShards:
    @pytest.mark.parametrize("bad", [0, -2])
    def test_nonpositive_shards_rejected(self, bad):
        from repro.baselines import wimpy_host
        from repro.cluster import ClusterScheduler
        from repro.engine import GenerationServer
        from repro.workloads import opt_style

        server = GenerationServer(get_platform("upmem"), wimpy_host())
        with pytest.raises(ValueError, match="shards must be >= 1"):
            ClusterScheduler(server, opt_style(256), shards=bad)


class TestKernelDtypeBytes:
    """``dtype_bytes=0`` must raise, not silently fall back to the platform."""

    @pytest.fixture(scope="class")
    def upmem(self):
        return get_platform("upmem")

    def test_gemm_zero_dtype_bytes_rejected(self, upmem):
        with pytest.raises(ValueError, match="dtype_bytes"):
            gemm_on_pim(upmem, 64, 64, 64, dtype_bytes=0)

    def test_gemv_zero_dtype_bytes_rejected(self, upmem):
        with pytest.raises(ValueError, match="dtype_bytes"):
            gemv_sequence_on_pim(upmem, 4, 64, 64, dtype_bytes=0)

    def test_default_uses_platform_bytes(self, upmem):
        explicit = gemm_on_pim(upmem, 64, 64, 64,
                               dtype_bytes=upmem.gemm_dtype_bytes)
        assert gemm_on_pim(upmem, 64, 64, 64).total == explicit.total


class TestTracerMaxSpans:
    """``max_spans=0`` must raise: ``obs.reset`` used to install the
    default buffer for it, and ``Tracer`` to silently record nothing."""

    @pytest.mark.parametrize("bad", [0, -3])
    def test_tracer_rejects_nonpositive_max_spans(self, bad):
        with pytest.raises(ValueError, match="max_spans must be positive"):
            Tracer(max_spans=bad)

    @pytest.mark.parametrize("bad", [0, -3])
    def test_reset_rejects_nonpositive_max_spans_before_clearing(self, bad):
        try:
            obs.reset()
            obs.get_registry().counter("kept").inc()
            with pytest.raises(ValueError, match="max_spans must be positive"):
                obs.reset(max_spans=bad)
            assert obs.get_registry().counter("kept").value == 1.0
        finally:
            obs.reset()

    @pytest.mark.parametrize("max_spans, kept", [(2, "bc"), (None, "abc")])
    def test_reset_bounds_the_span_buffer(self, max_spans, kept):
        try:
            obs.reset(max_spans=max_spans)
            for name in "abc":
                with obs.get_tracer().span(name):
                    pass
            names = [sp.name for sp in obs.get_tracer().finished_spans()]
            assert names == list(kept)
        finally:
            obs.reset()


class TestGatherBlockRows:
    """``block_rows=0`` used to become the default; a negative value made
    the float gather return its uninitialised output (the row loop never
    ran) and was clamped to 1 by the INT8 gather.  Both now raise, as
    ``CCSKernel`` does; ``None`` keeps the default."""

    @pytest.fixture(scope="class")
    def problem(self):
        rng = np.random.default_rng(0)
        lut = rng.normal(size=(3, 4, 5))
        idx = rng.integers(0, 4, size=(7, 3)).astype(np.int32)
        return idx, lut

    @pytest.mark.parametrize("bad", [0, -1])
    def test_float_gather_rejects_nonpositive(self, problem, bad):
        idx, lut = problem
        with pytest.raises(ValueError, match="block_rows must be positive"):
            lut_gather_reduce(idx, lut, block_rows=bad)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_int8_gather_rejects_nonpositive(self, problem, bad):
        idx, lut = problem
        with pytest.raises(ValueError, match="block_rows must be positive"):
            lut_gather_reduce_quantized(idx, quantize_lut(lut), block_rows=bad)

    def test_none_keeps_default(self, problem):
        idx, lut = problem
        qlut = quantize_lut(lut)
        np.testing.assert_array_equal(
            lut_gather_reduce(idx, lut, block_rows=None),
            lut_gather_reduce(idx, lut, block_rows=DEFAULT_BLOCK_ROWS))
        np.testing.assert_array_equal(
            lut_gather_reduce_quantized(idx, qlut, block_rows=None),
            lut_gather_reduce_quantized(idx, qlut, block_rows=DEFAULT_BLOCK_ROWS))


class TestLUTEngineHyperParameters:
    """Non-positive ``v`` / ``ct`` fail when a LUT engine is built.

    ``LUTDecodeEngine(v=0)`` used to construct and then raise
    ``ZeroDivisionError`` inside ``run``.
    """

    @pytest.mark.parametrize("engine", [PIMDLEngine, LUTDecodeEngine])
    @pytest.mark.parametrize("v,ct", [(0, 16), (-4, 16), (4, 0), (4, -1)])
    def test_nonpositive_v_or_ct_rejected(self, engine, v, ct):
        with pytest.raises(ValueError, match="v and ct must be positive"):
            engine(get_platform("upmem"), wimpy_host(), v=v, ct=ct)


class TestCodebookHyperParameters:
    """Non-positive ``v`` / ``ct`` fail on entry to both codebook constructors.

    ``v=0`` used to raise ``ZeroDivisionError`` in both,
    ``random_init(ct=0)`` returned a (CB, 0, V) codebook, and negative
    values failed inside numpy reshapes with unrelated messages.
    """

    @pytest.mark.parametrize("build", ["from_activations", "random_init"])
    @pytest.mark.parametrize("v,ct", [(0, 4), (-2, 4), (2, 0), (2, -1)])
    def test_nonpositive_v_or_ct_rejected(self, build, v, ct):
        acts = np.random.default_rng(0).normal(size=(16, 8))
        with pytest.raises(ValueError, match="V and CT must be positive"):
            getattr(Codebooks, build)(acts, v=v, ct=ct,
                                      rng=np.random.default_rng(1))
