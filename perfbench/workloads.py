"""The benchmark's four seeded workloads.

Each workload builds every input from its seed, exposes one timed
``call``, counts the items a call completes, and checks the call's
outputs.  A *round* is ``calls_per_round`` calls; the harness always
times whole rounds so every run times the same mix of calls.
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np

from repro.baselines import wimpy_host
from repro.cluster import ClusterScheduler
from repro.core import convert_to_lut_nn, freeze_all_luts, lut_layers, set_lut_mode
from repro.core import lut_linear as lut_linear_module
from repro.engine import (DisaggScheduler, GenerationServer, PIMDLEngine, Request,
                          RequestScheduler, SchedulerPolicy, poisson_requests)
from repro.kernels import CCSKernel
from repro.kernels.reference import (ccs_reference, lut_lookup_reference,
                                     squared_distances_reference)
from repro.mapping import is_legal, model_lut_shapes
from repro.nn.models import DecoderLM, TextClassifier
from repro.pim import PIMSimulator, get_platform
from repro.workloads import EVAL_MODELS

V, CT = 4, 16
#: Rows per block when comparing a gather with the reference, which
#: materializes an (N, CB, F) float64 array.
_REFERENCE_ROWS = 64
#: Modeled and quality metrics a workload may leave unset (they read 0).
WORKLOAD_METRICS = (
    "lut_rel_error", "modeled_latency_s", "modeled_goodput_rps",
    "modeled_ttft_p99_s", "modeled_tpot_p99_s", "engine.phase_residual_s",
    "pim.sim_vs_model_err_avg", "pim.sim_vs_model_err_max",
    *(f"modeled.{kind}.{what}" for kind in ("colocated", "disagg", "cluster")
      for what in ("goodput_rps", "ttft_p99_s")),
    *(f"modeled.{platform}.{model}_s" for platform in ("upmem", "hbm-pim", "aim")
      for model in EVAL_MODELS),
)


class Workload:
    """One seeded workload; ``tiny`` shrinks every size for the self-test."""

    name = ""
    item = ""
    calls_per_round = 1

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny

    def setup(self) -> None:
        """Build the state the calls use (timed as ``setup_s``)."""
        raise NotImplementedError

    def verify(self):
        """Failures of the untimed verified call; None if there is none."""
        return None

    def call(self, index: int):
        raise NotImplementedError

    def items(self, output) -> int:
        raise NotImplementedError

    def check(self, output) -> list:
        """Failed output checks of one timed call."""
        return []

    def models(self) -> list:
        """``repro.nn`` models whose operators get ``nn.*`` spans."""
        return []

    def step_counts(self) -> dict:
        """Scheduler steps of one call, by scheduler kind."""
        return {}

    def report(self) -> dict:
        """Modeled and quality metrics of the run."""
        return {}


# ----------------------------------------------------------------------
# LUT-NN functional model (lut-prefill, lut-decode)
# ----------------------------------------------------------------------
class ReferenceCheck(contextlib.ExitStack):
    """Compares every CCS and gather call with ``repro.kernels.reference``.

    CCS indices must equal :func:`ccs_reference` except at exact distance
    ties; each gather output must match :func:`lut_lookup_reference` on
    the layer's table (the dequantized table for INT8 LUTs).
    """

    def __enter__(self):
        super().__enter__()
        self.failures = []
        self.ccs_calls = 0
        self.gather_calls = 0
        search = CCSKernel.search

        def checked_search(kernel, x, centroids, *args, **kwargs):
            indices = search(kernel, x, centroids, *args, **kwargs)
            self.ccs_calls += 1
            if not _ccs_matches(x, centroids, indices):
                self.failures.append(f"CCS indices differ from ccs_reference ({x.shape})")
            return indices

        def checked(gather, as_table):
            def checked_gather(indices, table, *args, **kwargs):
                out = gather(indices, table, *args, **kwargs)
                self.gather_calls += 1
                if not _gather_matches(indices, as_table(table), out):
                    self.failures.append(
                        f"gather output differs from lut_lookup_reference ({out.shape})")
                return out
            return checked_gather

        self.enter_context(mock.patch.object(CCSKernel, "search", checked_search))
        self.enter_context(mock.patch.object(
            lut_linear_module, "lut_gather_reduce",
            checked(lut_linear_module.lut_gather_reduce, lambda table: table)))
        self.enter_context(mock.patch.object(
            lut_linear_module, "lut_gather_reduce_quantized",
            checked(lut_linear_module.lut_gather_reduce_quantized,
                    lambda qlut: qlut.dequantize())))
        return self


def _ccs_matches(x, centroids, indices) -> bool:
    expected = ccs_reference(x, centroids)
    rows, books = np.nonzero(expected != indices)
    if rows.size == 0:
        return True
    dists = squared_distances_reference(x, centroids)[rows, books]
    got = dists[np.arange(rows.size), indices[rows, books]]
    want = dists[np.arange(rows.size), expected[rows, books]]
    return bool(np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, np.abs(want))))


def _gather_matches(indices, table, out) -> bool:
    for start in range(0, indices.shape[0], _REFERENCE_ROWS):
        block = slice(start, start + _REFERENCE_ROWS)
        expected = lut_lookup_reference(indices[block], table)
        scale = max(1.0, float(np.abs(expected).max(initial=0.0)))
        if not np.allclose(out[block], expected, rtol=1e-9, atol=1e-9 * scale):
            return False
    return True


def _relative_error(approx, exact) -> float:
    return float(np.linalg.norm(approx - exact) / np.linalg.norm(exact))


class LUTPrefill(Workload):
    """One forward of a LUT-converted TextClassifier on a token batch."""

    name = "lut-prefill"
    item = "input token"

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        if tiny:
            self.vocab, self.seq, self.batch = 100, 16, 2
            self.dims = dict(dim=32, num_layers=1, num_heads=2)
            self.kmeans_iters = 3
        else:
            self.vocab, self.seq, self.batch = 1000, 128, 8
            self.dims = dict(dim=256, num_layers=4, num_heads=4)
            self.kmeans_iters = 10
        self.calib_seqs = 2  # 2 x seq calibration rows
        self.model = None

    def setup(self):
        rng = np.random.default_rng(self.seed)
        model = TextClassifier(self.vocab, self.seq, num_classes=8, mlp_ratio=4,
                               rng=rng, **self.dims)
        model.eval()
        calib = rng.integers(0, self.vocab, size=(self.calib_seqs, self.seq))
        convert_to_lut_nn(model, [calib], v=V, ct=CT, rng=rng,
                          kmeans_iters=self.kmeans_iters,
                          max_rows=self.calib_seqs * self.seq)
        freeze_all_luts(model)
        set_lut_mode(model, "lut")
        self.tokens = rng.integers(0, self.vocab, size=(self.batch, self.seq))
        self.model = model

    def _forward(self):
        return self.model(self.tokens).data

    def verify(self):
        with ReferenceCheck() as ref:
            self.expected = self._forward()
        failures = list(ref.failures)
        if ref.ccs_calls != len(lut_layers(self.model)):
            failures.append(f"{ref.ccs_calls} CCS calls for "
                            f"{len(lut_layers(self.model))} LUT layers")
        set_lut_mode(self.model, "exact")
        exact = self._forward()
        set_lut_mode(self.model, "lut")
        self.rel_error = _relative_error(self.expected, exact)
        if not np.isfinite(self.rel_error):
            failures.append("LUT logits are not finite")
        return failures

    def call(self, index):
        return self._forward()

    def items(self, output):
        return self.tokens.size

    def check(self, output):
        if not np.array_equal(output, self.expected):
            return ["logits differ from the verified call"]
        return []

    def models(self):
        return [self.model]

    def report(self):
        return {"lut_rel_error": self.rel_error}


class LUTDecode(LUTPrefill):
    """Cached greedy generation of a DecoderLM on INT8 per-codebook LUTs."""

    name = "lut-decode"
    item = "generated token"

    def __init__(self, seed, tiny=False):
        Workload.__init__(self, seed, tiny)
        if tiny:
            self.vocab, self.batch, self.prompt_len, self.new_tokens = 100, 2, 8, 4
            self.dims = dict(dim=32, num_layers=1, num_heads=2)
            self.kmeans_iters = 3
            self.calib_shape = (2, 12)
        else:
            self.vocab, self.batch, self.prompt_len, self.new_tokens = 1000, 4, 32, 64
            self.dims = dict(dim=256, num_layers=4, num_heads=4)
            self.kmeans_iters = 10
            self.calib_shape = (4, 64)  # 256 calibration rows
        self.model = None

    def setup(self):
        rng = np.random.default_rng(self.seed)
        model = DecoderLM(self.vocab, self.prompt_len + self.new_tokens, mlp_ratio=4,
                          rng=rng, **self.dims)
        model.eval()
        calib = rng.integers(0, self.vocab, size=self.calib_shape)
        convert_to_lut_nn(model, [calib], v=V, ct=CT, rng=rng,
                          kmeans_iters=self.kmeans_iters, max_rows=calib.size)
        freeze_all_luts(model, quantize_int8=True)
        set_lut_mode(model, "lut")
        self.prompt = rng.integers(0, self.vocab, size=(self.batch, self.prompt_len))
        self.model = model

    def _generate(self):
        return self.model.generate(self.prompt, self.new_tokens, use_cache=True)

    def verify(self):
        with ReferenceCheck() as ref:
            self.expected = self._generate()
        failures = list(ref.failures)
        if ref.gather_calls == 0:
            failures.append("no LUT gather ran")
        tokens = self.expected[:, :-1]
        lut_logits = self.model(tokens).data
        set_lut_mode(self.model, "exact")
        exact = self.model(tokens).data
        set_lut_mode(self.model, "lut")
        self.rel_error = _relative_error(lut_logits, exact)
        if not np.isfinite(self.rel_error):
            failures.append("LUT logits are not finite")
        return failures

    def call(self, index):
        return self._generate()

    def items(self, output):
        return self.batch * self.new_tokens

    def check(self, output):
        if not np.array_equal(output, self.expected):
            return ["greedy tokens differ from the verified call"]
        return []


# ----------------------------------------------------------------------
# Serving replay (serve-stream)
# ----------------------------------------------------------------------
_KINDS = ("colocated", "disagg", "cluster")


def _fingerprint(results) -> tuple:
    return tuple(
        (r.completed, r.rejected, getattr(r, "shed", 0), r.steps, r.makespan_s,
         r.busy_s, r.goodput_rps, r.ttft_p99_s, r.tpot_p99_s, r.e2e_p99_s)
        for r in (results[kind] for kind in _KINDS)
    )


class ServeStream(Workload):
    """Replay of one seeded request stream through three schedulers."""

    name = "serve-stream"
    item = "simulated request"

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        if tiny:
            self.requests, self.prompts, self.gens = 40, (64,), (4, 8)
        else:
            self.requests, self.prompts, self.gens = 2000, (64, 128, 256), (16, 32, 64)
        self.rho = 1.4

    def setup(self):
        config = EVAL_MODELS["bert-base"].with_(num_layers=1)
        server = GenerationServer(get_platform("upmem"), wimpy_host())
        for prompt in self.prompts:
            server.warmup(config, prompt_len=prompt, batch_size=1)
        # Load and SLOs are set against the unloaded median request, as
        # the serve-sim CLI does.
        probe = Request(request_id=-1, arrival_s=0.0,
                        prompt_len=int(np.median(self.prompts)),
                        generate_len=int(np.median(self.gens)))
        base = RequestScheduler(server, config)
        service_s = base.fifo_service_time(probe)
        policy = SchedulerPolicy(
            max_batch_size=8,
            slo_ttft_s=2.5 * base.cost.prefill_s(probe.prompt_len),
            slo_e2e_s=2.5 * service_s,
        )
        colocated = RequestScheduler(server, config, policy=policy)
        colocated.cost = base.cost
        disagg = DisaggScheduler(server, config, policy=policy, placement="hybrid")
        disagg.cost = disagg.prefill_cost = base.cost
        cluster = ClusterScheduler(server, config, replicas=2, policy=policy,
                                   router="p2c", seed=self.seed, cost_model=base.cost)
        self.schedulers = dict(zip(_KINDS, (colocated, disagg, cluster)))
        self.stream = poisson_requests(
            self.requests, self.rho / service_s, prompt_len=list(self.prompts),
            generate_len=list(self.gens), seed=self.seed)
        # One unmeasured replay fills the cost-model memos.
        self.expected = _fingerprint(self.call(0))

    def verify(self):
        return self.check(self.last)

    def call(self, index):
        results = {kind: sched.run(self.stream) for kind, sched in self.schedulers.items()}
        self.last = results
        return results

    def items(self, output):
        return len(_KINDS) * len(self.stream)

    def check(self, results):
        failures = []
        for kind, result in results.items():
            done = result.completed + result.rejected + getattr(result, "shed", 0)
            if done != len(self.stream):
                failures.append(f"{kind}: {done} of {len(self.stream)} requests accounted")
        for kind in ("colocated", "disagg"):
            if _phase_residual(results[kind]) > 1e-9:
                failures.append(f"{kind}: phase seconds do not partition busy_s")
        if _fingerprint(results) != self.expected:
            failures.append("modeled results differ from the set-up replay")
        return failures

    def step_counts(self):
        return {kind: result.steps for kind, result in self.last.items()}

    def report(self):
        colocated = self.last["colocated"]
        out = {
            "modeled_goodput_rps": colocated.goodput_rps,
            "modeled_ttft_p99_s": colocated.ttft_p99_s,
            "modeled_tpot_p99_s": colocated.tpot_p99_s,
            "engine.phase_residual_s": max(
                _phase_residual(self.last[kind]) for kind in ("colocated", "disagg")),
        }
        for kind, result in self.last.items():
            out[f"modeled.{kind}.goodput_rps"] = result.goodput_rps
            out[f"modeled.{kind}.ttft_p99_s"] = result.ttft_p99_s
        return out


def _phase_residual(result) -> float:
    return abs(sum(result.phase_seconds.values()) - result.busy_s)


# ----------------------------------------------------------------------
# Cold tuning of the paper's models (tune-eval)
# ----------------------------------------------------------------------
class TuneEval(Workload):
    """Cold PIMDLEngine runs of the paper's models on three platforms."""

    name = "tune-eval"
    item = "LUT shape tuned"
    PLATFORMS = ("upmem", "hbm-pim", "aim")

    def __init__(self, seed, tiny=False):
        # No tiny variant: on small shapes fixed overheads dominate and the
        # analytical model leaves the Fig. 13 error bounds.
        super().__init__(seed, tiny)
        self.pairs = [(p, m) for p in self.PLATFORMS for m in EVAL_MODELS]
        self.calls_per_round = len(self.pairs)
        self.order = np.random.default_rng(seed).permutation(len(self.pairs))
        self.modeled = {}
        self.upmem_errors = {}

    def setup(self):
        # Nothing to build: set-up is importing the package in a fresh
        # interpreter, which every tuning session pays.
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        subprocess.run(
            [sys.executable, "-c",
             "import repro.engine, repro.mapping, repro.pim, repro.baselines"],
            check=True, env=env, cwd=root, timeout=120)

    def call(self, index):
        platform_name, model = self.pairs[self.order[index % len(self.pairs)]]
        platform = get_platform(platform_name)
        config = EVAL_MODELS[model]
        engine = PIMDLEngine(platform, wimpy_host(), v=V, ct=CT)
        total_s = engine.run(config).total_s
        simulator = PIMSimulator(platform)
        shapes = model_lut_shapes(config, v=V, ct=CT)
        tuned = [engine.tuner.tune(shape) for shape in shapes]
        sims = [simulator.run(t.shape, t.mapping) for t in tuned]
        return platform_name, platform, model, total_s, tuned, sims

    def items(self, output):
        return len(output[4])

    def check(self, output):
        platform_name, platform, model, total_s, tuned, sims = output
        failures = []
        for t, sim in zip(tuned, sims):
            if not is_legal(t.shape, t.mapping, platform):
                failures.append(f"illegal mapping for {t.shape}")
            if abs(sum(sim.profile.phase_seconds.values()) - sim.total_s) > 1e-9:
                failures.append(f"simulator phases do not partition total_s for {t.shape}")
        key = f"modeled.{platform_name}.{model}_s"
        if self.modeled.setdefault(key, total_s) != total_s:
            failures.append(f"{key} changed between calls")
        if platform_name == "upmem":
            errors = [abs(t.latency.total - s.total_s) / s.total_s for t, s in zip(tuned, sims)]
            for t, error in zip(tuned, errors):
                self.upmem_errors[(model, t.shape.n, t.shape.h, t.shape.f)] = error
            # Fig. 13 bench bounds on the analytical model vs the simulator.
            if np.mean(errors) >= 0.10 or max(errors) >= 0.40:
                failures.append(f"upmem model error out of bounds for {model}")
        return failures

    def report(self):
        # Sums run in a fixed order: the seeded call order must not move
        # the last bit of a modeled figure.
        out = dict(self.modeled)
        out["modeled_latency_s"] = sum(self.modeled[key] for key in sorted(self.modeled))
        if self.upmem_errors:
            errors = [self.upmem_errors[key] for key in sorted(self.upmem_errors)]
            out["pim.sim_vs_model_err_avg"] = float(np.mean(errors))
            out["pim.sim_vs_model_err_max"] = max(errors)
        return out


WORKLOADS = {w.name: w for w in (LUTPrefill, LUTDecode, ServeStream, TuneEval)}
