"""Command-line interface for the PIM-DL reproduction.

Subcommands mirror the offline workflow of paper Fig. 5:

* ``platforms`` — list the modeled DRAM-PIM platforms and their constants;
* ``tune`` — run the Auto-Tuner (Algorithm 1) for one LUT workload shape;
  the search skips tilings whose cost lower bound cannot beat the best
  found, and reports how many it searched;
* ``simulate`` — tune a shape, run the event-level simulator on the
  mapping and print the latency breakdown next to the analytical model's;
  ``--overlap`` double-buffers the micro-kernel loop so tile transfers
  overlap the previous tile's lookup/reduce;
* ``flops`` — op-count / reduction analytics for a GEMM shape (Fig. 3);
* ``compare`` — end-to-end engine comparison for a named model (Fig. 10);
  ``--measure-host`` times this machine's real CCS kernel and substitutes
  it for the host roofline;
* ``kernels`` — benchmark + parity-check the :mod:`repro.kernels` host
  kernels (``--dtype``, ``--block-rows``, ``--int8``) against the frozen
  pre-kernel references; ``--search [--schedule-cache DIR]`` instead runs
  the measured kernel-schedule search (block sizes, gather strategy) and
  persists the winner;
* ``serve-sim`` — discrete-event continuous-batching serving simulation
  (:mod:`repro.engine.scheduler`): a Poisson/uniform arrival stream is
  scheduled into the running batch with chunked-prefill and admission
  controls, reporting TTFT/TPOT/e2e P50/P95/P99, SLO goodput, and batch
  occupancy; ``--compare-fifo`` runs the same stream through the
  single-server FIFO discipline for the batching-vs-FIFO comparison;
* ``faults`` — serve generation requests under an injected fault scenario
  (dead ranks, stragglers, transfer timeouts, LUT bit flips — from flags
  or a ``--scenario`` JSON file) and report how the retry → remap → host
  fallback ladder degraded each request, plus a functional parity check of
  the recovered kernel against the trusted host kernel;
* ``serve-cluster`` — N replica schedulers behind a router
  (:mod:`repro.cluster`), optionally layer-sharded, with replica failover
  (``--fail R@T``, ``--fail-ranks``); ``--sweep`` crosses replicas x
  shards x routers x load on identical streams;
* ``serve-disagg`` — disaggregated prefill/decode pools joined by a
  KV-transfer cost (:mod:`repro.engine.disagg`); ``--sweep`` crosses
  placement policy x load;
* ``moe`` — MoE experts as LUTs: experts x top-k x routing skew x expert
  placement, priced as the max-over-ranks LUT makespan;
* ``bench`` — run the modeled/measured benchmark suites against the
  persistent baseline store (``run`` appends, ``compare`` gates with
  median+MAD regression detection and optional ``--json`` BENCH output,
  ``list`` shows recorded histories).

Flags are declared once, in groups the subcommands share:

* shape — ``--n --h --f --v --ct`` (``tune``, ``simulate``, ``flops``,
  ``kernels``);
* model — ``--model --platform --v --ct``, plus ``--layers`` everywhere
  except ``compare``;
* serving — the stream, load (``--rate``/``--utilization``),
  batching-policy and SLO flags of the three ``serve-*`` commands;
* output — ``--json`` (machine-readable stdout), ``--attribution`` where a
  command has a phase breakdown, ``--emit-trace PATH`` (Chrome trace of the
  run's spans, engine timelines, micro-kernel events and per-rank lanes,
  viewable in Perfetto / ``chrome://tracing``) and ``--metrics-json PATH``
  (snapshot of the default :class:`~repro.obs.MetricsRegistry`);
  ``tune --progress N`` and ``simulate --profile`` (per-phase
  :class:`~repro.obs.BottleneckReport`) are command-specific;
* host kernel — ``--dtype --block-rows`` (``compare``, ``kernels``);
* mapping source — ``--cache DIR`` (``tune``, ``simulate``): the
  persistent :class:`~repro.mapping.MappingCache` the Auto-Tuner looks a
  shape up in once before searching, and writes a search's result to.

A command whose default differs from its group's sets it with
``set_defaults`` (e.g. ``serve-disagg --generate-len 64``).

Usage errors: a bad flag raises :class:`UsageError`; :func:`main` catches
it in one place, prints ``error: ...`` to stderr and returns exit code 2.
Every flag is validated before a server is built or anything is tuned, so
a bad flag costs no search time.

Run ``python -m repro <subcommand> --help`` for the options.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from . import obs
from .analysis import format_table
from .core import LUTShape, flop_reduction, gemm_ops, lutnn_ops
from .kernels.profile import _best_seconds
from .mapping import (
    AutoTuner,
    Mapping,
    MappingCache,
    estimate_latency,
    model_lut_shapes,
)
from .pim import PIMSimulator, PLATFORMS, get_platform, trace_kernel
from .workloads import EVAL_MODELS


class UsageError(ValueError):
    """A bad command-line flag: :func:`main` prints it and exits 2."""


#: Flags that must be positive when given.  Checked on presence
#: (``is None``), not truthiness: ``--layers 0`` is an error, never "use the
#: default".
_POSITIVE_FLAGS = (
    "--layers", "--rate", "--slo-ttft-ms", "--slo-e2e-ms", "--block-rows",
    "--prompt-len", "--batch", "--sessions", "--max-batch",
    "--max-context-tokens", "--queue-cap", "--prefill-chunk",
)


def _require_positive(flag: str, value) -> None:
    if value is not None and value <= 0:
        raise UsageError(f"{flag} must be positive, got {value}")


@contextlib.contextmanager
def _as_usage_error(prefix: str = "", errors=(ValueError,)):
    """Re-raise a library's rejection of a flag value as a :class:`UsageError`."""
    try:
        yield
    except errors as exc:
        raise UsageError(f"{prefix}{exc}") from exc


def _csv_numbers(text: str, flag: str, kind=int, positive: bool = False) -> list:
    """A comma list of ``kind`` values (``--replicas 1,2,4``)."""
    try:
        values = [kind(v) for v in text.split(",") if v.strip()]
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise UsageError(
            f"{flag} expects comma-separated {noun}, got {text!r}") from None
    if not values:
        raise UsageError(f"{flag} must name at least one value")
    if positive:
        for value in values:
            _require_positive(flag, value)
    return values


def _csv_names(text: str, flag: str, known: Sequence[str]) -> List[str]:
    """A comma list of distinct names, each one of ``known``."""
    names = [n.strip() for n in text.split(",") if n.strip()]
    unknown = [n for n in names if n not in known]
    if unknown or not names:
        raise UsageError(f"unknown {flag} value {unknown or text!r} "
                         f"(known: {', '.join(sorted(known))})")
    if len(set(names)) < len(names):
        raise UsageError(f"{flag} names a value twice: {text!r}")
    return names


def _add_lut_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--v", type=int, default=4, help="sub-vector length V")
    parser.add_argument("--ct", type=int, default=16, help="centroids per codebook")


def _add_shape_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, required=True, help="index rows (batch x seq)")
    parser.add_argument("--h", type=int, required=True, help="inner dimension H")
    parser.add_argument("--f", type=int, required=True, help="output features F")
    _add_lut_arguments(parser)


def _add_platform_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--platform", default="upmem", choices=sorted(PLATFORMS),
                        help="modeled DRAM-PIM platform (default: upmem)")


def _add_model_arguments(parser: argparse.ArgumentParser, layers: bool = True) -> None:
    parser.add_argument("--model", default="bert-base", choices=sorted(EVAL_MODELS))
    _add_platform_argument(parser)
    _add_lut_arguments(parser)
    if layers:
        parser.add_argument("--layers", type=int, default=None, metavar="N",
                            help="override the model's layer count (quick runs)")


def _add_serving_arguments(parser: argparse.ArgumentParser) -> None:
    """Stream, load, batching-policy and SLO flags of the serve commands."""
    parser.add_argument("--native", action="store_true",
                        help="serve on the native GEMM/GEMV engines instead "
                             "of LUT-NN")
    parser.add_argument("--requests", type=int, default=64, metavar="N")
    parser.add_argument("--prompt-len", type=int, default=128, metavar="N")
    parser.add_argument("--generate-len", type=int, default=32, metavar="N")
    parser.add_argument("--batch", type=int, default=1, metavar="N",
                        help="sequences bundled per request (batch hint)")
    parser.add_argument("--arrivals", choices=["poisson", "uniform"],
                        default="poisson")
    parser.add_argument("--seed", type=int, default=0, help="arrival stream seed")
    parser.add_argument("--rate", type=float, default=None, metavar="RPS",
                        help="offered arrival rate (single run only; default "
                             "derives from --utilization)")
    parser.add_argument("--utilization", default="0.8", metavar="RHO[,RHO...]",
                        help="offered load as a fraction of the unloaded "
                             "FIFO service rate (>1 overloads it); one value, "
                             "or a comma list under --sweep")
    parser.add_argument("--max-batch", type=int, default=8, metavar="N",
                        help="sequences decoding concurrently")
    parser.add_argument("--max-context-tokens", type=int, default=1 << 20,
                        metavar="N", help="KV-token cap across the batch")
    parser.add_argument("--queue-cap", type=int, default=1024, metavar="N",
                        help="bounded wait queue (per replica); overflow rejects")
    parser.add_argument("--chunked-prefill", action="store_true",
                        help="interleave prompt prefill in chunks with decode "
                             "steps")
    parser.add_argument("--prefill-chunk", type=int, default=128, metavar="N",
                        help="tokens prefilled per step under --chunked-prefill")
    parser.add_argument("--slo-ttft-ms", type=float, default=None, metavar="MS",
                        help="TTFT SLO (default: 2.5x unloaded prefill)")
    parser.add_argument("--slo-e2e-ms", type=float, default=None, metavar="MS",
                        help="end-to-end SLO (default: 2.5x unloaded request)")


def _add_output_arguments(
    parser: argparse.ArgumentParser, attribution: Optional[str] = None
) -> None:
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    if attribution:
        parser.add_argument("--attribution", action="store_true", help=attribution)
    _add_telemetry_arguments(parser)


def _add_host_kernel_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dtype", choices=["auto", "float32", "float64"],
                        default="float32",
                        help="host kernel compute dtype (auto keeps the input's)")
    parser.add_argument("--block-rows", type=int, default=None, metavar="N",
                        help="host kernel rows per block")


def _add_mapping_source_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache", metavar="DIR",
                        help="persistent mapping cache directory "
                             "(warm-start lookup + write-back)")


def _add_telemetry_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--emit-trace", metavar="PATH",
        help="write a Chrome-trace-format JSON of this run's telemetry",
    )
    parser.add_argument(
        "--metrics-json", metavar="PATH",
        help="write a JSON snapshot of the metrics registry",
    )


def _shape_from_args(args) -> LUTShape:
    return LUTShape(n=args.n, h=args.h, f=args.f, v=args.v, ct=args.ct)


def _print_json(payload) -> None:
    print(json.dumps(obs.to_jsonable(payload), indent=2, sort_keys=True))


def _finish_telemetry(
    args, reports=(), kernel_traces=(), profiles=(), clusters=(), schedules=()
) -> int:
    """Honor ``--emit-trace`` / ``--metrics-json`` at the end of a command.

    Returns a process exit code: the command's work already succeeded at
    this point, so an unwritable path must not surface as a traceback.
    """
    try:
        if getattr(args, "metrics_json", None):
            with open(args.metrics_json, "w") as fh:
                fh.write(obs.get_registry().to_json(indent=2) + "\n")
            print(f"metrics written to {args.metrics_json}", file=sys.stderr)
        if getattr(args, "emit_trace", None):
            document = obs.write_chrome_trace(
                args.emit_trace,
                spans=obs.get_tracer().finished_spans(),
                reports=reports,
                kernel_traces=kernel_traces,
                profiles=profiles,
                clusters=clusters,
                schedules=schedules,
                metrics=obs.get_registry().snapshot(),
            )
            print(
                f"chrome trace written to {args.emit_trace} "
                f"({len(document['traceEvents'])} events)",
                file=sys.stderr,
            )
    except OSError as exc:
        print(f"error: cannot write telemetry output: {exc}", file=sys.stderr)
        return 1
    return 0


def _apply_layers_override(config, layers: Optional[int]):
    """Apply ``--layers`` to a model config.

    ``--layers 0`` must error, not silently keep the model's default depth
    (the falsy-arg trap: ``if args.layers`` treats 0 like "not given").
    """
    _require_positive("--layers", layers)
    return config if layers is None else config.with_(num_layers=layers)


def _resolve_slo_s(value_ms: Optional[float], default_s: float, flag: str) -> float:
    """An SLO flag in milliseconds, or its unloaded-headroom default.

    Resolves on *presence* (``is None``), not truthiness: ``--slo-ttft-ms 0``
    must error rather than silently fall back to the default SLO.
    """
    _require_positive(flag, value_ms)
    return default_s if value_ms is None else value_ms / 1e3


def _kernel_traces(shape: LUTShape, mapping: Mapping, platform) -> list:
    """The micro-kernel trace, or none beyond the trace bound."""
    try:
        return [trace_kernel(shape, mapping, platform)]
    except ValueError as exc:
        print(f"micro-kernel trace skipped: {exc}", file=sys.stderr)
        return []


def cmd_platforms(args) -> int:
    if args.json:
        _print_json({
            name: {
                "name": (p := get_platform(name)).name,
                "num_pes": p.num_pes,
                "frequency_hz": p.compute.frequency_hz,
                "buffer_bytes": p.local_memory.buffer_bytes,
                "peak_add_throughput": p.peak_add_throughput,
                "pim_power_w": p.pim_power_w,
            }
            for name in sorted(PLATFORMS)
        })
        return 0
    rows = []
    for name in sorted(PLATFORMS):
        p = get_platform(name)
        rows.append([
            name,
            p.name,
            p.num_pes,
            f"{p.compute.frequency_hz / 1e6:.0f} MHz",
            f"{p.local_memory.buffer_bytes // 1024} KB",
            f"{p.peak_add_throughput / 1e9:.0f} Gadd/s",
            f"{p.pim_power_w:.0f} W",
        ])
    print(format_table(
        ["key", "platform", "PEs", "freq", "buffer", "reduce peak", "power"], rows
    ))
    return 0


def _progress_printer(every: int):
    def callback(progress) -> None:
        if progress.evaluated % every:
            return
        best = (
            f"best {progress.best_cost * 1e3:.3f} ms"
            if progress.best_cost is not None
            else "no legal mapping yet"
        )
        print(
            f"[tune] {progress.evaluated} candidates, "
            f"{progress.pruned} pruned, {best}",
            file=sys.stderr,
        )
    return callback


def _tune(args, platform, shape, amortize: bool = False, progress_callback=None):
    """Tune ``shape`` through the Auto-Tuner, warm-started from ``--cache``
    (one lookup; a search writes back): tune and simulate.

    Returns the result and its "mapping source" line, read from the
    tuner's counter deltas.
    """
    registry = obs.get_registry()
    counters = [
        registry.counter(f"tuner.{name}")
        for name in ("store_hits", "candidates_evaluated", "tilings_bound_pruned")
    ]
    before = [counter.value for counter in counters]
    result = AutoTuner(
        platform,
        amortize_lut_distribution=amortize,
        progress_callback=progress_callback,
        cache=MappingCache(args.cache) if args.cache else None,
    ).tune(shape)
    hits, tilings, skipped = (
        int(counter.value - value) for counter, value in zip(counters, before)
    )
    if hits:
        return result, f"cache {args.cache} (search skipped)"
    return result, f"search ({tilings - skipped} of {tilings} tilings searched)"


def cmd_tune(args) -> int:
    shape = _shape_from_args(args)
    result, source = _tune(
        args,
        get_platform(args.platform),
        shape,
        amortize=args.amortize_lut,
        progress_callback=_progress_printer(args.progress) if args.progress else None,
    )
    m = result.mapping
    print(format_table(
        ["parameter", "value"],
        [
            ["workload (N,CB,CT,F)", f"({shape.n}, {shape.cb}, {shape.ct}, {shape.f})"],
            ["sub-LUT tiling", f"N_s={m.n_s_tile}, F_s={m.f_s_tile}"],
            ["micro-kernel tiles", f"n={m.n_m_tile}, f={m.f_m_tile}, cb={m.cb_m_tile}"],
            ["traversal order", "->".join(m.traversal)],
            ["load scheme", m.load_scheme],
            ["load tiles", f"cb={m.cb_load_tile}, f={m.f_load_tile}"],
            ["candidates evaluated", result.candidates_evaluated],
            ["estimated latency", f"{result.cost * 1e3:.3f} ms"],
            ["sub-LUT / kernel split",
             f"{result.latency.sub_lut_partition * 1e3:.3f} / "
             f"{result.latency.micro_kernel * 1e3:.3f} ms"],
            ["mapping source", source],
        ],
    ))
    return _finish_telemetry(args)


def cmd_simulate(args) -> int:
    platform = get_platform(args.platform)
    shape = _shape_from_args(args)
    result, source = _tune(args, platform, shape)
    print(f"mapping source: {source}")
    mapping = result.mapping
    report = PIMSimulator(platform).run(shape, mapping, overlap=args.overlap)
    estimate = estimate_latency(shape, mapping, platform, overlap=args.overlap)
    error = abs(estimate.total - report.total_s) / report.total_s
    print(format_table(
        ["stage", "simulated_ms", "model_ms"],
        [
            ["distribution", f"{report.distribution_s * 1e3:.3f}",
             f"{estimate.stage_phases()['distribution'] * 1e3:.3f}"],
            ["micro kernel", f"{report.kernel_s * 1e3:.3f}",
             f"{estimate.micro_kernel * 1e3:.3f}"],
            ["gather", f"{report.gather_s * 1e3:.3f}",
             f"{estimate.sub_output * 1e3:.3f}"],
            ["total", f"{report.total_s * 1e3:.3f}", f"{estimate.total * 1e3:.3f}"],
        ],
    ))
    print(f"PEs used: {report.num_pes}; analytical-model error: {error:.1%}")
    if args.overlap:
        print(
            f"pipelined overlap hid {report.overlap_hidden_s * 1e3:.3f} ms "
            f"(simulated) / {estimate.overlap_hidden * 1e3:.3f} ms (model) "
            f"of transfer"
        )
    if args.profile:
        print(report.bottleneck(platform=platform).render())
    kernel_traces = _kernel_traces(shape, mapping, platform) if args.emit_trace else []
    profiles = [report.profile] if report.profile is not None else []
    return _finish_telemetry(args, kernel_traces=kernel_traces, profiles=profiles)


def cmd_flops(args) -> int:
    shape = _shape_from_args(args)
    gemm = gemm_ops(shape.n, shape.h, shape.f)
    lut = lutnn_ops(shape)
    if args.json:
        def op_counts(counts) -> dict:
            payload = obs.to_jsonable(counts)
            payload["total"] = counts.total
            payload["multiplication_fraction"] = counts.multiplication_fraction
            return payload

        _print_json({
            "shape": {"n": shape.n, "h": shape.h, "f": shape.f,
                      "v": shape.v, "ct": shape.ct},
            "gemm": op_counts(gemm),
            "lut_nn": op_counts(lut),
            "flop_reduction": flop_reduction(shape),
        })
        return 0
    print(format_table(
        ["metric", "GEMM", "LUT-NN"],
        [
            ["total ops", gemm.total, lut.total],
            ["multiplications", gemm.multiplications, lut.multiplications],
            ["additions", gemm.additions, lut.additions],
            ["mult fraction", f"{gemm.multiplication_fraction:.1%}",
             f"{lut.multiplication_fraction:.1%}"],
        ],
    ))
    print(f"FLOP reduction: {flop_reduction(shape):.2f}x")
    return 0


def _resolve_cli_dtype(dtype: str):
    """Map the CLI ``--dtype`` choice to a kernel dtype argument."""
    return None if dtype == "auto" else dtype


def _kernels_search(args) -> int:
    """``kernels --search``: measured host kernel-schedule search."""
    import numpy as np

    from .kernels import KernelScheduleCache, search_kernel_schedule

    cache = (
        KernelScheduleCache(args.schedule_cache) if args.schedule_cache else None
    )
    schedule = search_kernel_schedule(
        n=args.n, h=args.h, f=args.f, v=args.v, ct=args.ct,
        dtype=_resolve_cli_dtype(args.dtype) or "float32",
        repeats=args.repeats,
        rng=np.random.default_rng(args.seed),
        cache=cache,
    )
    if args.json:
        _print_json(schedule.to_jsonable())
        return _finish_telemetry(args)
    source = (
        f"cache {args.schedule_cache} (search skipped)"
        if schedule.candidates_evaluated == 0
        else f"measured search ({schedule.candidates_evaluated} candidates)"
    )
    print(format_table(
        ["parameter", "value"],
        [
            ["workload (N,H,F,V,CT)",
             f"({args.n}, {args.h}, {args.f}, {args.v}, {args.ct})"],
            ["dtype", schedule.dtype],
            ["ccs block_rows", schedule.ccs_block_rows],
            ["gather block_rows", schedule.gather_block_rows],
            ["gather strategy", schedule.gather_strategy],
            ["ccs / gather time",
             f"{schedule.ccs_seconds * 1e3:.3f} / "
             f"{schedule.gather_seconds * 1e3:.3f} ms"],
            ["default-schedule time", f"{schedule.baseline_seconds * 1e3:.3f} ms"],
            ["speedup vs default", f"{schedule.speedup_vs_default:.2f}x"],
            ["schedule source", source],
        ],
    ))
    return _finish_telemetry(args)


def cmd_kernels(args) -> int:
    """Benchmark + parity-check the host kernels against the references."""
    import numpy as np

    from .core import quantize_lut
    from .kernels import (
        CCSKernel,
        lut_gather_reduce,
        lut_gather_reduce_quantized,
    )
    from .kernels.reference import ccs_reference, lut_lookup_reference

    if args.h % args.v:
        raise UsageError(f"--h {args.h} is not divisible by --v {args.v}")
    if args.search:
        return _kernels_search(args)
    rng = np.random.default_rng(args.seed)
    dtype = _resolve_cli_dtype(args.dtype)
    x = rng.normal(size=(args.n, args.h))
    centroids = rng.normal(size=(args.h // args.v, args.ct, args.v))
    lut = rng.normal(size=(args.h // args.v, args.ct, args.f))

    kernel = CCSKernel(dtype=dtype, block_rows=args.block_rows)
    kernel.prepare(centroids, version=0)  # constants cached, as in serving
    rows = []
    payload = {
        "shape": {"n": args.n, "h": args.h, "f": args.f,
                  "v": args.v, "ct": args.ct},
        "dtype": args.dtype,
        "block_rows": kernel.block_rows,
    }

    def timed(key, label, reference, candidate, parity: str, **checks) -> None:
        """Best-of-N for both paths: one table row and one JSON entry."""
        ref_s = _best_seconds(reference, args.repeats, warmup=0)
        new_s = _best_seconds(candidate, args.repeats, warmup=0)
        speedup = ref_s / max(new_s, 1e-12)
        rows.append([label, f"{ref_s * 1e3:.3f}", f"{new_s * 1e3:.3f}",
                     f"{speedup:.2f}x", parity])
        payload[key] = {"reference_s": ref_s, "kernel_s": new_s,
                        "speedup": speedup, **checks}

    ref_idx = ccs_reference(x, centroids)
    new_idx = kernel.search(x, centroids, version=0)
    index_match = float(np.mean(ref_idx == new_idx))
    timed("ccs", "ccs", lambda: ccs_reference(x, centroids),
          lambda: kernel.search(x, centroids, version=0),
          f"index match {index_match:.2%}", index_match=index_match)

    ref_out = lut_lookup_reference(new_idx, lut)
    new_out = lut_gather_reduce(new_idx, lut, block_rows=args.block_rows)
    out_scale = float(np.max(np.abs(ref_out))) or 1.0
    out_err = float(np.max(np.abs(ref_out - new_out))) / out_scale
    timed("lut", "lut lookup", lambda: lut_lookup_reference(new_idx, lut),
          lambda: lut_gather_reduce(new_idx, lut, block_rows=args.block_rows),
          f"rel err {out_err:.1e}", relative_error=out_err)
    if args.int8:
        qlut = quantize_lut(lut)
        deq = qlut.dequantize()
        q_out = lut_gather_reduce_quantized(new_idx, qlut,
                                            block_rows=args.block_rows)
        q_err = float(np.max(np.abs(lut_lookup_reference(new_idx, deq) - q_out)))
        timed("lut_int8", "lut lookup int8",
              lambda: lut_lookup_reference(new_idx, deq),
              lambda: lut_gather_reduce_quantized(
                  new_idx, qlut, block_rows=args.block_rows),
              f"abs err {q_err:.1e}", absolute_error=q_err)
    if args.json:
        _print_json(payload)
    else:
        print(f"shape: N={args.n} H={args.h} F={args.f} V={args.v} "
              f"CT={args.ct}; dtype={args.dtype}, "
              f"block_rows={kernel.block_rows}")
        print(format_table(
            ["kernel", "reference_ms", "kernel_ms", "speedup", "parity"], rows
        ))
    return _finish_telemetry(args)


def cmd_compare(args) -> int:
    from .baselines import cpu_server_fp32, cpu_server_int8, wimpy_host
    from .engine import GEMMPIMEngine, HostEngine, LINEAR, PIMDLEngine, model_graph

    config = EVAL_MODELS[args.model]
    platform = get_platform(args.platform)
    host = wimpy_host()
    profile = None
    if args.measure_host:
        from .kernels import measure_host_kernels

        profile = measure_host_kernels(
            n=config.tokens,
            h=config.hidden_dim,
            f=config.hidden_dim,
            v=args.v,
            ct=args.ct,
            dtype=_resolve_cli_dtype(args.dtype) or "float32",
            block_rows=args.block_rows,
        )
        print(
            f"measured host CCS: {profile.ccs_ops_per_s / 1e9:.2f} Gop/s "
            f"({profile.dtype}, block_rows={profile.block_rows})",
            file=sys.stderr,
        )
    pimdl = PIMDLEngine(
        platform, host, v=args.v, ct=args.ct, host_kernel_profile=profile,
        overlap=args.overlap,
    )
    engines = {
        "cpu-fp32": HostEngine(cpu_server_fp32()),
        "cpu-int8": HostEngine(cpu_server_int8()),
        "pim-gemm": GEMMPIMEngine(platform, host),
        f"pim-dl (V={args.v},CT={args.ct})": pimdl,
    }
    rows = []
    reports = {}
    for name, engine in engines.items():
        report = engine.run(config)
        reports[name] = report
        rows.append([
            name,
            f"{report.total_s:.2f}",
            f"{report.energy.total_j / 1e3:.2f}",
            f"{report.pim_s / report.total_s:.0%}" if report.pim_s else "-",
        ])
    if args.json:
        _print_json({
            "model": config.name,
            "batch_size": config.batch_size,
            "seq_len": config.seq_len,
            "platform": args.platform,
            "engines": {name: rep.to_jsonable() for name, rep in reports.items()},
        })
    else:
        print(f"{config.name}: batch {config.batch_size}, seq {config.seq_len}")
        print(format_table(["engine", "latency_s", "energy_kJ", "pim share"], rows))
        if args.overlap:
            hidden = reports[f"pim-dl (V={args.v},CT={args.ct})"].overlap_hidden_s
            print(f"pim-dl pipelined overlap hid {hidden:.3f} s of transfer")
        if args.attribution:
            for name, report in reports.items():
                if report.phase_seconds:
                    print(f"[{name}] {report.bottleneck().render()}")

    kernel_traces = []
    if args.emit_trace:
        # Include one simulated micro-kernel timeline: the PIM-DL engine's
        # first linear layer, under its tuned (memoised) mapping.
        first_linear = next(
            (op for op in model_graph(config) if op.kind == LINEAR), None
        )
        if first_linear is not None:
            shape = pimdl.lut_shape(config.tokens, first_linear.h, first_linear.f)
            tuned = pimdl.tuner.tune(shape)
            kernel_traces = _kernel_traces(shape, tuned.mapping, platform)
    return _finish_telemetry(args, reports=list(reports.values()),
                             kernel_traces=kernel_traces)


def _fault_plan_from_args(args) -> "FaultPlan":
    from .resilience import FaultPlan

    if args.scenario:
        return FaultPlan.from_json(args.scenario)
    ranks = _csv_numbers(args.fail_ranks, "--fail-ranks") if args.fail_ranks else ()
    return FaultPlan(
        seed=args.seed,
        failed_ranks=tuple(ranks),
        failed_pes=args.fail_pes,
        straggler_factor=args.straggler,
        transfer_timeouts=args.timeouts,
        lut_bit_flips=args.bit_flips,
    )


def _functional_fault_check(plan, policy) -> dict:
    """Run one small LUT kernel through the recovery ladder, functionally.

    Uses a *fresh* injector built from the same plan (the scenario is
    deterministic, so this doubles as a reproducibility demonstration) and
    checks the recovered output bit-for-bit against the trusted host
    kernel — the guarantee the ladder makes.
    """
    import numpy as np

    from .kernels import lut_gather_reduce
    from .resilience import DegradationLedger, FaultInjector, run_kernel_with_recovery

    shape = LUTShape(n=8, h=64, f=32, v=4, ct=16)
    rng = np.random.default_rng(plan.seed)
    indices = rng.integers(0, shape.ct, size=(shape.n, shape.cb))
    lut = rng.normal(size=(shape.cb, shape.ct, shape.f)).astype(np.float32)

    injector = FaultInjector(plan)
    platform = get_platform("upmem")
    mapping = AutoTuner(platform).tune(shape).mapping
    ledger = DegradationLedger()
    output, report = run_kernel_with_recovery(
        PIMSimulator(platform), shape, mapping, indices, lut,
        injector, policy=policy, ledger=ledger,
    )
    expected = lut_gather_reduce(indices, lut)
    return {
        "bit_identical_to_host": bool(np.array_equal(output, expected)),
        "completed_on": "host" if report is None else "pim",
        "degradation": ledger.summary().to_jsonable(),
    }


def cmd_faults(args) -> int:
    """Serve requests under a scripted fault scenario, end to end."""
    from .baselines import wimpy_host
    from .engine.serving import GenerationServer
    from .resilience import FaultInjector, RecoveryManager, RetryPolicy

    with _as_usage_error("bad fault scenario: ",
                         (OSError, ValueError, KeyError, TypeError)):
        plan = _fault_plan_from_args(args)
    if plan.is_empty:
        print("note: empty fault plan — serving runs fault-free", file=sys.stderr)

    config = _apply_layers_override(EVAL_MODELS[args.model], args.layers)
    policy = RetryPolicy(max_retries=args.max_retries)
    manager = RecoveryManager(FaultInjector(plan), policy=policy)
    server = GenerationServer(
        get_platform(args.platform), wimpy_host(), v=args.v, ct=args.ct,
        resilience=manager,
    )

    reports = []
    for _ in range(max(1, args.requests)):
        reports.append(server.run(
            config,
            prompt_len=args.prompt_len,
            generate_len=args.generate_len,
            batch_size=args.batch,
        ))

    functional = None
    if not args.no_functional:
        functional = _functional_fault_check(plan, policy)

    summary = manager.ledger.summary()
    if args.json:
        _print_json({
            "plan": plan.to_dict(),
            "model": config.name,
            "platform": args.platform,
            "requests": [
                {
                    "time_to_first_token_s": r.time_to_first_token_s,
                    "per_token_decode_s": r.per_token_decode_s,
                    "request_latency_s": r.request_latency_s,
                    "degraded": r.degraded.to_jsonable() if r.degraded else None,
                }
                for r in reports
            ],
            "degradation": summary.to_jsonable(),
            "injected_events": [
                {"kind": e.kind, **e.detail} for e in manager.injector.events
            ],
            "functional_check": functional,
        })
        return _finish_telemetry(args)

    print(f"fault plan: {plan.to_dict()}")
    print(f"model: {config.name} ({config.num_layers} layers) "
          f"on {args.platform}")
    rows = []
    for i, r in enumerate(reports):
        deg = r.degraded
        rows.append([
            f"request {i}",
            f"{r.time_to_first_token_s * 1e3:.3f}",
            f"{r.per_token_decode_s * 1e3:.3f}",
            "yes" if (deg is not None and deg.degraded) else "no",
            deg.retries if deg else 0,
            deg.remaps if deg else 0,
            deg.fallbacks if deg else 0,
        ])
    print(format_table(
        ["request", "ttft_ms", "per_token_ms", "degraded",
         "retries", "remaps", "fallbacks"],
        rows,
    ))
    print(
        f"ladder totals: {summary.retries} retries "
        f"({summary.backoff_s * 1e3:.3f} ms backoff), "
        f"{summary.remaps} remaps, {summary.checksum_failures} checksum "
        f"repairs ({summary.recovery_s * 1e3:.3f} ms), "
        f"{summary.fallbacks} host fallbacks"
    )
    if summary.fallback_layers:
        print(f"fallen-back layers: {', '.join(summary.fallback_layers)}")
    print(f"injected events: {len(manager.injector.events)}")
    if functional is not None:
        verdict = "PASS" if functional["bit_identical_to_host"] else "FAIL"
        print(
            f"functional parity: {verdict} — recovered kernel completed on "
            f"{functional['completed_on']}, output bit-identical to the "
            f"host kernel: {functional['bit_identical_to_host']}"
        )
        if not functional["bit_identical_to_host"]:
            return 1
    return _finish_telemetry(args)


#: Columns after the label column of a per-``ScheduleResult`` table row.
_SCHEDULE_COLUMNS = ["done", "rej", "ttft ms p50/95/99", "tpot ms p50/95/99",
                     "e2e ms p50/95/99", "req/s", "goodput", "occupancy"]


def _scheduler_row(label: str, result) -> list:
    return [
        label,
        result.completed,
        result.rejected,
        f"{result.ttft_p50_s * 1e3:.1f}/{result.ttft_p95_s * 1e3:.1f}/"
        f"{result.ttft_p99_s * 1e3:.1f}",
        f"{result.tpot_p50_s * 1e3:.2f}/{result.tpot_p95_s * 1e3:.2f}/"
        f"{result.tpot_p99_s * 1e3:.2f}",
        f"{result.e2e_p50_s * 1e3:.1f}/{result.e2e_p95_s * 1e3:.1f}/"
        f"{result.e2e_p99_s * 1e3:.1f}",
        f"{result.throughput_rps:.2f}",
        f"{result.goodput_rps:.2f}",
        f"{result.mean_batch_occupancy:.2f}",
    ]


def _print_schedule_notes(args, result, request_classes) -> None:
    """Batch-level degradation and, with ``--attribution``, each request
    class's phase attribution."""
    if result.degradation is not None and result.degradation.degraded:
        print(f"degradation (batch-level): {result.degradation.to_jsonable()}")
    if args.attribution:
        for request_class in request_classes:
            attribution = result.phase_attribution(request_class)
            if attribution.phase_seconds:
                print(f"[{request_class}] {attribution.render()}")


@dataclass
class _ServingSetup:
    """What :func:`_serving_setup` builds for one serve command."""

    config: object
    server: object
    prescheduler: object
    policy: object
    service_s: float
    #: The single run's arrival rate and seeded stream (``None`` under
    #: ``--sweep``, where the sweep derives one per utilization).
    rate: Optional[float]
    stream: Optional[list]
    #: Keyword arguments every ``*_load_sweep`` takes: loads, stream, policy.
    sweep_args: dict
    #: The JSON fields every serve command's payload starts with.
    header: dict


def _serving_setup(
    args,
    single_values: Sequence[Tuple[str, list]] = (),
    scheduler=None,
) -> _ServingSetup:
    """The shared front end of ``serve-sim`` / ``serve-cluster`` / ``serve-disagg``.

    Validates the serving flags first: ``--utilization`` values, the
    ``--sweep``/``--rate`` conflict, and that each of the command's own
    comma lists in ``single_values`` (``(flag, values)`` pairs) names one
    value without ``--sweep``.  Only then does it build the config, the
    server and the unloaded probe pre-scheduler — ``scheduler(server,
    config)``, a :class:`~repro.engine.RequestScheduler` by default — whose
    tuned costs give the FIFO service time the SLO defaults and ``rho``
    normalize to.
    """
    from .baselines import wimpy_host
    from .engine import (GenerationServer, Request, RequestScheduler,
                         SchedulerPolicy, poisson_requests)

    utilizations = _csv_numbers(args.utilization, "--utilization", float,
                                positive=True)
    sweep = getattr(args, "sweep", None)  # None: the command has no sweep
    if sweep and args.rate is not None:
        raise UsageError("--sweep derives rates from --utilization; "
                         "--rate is single-run only")
    if not sweep:
        if args.rate is None:
            single_values = (*single_values, ("--utilization", utilizations))
        for flag, values in single_values:
            if len(values) > 1:
                hint = "are not supported" if sweep is None else "need --sweep"
                raise UsageError(f"multiple {flag} values {hint}")
    config = _apply_layers_override(EVAL_MODELS[args.model], args.layers)

    server = GenerationServer(
        get_platform(args.platform), wimpy_host(), v=args.v, ct=args.ct,
        lut_nn=not args.native,
    )
    prescheduler = (scheduler or RequestScheduler)(server, config)
    probe = Request(
        request_id=-1, arrival_s=0.0, prompt_len=args.prompt_len,
        generate_len=args.generate_len, batch=args.batch,
    )
    # SLOs default to headroom over the *unloaded* request: 2.5x the bare
    # prefill for TTFT, 2.5x the bare service time end to end — the same
    # rule for all three commands, so their goodput is comparable.
    service_s = prescheduler.fifo_service_time(probe)
    unloaded_ttft_s = prescheduler.cost.prefill_s(args.prompt_len, args.batch)
    slo_ttft_s = _resolve_slo_s(
        args.slo_ttft_ms, 2.5 * unloaded_ttft_s, "--slo-ttft-ms")
    slo_e2e_s = _resolve_slo_s(args.slo_e2e_ms, 2.5 * service_s, "--slo-e2e-ms")
    policy = SchedulerPolicy(
        max_batch_size=args.max_batch,
        max_context_tokens=args.max_context_tokens,
        max_queue_len=args.queue_cap,
        chunked_prefill=args.chunked_prefill,
        prefill_chunk=args.prefill_chunk,
        slo_ttft_s=slo_ttft_s,
        slo_e2e_s=slo_e2e_s,
    )

    stream_spec = dict(
        prompt_len=args.prompt_len, generate_len=args.generate_len,
        batch=args.batch, arrivals=args.arrivals, seed=args.seed,
    )
    rate = stream = None
    if not sweep:
        # Resolved on presence: main() already rejected --rate <= 0.
        rate = args.rate if args.rate is not None else utilizations[0] / service_s
        stream = poisson_requests(args.requests, rate,
                                  sessions=getattr(args, "sessions", None),
                                  **stream_spec)
    header = {
        "model": config.name,
        "platform": args.platform,
        "fifo_service_time_s": service_s,
        "slo": {"ttft_s": slo_ttft_s, "e2e_s": slo_e2e_s},
    }
    if rate is not None:
        header["arrival_rate_rps"] = rate
    return _ServingSetup(
        config=config, server=server, prescheduler=prescheduler,
        policy=policy, service_s=service_s, rate=rate, stream=stream,
        sweep_args=dict(utilizations=utilizations, num_requests=args.requests,
                        policy=policy, **stream_spec),
        header=header,
    )


def cmd_serve_sim(args) -> int:
    """Continuous-batching serving simulation under an arrival stream."""
    from .engine import RequestScheduler

    run = _serving_setup(args)
    config, policy, rate = run.config, run.policy, run.rate
    scheduler = RequestScheduler(run.server, config, policy=policy)
    scheduler.cost = run.prescheduler.cost  # reuse the probe's tuned costs
    result = scheduler.run(run.stream)

    fifo_result = None
    if args.compare_fifo:
        fifo = RequestScheduler(run.server, config, policy=policy.fifo())
        fifo.cost = scheduler.cost
        fifo_result = fifo.run(run.stream)

    if args.json:
        payload = {**run.header, "continuous_batching": result.to_jsonable()}
        if fifo_result is not None:
            payload["fifo"] = fifo_result.to_jsonable()
        _print_json(payload)
        return _finish_telemetry(args)

    mode = "chunked prefill" if policy.chunked_prefill else "whole-prompt prefill"
    print(
        f"{config.name} on {args.platform}: {args.requests} requests "
        f"({args.arrivals} arrivals, {rate:.2f} req/s), prompt "
        f"{args.prompt_len}, generate {args.generate_len}, batch hint "
        f"{args.batch}"
    )
    print(
        f"policy: max batch {policy.max_batch_size} seqs, "
        f"max context {policy.max_context_tokens} tokens, queue cap "
        f"{policy.max_queue_len}, {mode}; SLO ttft "
        f"{policy.slo_ttft_s * 1e3:.1f} ms, e2e {policy.slo_e2e_s * 1e3:.1f} ms"
    )
    rows = [_scheduler_row("continuous batching", result)]
    if fifo_result is not None:
        rows.append(_scheduler_row("fifo (batch 1)", fifo_result))
    print(format_table(["discipline", *_SCHEDULE_COLUMNS], rows))
    _print_schedule_notes(args, result, ("prefill", "decode"))
    if fifo_result is not None:
        better_p95 = result.e2e_p95_s <= fifo_result.e2e_p95_s
        better_goodput = result.goodput_rps > fifo_result.goodput_rps
        print(
            f"continuous batching vs FIFO at the same stream: "
            f"P95 e2e {result.e2e_p95_s * 1e3:.1f} vs "
            f"{fifo_result.e2e_p95_s * 1e3:.1f} ms, goodput "
            f"{result.goodput_rps:.2f} vs {fifo_result.goodput_rps:.2f} req/s"
            + (" — batching sustains more at equal-or-better P95"
               if better_p95 and better_goodput else "")
        )
    return _finish_telemetry(args)


def _replica_failures(args) -> list:
    """``--fail R@T`` kills plus the replicas ``--fail-ranks`` hit at ``--fail-at``."""
    from .cluster import ReplicaFailure, failures_from_fault_plan
    from .resilience import FaultPlan

    failures = []
    for spec in args.fail or ():
        rep_text, _, at_text = spec.partition("@")
        try:
            failures.append(ReplicaFailure(int(rep_text), float(at_text)))
        except ValueError:
            raise UsageError(
                f"--fail expects REPLICA@SECONDS, got {spec!r}") from None
    if args.fail_ranks:
        if args.fail_at is None:
            raise UsageError("--fail-ranks needs --fail-at")
        ranks = _csv_numbers(args.fail_ranks, "--fail-ranks")
        with _as_usage_error("--fail-ranks/--fail-at: "):
            plan = FaultPlan(seed=args.seed, failed_ranks=tuple(ranks))
            failures.extend(failures_from_fault_plan(
                plan, args.fail_at, get_platform(args.platform).ranks))
    return failures


def cmd_serve_cluster(args) -> int:
    """Cluster-scale serving: replicated/sharded scheduling with routing."""
    from .cluster import ROUTER_POLICIES, ClusterScheduler, cluster_load_sweep

    replica_counts = _csv_numbers(args.replicas, "--replicas", positive=True)
    shard_counts = _csv_numbers(args.shards, "--shards")
    layers = _apply_layers_override(EVAL_MODELS[args.model], args.layers).num_layers
    if not all(1 <= s <= layers for s in shard_counts):
        raise UsageError(f"--shards must be >= 1 and at most the model's layer "
                         f"count ({layers}), got {args.shards!r}")
    routers = _csv_names(args.routers, "--routers", ROUTER_POLICIES)
    failures = _replica_failures(args)
    run = _serving_setup(args, single_values=(
        ("--replicas", replica_counts), ("--shards", shard_counts),
        ("--routers", routers),
    ))
    config = run.config

    if args.sweep:
        points = cluster_load_sweep(
            run.server, config,
            replica_counts=replica_counts,
            shard_counts=shard_counts,
            routers=routers,
            sessions=args.sessions,
            **run.sweep_args,
        )
        clusters = [p.result for p in points]
        if args.json:
            _print_json({**run.header,
                         "points": [p.to_jsonable() for p in points]})
            return _finish_telemetry(args, clusters=clusters)
        print(
            f"{config.name} on {args.platform}: {args.requests} requests per "
            f"cell ({args.arrivals} arrivals), prompt {args.prompt_len}, "
            f"generate {args.generate_len}; rho normalized to one unsharded "
            f"replica's FIFO rate ({1.0 / run.service_s:.2f} req/s)"
        )
        rows = []
        for p in points:
            r = p.result
            rows.append([
                f"{p.target_utilization:.2f}", p.replicas, p.shards, p.router,
                r.completed, r.rejected, r.shed, r.failovers,
                f"{r.e2e_p50_s * 1e3:.1f}/{r.e2e_p95_s * 1e3:.1f}",
                f"{r.throughput_rps:.2f}", f"{r.goodput_rps:.2f}",
            ])
        print(format_table(
            ["rho", "replicas", "shards", "router", "done", "rej", "shed",
             "failover", "e2e ms p50/95", "req/s", "goodput"],
            rows,
        ))
        return _finish_telemetry(args, clusters=clusters)

    # Single-run mode: one cell, optionally with replica failures.
    replicas, shards, router = replica_counts[0], shard_counts[0], routers[0]
    with _as_usage_error():  # e.g. a --fail replica beyond --replicas
        cluster = ClusterScheduler(
            run.server, config, replicas=replicas, shards=shards,
            policy=run.policy, router=router, failures=failures, seed=args.seed,
        )
    result = cluster.run(run.stream)

    if args.json:
        _print_json({**run.header, "cluster": result.to_jsonable()})
        return _finish_telemetry(args, clusters=[result])

    print(
        f"{config.name} on {args.platform}: {replicas}x replicas, "
        f"{shards}x shards, {router} routing; {args.requests} requests "
        f"({args.arrivals} arrivals, {run.rate:.2f} req/s)"
    )
    print(
        f"cluster: {result.completed} done, {result.rejected} rejected, "
        f"{result.shed} shed, {result.failovers} failovers; goodput "
        f"{result.goodput_rps:.2f} req/s, e2e p50/p95 "
        f"{result.e2e_p50_s * 1e3:.1f}/{result.e2e_p95_s * 1e3:.1f} ms, "
        f"utilization {result.utilization:.2f}"
    )
    rows = []
    for rep, res in enumerate(result.replica_results):
        failed_at = result.replica_failed_at[rep]
        rows.append([
            f"replica {rep}",
            result.replica_routed[rep],
            res.completed,
            res.rejected,
            result.replica_max_queue_depth[rep],
            f"{failed_at:.3f}" if failed_at is not None else "-",
            f"{res.e2e_p95_s * 1e3:.1f}",
            f"{res.goodput_rps:.2f}",
        ])
    print(format_table(
        ["replica", "routed", "done", "rej", "max depth", "failed @s",
         "e2e ms p95", "goodput"],
        rows,
    ))
    if result.degradation is not None and result.degradation.degraded:
        print(f"degradation (cluster scope): "
              f"{result.degradation.to_jsonable()}")
    if args.attribution:
        attribution = result.phase_attribution()
        if attribution.phase_seconds:
            print(f"[cluster] {attribution.render()}")
    return _finish_telemetry(args, clusters=[result])


def cmd_serve_disagg(args) -> int:
    """Disaggregated prefill/decode serving: placement-policy comparison."""
    from functools import partial

    from .baselines import prefill_host
    from .engine import (PLACEMENT_POLICIES, DisaggScheduler, HostPrefillPool,
                         disagg_load_sweep)

    placements = _csv_names(args.placement, "--placement", PLACEMENT_POLICIES)
    prefill_server = (
        HostPrefillPool(prefill_host()) if args.prefill_device == "host" else None
    )
    # The colocated placement is the probe: SLOs and rho are relative to it.
    run = _serving_setup(
        args, single_values=(("--placement", placements),),
        scheduler=partial(DisaggScheduler, placement="colocated",
                          prefill_server=prefill_server),
    )
    config = run.config
    header = {**run.header, "prefill_device": args.prefill_device}

    if args.sweep:
        points = disagg_load_sweep(
            run.server, config,
            placements=placements,
            prefill_server=prefill_server,
            **run.sweep_args,
        )
        schedules = [p.result for p in points]
        if args.json:
            _print_json({**header, "points": [p.to_jsonable() for p in points]})
            return _finish_telemetry(args, schedules=schedules)
        print(
            f"{config.name} on {args.platform}: {args.requests} requests per "
            f"cell ({args.arrivals} arrivals), prompt {args.prompt_len}, "
            f"generate {args.generate_len}, prefill pool on "
            f"{args.prefill_device}; rho normalized to the colocated FIFO "
            f"rate ({1.0 / run.service_s:.2f} req/s)"
        )
        rows = []
        for p in points:
            r = p.result
            rows.append([
                f"{p.target_utilization:.2f}", p.placement,
                r.completed, r.rejected, r.kv_transfers,
                f"{r.ttft_p50_s * 1e3:.1f}/{r.ttft_p95_s * 1e3:.1f}",
                f"{r.e2e_p50_s * 1e3:.1f}/{r.e2e_p95_s * 1e3:.1f}",
                f"{r.throughput_rps:.2f}", f"{r.goodput_rps:.2f}",
            ])
        print(format_table(
            ["rho", "placement", "done", "rej", "kv xfer",
             "ttft ms p50/95", "e2e ms p50/95", "req/s", "goodput"],
            rows,
        ))
        return _finish_telemetry(args, schedules=schedules)

    # Single-run mode: one placement policy at one load level.
    placement = placements[0]
    scheduler = DisaggScheduler(
        run.server, config, policy=run.policy, placement=placement,
        prefill_server=prefill_server,
    )
    # Reuse the probe's tuned costs (its prefill cost is its decode cost
    # when the prefill pool is PIM).
    scheduler.cost = run.prescheduler.cost
    scheduler.prefill_cost = run.prescheduler.prefill_cost
    result = scheduler.run(run.stream)

    if args.json:
        _print_json({
            **header,
            "kv_transfer": scheduler.kv.to_jsonable(),
            "schedule": result.to_jsonable(),
        })
        return _finish_telemetry(args, schedules=[result])

    print(
        f"{config.name} on {args.platform}: {placement} placement, "
        f"prefill pool on {args.prefill_device}; {args.requests} requests "
        f"({args.arrivals} arrivals, {run.rate:.2f} req/s), prompt "
        f"{args.prompt_len}, generate {args.generate_len}"
    )
    print(format_table(["placement", *_SCHEDULE_COLUMNS],
                       [_scheduler_row(placement, result)]))
    print(
        f"pools: prefill busy {result.prefill_pool_busy_s * 1e3:.1f} ms, "
        f"decode busy {result.decode_pool_busy_s * 1e3:.1f} ms, "
        f"{result.kv_transfers} KV migrations "
        f"({result.kv_transfer_s * 1e3:.2f} ms)"
    )
    _print_schedule_notes(args, result, ("prefill", "decode", "kv_transfer"))
    return _finish_telemetry(args, schedules=[result])


def cmd_moe(args) -> int:
    """MoE expert-as-LUT sweep: experts x top-k x routing x placement."""
    from .baselines import wimpy_host
    from .engine import PIMDLEngine
    from .obs import BottleneckReport
    from .pim import EXPERT_PLACERS
    from .workloads import MoEConfig, ROUTING_KINDS

    config = _apply_layers_override(EVAL_MODELS[args.model], args.layers)
    experts_list = _csv_numbers(args.experts, "--experts", positive=True)
    topk_list = _csv_numbers(args.top_k, "--top-k", positive=True)
    routings = _csv_names(args.routing, "--routing", ROUTING_KINDS)
    placers = _csv_names(args.placers, "--placers", EXPERT_PLACERS)

    platform = get_platform(args.platform)
    engine = PIMDLEngine(platform, wimpy_host(), v=args.v, ct=args.ct)
    if not args.json:
        print(f"model {config.name} on {platform.name} "
              f"({platform.ranks} ranks), tokens/layer {config.tokens}")

    cells = []
    for num_experts in experts_list:
        for top_k in topk_list:
            if top_k > num_experts:
                print(f"note: skipping top_k={top_k} > experts={num_experts}",
                      file=sys.stderr)
                continue
            for routing in routings:
                per_placer = {}
                for placer in placers:
                    moe = MoEConfig(
                        num_experts=num_experts, top_k=top_k, routing=routing,
                        zipf_s=args.zipf_s, seed=args.seed, placement=placer,
                    )
                    cost = engine.moe_layer_cost(config, moe)
                    report = engine.run(config, moe=moe)
                    per_placer[placer] = (cost, report)
                cells.append((num_experts, top_k, routing, per_placer))

    rows = []
    for num_experts, top_k, routing, per_placer in cells:
        for placer, (cost, report) in per_placer.items():
            counts = cost.expert_tokens
            rows.append([
                num_experts, top_k, routing, placer,
                f"{max(counts)}/{sum(counts) // len(counts)}",
                f"{cost.imbalance_index:.1%}",
                f"{cost.lut_makespan_s * 1e3:.3f}",
                f"{cost.lut_serial_s * 1e3:.3f}",
                f"{report.total_s * 1e3:.2f}",
            ])
    table = format_table(
        ["experts", "top-k", "routing", "placer", "tok max/mean",
         "rank imb", "lut makespan ms", "lut serial ms", "model ms"],
        rows,
    )

    payload = {
        "model": config.name,
        "platform": platform.name,
        "ranks": platform.ranks,
        "cells": [
            {
                "experts": num_experts,
                "top_k": top_k,
                "routing": routing,
                "placers": {
                    placer: {
                        "expert_tokens": list(cost.expert_tokens),
                        "placement": list(cost.placement),
                        "rank_seconds": list(cost.rank_seconds),
                        "rank_imbalance_index": cost.imbalance_index,
                        "lut_makespan_s": cost.lut_makespan_s,
                        "lut_serial_s": cost.lut_serial_s,
                        "ccs_s": cost.ccs_s,
                        "gate_s": cost.gate_s,
                        "layer_total_s": cost.total_s,
                        "model_total_s": report.total_s,
                    }
                    for placer, (cost, report) in per_placer.items()
                },
            }
            for num_experts, top_k, routing, per_placer in cells
        ],
    }
    if args.json:
        _print_json(payload)
    else:
        print(table)
        if "round-robin" in placers and "balanced" in placers:
            for num_experts, top_k, routing, per_placer in cells:
                rr = per_placer["round-robin"][0].lut_makespan_s
                bal = per_placer["balanced"][0].lut_makespan_s
                speedup = rr / bal if bal > 0 else 1.0
                print(
                    f"E={num_experts} k={top_k} {routing}: balanced placement "
                    f"{speedup:.2f}x vs round-robin on LUT makespan"
                )
    if args.attribution:
        for num_experts, top_k, routing, per_placer in cells:
            for placer, (cost, report) in per_placer.items():
                attribution = BottleneckReport.from_phases(
                    cost.phases,
                    imbalance_index=cost.imbalance_index,
                    top_ranks=cost.top_ranks(3),
                )
                print(f"[E={num_experts} k={top_k} {routing} {placer}] "
                      f"{attribution.render()}")
    reports = [report for _, _, _, pp in cells for _, report in pp.values()]
    return _finish_telemetry(args, reports=reports)


# ----------------------------------------------------------------------
# Benchmark suites feeding the persistent baseline store
# ----------------------------------------------------------------------

#: Default regression thresholds per suite kind: modeled benches are
#: deterministic (any drift is a code change), measured kernel timings on
#: shared CI runners are noisy.
_BENCH_THRESHOLDS = {"modeled": 0.02, "measured": 0.5}


def _bench_sim_kernel(platform_name: str):
    """Modeled: tuned LUT kernel latency on the event-level simulator."""
    platform = get_platform(platform_name)
    shape = LUTShape(n=1024, h=256, f=512, v=4, ct=16)
    mapping = AutoTuner(platform).tune(shape).mapping
    report = PIMSimulator(platform).run(shape, mapping)
    return report.total_s, {"shape": "n1024-h256-f512-v4-ct16"}


def _bench_engine_bert(platform_name: str):
    """Modeled: PIM-DL end-to-end BERT-base inference latency."""
    from .baselines import wimpy_host
    from .engine import PIMDLEngine

    platform = get_platform(platform_name)
    report = PIMDLEngine(platform, wimpy_host()).run(EVAL_MODELS["bert-base"])
    return report.total_s, {"model": "bert-base"}


def _bench_engine_moe_bert(platform_name: str):
    """Modeled: MoE BERT-base latency (32 zipf-routed experts, balanced
    placement) — pins the expert-as-LUT rank-contention cost model."""
    from .baselines import wimpy_host
    from .engine import PIMDLEngine
    from .workloads import MoEConfig

    platform = get_platform(platform_name)
    moe = MoEConfig(num_experts=32, top_k=2, routing="zipf",
                    placement="balanced", seed=0)
    engine = PIMDLEngine(platform, wimpy_host())
    report = engine.run(EVAL_MODELS["bert-base"], moe=moe)
    cost = engine.moe_layer_cost(EVAL_MODELS["bert-base"], moe)
    return report.total_s, {
        "model": "bert-base",
        "experts": 32,
        "top_k": 2,
        "routing": "zipf",
        "rank_imbalance": cost.imbalance_index,
    }


def _bench_sim_overlap_bert(platform_name: str):
    """Modeled: double-buffered simulator latency on a transfer-bound
    BERT-base layer mapping (the tentpole overlap pipeline under gate)."""
    platform = get_platform(platform_name)
    shape = LUTShape(n=128, h=768, f=768, v=4, ct=16)
    # Fixed multi-tile coarse-load mapping (not the tuned one, which is
    # single-tile and leaves nothing to overlap) so the bench pins the
    # pipelined path's latency, not the tuner's choice.
    mapping = Mapping(
        n_s_tile=64, f_s_tile=4, n_m_tile=4, f_m_tile=1, cb_m_tile=16,
        traversal=("n", "cb", "f"), load_scheme="coarse",
        cb_load_tile=8, f_load_tile=1,
    )
    report = PIMSimulator(platform).run(shape, mapping, overlap=True)
    return report.total_s, {
        "shape": "n128-h768-f768-v4-ct16",
        "overlap_hidden_s": float(report.overlap_hidden_s),
    }


def _bench_schedule_search(platform_name: str):
    """Measured: cold host kernel-schedule search (winner's total time)."""
    import numpy as np

    from .kernels import search_kernel_schedule

    schedule = search_kernel_schedule(
        n=256, h=256, f=256, v=4, ct=16,
        repeats=3, rng=np.random.default_rng(0), cache=None,
    )
    return schedule.total_seconds, {
        "shape": "n256-h256-f256-v4-ct16",
        "speedup_vs_default": schedule.speedup_vs_default,
    }


def _bench_host_ccs(platform_name: str):
    """Measured: this machine's host CCS kernel (seconds, best-of-N)."""
    import numpy as np

    from .kernels import CCSKernel

    rng = np.random.default_rng(0)
    x = rng.normal(size=(512, 256))
    centroids = rng.normal(size=(64, 16, 4))
    kernel = CCSKernel(dtype="float32")
    kernel.prepare(centroids, version=0)
    value = _best_seconds(lambda: kernel.search(x, centroids, version=0),
                          5, warmup=0)
    return value, {"shape": "n512-h256-v4-ct16"}


def _bench_host_lut(platform_name: str):
    """Measured: this machine's host LUT gather+reduce kernel."""
    import numpy as np

    from .kernels import lut_gather_reduce

    rng = np.random.default_rng(0)
    indices = rng.integers(0, 16, size=(512, 64)).astype(np.int32)
    lut = rng.normal(size=(64, 16, 256))
    value = _best_seconds(lambda: lut_gather_reduce(indices, lut), 5, warmup=0)
    return value, {"shape": "n512-cb64-f256-ct16"}


def _bench_host_codebooks(platform_name: str):
    """Measured: this machine's k-means codebook build (conversion step 1)."""
    import numpy as np

    from .core import Codebooks

    acts = np.random.default_rng(0).normal(size=(256, 256))
    value = _best_seconds(
        lambda: Codebooks.from_activations(acts, v=4, ct=16, max_iters=10,
                                           rng=np.random.default_rng(1)),
        5, warmup=0)
    return value, {"shape": "m256-h256-v4-ct16", "max_iters": 10}


def _bench_sim_walk(platform_name: str):
    """Measured: this machine's simulator speed, overlap on, over BERT-base's
    tuned LUT mappings on every platform plus one 262,144-tile mapping."""
    runs = []
    for name in PLATFORMS:
        platform = get_platform(name)
        simulator, tuner = PIMSimulator(platform), AutoTuner(platform)
        for shape in model_lut_shapes(EVAL_MODELS["bert-base"]):
            runs.append((simulator, shape, tuner.tune(shape).mapping))
    runs.append((
        PIMSimulator(get_platform("upmem")),
        LUTShape(n=8192, h=512, f=1024, v=4, ct=16),
        Mapping(n_s_tile=4096, f_s_tile=512, n_m_tile=32, f_m_tile=8, cb_m_tile=4,
                traversal=("cb", "f", "n"), load_scheme="coarse",
                cb_load_tile=2, f_load_tile=4),
    ))

    def run_all():
        for simulator, shape, mapping in runs:
            simulator.run(shape, mapping, overlap=True)

    return _best_seconds(run_all, 5, warmup=0), {"model": "bert-base", "mappings": len(runs)}


def _bench_tune_cold(platform_name: str):
    """Measured: this machine's cold Auto-Tuner speed over BERT-base's LUT
    shapes on every platform, each tuned by a fresh tuner."""
    platforms = [get_platform(name) for name in PLATFORMS]
    shapes = model_lut_shapes(EVAL_MODELS["bert-base"])

    def tune_all():
        for platform in platforms:
            for shape in shapes:
                AutoTuner(platform).tune(shape)

    return _best_seconds(tune_all, 5, warmup=0), {
        "model": "bert-base", "shapes": len(platforms) * len(shapes),
    }


def _bench_serving_replay(platform_name: str):
    """Measured: this machine's serving-loop speed, in microseconds per
    scheduler step of a warm, seeded colocated replay (best of 5)."""
    from .baselines import wimpy_host
    from .engine import (GenerationServer, Request, RequestScheduler,
                         SchedulerPolicy, poisson_requests)

    config = EVAL_MODELS["bert-base"].with_(num_layers=1)
    sched = RequestScheduler(
        GenerationServer(get_platform(platform_name), wimpy_host()), config,
        policy=SchedulerPolicy(max_batch_size=8),
    )
    service_s = sched.fifo_service_time(Request(-1, 0.0, 128, 32))
    stream = poisson_requests(300, 1.4 / service_s, prompt_len=[64, 128, 256],
                              generate_len=[16, 32, 64], seed=0)
    steps = sched.run(stream).steps  # fills the cost memos off the clock
    best = _best_seconds(lambda: sched.run(stream), 5, warmup=0)
    return best / steps * 1e6, {
        "unit": "us", "model": "bert-base", "requests": len(stream), "steps": steps,
    }


#: bench id -> (suite kind, runner).  Ids are stable across commits — they
#: key the store history.
_BENCH_REGISTRY = {
    "sim.lut-kernel": ("modeled", _bench_sim_kernel),
    "engine.bert-base": ("modeled", _bench_engine_bert),
    "engine.moe-bert-base": ("modeled", _bench_engine_moe_bert),
    "sim.overlap-bert-base": ("modeled", _bench_sim_overlap_bert),
    "kernels.host-ccs": ("measured", _bench_host_ccs),
    "kernels.host-lut": ("measured", _bench_host_lut),
    "kernels.host-codebooks": ("measured", _bench_host_codebooks),
    "kernels.schedule-search": ("measured", _bench_schedule_search),
    "sim.walk": ("measured", _bench_sim_walk),
    "mapping.tune-cold": ("measured", _bench_tune_cold),
    "serving.replay": ("measured", _bench_serving_replay),
}


def _bench_specs(suite: str):
    return [
        (bench_id, kind, fn)
        for bench_id, (kind, fn) in _BENCH_REGISTRY.items()
        if suite == "all" or suite == kind
    ]


def cmd_bench(args) -> int:
    """Record/compare benchmark results in the persistent baseline store."""
    from .obs.baseline import (
        BaselineStore,
        current_git_sha,
        detect_regression,
        host_fingerprint,
    )

    store = BaselineStore(args.store)
    sha = current_git_sha()

    def fingerprint(kind: str) -> str:
        # Modeled results depend only on the modeled platform; measured
        # results additionally key on this machine (host_fingerprint folds
        # the interpreter/arch in by itself).
        return host_fingerprint({"platform": args.platform, "kind": kind})

    if args.bench_command == "list":
        pairs = store.bench_ids()
        if not pairs:
            print(f"no benchmark history in {args.store}")
            return 0
        rows = []
        for bench_id, fp in pairs:
            records = store.records(bench_id, fp)
            rows.append([
                bench_id, fp, len(records),
                f"{records[-1].value:.6g} {records[-1].unit}" if records else "-",
                records[-1].git_sha if records else "-",
            ])
        print(format_table(
            ["bench", "fingerprint", "n", "latest", "sha"], rows
        ))
        return 0

    specs = _bench_specs(args.suite)
    if not specs:
        raise UsageError(f"no benchmarks in suite {args.suite!r}")

    results = []
    for bench_id, kind, fn in specs:
        value, meta = fn(args.platform)
        meta = {**meta, "platform": args.platform, "suite": kind}
        results.append((bench_id, kind, value, meta))

    if args.bench_command == "run":
        rows = []
        for bench_id, kind, value, meta in results:
            record = store.record(
                bench_id, value, git_sha=sha, fingerprint=fingerprint(kind),
                unit=meta.get("unit", "s"), meta=meta,
            )
            rows.append([bench_id, kind, f"{record.value:.6g} {record.unit}",
                         record.git_sha])
        print(format_table(["bench", "suite", "value", "sha"], rows))
        print(f"{len(rows)} result(s) appended to {args.store}")
        return 0

    # bench compare
    verdicts = []
    for bench_id, kind, value, meta in results:
        fp = fingerprint(kind)
        baseline = store.baseline_values(bench_id, fp)
        threshold = (
            args.threshold
            if args.threshold is not None
            else _BENCH_THRESHOLDS[kind]
        )
        verdict = detect_regression(bench_id, value, baseline, threshold=threshold,
                                    unit=meta.get("unit", "s"))
        verdicts.append(verdict)
        prefix = "warning" if verdict.status == "insufficient-baseline" else verdict.status
        print(f"[{prefix}] {verdict.render()}")
        if args.record:
            store.record(
                bench_id, value, git_sha=sha, fingerprint=fingerprint(kind),
                unit=meta.get("unit", "s"), meta=meta,
            )
    regressions = [v for v in verdicts if v.is_regression]
    if args.json is not None:
        path = args.json or f"BENCH_{sha}.json"
        payload = {
            "git_sha": sha,
            "store": args.store,
            "suite": args.suite,
            "platform": args.platform,
            "regressions": len(regressions),
            "verdicts": [v.to_jsonable() for v in verdicts],
        }
        try:
            obs.dump_json(payload, path)
        except OSError as exc:
            print(f"error: cannot write {path}: {exc}", file=sys.stderr)
            return 1
        print(f"comparison written to {path}", file=sys.stderr)
    if regressions:
        print(
            f"{len(regressions)} regression(s) detected", file=sys.stderr
        )
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="PIM-DL reproduction command line"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    platforms = sub.add_parser("platforms", help="list modeled DRAM-PIM platforms")
    platforms.add_argument("--json", action="store_true",
                           help="machine-readable output")

    tune = sub.add_parser("tune", help="auto-tune a LUT workload (Algorithm 1)")
    _add_platform_argument(tune)
    _add_shape_arguments(tune)
    tune.add_argument("--amortize-lut", action="store_true",
                      help="treat LUTs as resident in PIM memory")
    _add_mapping_source_arguments(tune)
    tune.add_argument("--progress", type=int, metavar="N", default=0,
                      help="print search progress every N candidates")
    _add_telemetry_arguments(tune)

    simulate = sub.add_parser("simulate", help="run the event-level simulator")
    _add_platform_argument(simulate)
    _add_shape_arguments(simulate)
    _add_mapping_source_arguments(simulate)
    simulate.add_argument(
        "--overlap", action="store_true",
        help="double-buffer the micro-kernel loop: tile i+1's transfer "
             "overlaps tile i's lookup/reduce",
    )
    simulate.add_argument(
        "--profile", action="store_true",
        help="print the per-phase bottleneck attribution (the per-rank "
             "lanes ride along in --emit-trace)",
    )
    _add_telemetry_arguments(simulate)

    flops = sub.add_parser("flops", help="GEMM vs LUT-NN op counts (Fig. 3)")
    _add_shape_arguments(flops)
    flops.add_argument("--json", action="store_true", help="machine-readable output")

    compare = sub.add_parser("compare", help="end-to-end engine comparison")
    _add_model_arguments(compare, layers=False)
    compare.add_argument("--measure-host", action="store_true",
                         help="measure this machine's host CCS kernel (with "
                              "--dtype/--block-rows) and use it instead of "
                              "the roofline estimate")
    _add_host_kernel_arguments(compare)
    compare.add_argument("--overlap", action="store_true",
                         help="run the PIM-DL engine with the double-"
                              "buffered host<->PIM overlap pipeline")
    _add_output_arguments(compare, attribution="print per-phase bottleneck "
                                               "attribution for each engine")

    kernels = sub.add_parser(
        "kernels",
        help="benchmark + parity-check the host kernels vs the references",
    )
    _add_shape_arguments(kernels)
    _add_host_kernel_arguments(kernels)
    kernels.add_argument("--int8", action="store_true",
                         help="also benchmark the fused INT8 lookup path")
    kernels.add_argument("--repeats", type=int, default=3,
                         help="best-of-N timing repeats")
    kernels.add_argument("--search", action="store_true",
                         help="search the measured kernel schedule (block "
                              "sizes, gather strategy) for this shape "
                              "instead of the parity benchmark")
    kernels.add_argument("--schedule-cache", metavar="DIR",
                         help="persistent kernel-schedule cache directory "
                              "for --search (hit skips all measurements)")
    kernels.add_argument("--seed", type=int, default=0)
    _add_output_arguments(kernels)

    faults = sub.add_parser(
        "faults",
        help="serve requests under an injected fault scenario (retry/remap/"
             "fallback ladder)",
    )
    _add_model_arguments(faults)
    faults.add_argument("--prompt-len", type=int, default=None, metavar="N")
    faults.add_argument("--generate-len", type=int, default=16, metavar="N")
    faults.add_argument("--batch", type=int, default=None, metavar="N")
    faults.add_argument("--requests", type=int, default=2, metavar="N",
                        help="requests to serve (first pays recovery; the "
                             "rest show the degraded steady state)")
    faults.add_argument("--scenario", metavar="PATH",
                        help="JSON fault-plan file (overrides the fault flags)")
    faults.add_argument("--seed", type=int, default=0,
                        help="fault injection seed (bit-flip positions)")
    faults.add_argument("--fail-ranks", default="", metavar="R0,R1",
                        help="comma-separated dead PIM rank ids")
    faults.add_argument("--fail-pes", type=int, default=0, metavar="N",
                        help="additional individual dead PEs")
    faults.add_argument("--straggler", type=float, default=1.0, metavar="X",
                        help="micro-kernel slowdown factor (>= 1)")
    faults.add_argument("--timeouts", type=int, default=0, metavar="N",
                        help="leading PIM transfers that time out")
    faults.add_argument("--bit-flips", type=int, default=0, metavar="N",
                        help="bit flips injected into each device LUT table")
    faults.add_argument("--max-retries", type=int, default=3, metavar="N",
                        help="transient-fault retry budget")
    faults.add_argument("--no-functional", action="store_true",
                        help="skip the functional kernel parity check")
    _add_output_arguments(faults)

    serve_sim = sub.add_parser(
        "serve-sim",
        help="continuous-batching serving simulation under a request "
             "arrival stream (TTFT/TPOT percentiles, SLO goodput)",
    )
    _add_model_arguments(serve_sim)
    _add_serving_arguments(serve_sim)
    serve_sim.add_argument("--compare-fifo", action="store_true",
                           help="also run the identical stream through the "
                                "single-server FIFO (batch-1) discipline")
    _add_output_arguments(serve_sim, attribution="print per-phase bottleneck "
                                                 "attribution per request "
                                                 "class (prefill / decode)")

    serve_cluster = sub.add_parser(
        "serve-cluster",
        help="cluster-scale serving simulation: replicated/sharded "
             "scheduling with pluggable routing and replica failover",
    )
    _add_model_arguments(serve_cluster)
    _add_serving_arguments(serve_cluster)
    serve_cluster.set_defaults(requests=128)
    serve_cluster.add_argument("--replicas", default="2", metavar="N[,N...]",
                               help="replica count (comma list with --sweep)")
    serve_cluster.add_argument("--shards", default="1", metavar="N[,N...]",
                               help="layer shards per replica (comma list "
                                    "with --sweep)")
    serve_cluster.add_argument("--routers", default="round-robin",
                               metavar="POLICY[,POLICY...]",
                               help="routing policy: round-robin, "
                                    "least-loaded, p2c, session-affinity "
                                    "(comma list with --sweep)")
    serve_cluster.add_argument("--sessions", type=int, default=None,
                               metavar="N",
                               help="tag requests with N client sessions "
                                    "(for session-affinity routing)")
    serve_cluster.add_argument("--sweep", action="store_true",
                               help="sweep replicas x shards x routers x "
                                    "utilization on identical streams; rho "
                                    "is relative to ONE unsharded replica")
    serve_cluster.add_argument("--fail", action="append", metavar="R@T",
                               help="kill replica R at T seconds "
                                    "(repeatable)")
    serve_cluster.add_argument("--fail-ranks", default=None,
                               metavar="RANK[,RANK...]",
                               help="device-level fault plan: failed DRAM "
                                    "ranks, mapped to replica kills via the "
                                    "platform's ranks-per-replica")
    serve_cluster.add_argument("--fail-at", type=float, default=None,
                               metavar="S",
                               help="failure instant for --fail-ranks")
    _add_output_arguments(serve_cluster, attribution="print cluster-level "
                                                     "bottleneck attribution")

    serve_disagg = sub.add_parser(
        "serve-disagg",
        help="disaggregated prefill/decode serving: separate prefill and "
             "decode pools joined by a KV-transfer cost, with pluggable "
             "placement policies",
    )
    _add_model_arguments(serve_disagg)
    _add_serving_arguments(serve_disagg)
    # Decode-heavy defaults: goodput under overload is decode-bound.
    serve_disagg.set_defaults(requests=96, generate_len=64,
                              utilization="0.8,1.2,1.6")
    serve_disagg.add_argument("--placement",
                              default="colocated,disaggregated,hybrid",
                              metavar="POLICY[,POLICY...]",
                              help="placement policy: colocated, "
                                   "disaggregated, hybrid (comma list with "
                                   "--sweep)")
    serve_disagg.add_argument("--prefill-device", choices=["pim", "host"],
                              default="pim",
                              help="prefill pool hardware: a second PIM "
                                   "engine or the compute-configured host "
                                   "roofline")
    serve_disagg.add_argument("--sweep", action="store_true",
                              help="sweep placement x utilization on "
                                   "identical seeded streams and SLOs; rho "
                                   "is relative to the colocated engine")
    _add_output_arguments(serve_disagg, attribution="print per-phase "
                                                    "bottleneck attribution "
                                                    "per request class "
                                                    "(prefill / decode / "
                                                    "kv_transfer)")

    moe = sub.add_parser(
        "moe",
        help="MoE expert-as-LUT serving sweep: experts x top-k x routing "
             "skew x expert placement, priced as max-over-ranks makespan",
    )
    _add_model_arguments(moe)
    moe.add_argument("--experts", default="32", metavar="E[,E...]",
                     help="expert counts to sweep")
    moe.add_argument("--top-k", default="2", metavar="K[,K...]",
                     help="experts consulted per token")
    moe.add_argument("--routing", default="uniform,zipf",
                     metavar="KIND[,KIND...]",
                     help="token-to-expert routing: uniform, zipf")
    moe.add_argument("--zipf-s", type=float, default=1.2, metavar="S",
                     help="Zipf skew exponent (expert 0 hottest)")
    moe.add_argument("--placers", default="round-robin,balanced",
                     metavar="P[,P...]",
                     help="expert placement: round-robin, balanced")
    moe.add_argument("--seed", type=int, default=0,
                     help="routing trace seed")
    _add_output_arguments(moe, attribution="print per-phase bottleneck "
                                           "attribution with the "
                                           "rank-imbalance index and "
                                           "most-loaded ranks")

    bench = sub.add_parser(
        "bench",
        help="run benchmarks against the persistent baseline store and "
             "detect performance regressions",
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    bench_run = bench_sub.add_parser(
        "run", help="run the suite and append results to the store"
    )
    bench_compare = bench_sub.add_parser(
        "compare", help="run the suite and compare against recorded history"
    )
    bench_list = bench_sub.add_parser(
        "list", help="show recorded benchmark histories"
    )
    for p in (bench_run, bench_compare, bench_list):
        p.add_argument("--store", default=".bench-store", metavar="DIR",
                       help="baseline store directory (default: .bench-store)")
    for p in (bench_run, bench_compare):
        p.add_argument("--suite", default="modeled",
                       choices=["modeled", "measured", "all"],
                       help="which benchmarks to run (default: modeled)")
        _add_platform_argument(p)
    bench_compare.add_argument(
        "--threshold", type=float, default=None, metavar="REL",
        help="relative regression threshold override (default: 0.02 for "
             "modeled, 0.5 for measured benchmarks)")
    bench_compare.add_argument(
        "--record", action="store_true",
        help="also append the current results to the store after comparing")
    bench_compare.add_argument(
        "--json", nargs="?", const="", default=None, metavar="PATH",
        help="write the comparison as JSON (default name: BENCH_<sha>.json)")
    return parser


COMMANDS = {
    "platforms": cmd_platforms,
    "tune": cmd_tune,
    "simulate": cmd_simulate,
    "flops": cmd_flops,
    "compare": cmd_compare,
    "kernels": cmd_kernels,
    "faults": cmd_faults,
    "serve-sim": cmd_serve_sim,
    "serve-cluster": cmd_serve_cluster,
    "serve-disagg": cmd_serve_disagg,
    "moe": cmd_moe,
    "bench": cmd_bench,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for flag in _POSITIVE_FLAGS:
            _require_positive(flag, getattr(args, flag[2:].replace("-", "_"), None))
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
