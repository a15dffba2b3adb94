#!/usr/bin/env python3
"""Benchmark of the PIM-DL reproduction: seeded workloads, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload lut-prefill --seed 1 --seconds 12 --trace 0

``--trace 0`` times the workload with the program's telemetry at its
default (on) and no benchmark spans, and reports the ``end_to_end``
metrics of BENCHMARK.json.  ``--trace 1`` reports the ``per_layer``
metrics: it traces one set-up and as many calls as an untraced and a
telemetry-off companion phase of the same length.  Every run checks the
program's outputs.  The last line of standard output is the JSON result;
the lines before it list every metric with its unit and label.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
#: Set-ups per end-to-end run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Span buffer of the traced run; it is cleared after every call.
MAX_SPANS = 2_000_000


def host_probe() -> float:
    """Seconds of a fixed interpreter and numpy task, timed before each call.

    On a shared host the speed of the cores can drift by tens of percent
    over minutes.  ``items_per_probe`` divides that drift out; no change
    to the program can change how long this task takes.
    """
    import numpy as np

    t0 = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    values = np.arange(200_000, dtype=np.float64)
    for _ in range(20):
        values = np.sqrt(values * values + 1.0)
    return time.perf_counter() - t0


def _label(name: str) -> str:
    if name == "lut_rel_error":
        return "quality"
    if name.startswith(("modeled", "pim.sim_vs_model", "engine.phase_residual")):
        return "modeled"
    return "measured"


class Run:
    """Counts calls and failed output checks of one benchmark run."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0

    def record(self, failures, what):
        self.attempted += 1
        if failures:
            self.failed += 1
            for failure in failures:
                print(f"check failed ({what}): {failure}", file=sys.stderr)

    def verify(self):
        try:
            failures = self.wl.verify()
        except Exception:
            traceback.print_exc()
            failures = ["verification call raised"]
        if failures is not None:
            self.record(failures, "verified call")

    def calls(self, obs, rounds=None, seconds=None, tracer=None, totals=None):
        """Whole rounds of timed calls.

        Returns the walls of the calls, the items they completed, the
        program's span count after each, and the host probe before each.

        Runs ``rounds`` rounds, or rounds until ``seconds`` have passed.
        Telemetry is reset before every call so buffers never carry over.
        """
        wl = self.wl
        walls, items, spans, probes = [], 0, [], []
        start = time.perf_counter()
        done = 0
        while True:
            for _ in range(wl.calls_per_round):
                index = len(walls)
                obs.reset()
                gc.collect()
                probes.append(host_probe())
                output = None
                t0 = time.perf_counter()
                try:
                    if tracer is None:
                        output = wl.call(index)
                    else:
                        with tracer.span("call"):
                            output = wl.call(index)
                except Exception:
                    traceback.print_exc()
                walls.append(time.perf_counter() - t0)
                spans.append(len(obs.get_tracer()))
                if totals is not None:
                    totals.add(tracer.finished_spans())
                    if len(tracer) >= MAX_SPANS:
                        raise RuntimeError("span buffer overflowed")
                    tracer.clear()
                if output is None:
                    self.record(["call raised"], "timed call")
                    continue
                failures = wl.check(output)
                self.record(failures, "timed call")
                if not failures:
                    items += wl.items(output)
            done += 1
            if rounds is not None and done >= rounds:
                break
            if seconds is not None and time.perf_counter() - start >= seconds:
                break
        return walls, items, spans, probes


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run, obs, seconds):
    setups = []
    for _ in range(SETUP_REPS):
        obs.reset()
        t0 = time.perf_counter()
        run.wl.setup()
        setups.append(time.perf_counter() - t0)
    run.verify()
    walls, items, _, probes = run.calls(obs, seconds=seconds)
    probe_s = statistics.mean(probes)
    return {
        "items_per_s": items / sum(walls),
        "items_per_probe": items / sum(walls) * probe_s,
        "probe_s": probe_s,
        "call_p50_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": _peak_rss_mib(),
        "calls": len(walls),
    }


def per_layer(run, obs, seconds):
    from spans import LayerTotals, layer_spans

    wl = run.wl
    tracer = obs.Tracer(max_spans=MAX_SPANS)
    totals = LayerTotals()
    obs.reset()
    with layer_spans(tracer):
        with tracer.span("setup"):
            wl.setup()
    totals.add(tracer.finished_spans())
    tracer.clear()
    run.verify()

    untraced, _, program_spans, _ = run.calls(obs, seconds=seconds / 3)
    rounds = len(untraced) // wl.calls_per_round
    with layer_spans(tracer, wl.models()):
        traced, _, _, _ = run.calls(obs, rounds=rounds, tracer=tracer, totals=totals)
    obs.set_enabled(False)
    try:
        quiet, _, _, _ = run.calls(obs, rounds=rounds)
    finally:
        obs.set_enabled(True)

    def per_call(walls):
        return sum(walls) / len(walls)

    overhead_s = per_call(traced) - per_call(untraced)
    # The self times of a traced call partition its wall time; allow the
    # tracing overhead (and 0.1 ms of timer skew) between the two.
    tolerance = abs(overhead_s) + 1e-4
    for self_sum, wall in zip(totals.call_self_sums, traced):
        run.record([] if abs(self_sum - wall) <= tolerance else
                   [f"self times sum to {self_sum:.6f} s of a {wall:.6f} s call"],
                   "span partition")

    metrics = totals.metrics(wl.step_counts())
    metrics.update({
        "obs.overhead_share": 1.0 - per_call(quiet) / per_call(untraced),
        "obs.spans": sum(program_spans) / len(program_spans),
        "trace.overhead_s": overhead_s,
        "calls": len(traced),
    })
    return metrics


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every size (self-test only)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    spec = json.loads(SPEC_PATH.read_text())
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}", file=sys.stderr)
        return 2
    # One BLAS thread: on a host with few cores a second one mostly adds
    # scheduling noise.  Set before numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))

    from repro import obs
    from workloads import WORKLOAD_METRICS, WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    run = Run(wl)
    obs.set_enabled(True)
    if args.trace:
        measured = per_layer(run, obs, args.seconds)
        wanted = spec["per_layer"]
    else:
        measured = end_to_end(run, obs, args.seconds)
        wanted = spec["end_to_end"]
    values = dict(wl.report(), **measured)
    units = {"items_per_s": "items/s", "call_p50_s": "s", "probe_s": "s"}
    units.update((m["name"], m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    print(f"workload {wl.name}: item = {wl.item}, {values.pop('calls')} timed calls, "
          f"seed {args.seed}, trace {args.trace}")
    for name in sorted(values):
        print(f"  {name:34s} {values[name]:>14.6g} {units.get(name, ''):8s} "
              f"[{_label(name)}]")
    # Modeled and quality metrics of another workload read 0.
    values = dict(dict.fromkeys(WORKLOAD_METRICS, 0.0), **values)
    print(f"  failed_share {run.failed / run.attempted:.6g} "
          f"({run.failed} of {run.attempted} checked calls)")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
