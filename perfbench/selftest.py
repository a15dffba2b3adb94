#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny size, in both modes.

Run from the root of a checkout::

    python3 perfbench/selftest.py

Each run must exit 0, print exactly the metrics BENCHMARK.json names for
its mode with their units, pass every output check, and show work in the
layers its workload exists to exercise.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
#: Per-layer metrics that must be non-zero on each workload.
EXERCISED = {
    "lut-prefill": ("kernels.gather_s", "kernels.ccs_s", "core.lut_linear_self_s",
                    "core.codebooks_s", "nn.QKV_s", "nn.Attention_s", "lut_rel_error"),
    "lut-decode": ("kernels.gather_int8_s", "kernels.ccs_s", "nn.kv_append_s",
                   "nn.Head_s", "lut_rel_error"),
    "serve-stream": ("engine.colocated.run_s", "engine.disagg.run_s", "cluster.run_s",
                     "engine.cost.calls", "engine.result_s", "setup.mapping.tune_s",
                     "modeled_goodput_rps", "modeled.cluster.ttft_p99_s"),
    "tune-eval": ("mapping.tune_s", "mapping.candidates_per_s", "pim.sim_s",
                  "engine.model_s", "modeled_latency_s", "pim.sim_vs_model_err_max"),
}


def check_run(spec, workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"checks: {proc.stderr[-2000:]}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if got != wanted:
        problems.append(f"metric names or units differ: {sorted(set(got) ^ set(wanted))}")
    for name, metric in result["metrics"].items():
        if not math.isfinite(metric["value"]):
            problems.append(f"{name} is not finite")
    if trace:
        idle = [n for n in EXERCISED[workload] if not result["metrics"][n]["value"]]
        if idle:
            problems.append(f"no work recorded in {idle}")
    else:
        zero = [n for n, metric in result["metrics"].items() if metric["value"] <= 0]
        if zero:
            problems.append(f"end-to-end metrics not positive: {zero}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check_run(spec, workload, trace)
            status = "ok" if not problems else "FAILED"
            print(f"{workload} --trace {trace}: {status}")
            for problem in problems:
                print(f"  {problem}")
            failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
