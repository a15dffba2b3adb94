"""Validate the CI configuration the repo actually ships.

CI breakage is usually discovered in CI; these tests catch the cheap
mistakes locally instead: an unparseable workflow file, a job that stops
running the tier-1 command from ROADMAP.md, a dropped coverage gate, the
lint config disappearing from pyproject.toml, or the benchmark suite
becoming un-collectable (which would break the nightly job at startup).
"""

import os
import re
import subprocess
import sys

import pytest

yaml = pytest.importorskip("yaml")

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKFLOW = os.path.join(REPO, ".github", "workflows", "ci.yml")
PYPROJECT = os.path.join(REPO, "pyproject.toml")


@pytest.fixture(scope="module")
def workflow():
    with open(WORKFLOW) as fh:
        doc = yaml.safe_load(fh)
    assert isinstance(doc, dict)
    return doc


def _triggers(workflow):
    # YAML 1.1 parses the bare key `on` as boolean True.
    return workflow.get("on", workflow.get(True))


def _run_commands(job):
    return [step.get("run", "") for step in job["steps"]]


class TestWorkflowFile:
    def test_parses_and_has_expected_jobs(self, workflow):
        assert set(workflow["jobs"]) == {
            "tests", "lint", "slow-benchmarks", "nightly-bench",
        }

    def test_push_and_pr_trigger_tier1(self, workflow):
        triggers = _triggers(workflow)
        assert "push" in triggers
        assert "pull_request" in triggers

    def test_tests_job_runs_tier1_command_with_coverage(self, workflow):
        job = workflow["jobs"]["tests"]
        runs = " ".join(_run_commands(job))
        # The command ROADMAP.md defines as the tier-1 gate.
        assert "PYTHONPATH=src python -m pytest -x -q" in runs
        assert "--cov=repro" in runs
        assert "--cov-fail-under" in runs

    def test_tests_job_runs_scheduler_suite(self, workflow):
        """The serving scheduler module is an explicit tier-1 member."""
        runs = " ".join(_run_commands(workflow["jobs"]["tests"]))
        assert "tests/test_scheduler.py" in runs

    def test_tests_job_runs_serving_invariant_suite(self, workflow):
        """The serving invariants over the scheduler x flag matrix run in
        the scheduler step."""
        job = workflow["jobs"]["tests"]
        step = next(s for s in job["steps"]
                    if s.get("name", "").startswith("Scheduler + serving-layer"))
        assert "tests/test_serving_invariants.py" in step["run"]

    def test_tests_job_runs_cluster_suite(self, workflow):
        """The cluster serving module is an explicit tier-1 member."""
        runs = " ".join(_run_commands(workflow["jobs"]["tests"]))
        assert "tests/test_cluster.py" in runs

    def test_tests_job_runs_overlap_and_schedule_suites(self, workflow):
        """The overlap pipeline + schedule cache are explicit tier-1 members."""
        runs = " ".join(_run_commands(workflow["jobs"]["tests"]))
        assert "tests/test_overlap.py" in runs
        assert "tests/test_kernel_schedule.py" in runs

    def test_tests_job_runs_disagg_suite(self, workflow):
        """The disaggregated serving module is an explicit tier-1 member."""
        runs = " ".join(_run_commands(workflow["jobs"]["tests"]))
        assert "tests/test_disagg.py" in runs

    def test_tests_job_runs_moe_suite(self, workflow):
        """The MoE workload/placement stack is an explicit tier-1 member."""
        runs = " ".join(_run_commands(workflow["jobs"]["tests"]))
        assert "tests/test_moe.py" in runs

    def test_tests_job_runs_kernels_and_benchmark_selftest(self, workflow):
        """The host kernels and the benchmark self-test, which checks every
        kernel call against the frozen references, are one explicit step."""
        job = workflow["jobs"]["tests"]
        step = next(s for s in job["steps"]
                    if s.get("name", "").startswith("Host kernels + benchmark"))
        assert "tests/test_kernels.py" in step["run"]
        assert "perfbench/selftest.py" in step["run"]

    def test_tests_job_runs_inference_mode_suite(self, workflow):
        """The no-tape eval-mode forward guards run with the host kernels,
        whose lean inference path they share."""
        job = workflow["jobs"]["tests"]
        step = next(s for s in job["steps"]
                    if s.get("name", "").startswith("Host kernels + benchmark"))
        assert step["name"] == (
            "Host kernels + benchmark self-test (explicit tier-1 member)")
        assert "tests/test_inference_mode.py" in step["run"]

    def test_tests_job_runs_kmeans_parity(self, workflow):
        """The batched k-means parity suite is one explicit step, ahead of
        the host-kernel step whose benchmark self-test can stop the job."""
        job = workflow["jobs"]["tests"]
        names = [s.get("name", "") for s in job["steps"]]
        step = next(s for s in job["steps"]
                    if s.get("name", "").startswith("Codebook k-means parity"))
        assert step["name"] == (
            "Codebook k-means parity (explicit tier-1 member)")
        for path in ("tests/test_kmeans_batched.py", "tests/test_kmeans.py",
                     "tests/test_codebook.py"):
            assert path in step["run"]
        kernels = next(i for i, name in enumerate(names)
                       if name.startswith("Host kernels + benchmark"))
        assert names.index(step["name"]) < kernels

    def test_tests_job_runs_cli_suite(self, workflow):
        """The CLI's parity, usage-error and parser-surface tests are one
        explicit step."""
        job = workflow["jobs"]["tests"]
        step = next(s for s in job["steps"]
                    if s.get("name", "").startswith("CLI suite"))
        for path in ("tests/test_obs_cli.py", "tests/test_store_trace_cli.py",
                     "tests/test_falsy_args.py", "tests/test_bench_baseline.py",
                     "tests/test_cli_usage.py", "tests/test_cli_surface.py"):
            assert path in step["run"]

    def test_tests_job_runs_tuner_suite(self, workflow):
        """The Auto-Tuner's bound, parity, golden-mapping and telemetry
        tests are one explicit step."""
        job = workflow["jobs"]["tests"]
        step = next(s for s in job["steps"]
                    if s.get("name", "").startswith("Auto-Tuner suite"))
        for path in ("tests/test_tuner.py", "tests/test_tuner_bound.py",
                     "tests/test_tuner_parallel.py",
                     "tests/test_golden_mappings.py",
                     "tests/test_obs_instrumentation.py",
                     "tests/test_obs_overhead.py",
                     "tests/test_analytical_model.py",
                     "tests/test_mapping_space.py",
                     "tests/test_kernel_search.py"):
            assert path in step["run"]

    def test_tests_job_runs_cost_model_parity(self, workflow):
        """The LUT cost model's bit-level parity (engine reports, the
        simulator sweep, trace vs. walk, the vectorized walk vs. the Python
        reference walk) and the operator graph's conformance with the
        executed model are one explicit step."""
        job = workflow["jobs"]["tests"]
        step = next(s for s in job["steps"]
                    if s.get("name", "").startswith("LUT cost-model parity"))
        for path in ("tests/test_cost_model_parity.py",
                     "tests/test_simulator_walk.py",
                     "tests/test_simulator.py",
                     "tests/test_obs_profiler.py",
                     "tests/test_operator_graph.py"):
            assert path in step["run"]

    def test_coverage_step_runs_after_a_failed_step(self, workflow):
        """The full tier-1 run is not skipped when an earlier explicit
        step (the benchmark self-test) fails; the job still fails."""
        job = workflow["jobs"]["tests"]
        step = next(s for s in job["steps"]
                    if s.get("name", "").startswith("Tier-1 tests with coverage"))
        assert step.get("if") == "${{ !cancelled() }}"
        assert "continue-on-error" not in step
        assert all("continue-on-error" not in s for s in job["steps"])

    def test_tests_job_runs_persistent_cache_suite(self, workflow):
        """The mapping and kernel-schedule caches' shared entry primitive
        is checked in one explicit step."""
        job = workflow["jobs"]["tests"]
        step = next(s for s in job["steps"]
                    if s.get("name", "").startswith("Persistent caches"))
        for path in ("tests/test_mapping_cache.py",
                     "tests/test_persistent_caches.py"):
            assert path in step["run"]

    def test_tests_job_runs_serving_telemetry_guards(self, workflow):
        """The per-run telemetry guards, the bit-level serving parity and
        the tracer's span-buffer tests run with the scheduler suite."""
        job = workflow["jobs"]["tests"]
        step = next(s for s in job["steps"]
                    if s.get("name", "").startswith("Scheduler + serving"))
        for path in ("tests/test_scheduler.py",
                     "tests/test_serving_invariants.py",
                     "tests/test_serving_telemetry.py",
                     "tests/test_serving_parity.py",
                     "tests/test_obs_tracing_export.py"):
            assert path in step["run"]

    def test_tests_job_runs_scheduler_loop_parity(self, workflow):
        """The event loop's parity with the loop it replaced runs with the
        scheduler suite."""
        job = workflow["jobs"]["tests"]
        step = next(s for s in job["steps"]
                    if s.get("name", "").startswith("Scheduler + serving"))
        assert "tests/test_scheduler_loop.py" in step["run"]

    def test_coverage_floor_raised(self, workflow):
        """The suite has grown; the line-coverage floor moved 70 -> 75."""
        runs = " ".join(_run_commands(workflow["jobs"]["tests"]))
        assert "--cov-fail-under=75" in runs

    def test_concurrency_cancels_superseded_runs(self, workflow):
        """Pushing over an in-flight run cancels it instead of queueing."""
        concurrency = workflow["concurrency"]
        assert concurrency["cancel-in-progress"] is True
        group = concurrency["group"]
        # Grouped per workflow+ref so unrelated branches never cancel each
        # other, and nightly runs are isolated via run_id.
        assert "github.workflow" in group
        assert "github.ref" in group
        assert "github.run_id" in group

    def test_all_actions_pinned_by_major(self, workflow):
        """Every third-party action pins an explicit major version."""
        for name, job in workflow["jobs"].items():
            for step in job["steps"]:
                uses = step.get("uses")
                if uses is None:
                    continue
                assert re.search(r"@v\d+$", uses), (
                    f"{name}: {uses!r} must pin a major version (@vN)"
                )

    def test_overlap_and_schedule_benches_registered(self):
        """The nightly `bench` suites carry the new ids (modeled overlap
        flows through `bench compare --suite modeled` automatically)."""
        from repro.cli import _BENCH_REGISTRY

        assert _BENCH_REGISTRY["sim.overlap-bert-base"][0] == "modeled"
        assert _BENCH_REGISTRY["kernels.schedule-search"][0] == "measured"

    def test_codebook_bench_registered_as_measured(self):
        """`bench run --suite measured` times the k-means codebook build."""
        from repro.cli import _BENCH_REGISTRY

        assert _BENCH_REGISTRY["kernels.host-codebooks"][0] == "measured"

    def test_simulator_walk_bench_registered_as_measured(self):
        """`bench run --suite measured` times the simulator itself."""
        from repro.cli import _BENCH_REGISTRY

        assert _BENCH_REGISTRY["sim.walk"][0] == "measured"

    def test_tune_cold_bench_registered_as_measured(self):
        """`bench run --suite measured` times the cold Auto-Tuner."""
        from repro.cli import _BENCH_REGISTRY

        assert _BENCH_REGISTRY["mapping.tune-cold"][0] == "measured"

    def test_serving_replay_bench_registered_as_measured(self):
        """`bench run --suite measured` times the serving event loop."""
        from repro.cli import _BENCH_REGISTRY

        assert _BENCH_REGISTRY["serving.replay"][0] == "measured"

    def test_tests_job_python_matrix(self, workflow):
        versions = workflow["jobs"]["tests"]["strategy"]["matrix"]["python-version"]
        assert "3.10" in versions and "3.12" in versions

    def test_pip_caching_enabled(self, workflow):
        for job in workflow["jobs"].values():
            setup = [
                s for s in job["steps"]
                if "setup-python" in str(s.get("uses", ""))
            ]
            assert setup, "every job pins its Python via setup-python"
            assert all(s["with"].get("cache") == "pip" for s in setup)

    def test_coverage_artifact_uploaded(self, workflow):
        steps = workflow["jobs"]["tests"]["steps"]
        uploads = [s for s in steps if "upload-artifact" in str(s.get("uses", ""))]
        assert uploads and uploads[0]["with"]["path"] == "coverage.xml"

    def test_lint_job_runs_ruff(self, workflow):
        runs = _run_commands(workflow["jobs"]["lint"])
        assert any(r.startswith("ruff check") for r in runs)

    def test_lint_findings_surface_as_annotations(self, workflow):
        """Ruff emits GitHub workflow commands -> inline PR annotations."""
        runs = _run_commands(workflow["jobs"]["lint"])
        check = next(r for r in runs if r.startswith("ruff check"))
        assert "--output-format=github" in check

    def test_slow_job_is_nightly_or_manual_only(self, workflow):
        triggers = _triggers(workflow)
        assert "schedule" in triggers
        assert "workflow_dispatch" in triggers
        condition = workflow["jobs"]["slow-benchmarks"]["if"]
        assert "schedule" in condition and "workflow_dispatch" in condition

    def test_slow_job_covers_slow_marker_and_benchmarks(self, workflow):
        runs = " ".join(_run_commands(workflow["jobs"]["slow-benchmarks"]))
        assert "-m slow" in runs
        assert "benchmarks" in runs

    def test_nightly_bench_is_nightly_or_manual_only(self, workflow):
        condition = workflow["jobs"]["nightly-bench"]["if"]
        assert "schedule" in condition and "workflow_dispatch" in condition

    def test_nightly_bench_gates_compares_and_records(self, workflow):
        runs = " ".join(_run_commands(workflow["jobs"]["nightly-bench"]))
        # The regression gate compares BEFORE recording, then appends
        # tonight's results; the comparison is exported as JSON.
        assert "bench compare" in runs
        assert "--record" in runs
        assert "--json" in runs

    def test_nightly_bench_runs_cluster_scaling_gate(self, workflow):
        runs = " ".join(_run_commands(workflow["jobs"]["nightly-bench"]))
        assert "benchmarks/test_ext_cluster_scaling.py" in runs

    def test_nightly_bench_runs_disagg_serving_gate(self, workflow):
        """The disaggregated-vs-colocated goodput gate runs nightly."""
        runs = " ".join(_run_commands(workflow["jobs"]["nightly-bench"]))
        assert "benchmarks/test_ext_disagg_serving.py" in runs

    def test_nightly_bench_runs_moe_placement_gate(self, workflow):
        """The balanced-vs-round-robin MoE placement gate runs nightly."""
        runs = " ".join(_run_commands(workflow["jobs"]["nightly-bench"]))
        assert "benchmarks/test_ext_moe_serving.py" in runs

    def test_moe_bench_registered_as_modeled(self):
        """`bench compare --suite modeled` picks up the MoE latency pin."""
        from repro.cli import _BENCH_REGISTRY

        assert _BENCH_REGISTRY["engine.moe-bert-base"][0] == "modeled"

    def test_nightly_bench_persists_store_and_uploads_comparison(self, workflow):
        steps = workflow["jobs"]["nightly-bench"]["steps"]
        caches = [s for s in steps if "actions/cache" in str(s.get("uses", ""))]
        assert caches and caches[0]["with"]["path"] == ".bench-store"
        assert "restore-keys" in caches[0]["with"]
        uploads = [s for s in steps if "upload-artifact" in str(s.get("uses", ""))]
        assert uploads and uploads[0]["with"]["path"] == "BENCH_*.json"


class TestLintConfig:
    def test_ruff_configured_in_pyproject(self):
        with open(PYPROJECT) as fh:
            text = fh.read()
        assert "[tool.ruff]" in text
        assert "[tool.ruff.lint]" in text
        # The gate selects defect-class rules, not formatting taste.
        assert '"F"' in text and '"E9"' in text

    def test_init_reexports_exempted(self):
        with open(PYPROJECT) as fh:
            text = fh.read()
        assert '"**/__init__.py" = ["F401"]' in text


class TestSuiteHygiene:
    def test_slow_marker_registered_and_excluded_by_default(self):
        with open(PYPROJECT) as fh:
            text = fh.read()
        assert 'addopts = \'-q -m "not slow"\'' in text
        assert "slow:" in text

    @pytest.mark.slow
    def test_benchmarks_are_collection_safe(self):
        """The nightly job must at least *collect* benchmarks/ cleanly."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO, "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "benchmarks", "--collect-only", "-q"],
            cwd=REPO, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
