"""Bad flags are usage errors that fail fast.

Every argv below must exit 2 from :func:`repro.cli.main`, name the
offending flag on stderr, print nothing on stdout, and do so before any
mapping is tuned: ``AutoTuner.tune`` is patched to raise, so a command that
validates late (after building a server and tuning its probe scheduler)
fails here instead of exiting 2.
"""

import pytest

from repro import cli
from repro.mapping import AutoTuner

SERVE = ("serve-sim", "serve-cluster", "serve-disagg")
# serve-disagg defaults to three placements, which alone is a usage error
# without --sweep: pin one so each case isolates the flag under test.
HYBRID = ["serve-disagg", "--placement", "hybrid"]

CASES = [
    *[([cmd, "--layers", "0"], "--layers")
      for cmd in ("faults", *SERVE, "moe")],
    *[([cmd, flag, "0"], flag)
      for cmd in SERVE for flag in ("--slo-ttft-ms", "--slo-e2e-ms")],
    ([*HYBRID, "--rate", "0"], "--rate"),
    ([*HYBRID, "--rate", "-1"], "--rate"),
    ([*HYBRID, "--utilization", "0"], "--utilization"),
    (["serve-sim", "--utilization", "0"], "--utilization"),
    (["serve-cluster", "--utilization", "-0.5"], "--utilization"),
    (["serve-cluster", "--sweep", "--rate", "5"], "--rate"),
    (["serve-disagg", "--sweep", "--rate", "5"], "--rate"),
    (["serve-sim", "--utilization", "0.8,1.2"], "--utilization"),
    (["serve-cluster", "--replicas", "1,2"], "--replicas"),
    (["serve-cluster", "--routers", "round-robin,p2c"], "--routers"),
    (["serve-cluster", "--utilization", "0.8,1.2"], "--utilization"),
    (["serve-disagg", "--placement", "colocated,hybrid"], "--placement"),
    ([*HYBRID, "--utilization", "0.8,1.2"], "--utilization"),
    (["serve-cluster", "--sweep", "--utilization", "0.5,0"], "--utilization"),
    (["serve-disagg", "--sweep", "--utilization", "0.5,0"], "--utilization"),
    (["serve-cluster", "--fail", "x"], "--fail"),
    (["serve-cluster", "--fail-ranks", "0"], "--fail-ranks"),
    (["serve-cluster", "--replicas", "a"], "--replicas"),
    (["serve-cluster", "--replicas", "0"], "--replicas"),
    (["serve-cluster", "--shards", "0"], "--shards"),
    (["serve-cluster", "--layers", "1", "--shards", "2"], "--shards"),
    (["serve-cluster", "--routers", "random"], "--routers"),
    (["serve-disagg", "--placement", "sideways"], "--placement"),
    (["serve-disagg", "--sweep", "--placement", "hybrid,hybrid"], "--placement"),
    (["moe", "--routing", "pareto"], "--routing"),
    (["moe", "--placers", "greedy"], "--placers"),
    (["moe", "--experts", "0"], "--experts"),
    (["moe", "--top-k", "0"], "--top-k"),
    (["faults", "--fail-ranks", "a"], "--fail-ranks"),
    (["serve-sim", "--max-batch", "0"], "--max-batch"),
    (["serve-sim", "--prompt-len", "0"], "--prompt-len"),
    (["serve-cluster", "--sessions", "0"], "--sessions"),
    (["kernels", "--n", "4", "--h", "10", "--f", "4", "--v", "4"], "--h"),
    (["kernels", "--n", "4", "--h", "8", "--f", "4", "--block-rows", "0"],
     "--block-rows"),
    (["compare", "--block-rows", "0"], "--block-rows"),
]


@pytest.fixture
def no_tuning(monkeypatch):
    def tune(self, shape):
        raise AssertionError(f"tuned {shape} before rejecting a bad flag")

    monkeypatch.setattr(AutoTuner, "tune", tune)


@pytest.mark.parametrize(
    "argv,flag", CASES, ids=[" ".join(argv) for argv, _ in CASES]
)
def test_usage_error_exits_2_before_tuning(argv, flag, no_tuning, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert flag in captured.err
    assert captured.out == ""

