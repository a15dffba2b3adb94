"""Pin the CLI's parser surface per subcommand.

Subcommands share flag groups (model, serving, output, ...).  These tests
pin each subcommand's option strings and the defaults that differ between
subcommands, so a shared group can neither leak a flag into a command that
never had it nor leak one command's default into another.
"""

import argparse

import pytest

from repro.cli import build_parser

SHAPE = {"--n", "--h", "--f", "--v", "--ct"}
MODEL = {"--model", "--platform", "--v", "--ct"}
TELEMETRY = {"--emit-trace", "--metrics-json"}
OUTPUT = {"--json", *TELEMETRY}
SERVING = {
    "--native", "--requests", "--prompt-len", "--generate-len", "--batch",
    "--arrivals", "--seed", "--rate", "--utilization", "--max-batch",
    "--max-context-tokens", "--queue-cap", "--chunked-prefill",
    "--prefill-chunk", "--slo-ttft-ms", "--slo-e2e-ms",
}

OPTIONS = {
    "platforms": {"--json"},
    "tune": {*SHAPE, *TELEMETRY, "--platform", "--amortize-lut", "--cache",
             "--progress"},
    "simulate": {*SHAPE, *TELEMETRY, "--platform", "--cache", "--overlap",
                 "--profile"},
    "flops": {*SHAPE, "--json"},
    "compare": {*MODEL, *OUTPUT, "--attribution", "--measure-host",
                "--dtype", "--block-rows", "--overlap"},
    "kernels": {*SHAPE, *OUTPUT, "--dtype", "--block-rows", "--int8",
                "--repeats", "--seed"},
    "faults": {*MODEL, *OUTPUT, "--layers", "--prompt-len", "--generate-len",
               "--batch", "--requests", "--scenario", "--seed", "--fail-ranks",
               "--fail-pes", "--straggler", "--timeouts", "--bit-flips",
               "--max-retries", "--no-functional"},
    "serve-sim": {*MODEL, *SERVING, *OUTPUT, "--layers", "--attribution",
                  "--compare-fifo"},
    "serve-cluster": {*MODEL, *SERVING, *OUTPUT, "--layers", "--attribution",
                      "--replicas", "--shards", "--routers", "--sessions",
                      "--sweep", "--fail", "--fail-ranks", "--fail-at"},
    "serve-disagg": {*MODEL, *SERVING, *OUTPUT, "--layers", "--attribution",
                     "--placement", "--prefill-device", "--sweep"},
    "moe": {*MODEL, *OUTPUT, "--layers", "--attribution", "--experts",
            "--top-k", "--routing", "--zipf-s", "--placers", "--seed"},
    "bench run": {"--store", "--suite", "--platform"},
    "bench compare": {"--store", "--suite", "--platform", "--threshold",
                      "--record", "--json"},
    "bench list": {"--store"},
}


def _subparsers(parser, prefix=""):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield f"{prefix}{name}", sub
                yield from _subparsers(sub, f"{prefix}{name} ")


@pytest.fixture(scope="module")
def commands():
    return dict(_subparsers(build_parser()))


def _options(parser):
    return {
        opt: action
        for action in parser._actions
        for opt in action.option_strings
        if opt not in ("-h", "--help")
    }


def test_option_strings_per_subcommand(commands):
    leaves = {name: p for name, p in commands.items() if name != "bench"}
    assert set(leaves) == set(OPTIONS)
    for name, parser in leaves.items():
        assert set(_options(parser)) == OPTIONS[name], name


@pytest.mark.parametrize("flag,defaults", [
    ("--requests", [2, 64, 128, 96]),
    ("--generate-len", [16, 32, 32, 64]),
    ("--prompt-len", [None, 128, 128, 128]),
    ("--batch", [None, 1, 1, 1]),
    ("--utilization", [None, "0.8", "0.8", "0.8,1.2,1.6"]),
    ("--fail-ranks", ["", None, None, None]),
])
def test_defaults_that_differ_between_commands(commands, flag, defaults):
    """In the order faults / serve-sim / serve-cluster / serve-disagg.

    ``None`` is also expected where a command has no such flag.
    """
    order = ("faults", "serve-sim", "serve-cluster", "serve-disagg")
    for name, expected in zip(order, defaults):
        options = _options(commands[name])
        if flag not in options:
            assert expected is None, (name, flag)
            continue
        assert commands[name].get_default(options[flag].dest) == expected, name

