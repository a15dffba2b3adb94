"""Golden tuning results for the shipped evaluation workloads (UPMEM).

Pins the exact mapping and analytical latency Algorithm 1 returns for
every distinct linear-layer shape of the paper's three throughput models
(BERT-base/large, ViT-huge) on the UPMEM platform.  Any change to the
analytical model, the enumeration order, or the platform constants that
silently shifts a tuned mapping fails here loudly — if the shift is
intentional, regenerate the table below (each row prints from a plain
``AutoTuner(upmem).tune(shape)``).
"""

import pytest

from repro.core import LUTShape
from repro.mapping import AutoTuner, Mapping
from repro.pim import get_platform

# (shape, expected mapping, expected total latency in seconds).
# Regenerate with: for each shape, AutoTuner(get_platform("upmem")).tune(shape).
GOLDEN = [
    # BERT-base (N = 64 x 512): QKV, O, FFN1, FFN2
    (
        LUTShape(n=32768, h=768, f=2304, v=4, ct=16),
        Mapping(1024, 128, 64, 128, 192, ("n", "f", "cb"), "coarse", 16, 64),
        0.3797067577637024,
    ),
    (
        LUTShape(n=32768, h=768, f=768, v=4, ct=16),
        Mapping(512, 64, 128, 64, 192, ("n", "f", "cb"), "coarse", 8, 64),
        0.11174644420354937,
    ),
    (
        LUTShape(n=32768, h=768, f=3072, v=4, ct=16),
        Mapping(1024, 128, 64, 128, 192, ("n", "f", "cb"), "coarse", 16, 64),
        0.4087336282317875,
    ),
    (
        LUTShape(n=32768, h=3072, f=768, v=4, ct=16),
        Mapping(512, 64, 64, 64, 256, ("f", "cb", "n"), "coarse", 16, 64),
        0.3755722772726738,
    ),
    # BERT-large (N = 64 x 512)
    (
        LUTShape(n=32768, h=1024, f=3072, v=4, ct=16),
        Mapping(1024, 128, 64, 128, 256, ("n", "f", "cb"), "coarse", 16, 64),
        0.5151075104806353,
    ),
    (
        LUTShape(n=32768, h=1024, f=1024, v=4, ct=16),
        Mapping(512, 64, 64, 64, 256, ("n", "f", "cb"), "coarse", 16, 64),
        0.15510497730365724,
    ),
    (
        LUTShape(n=32768, h=1024, f=4096, v=4, ct=16),
        Mapping(1024, 128, 64, 128, 256, ("n", "f", "cb"), "coarse", 16, 64),
        0.556955732438082,
    ),
    (
        LUTShape(n=32768, h=4096, f=1024, v=4, ct=16),
        Mapping(512, 64, 64, 64, 256, ("f", "cb", "n"), "coarse", 16, 64),
        0.525888860363565,
    ),
    # ViT-huge (N = 128 x 264)
    (
        LUTShape(n=33792, h=1280, f=3840, v=4, ct=16),
        Mapping(1024, 128, 256, 32, 64, ("n", "f", "cb"), "coarse", 16, 32),
        0.665290628869497,
    ),
    (
        LUTShape(n=33792, h=1280, f=1280, v=4, ct=16),
        Mapping(1024, 64, 256, 32, 64, ("n", "f", "cb"), "coarse", 16, 32),
        0.3132492677478184,
    ),
    (
        LUTShape(n=33792, h=1280, f=5120, v=4, ct=16),
        Mapping(1024, 256, 256, 32, 64, ("n", "f", "cb"), "coarse", 16, 32),
        1.1953733102617903,
    ),
    (
        LUTShape(n=33792, h=5120, f=1280, v=4, ct=16),
        Mapping(1024, 64, 64, 64, 256, ("f", "cb", "n"), "coarse", 16, 64),
        1.129058288945975,
    ),
]


@pytest.fixture(scope="module")
def tuner():
    return AutoTuner(get_platform("upmem"))


@pytest.mark.parametrize(
    "shape,expected_mapping,expected_cost",
    GOLDEN,
    ids=[f"n{s.n}_h{s.h}_f{s.f}" for s, _, _ in GOLDEN],
)
def test_golden_mapping(tuner, shape, expected_mapping, expected_cost):
    result = tuner.tune(shape)
    assert result.mapping == expected_mapping
    assert result.cost == pytest.approx(expected_cost, rel=1e-12)

