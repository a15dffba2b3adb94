"""Extension: double-buffered host<->PIM overlap.

Acceptance bar: on a transfer-bound BERT-base layer mapping, the overlap
pipeline must hide at least 50% of the exposed ``kernel_transfer`` time —
in both the analytical model and the event-level simulator — while
``overlap=False`` stays bit-identical to the sequential system.
"""

import pytest

from repro.analysis import format_table
from repro.core import LUTShape
from repro.mapping import Mapping, estimate_latency
from repro.pim import PIMSimulator

pytestmark = pytest.mark.slow

# BERT-base attention-output layer at the paper's host-eval token count,
# under a deliberately transfer-bound multi-tile mapping (the tuned
# mapping is single-tile and pipelines nothing; see tests/test_overlap.py).
SHAPE = LUTShape(n=128, h=768, f=768, v=4, ct=16)
MAPPING = Mapping(
    n_s_tile=64, f_s_tile=4, n_m_tile=4, f_m_tile=1, cb_m_tile=16,
    traversal=("n", "cb", "f"), load_scheme="coarse",
    cb_load_tile=8, f_load_tile=1,
)


def test_overlap_hides_transfer_bound_pipeline(upmem, report):
    lat_seq = estimate_latency(SHAPE, MAPPING, upmem)
    lat_ov = estimate_latency(SHAPE, MAPPING, upmem, overlap=True)
    sim = PIMSimulator(upmem)
    rep_seq = sim.run(SHAPE, MAPPING)
    rep_ov = sim.run(SHAPE, MAPPING, overlap=True)

    # Transfer-bound: the dma stream exceeds the reduce stream.
    assert lat_seq.kernel_transfer > lat_seq.kernel_reduce

    model_frac = lat_ov.overlap_hidden / lat_ov.kernel_transfer
    sim_dma_seq = rep_seq.profile.phase_seconds["dma"]
    sim_frac = rep_ov.overlap_hidden_s / sim_dma_seq

    rows = [
        ["analytical", f"{lat_seq.total * 1e3:.3f}", f"{lat_ov.total * 1e3:.3f}",
         f"{lat_ov.overlap_hidden * 1e3:.3f}", f"{model_frac:.1%}"],
        ["simulator", f"{rep_seq.total_s * 1e3:.3f}", f"{rep_ov.total_s * 1e3:.3f}",
         f"{rep_ov.overlap_hidden_s * 1e3:.3f}", f"{sim_frac:.1%}"],
    ]
    report("ext_overlap_pipeline", format_table(
        ["layer", "sequential_ms", "overlap_ms", "hidden_ms",
         "hidden/transfer"], rows,
    ))

    # Acceptance: >= 50% of the sequential transfer time is hidden.
    assert model_frac >= 0.5
    assert sim_frac >= 0.5

    # overlap=False is bit-identical to the sequential system.
    assert estimate_latency(SHAPE, MAPPING, upmem, overlap=False) == lat_seq
    rep_off = sim.run(SHAPE, MAPPING, overlap=False)
    assert rep_off.total_s == rep_seq.total_s
    assert rep_off.profile.phase_seconds == rep_seq.profile.phase_seconds

    # Phase accounting stays exact under overlap.
    assert sum(rep_ov.profile.phase_seconds.values()) == pytest.approx(
        rep_ov.total_s, abs=1e-9
    )

