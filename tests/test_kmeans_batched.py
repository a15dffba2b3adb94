"""Parity of the batched k-means with the frozen per-column k-means.

``repro.core.kmeans_columns`` clusters a chunk of codebook columns at once;
``repro.kernels.reference`` keeps the per-column k-means it replaced
(k-means++ seeding through ``Generator.choice``, the bincount Lloyd update,
one call per column).  Both run here on the same machine — ``assign`` goes
through BLAS, so a recorded digest would pin the host, not the code — and
every column's centroids, labels and inertia, the rng's end state and the
``kernels.kmeans.*`` counters must be equal, not close.
"""

import importlib

import numpy as np
import pytest

from repro import obs
from repro.core import (
    Codebooks,
    convert_to_lut_nn,
    freeze_all_luts,
    kmeans,
    kmeans_columns,
    kmeans_plusplus_init,
    lut_layers,
    set_lut_mode,
)
from repro.kernels import lloyd_update
from repro.kernels.reference import (
    codebooks_reference,
    kmeans_plusplus_reference,
    kmeans_reference,
    lloyd_update_column_reference,
)
from repro.nn.models import DecoderLM, TextClassifier

# ``repro.core.kmeans`` the attribute is the function; this is the module.
kmeans_module = importlib.import_module("repro.core.kmeans")


@pytest.fixture
def counters():
    """A fresh registry; yields a reader of the k-means counters."""
    old = obs.set_registry(obs.MetricsRegistry())

    def read():
        registry = obs.get_registry()
        return tuple(registry.counter(f"kernels.kmeans.{name}").value
                     for name in ("updates", "reseeds"))

    yield read
    obs.set_registry(old)


def set_chunk(monkeypatch, columns, m, k):
    """Make ``kmeans_columns`` take chunks of ``columns`` columns."""
    monkeypatch.setattr(kmeans_module, "_CHUNK_BYTES", columns * m * k * 8)


def sweep_case(rng, case):
    """One seeded case: (activations, V, CT, max_iters, chunk columns)."""
    m = int(rng.integers(8, 301))
    v = int(rng.choice([1, 2, 4, 8]))
    ct = min(int(rng.integers(2, 17)), m)
    cb = int(rng.integers(1, 50))
    acts = rng.normal(size=(m, cb * v))
    kind = case % 4
    if kind == 1:  # rounded: many tied distances
        acts = np.round(acts)
    elif kind == 2:  # some columns with fewer distinct rows than CT
        sub = acts.reshape(m, cb, v)
        for col in range(cb):
            if rng.random() < 0.4:
                distinct = rng.normal(size=(int(rng.integers(1, ct + 1)), v))
                sub[:, col] = distinct[rng.integers(0, len(distinct), size=m)]
    elif kind == 3:
        acts = np.round(acts * 2) / 2
    max_iters = int(rng.choice([0, 1, 10]))
    chunk = int(rng.integers(1, 65))
    return acts, v, ct, max_iters, chunk


def assert_columns_match(acts, v, ct, max_iters, seed, read_counters):
    """Batched vs per-column k-means over every column of ``acts``."""
    m = acts.shape[0]
    sub = acts.reshape(m, -1, v)
    rng_ref = np.random.default_rng(seed)
    before = read_counters()
    expected = [kmeans_reference(sub[:, col], ct, max_iters=max_iters, rng=rng_ref)
                for col in range(sub.shape[1])]
    mid = read_counters()
    rng = np.random.default_rng(seed)
    centroids, labels, inertia = kmeans_columns(
        sub.transpose(1, 0, 2), ct, max_iters=max_iters, rng=rng)
    after = read_counters()
    for col, (cents, labs, inert) in enumerate(expected):
        assert np.array_equal(centroids[col], cents), f"column {col} centroids"
        assert np.array_equal(labels[col], labs), f"column {col} labels"
        assert inertia[col] == inert, f"column {col} inertia"
    assert rng.bit_generator.state == rng_ref.bit_generator.state
    assert np.subtract(after, mid).tolist() == np.subtract(mid, before).tolist()


def degenerate_columns(acts, v, ct):
    sub = acts.reshape(acts.shape[0], -1, v)
    return sum(len(np.unique(sub[:, col], axis=0)) < ct
               for col in range(sub.shape[1]))


class TestSeededSweep:
    @pytest.mark.parametrize("block", range(8))
    def test_matches_per_column_reference(self, block, counters, monkeypatch):
        rng = np.random.default_rng(1000 + block)
        degenerate = 0
        for case in range(16):
            acts, v, ct, max_iters, chunk = sweep_case(rng, case)
            set_chunk(monkeypatch, chunk, acts.shape[0], ct)
            degenerate += degenerate_columns(acts, v, ct)
            assert_columns_match(acts, v, ct, max_iters,
                                 int(rng.integers(2**31)), counters)
        assert degenerate > 0

    @pytest.mark.slow
    @pytest.mark.parametrize("block", range(60))
    def test_wide_sweep(self, block, counters, monkeypatch):
        rng = np.random.default_rng(5000 + block)
        for case in range(16):
            acts, v, ct, max_iters, chunk = sweep_case(rng, case)
            set_chunk(monkeypatch, chunk, acts.shape[0], ct)
            assert_columns_match(acts, v, ct, max_iters,
                                 int(rng.integers(2**31)), counters)


class TestDegenerateColumns:
    """A column with fewer distinct rows than CT fills its last centroids
    with ``integers(size=...)`` and shifts every later column's draws."""

    @staticmethod
    def columns(rng, m, v, cb, few):
        """Normal columns, except ``few[col]`` distinct rows in some."""
        acts = rng.normal(size=(m, cb, v))
        for col, distinct in few.items():
            values = rng.normal(size=(distinct, v))
            acts[:, col] = values[np.arange(m) % distinct]
        return acts.reshape(m, cb * v)

    @pytest.mark.parametrize("few", [
        {3: 1},            # constant column mid-chunk: degenerate at step 1
        {0: 1},            # first column of the chunk
        {7: 3},            # last column of the chunk, at step 3
        {2: 5, 5: 2},      # the later column goes degenerate first
        {1: 4, 2: 1, 6: 2},
    ])
    @pytest.mark.parametrize("chunk", [1, 3, 8, 64])
    def test_mid_chunk(self, few, chunk, counters, monkeypatch):
        rng = np.random.default_rng(len(few) * 100 + chunk)
        acts = self.columns(rng, 40, 2, 8, few)
        set_chunk(monkeypatch, chunk, 40, 6)
        assert degenerate_columns(acts, 2, 6) == len(few)
        assert_columns_match(acts, 2, 6, 10, 7, counters)

    def test_all_columns_constant(self, counters, monkeypatch):
        acts = np.repeat(np.arange(12.0)[None], 20, axis=0)
        set_chunk(monkeypatch, 4, 20, 3)
        assert_columns_match(acts, 2, 3, 5, 3, counters)

    def test_single_column_fill(self):
        points = np.zeros((10, 2))
        points[:3] = [[1, 0], [2, 0], [3, 0]]
        for seed in range(10):
            ref_rng = np.random.default_rng(seed)
            rng = np.random.default_rng(seed)
            expected = kmeans_plusplus_reference(points, 8, ref_rng)
            assert np.array_equal(kmeans_plusplus_init(points, 8, rng), expected)
            assert rng.bit_generator.state == ref_rng.bit_generator.state


class SnappedGenerator(np.random.Generator):
    """Uniforms snapped to eighths, so the k-means++ draw often lands
    exactly on a cdf value (``choice`` draws through ``self.random`` too)."""

    def random(self, size=None, dtype=np.float64, out=None):
        return np.floor(super().random(size) * 8) / 8


class TestPickRule:
    """The pick is ``searchsorted(cdf, u, side="right")``: on an exact tie
    the draw passes the tied entry."""

    def test_exact_ties_follow_choice(self):
        # Integer points whose D² totals are powers of two: the cdf values
        # are eighths and quarters, which snapped draws hit exactly.
        points = np.array([[0.0], [0.0], [0.0], [0.0], [2.0]])
        columns = np.stack([points, points + 1.0, points * 2.0])
        ties = 0
        for seed in range(40):
            ref_rng = SnappedGenerator(np.random.PCG64(seed))
            expected = [kmeans_reference(col, 2, max_iters=1, rng=ref_rng)
                        for col in columns]
            rng = SnappedGenerator(np.random.PCG64(seed))
            cents, labels, _ = kmeans_columns(columns, 2, max_iters=1, rng=rng)
            for col, (ref_cents, ref_labels, _) in enumerate(expected):
                assert np.array_equal(cents[col], ref_cents)
                assert np.array_equal(labels[col], ref_labels)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            # Count the draws that sit exactly on a cdf value.
            replay = SnappedGenerator(np.random.PCG64(seed))
            for col in columns:
                first = col[replay.integers(0, 5)]
                u = replay.random(1)[0]
                d2 = np.sum((col - first) ** 2, axis=1)
                cdf = np.cumsum(d2 / d2.sum())
                ties += bool(np.any(cdf[:-1] == u))
        assert ties > 0

    def test_tied_rounded_sweep(self, monkeypatch):
        rng = np.random.default_rng(11)
        for case in range(12):
            m, v, ct = int(rng.integers(4, 20)), 1, int(rng.integers(2, 5))
            acts = rng.integers(0, 3, size=(m, 6)).astype(float)
            set_chunk(monkeypatch, int(rng.integers(1, 7)), m, ct)
            seed = int(rng.integers(2**31))
            ref_rng = SnappedGenerator(np.random.PCG64(seed))
            expected = [kmeans_reference(acts[:, [col]], ct, max_iters=3, rng=ref_rng)
                        for col in range(6)]
            got_rng = SnappedGenerator(np.random.PCG64(seed))
            cents, labels, inertia = kmeans_columns(
                acts.T[:, :, None], ct, max_iters=3, rng=got_rng)
            for col, (ref_cents, ref_labels, ref_inertia) in enumerate(expected):
                assert np.array_equal(cents[col], ref_cents)
                assert np.array_equal(labels[col], ref_labels)
                assert inertia[col] == ref_inertia
            assert got_rng.bit_generator.state == ref_rng.bit_generator.state


class TestPublicOneColumnCases:
    def test_kmeans_matches_reference(self, counters):
        for seed in range(20):
            data = np.random.default_rng(seed)
            points = data.normal(size=(int(data.integers(5, 80)), 3))
            k = int(data.integers(1, 6))
            ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
            before = counters()
            expected = kmeans_reference(points, k, max_iters=20, rng=ref_rng)
            mid = counters()
            got = kmeans(points, k, max_iters=20, rng=rng)
            after = counters()
            assert np.array_equal(got[0], expected[0])
            assert np.array_equal(got[1], expected[1])
            assert got[2] == expected[2]
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            assert np.subtract(after, mid).tolist() == np.subtract(mid, before).tolist()

    def test_seeding_matches_reference(self):
        for seed in range(20):
            data = np.random.default_rng(seed)
            points = np.round(data.normal(size=(30, 2)), 1)
            ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
            expected = kmeans_plusplus_reference(points, 6, ref_rng)
            assert np.array_equal(kmeans_plusplus_init(points, 6, rng), expected)
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_lloyd_update_stack_matches_columns(self, counters):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(5, 30, 3))
        cents = rng.normal(size=(5, 6, 3))
        labels = rng.integers(0, 6, size=(5, 30))
        labels[2] = 0  # five empty clusters in one column
        before = counters()
        expected = [lloyd_update_column_reference(points[c], labels[c], 6, cents[c])
                    for c in range(5)]
        mid = counters()
        new, counts = lloyd_update(points, labels, 6, cents)
        after = counters()
        for c, (ref_new, ref_counts) in enumerate(expected):
            assert np.array_equal(new[c], ref_new)
            assert np.array_equal(counts[c], ref_counts)
            one_new, one_counts = lloyd_update(points[c], labels[c], 6, cents[c])
            assert np.array_equal(one_new, ref_new)
            assert np.array_equal(one_counts, ref_counts)
        assert np.subtract(after, mid).tolist() == np.subtract(mid, before).tolist()
        assert np.subtract(after, mid).tolist() == [5, 5]


class TestCodebooks:
    def test_from_activations_matches_reference(self, counters, monkeypatch):
        rng = np.random.default_rng(8)
        acts = rng.normal(size=(64, 96))
        for chunk in (1, 5, 24, 64):
            set_chunk(monkeypatch, chunk, 64, 8)
            ref_rng, got_rng = np.random.default_rng(chunk), np.random.default_rng(chunk)
            expected = codebooks_reference(acts, 4, 8, max_iters=6, rng=ref_rng)
            got = Codebooks.from_activations(acts, 4, 8, max_iters=6, rng=got_rng)
            assert np.array_equal(got.centroids, expected)
            assert got_rng.bit_generator.state == ref_rng.bit_generator.state

    @staticmethod
    def convert_twice(monkeypatch, counters, build, calib_shape, int8):
        """Convert two identical models, one through the reference k-means;
        returns both models, their rngs and counter deltas."""
        results = []
        for reference in (True, False):
            with monkeypatch.context() as patch:
                if reference:
                    patch.setattr(Codebooks, "from_activations", classmethod(
                        lambda cls, acts, v, ct, max_iters=25, rng=None:
                        cls(codebooks_reference(acts, v, ct, max_iters, rng))))
                rng = np.random.default_rng(3)
                model = build(rng)
                model.eval()
                calib = rng.integers(0, 100, size=calib_shape)
                before = counters()
                convert_to_lut_nn(model, [calib], v=4, ct=16, rng=rng,
                                  kmeans_iters=3, max_rows=calib.size)
                delta = np.subtract(counters(), before).tolist()
                freeze_all_luts(model, quantize_int8=int8)
                set_lut_mode(model, "lut")
                results.append((model, rng, delta))
        return results

    @staticmethod
    def assert_layers_equal(ref_model, model):
        ref_layers, layers = lut_layers(ref_model), lut_layers(model)
        assert len(layers) == len(ref_layers) > 0
        for (_, ref_layer), (_, layer) in zip(ref_layers, layers):
            assert np.array_equal(layer.current_codebooks().centroids,
                                  ref_layer.current_codebooks().centroids)
            assert np.array_equal(layer.lut, ref_layer.lut)
            ref_q, q = ref_layer.quantized_lut, layer.quantized_lut
            assert (q is None) == (ref_q is None)
            if ref_q is not None:
                assert np.array_equal(q.values, ref_q.values)
                assert np.array_equal(q.scales, ref_q.scales)

    def test_tiny_lut_prefill_conversion(self, counters, monkeypatch):
        def build(rng):
            return TextClassifier(100, 16, num_classes=8, mlp_ratio=4, rng=rng,
                                  dim=32, num_layers=1, num_heads=2)

        (ref, ref_rng, ref_delta), (got, rng, delta) = self.convert_twice(
            monkeypatch, counters, build, (2, 16), int8=False)
        self.assert_layers_equal(ref, got)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert delta == ref_delta and delta[0] > 0
        tokens = np.random.default_rng(5).integers(0, 100, size=(2, 16))
        assert np.array_equal(got(tokens).data, ref(tokens).data)

    def test_tiny_lut_decode_conversion(self, counters, monkeypatch):
        def build(rng):
            return DecoderLM(100, 12, mlp_ratio=4, rng=rng,
                             dim=32, num_layers=1, num_heads=2)

        (ref, ref_rng, ref_delta), (got, rng, delta) = self.convert_twice(
            monkeypatch, counters, build, (2, 12), int8=True)
        self.assert_layers_equal(ref, got)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert delta == ref_delta and delta[0] > 0
        prompt = np.random.default_rng(6).integers(0, 100, size=(2, 8))
        assert np.array_equal(got.generate(prompt, 4, use_cache=True),
                              ref.generate(prompt, 4, use_cache=True))


class TestRejectedInputs:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected_before_any_draw(self, bad):
        points = np.random.default_rng(0).normal(size=(20, 2))
        points[7, 1] = bad
        for k in (1, 3):
            rng = np.random.default_rng(1)
            state = rng.bit_generator.state
            with pytest.raises(ValueError, match="finite"):
                kmeans(points, k, rng=rng)
            assert rng.bit_generator.state == state

    def test_nan_activations_rejected_with_one_centroid(self):
        acts = np.random.default_rng(0).normal(size=(20, 8))
        acts[3, 5] = np.nan
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="finite"):
            Codebooks.from_activations(acts, v=2, ct=1, rng=rng)
        assert rng.bit_generator.state == state

    def test_overflowing_distances_rejected(self):
        # Finite activations whose D² totals overflow float64.
        acts = np.random.default_rng(0).normal(size=(40, 8)) * 1e200
        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match="squared distances are not finite"):
            Codebooks.from_activations(acts, v=2, ct=4,
                                       rng=np.random.default_rng(1))
