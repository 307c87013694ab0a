from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cs_smooth import cs, fidelity
from cs_smooth.core import SensorMatrix, TimeGrid, Window, WindowSpec, windows
from cs_smooth.cs import (
    BlockLayout, Signature, block_layout, compute_signature, sort_normalize, train,
)
from cs_smooth.errors import (
    DegenerateInputError,
    IncompatibilityError,
    InvalidBlockCountError,
    InvalidParameterError,
)
from cs_smooth.fidelity import (
    FidelityComponents,
    Histogram2D,
    build_distribution,
    expand_signatures,
    fidelity_components,
    fidelity_table,
    js_divergence,
)
from cs_smooth.synthetic import anti_correlated_matrix


def hist(mass, value_range=(0.0, 1.0)):
    mass = np.asarray(mass, dtype=float)
    return Histogram2D(value_range=value_range, mass=mass)


class TestBuildDistribution:
    def test_even_split(self):
        h = build_distribution(np.array([[0.0, 0.0, 1.0, 1.0]]), 2, (0.0, 1.0))
        assert h.mass.tolist() == [[0.5, 0.5]]

    def test_rows_carry_equal_mass(self):
        rng = np.random.default_rng(0)
        h = build_distribution(rng.uniform(size=(2, 50)), 10, (0.0, 1.0))
        assert h.mass.sum() == pytest.approx(1.0, abs=1e-9)
        assert h.mass[0].sum() == pytest.approx(0.5, abs=1e-9)
        assert h.mass[1].sum() == pytest.approx(0.5, abs=1e-9)

    def test_out_of_range_clamped_to_edge_bins(self):
        h = build_distribution(np.array([[1.5, -0.5]]), 4, (0.0, 1.0))
        assert h.mass[0].tolist() == [0.5, 0.0, 0.0, 0.5]

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 12),
        width=st.integers(1, 40),
        bins=st.integers(1, 30),
        value_range=st.sampled_from([(0.0, 1.0), (-1.0, 1.0), (-0.25, 3.5)]),
    )
    def test_counts_equal_add_at_reference(self, seed, n, width, bins, value_range):
        lo, hi = value_range
        rng = np.random.default_rng(seed)
        # A third of the values fall outside the range, plus both edges exactly.
        span = hi - lo
        data = rng.uniform(lo - span / 2, hi + span / 2, size=(n, width))
        data.flat[rng.integers(0, data.size, size=2)] = [lo, hi]
        idx = np.minimum(((np.clip(data, lo, hi) - lo) * (bins / span)).astype(np.int64), bins - 1)
        reference = np.zeros((n, bins))
        np.add.at(reference, (np.repeat(np.arange(n), width), idx.ravel()), 1.0)
        reference /= width * n
        assert np.array_equal(build_distribution(data, bins, value_range).mass, reference)

    def test_empty_matrix(self):
        with pytest.raises(DegenerateInputError):
            build_distribution(np.empty((0, 0)), 4, (0.0, 1.0))

    def test_bad_range(self):
        with pytest.raises(DegenerateInputError):
            build_distribution(np.ones((1, 3)), 4, (1.0, 1.0))

    @pytest.mark.parametrize("bins", [0, -3])
    def test_bin_count_below_one(self, bins):
        with pytest.raises(InvalidParameterError):
            build_distribution(np.ones((1, 3)), bins, (0.0, 1.0))


class TestExpandSignatures:
    def sig(self, real, n, model_id=""):
        real = np.asarray(real, dtype=float)
        return Signature(
            blocks_real=real,
            blocks_imag=np.zeros_like(real),
            layout=block_layout(n, len(real)),
            model_id=model_id,
        )

    def test_identity_when_blocks_equal_rows(self):
        real, _ = expand_signatures([self.sig([0.1, 0.5, 0.9], 3)], 3)
        assert real[:, 0].tolist() == [0.1, 0.5, 0.9]

    def test_single_block_constant(self):
        real, _ = expand_signatures([self.sig([0.7], 5)], 5)
        assert real[:, 0].tolist() == [0.7] * 5

    def test_overlap_row_takes_earlier_block(self):
        # n=5, l=2 -> ranges (1,3),(3,5); row 3 belongs to both, earlier wins
        real, _ = expand_signatures([self.sig([0.2, 0.8], 5)], 5)
        assert real[:, 0].tolist() == [0.2, 0.2, 0.2, 0.8, 0.8]

    def test_mixed_layouts_rejected(self):
        with pytest.raises(IncompatibilityError):
            expand_signatures([self.sig([0.1, 0.9], 5), self.sig([0.1, 0.5, 0.9], 5)], 5)

    def test_fewer_rows_than_blocks_rejected(self):
        with pytest.raises(IncompatibilityError):
            expand_signatures([self.sig([0.1, 0.5, 0.9], 3)], 2)

    def test_gapped_layout_gap_rows_take_nearest_block(self):
        # ranges (1,2) and (7,8) over 8 rows, a layout that block_layout never
        # makes: rows 3-4 are closer to the first block, rows 5-6 to the second
        layout = BlockLayout(n_sensors=8, ranges=((1, 2), (7, 8)))
        sig = Signature(np.array([0.1, 0.9]), np.zeros(2), layout)
        real, _ = expand_signatures([sig], 8)
        assert real[:, 0].tolist() == [0.1, 0.1, 0.1, 0.1, 0.9, 0.9, 0.9, 0.9]

    def test_column_per_signature(self):
        sigs = [self.sig([0.0, 1.0], 4), self.sig([1.0, 0.0], 4)]
        real, imag = expand_signatures(sigs, 4)
        assert real.shape == (4, 2)
        assert imag.shape == (4, 2)
        assert real[:, 1].tolist() == [1.0, 1.0, 0.0, 0.0]


class TestJsDivergence:
    def test_identical_is_exactly_zero(self):
        rng = np.random.default_rng(5)
        mass = rng.uniform(size=(3, 8))
        mass /= mass.sum()
        p = hist(mass)
        q = hist(mass.copy())
        assert js_divergence(p, q) == 0.0

    def test_disjoint_support_is_one(self):
        assert js_divergence(hist([[1.0, 0.0]]), hist([[0.0, 1.0]])) == 1.0

    def test_point_mass_vs_uniform(self):
        # H(m)=0.811278..., H(p)=0, H(q)=1 -> 0.311278...
        got = js_divergence(hist([[1.0, 0.0]]), hist([[0.5, 0.5]]))
        h_mid = -(0.75 * np.log2(0.75) + 0.25 * np.log2(0.25))
        assert got == pytest.approx(h_mid - 0.5, abs=1e-12)
        assert got == pytest.approx(0.311278, abs=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(IncompatibilityError):
            js_divergence(hist([[1.0, 0.0]]), hist([[1.0, 0.0, 0.0]]))

    def test_range_mismatch(self):
        with pytest.raises(IncompatibilityError):
            js_divergence(hist([[1.0, 0.0]]), hist([[1.0, 0.0]], value_range=(-1.0, 1.0)))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(2, 16))
    @settings(max_examples=60)
    def test_symmetric_and_bounded(self, seed, dims, bins):
        rng = np.random.default_rng(seed)
        a = rng.uniform(size=(dims, bins))
        a /= a.sum()
        b = rng.uniform(size=(dims, bins))
        b /= b.sum()
        p, q = hist(a), hist(b)
        assert js_divergence(p, q) == pytest.approx(js_divergence(q, p), abs=1e-12)
        assert 0.0 <= js_divergence(p, q) <= 1.0


class TestCsFidelity:
    def test_lossless_configuration(self):
        # one-sample windows with as many blocks as sensors reproduce the data
        # exactly, so both divergences sit at zero
        mat = anti_correlated_matrix(3, 3, 2, t=40, seed=1)
        model = train(mat)
        comp = fidelity_components(mat, model, WindowSpec(1, 1), mat.n_sensors, bins=32)
        assert comp.js_real == pytest.approx(0.0, abs=1e-12)
        assert comp.js_imag == pytest.approx(0.0, abs=1e-12)

    def test_more_blocks_do_not_hurt(self):
        mat = anti_correlated_matrix(16, 16, 8, t=400, seed=3)
        model = train(mat)
        spec = WindowSpec(20, 20)
        coarse = fidelity_components(mat, model, spec, 5).js_mean
        fine = fidelity_components(mat, model, spec, 40).js_mean
        assert fine <= coarse + 0.01

    def test_self_comparison_is_zero(self):
        rng = np.random.default_rng(9)
        data = rng.uniform(size=(4, 30))
        assert js_divergence(
            build_distribution(data, 16, (0.0, 1.0)),
            build_distribution(data.copy(), 16, (0.0, 1.0)),
        ) == 0.0


def reference_table(matrix, model, spec, block_counts, bins):
    """fidelity_table from the public pieces: sorted and expanded copies, then
    one build_distribution per matrix and js_divergence."""
    full = Window(matrix.sensor_ids, matrix.data, None, 0, 0)
    norm, deriv = sort_normalize(full, model)
    p_vals = build_distribution(norm, bins, (0.0, 1.0))
    p_derivs = build_distribution(deriv, bins, (-1.0, 1.0))
    table = []
    for n_blocks in block_counts:
        sigs = [compute_signature(w, model, n_blocks) for w in windows(matrix, spec)]
        real, imag = expand_signatures(sigs, matrix.n_sensors)
        table.append(FidelityComponents(
            js_real=js_divergence(p_vals, build_distribution(real, bins, (0.0, 1.0))),
            js_imag=js_divergence(p_derivs, build_distribution(imag, bins, (-1.0, 1.0))),
        ))
    return table


def matrix_of(values):
    ids = tuple(f"s{i}" for i in range(len(values)))
    return SensorMatrix(ids, TimeGrid(0, 1000, values.shape[1]), values)


class TestFidelityTable:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        wl=st.integers(1, 10),
        stride=st.sampled_from(["1", "w", "beyond w"]),
        bins=st.integers(1, 120),
        chunk=st.sampled_from([None, 3, 40]),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_equals_reference_pipeline(self, seed, n, wl, stride, bins, chunk, data):
        step = {"1": 1, "w": wl, "beyond w": wl + 1 + seed % 5}[stride]
        # The original side normalizes t + 1 columns: on both sides of the
        # repeated-bounds width gate.
        gate = cs._BUFFERED_COLUMNS
        t = data.draw(st.one_of(st.integers(wl + 1, wl + 80), st.integers(gate - 3, gate + 40)),
                      label="samples")
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(n, t)) * rng.uniform(0.1, 50.0)
        flat = data.draw(st.integers(-1, n - 1), label="flat row")
        if flat >= 0:
            values[flat] = 2.5
        # Trained on a prefix, so later values fall outside the bounds.
        model = train(matrix_of(values[:, : max(2, t // 3)]))
        mat, spec = matrix_of(values), WindowSpec(wl, step)
        counts = data.draw(
            st.lists(st.sampled_from([1, n, *range(1, n + 1)]), min_size=1, max_size=4),
            label="block counts",
        )
        expected = reference_table(mat, model, spec, counts, bins)
        # chunk forces several time chunks (kernel) and row chunks (original side).
        with mock.patch.object(cs, "_CHUNK_VALUES", chunk or cs._CHUNK_VALUES):
            assert fidelity_table(mat, model, spec, counts, bins) == expected
            assert fidelity_components(mat, model, spec, counts[0], bins) == expected[0]

    @pytest.mark.parametrize("bins", [0, -1])
    def test_bins_checked_before_any_work(self, monkeypatch, bins):
        mat = anti_correlated_matrix(3, 3, 2, t=40, seed=1)
        monkeypatch.setattr(fidelity, "compute_signature_batches", None)
        with pytest.raises(InvalidParameterError):
            fidelity_table(mat, train(mat), WindowSpec(4, 1), [2], bins)

    def test_block_counts_checked_before_any_histogram(self, monkeypatch):
        mat = anti_correlated_matrix(3, 3, 2, t=40, seed=1)
        model = train(mat)
        monkeypatch.setattr(fidelity, "_bin_counts", None)
        with pytest.raises(InvalidBlockCountError):
            fidelity_table(mat, model, WindowSpec(4, 1), [2, mat.n_sensors + 1])
