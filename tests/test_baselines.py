import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cs_smooth import cs
from cs_smooth.baselines import BODIK_PER_ROW, TUNCER_PER_ROW, baseline_signature_batch
from cs_smooth.core import SensorMatrix, TimeGrid, WindowSpec, windows
from cs_smooth.errors import DegenerateInputError, InvalidParameterError

from naive_reference import naive_bodik, naive_lan, naive_tuncer


def matrix_from(values):
    values = np.asarray(values, dtype=float)
    return SensorMatrix(
        sensor_ids=tuple(f"s{i}" for i in range(values.shape[0])),
        grid=TimeGrid(5_000, 250, values.shape[1]),
        data=values,
    )


def sign_one(rows, method, sub=0):
    """The signature of one window holding all of ``rows`` (n x w)."""
    w = np.shape(rows)[1]
    return baseline_signature_batch(matrix_from(rows), WindowSpec(w, w), method, sub).real[0]


def interp_percentile(values, q):
    # linear interpolation between closest ranks, computed by hand
    ordered = sorted(values)
    pos = q / 100 * (len(values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(values) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


class TestTuncer:
    def test_hand_computed_row(self):
        row = sign_one([[1.0, 2.0, 3.0, 4.0]], "tuncer")
        expected = [
            2.5,                      # mean
            math.sqrt(1.25),          # population std
            1.0,                      # min
            4.0,                      # max
            1.15, 1.75, 2.5, 3.25, 3.85,  # p5, p25, p50, p75, p95
            3.0,                      # sum of changes
            3.0,                      # absolute sum of changes
        ]
        np.testing.assert_allclose(row, expected, atol=1e-12)

    def test_percentiles_match_hand_rule(self):
        values = [3.0, -1.0, 7.0, 2.0, 5.0, 0.0]
        row = sign_one([values], "tuncer")
        for k, q in enumerate((5, 25, 50, 75, 95)):
            assert row[4 + k] == pytest.approx(interp_percentile(values, q), abs=1e-12)

    def test_constant_row(self):
        row = sign_one([[4.0, 4.0, 4.0]], "tuncer")
        assert row.tolist() == [4, 0, 4, 4, 4, 4, 4, 4, 4, 0, 0]

    def test_published_size_formula(self):
        rows = np.random.default_rng(0).uniform(size=(128, 6))
        assert len(sign_one(rows, "tuncer")) == 128 * 11 == 1408

    def test_needs_two_samples(self):
        # A matrix holds at least two samples, so the one-sample windows are two.
        with pytest.raises(DegenerateInputError, match="tuncer"):
            baseline_signature_batch(matrix_from([[1.0, 2.0]]), WindowSpec(1, 1), "tuncer")

    def test_nonmonotone_change_sums(self):
        row = sign_one([[0.0, 10.0, 5.0]], "tuncer")
        assert row[-2] == 5.0   # (10-0) + (5-10)
        assert row[-1] == 15.0  # |10| + |-5|


class TestBodik:
    def test_published_size_formula(self):
        rows = np.random.default_rng(0).uniform(size=(128, 6))
        assert len(sign_one(rows, "bodik")) == 128 * 9 == 1152

    def test_constant_row(self):
        row = sign_one([[2.5, 2.5, 2.5]], "bodik")
        assert row.tolist() == [2.5] * 9

    def test_median_of_two(self):
        row = sign_one([[0.0, 10.0]], "bodik")
        # order: min, max, p5, p25, p35, p50, p65, p75, p95
        assert row[5] == 5.0

    def test_single_sample_window(self):
        batch = baseline_signature_batch(matrix_from([[3.0, -1.0]]), WindowSpec(1, 1), "bodik")
        assert batch.real.tolist() == [[3.0] * 9, [-1.0] * 9]


class TestLan:
    def test_two_chunk_means(self):
        row = sign_one([[1.0, 2.0, 3.0, 4.0]], "lan", 2)
        assert row.tolist() == [1.5, 3.5]

    def test_identity_subsampling(self):
        row = sign_one([[1.0, 5.0, 2.0]], "lan", 3)
        assert row.tolist() == [1.0, 5.0, 2.0]

    def test_uneven_chunks_larger_first(self):
        row = sign_one([[1.0, 2.0, 3.0]], "lan", 2)
        assert row.tolist() == [1.5, 3.0]

    def test_size_formula(self):
        rows = np.random.default_rng(1).uniform(size=(7, 12))
        assert len(sign_one(rows, "lan", 5)) == 7 * 5

    def test_subsample_longer_than_window(self):
        with pytest.raises(InvalidParameterError):
            sign_one([[1.0, 2.0]], "lan", 3)


@given(st.integers(1, 12), st.integers(2, 20), st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_output_lengths_match_formulas(n, wl, seed):
    rng = np.random.default_rng(seed)
    rows = rng.uniform(size=(n, wl))
    assert len(sign_one(rows, "tuncer")) == n * TUNCER_PER_ROW
    assert len(sign_one(rows, "bodik")) == n * BODIK_PER_ROW
    sub = int(rng.integers(1, wl + 1))
    assert len(sign_one(rows, "lan", sub)) == n * sub


@given(st.integers(2, 8), st.integers(2, 12), st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_row_locality_under_permutation(n, wl, seed):
    # permuting input rows permutes output blocks identically: no method mixes
    # information across sensors
    rng = np.random.default_rng(seed)
    values = rng.uniform(size=(n, wl))
    perm = rng.permutation(n)
    for method, sub in (("tuncer", 0), ("bodik", 0), ("lan", min(3, wl))):
        base = sign_one(values, method, sub)
        permuted = sign_one(values[perm], method, sub)
        per_row = len(base) // n
        base_rows = base.reshape(n, per_row)
        np.testing.assert_array_equal(permuted.reshape(n, per_row), base_rows[perm])


class TestBaselineSignatureBatch:
    @staticmethod
    def assert_same(batch, matrix, spec, method, sub):
        # Each window against a one-window batch on its own columns.
        width = spec.length_samples
        one_window = [
            sign_one(matrix.data[:, s : s + width], method, sub)
            for s in spec.starts(matrix.n_samples)
        ]
        assert batch.imag is None
        assert np.array_equal(batch.real, np.stack(one_window))
        assert batch.window_starts.tolist() == [w.start for w in windows(matrix, spec)]
        assert batch.window_ends.tolist() == [w.end for w in windows(matrix, spec)]

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 6),
        st.integers(2, 12),
        st.integers(1, 25),
        st.integers(0, 40),
        st.integers(1, 400),
        st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_equals_per_window_and_naive(self, seed, n, wl, step, extra, chunk, data):
        # A small chunk size makes windows cross chunk boundaries; a step
        # beyond the window length skips samples between windows.
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(n, wl + extra)) * rng.uniform(0.1, 10.0) + rng.uniform(-10, 10)
        flat = data.draw(st.integers(-1, n - 1), label="flat row")
        if flat >= 0:
            values[flat] = 3.0
        mat, spec = matrix_from(values), WindowSpec(wl, step)
        subs = {data.draw(st.integers(1, wl), label="lan subsample"), wl}
        naive = {"tuncer": naive_tuncer, "bodik": naive_bodik}
        with mock.patch.object(cs, "_CHUNK_VALUES", chunk):
            for method, sub in [("tuncer", 0), ("bodik", 0), *(("lan", k) for k in subs)]:
                batch = baseline_signature_batch(mat, spec, method, sub)
                self.assert_same(batch, mat, spec, method, sub)
                for row, w in zip(batch.real, windows(mat, spec)):
                    rows = w.values.tolist()
                    expected = naive_lan(rows, sub) if method == "lan" else naive[method](rows)
                    np.testing.assert_allclose(row, expected, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("step", [1, 3, 16, 37])
    @pytest.mark.parametrize("offset", [0.0, 1e11])
    def test_time_chunks_do_not_change_the_result(self, monkeypatch, step, offset):
        rng = np.random.default_rng(step)
        mat = matrix_from(offset + rng.uniform(-1.0, 1.0, size=(7, 400)))
        spec = WindowSpec(16, step)
        monkeypatch.setattr(cs, "_CHUNK_VALUES", 7 * 16 * 3)
        for method in ("tuncer", "bodik", "lan"):
            self.assert_same(baseline_signature_batch(mat, spec, method, 5), mat, spec, method, 5)

    def test_window_longer_than_data_is_degenerate(self):
        mat = matrix_from(np.random.default_rng(0).uniform(size=(3, 10)))
        for method in ("tuncer", "bodik", "lan"):
            with pytest.raises(DegenerateInputError):
                baseline_signature_batch(mat, WindowSpec(11, 1), method, 2)

    def test_per_window_parameter_checks_apply(self):
        mat = matrix_from(np.random.default_rng(0).uniform(size=(3, 10)))
        with pytest.raises(DegenerateInputError):
            baseline_signature_batch(mat, WindowSpec(1, 1), "tuncer")
        with pytest.raises(InvalidParameterError):
            baseline_signature_batch(mat, WindowSpec(4, 1), "lan", 5)
        with pytest.raises(InvalidParameterError):
            baseline_signature_batch(mat, WindowSpec(4, 1), "pca")
