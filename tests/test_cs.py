import dataclasses
import io
import json
import math
import sys
import threading
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cs_smooth.core import SensorMatrix, TimeGrid, Window, WindowSpec, windows
from cs_smooth import cs
from cs_smooth.cs import (
    BlockLayout,
    CSModel,
    block_layout,
    compute_signature,
    compute_signature_batch,
    compute_signature_batches,
    load_model,
    pairwise_correlation,
    save_model,
    sort_normalize,
    train,
)
from cs_smooth.batchio import write_signature_batch
from cs_smooth.errors import (
    DegenerateInputError,
    DimensionError,
    EmptyInputError,
    FormatError,
    InvalidBlockCountError,
    InvalidParameterError,
    ModelIncompatibilityError,
    RejectedValueError,
    UnsupportedVersionError,
)
from cs_smooth.synthetic import anti_correlated_matrix, class_stream, clustered_plateau_matrix

from naive_reference import (
    naive_margin,
    naive_permutation,
    naive_signature,
    naive_train,
    reference_prefix_models,
    reference_train,
)


def matrix_from(rows, interval=1000):
    rows = np.asarray(rows, dtype=float)
    return SensorMatrix(
        sensor_ids=tuple(f"s{i}" for i in range(rows.shape[0])),
        grid=TimeGrid(0, interval, rows.shape[1]),
        data=rows,
    )


def array_bytes(obj):
    """Bytes of the numpy arrays in ``obj``, looking into dicts, tuples and lists."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        obj = list(obj.values())
    return sum(map(array_bytes, obj)) if isinstance(obj, (tuple, list)) else 0


def window_from(rows, preceding=None, ids=None):
    rows = np.asarray(rows, dtype=float)
    return Window(
        sensor_ids=ids or tuple(f"s{i}" for i in range(rows.shape[0])),
        values=rows,
        preceding=None if preceding is None else np.asarray(preceding, dtype=float),
        start=0,
        end=(rows.shape[1] - 1) * 1000,
    )


class TestPairwiseCorrelation:
    def test_perfect_positive_is_two(self):
        stats = pairwise_correlation(matrix_from([[1, 2, 3, 4], [2, 4, 6, 8]]))
        assert stats.pairwise[0, 1] == pytest.approx(2.0, abs=1e-12)

    def test_perfect_negative_is_zero(self):
        stats = pairwise_correlation(matrix_from([[1, 2, 3, 4], [4, 3, 2, 1]]))
        assert stats.pairwise[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_value(self):
        # r = 1.625 / (sqrt(1.25) * sqrt(2.1875)), shifted by +1
        expected = 1.625 / (math.sqrt(1.25) * math.sqrt(2.1875)) + 1.0
        stats = pairwise_correlation(matrix_from([[1, 2, 3, 4], [1, 2, 3, 5]]))
        assert stats.pairwise[0, 1] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(1.9827, abs=1e-4)

    def test_diagonal_is_two_and_symmetric(self):
        rng = np.random.default_rng(7)
        stats = pairwise_correlation(matrix_from(rng.uniform(size=(6, 30))))
        assert np.all(np.diag(stats.pairwise) == 2.0)
        assert np.allclose(stats.pairwise, stats.pairwise.T, atol=1e-12)
        assert np.all((stats.pairwise >= 0) & (stats.pairwise <= 2))
        assert np.all((stats.global_coeffs >= 0) & (stats.global_coeffs <= 2))

    def test_zero_variance_row_counts_as_uncorrelated(self):
        stats = pairwise_correlation(matrix_from([[1, 2, 3], [7, 7, 7]]))
        assert stats.pairwise[0, 1] == 1.0
        assert stats.pairwise[1, 1] == 2.0

    def test_single_row_global_convention(self):
        stats = pairwise_correlation(matrix_from([[1, 2, 3]]))
        assert stats.global_coeffs.tolist() == [2.0]

    def test_large_offset_does_not_move_correlations(self):
        # Centring on a rounded mean would carry that rounding into the
        # correlations (by about 2e-8 here); the shifted co-moments do not.
        rng = np.random.default_rng(9)
        noise = 1e-3 * rng.standard_normal((8, 300))
        data = 1e9 + noise
        stats = pairwise_correlation(matrix_from(data))
        expected = pairwise_correlation(matrix_from(data - 1e9))
        np.testing.assert_allclose(stats.pairwise, expected.pairwise, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            stats.global_coeffs, expected.global_coeffs, rtol=0, atol=1e-12
        )

    def test_too_few_samples_rejected_at_matrix_boundary(self):
        # a one-column matrix cannot exist, so correlation never sees t < 2
        with pytest.raises(DegenerateInputError):
            SensorMatrix(sensor_ids=("a",), grid=TimeGrid(0, 1, 1), data=[[1.0]])


class TestTrain:
    def test_one_sample_is_degenerate(self):
        # SensorMatrix refuses a single column, so train never sees one.
        with pytest.raises(DegenerateInputError):
            train(matrix_from([[1.0], [2.0]]))

    @pytest.mark.parametrize("factor", [1e200, 1e-165])
    def test_rows_beyond_the_co_moment_range_keep_their_order(self, factor):
        # Unscaled, the co-moments of rows times 1e200 overflow float64 and
        # those of rows times 1e-165 underflow.
        rows = np.random.default_rng(0).normal(size=(4, 64))
        assert train(matrix_from(rows)).permutation.tolist() == [3, 1, 0, 2]
        scaled = rows.copy()
        scaled[:2] *= factor
        model = train(matrix_from(scaled))
        assert model.permutation.tolist() == [3, 1, 0, 2]
        assert np.array_equal(model.lower_bounds, scaled.min(axis=1))
        assert np.array_equal(model.upper_bounds, scaled.max(axis=1))

    def test_a_span_beyond_float64_names_the_sensors(self):
        rows = np.random.default_rng(0).normal(size=(4, 64))
        rows[1, :2] = [-1e308, 1e308]
        rows[2, :2] = [1.5e308, -1e308]
        expected = (r"^sensors 's1', 's2': values in \[-1e\+308, 1\.5e\+308\] "
                    r"span more than float64 holds, so they cannot be normalised$")
        with pytest.raises(RejectedValueError, match=expected):
            train(matrix_from(rows))

    def test_greedy_order_with_tie_break(self):
        # globals [1, 1, 0]: tie between rows 0/1 goes to 0; then row 1 scores
        # 2*1 = 2 against row 2's 0*0.
        model = train(matrix_from([[1, 2, 3, 4], [2, 4, 6, 8], [4, 3, 2, 1]]))
        assert model.permutation.tolist() == [0, 1, 2]
        assert model.lower_bounds.tolist() == [1, 2, 1]
        assert model.upper_bounds.tolist() == [4, 8, 4]

    def test_single_row(self):
        model = train(matrix_from([[3, 1, 2]]))
        assert model.permutation.tolist() == [0]

    def test_identical_rows_tie_break_by_index(self):
        model = train(matrix_from([[1, 2, 3], [1, 2, 3]]))
        assert model.permutation.tolist() == [0, 1]

    def test_two_samples_follow_exact_ties(self):
        # With two samples every pair of non-flat rows correlates exactly +1
        # or -1, so most greedy picks are exact ties; they must go to the
        # lowest index, as in rational arithmetic. The brute-force oracle
        # must order them the same way.
        rng = np.random.default_rng(2)
        for _ in range(300):
            n = int(rng.integers(2, 13))
            data = rng.standard_normal((n, 2))
            flat = rng.random(n) < 0.2
            data[flat, 1] = data[flat, 0]
            expected = exact_greedy_order_two_samples(data)
            assert train(matrix_from(data)).permutation.tolist() == expected, data.tolist()
            assert naive_train(data.tolist())[0] == expected, data.tolist()

    @given(st.integers(0, 10_000), st.floats(0.1, 10.0), st.floats(-5.0, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_affine_invariance_of_permutation(self, seed, scale, offset):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((6, 40))
        base = train(matrix_from(data))
        scaled = data.copy()
        scaled[seed % 6] = scale * scaled[seed % 6] + offset
        assert train(matrix_from(scaled)).permutation.tolist() == base.permutation.tolist()

    def test_grouping_two_anticorrelated_clusters_noise_in_middle(self):
        # A dominant cluster, a smaller opposing cluster and noise rows: the
        # ordering runs big cluster -> noise -> small cluster.
        hits = 0
        for seed in range(20):
            mat = anti_correlated_matrix(
                n_pos=20, n_neg=8, n_noise=12, t=400, seed=seed
            )
            perm = train(mat).permutation
            kind = np.array([0] * 20 + [1] * 8 + [2] * 12)[perm]
            pos = {k: np.where(kind == k)[0] for k in (0, 1, 2)}
            contiguous = all(p.max() - p.min() + 1 == len(p) for p in pos.values())
            if (
                contiguous
                and pos[0].min() == 0
                and pos[1].max() == len(kind) - 1
                and pos[0].max() < pos[2].min()
                and pos[2].max() < pos[1].min()
            ):
                hits += 1
        assert hits >= 19


def exact_greedy_order_two_samples(data):
    """train's greedy order on a two-sample matrix, in exact rationals."""
    n = len(data)
    step = [Fraction(float(b)) - Fraction(float(a)) for a, b in data]
    # Population covariance d_i * d_j / 4 and variances d_i^2 / 4, so the
    # squared correlation of two non-flat rows is exactly 1.
    sign = [(d > 0) - (d < 0) for d in step]
    pairwise = [
        [Fraction(2) if i == j else Fraction(1 + sign[i] * sign[j]) for j in range(n)]
        for i in range(n)
    ]
    glob = [(sum(row) - 2) / (n - 1) for row in pairwise]
    current = max(range(n), key=lambda i: (glob[i], -i))
    order = [current]
    while len(order) < n:
        left = [i for i in range(n) if i not in order]
        current = max(left, key=lambda i: (pairwise[i][current] * glob[i], -i))
        order.append(current)
    return order


def prefix(matrix, end):
    grid = TimeGrid(matrix.grid.start, matrix.grid.interval, end)
    return SensorMatrix(matrix.sensor_ids, grid, matrix.data[:, :end])


@pytest.fixture
def train_calls(monkeypatch):
    """Count the batch train calls prefix_models falls back to."""
    calls = []

    def counting(matrix):
        calls.append(matrix.n_samples)
        return train(matrix)

    monkeypatch.setattr(cs, "train", counting)
    return calls


class TestPrefixModels:
    def assert_batch_equal(self, matrix, ends):
        models = list(cs.prefix_models(matrix, ends))
        assert len(models) == len(ends)
        for end, model in zip(ends, models):
            expected = train(prefix(matrix, end))
            assert model.permutation.tolist() == expected.permutation.tolist(), f"end {end}"
            assert np.array_equal(model.lower_bounds, expected.lower_bounds), f"end {end}"
            assert np.array_equal(model.upper_bounds, expected.upper_bounds), f"end {end}"
            assert model.sensor_ids == matrix.sensor_ids

    def test_a_later_prefix_beyond_the_co_moment_range_matches_train(self, train_calls):
        # Unscaled, the co-moments of the prefixes past column 32 overflow. Each
        # prefix takes the scale of its own bounds: scaled by the whole rows' scale,
        # about 1e-200, those of the first prefix would underflow.
        rows = np.random.default_rng(0).normal(size=(4, 64))
        rows[1:3, 32:] *= 1e200
        self.assert_batch_equal(matrix_from(rows), [16, 40, 64])
        assert train_calls == []

    def test_a_merge_of_means_1e200_apart_matches_train(self, monkeypatch, train_calls):
        # Each 8-column segment of row 0 is constant, so unscaled, only the
        # merge of the segments' means, 1e200 apart, overflows.
        monkeypatch.setattr(cs, "_CHUNK_VALUES", 4 * 8)
        rows = np.random.default_rng(0).normal(size=(4, 16))
        rows[0] = np.repeat([0.0, 1e200], 8)
        self.assert_batch_equal(matrix_from(rows), [8, 16])
        assert train_calls == []

    def test_a_span_beyond_float64_in_a_later_prefix_names_the_sensor(self):
        rows = np.random.default_rng(0).normal(size=(4, 64))
        rows[1, [40, 50]] = [-1e308, 1e308]
        models = cs.prefix_models(matrix_from(rows), [16, 64])
        assert next(models) == train(matrix_from(rows[:, :16]))
        with pytest.raises(RejectedValueError, match=r"^sensor 's1': values in \[-1e\+308, 1e\+308\] span"):
            next(models)

    def test_oracle_random_matrices(self):
        # The random regime of the criterion 1 oracle, at every kind of gap
        # between prefix ends.
        rng = np.random.default_rng(20240101)
        for _ in range(60):
            n = int(rng.integers(2, 17))
            t = int(rng.integers(3, 80))
            data = rng.uniform(-5.0, 5.0, size=(n, t))
            ends = sorted(rng.choice(np.arange(2, t + 1), size=min(t - 1, 6), replace=False))
            self.assert_batch_equal(matrix_from(data), [int(e) for e in ends])

    @pytest.mark.parametrize(
        "matrix",
        [
            clustered_plateau_matrix(6, 4, 4, t=400, seed=3),
            anti_correlated_matrix(6, 4, 4, t=300, seed=3),
        ],
        ids=["clustered-plateau", "anti-correlated"],
    )
    def test_clustered_generators(self, matrix):
        self.assert_batch_equal(matrix, list(range(2, matrix.n_samples + 1, 13)))

    def test_ends_one_sample_apart(self):
        matrix = anti_correlated_matrix(4, 3, 2, t=120, seed=5)
        self.assert_batch_equal(matrix, list(range(2, 121)))

    def test_constant_row_needs_no_fallback(self, train_calls):
        # After the shift a constant row is exact zeros on both paths.
        rng = np.random.default_rng(7)
        data = rng.standard_normal((5, 60))
        data[2] = 4.25
        ends = [10, 30, 60]
        self.assert_batch_equal(matrix_from(data), ends)
        assert train_calls == []

    def test_flat_rows_need_no_fallback(self, train_calls):
        # Two sensors read 0 until they start: flat rows score exactly 1 at every
        # pick on both paths and go in index order, so their ties decide nothing.
        data = np.cumsum(np.random.default_rng(23).standard_normal((16, 640)), axis=1)
        data[[3, 11], :320] = 0.0
        ends = list(range(16, 640, 16))
        self.assert_batch_equal(matrix_from(data), ends)
        assert train_calls == []

    def test_flat_row_tying_a_non_flat_row_falls_back(self, train_calls):
        # With every other row flat, row 0's global coefficient is exactly 1 too:
        # at the first pick it ties the first flat row.
        data = np.zeros((3, 30))
        data[0] = np.random.default_rng(24).standard_normal(30)
        ends = [10, 20, 30]
        self.assert_batch_equal(matrix_from(data), ends)
        assert train_calls == ends

    def test_duplicate_rows_tie_falls_back(self, train_calls):
        rng = np.random.default_rng(8)
        data = rng.standard_normal((5, 50))
        data[3] = data[1]
        ends = [20, 35, 50]
        self.assert_batch_equal(matrix_from(data), ends)
        assert train_calls == ends

    def test_large_offset_small_noise_needs_no_fallback(self, train_calls):
        # Both paths centre the data shifted by its first column, so the
        # offset costs no precision and no pick comes near the score margin.
        rng = np.random.default_rng(9)
        data = 1e9 + 1e-3 * rng.standard_normal((6, 200))
        ends = list(range(5, 201, 15))
        self.assert_batch_equal(matrix_from(data), ends)
        assert train_calls == []

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_benchmark_phase_data_needs_no_fallback(self, train_calls, seed):
        # The retrain-stream benchmark's data at its test size: 24 sensors x
        # 960 samples of 16-sample class phases in turn, a prefix end every 16.
        phase_seeds = np.random.default_rng(seed).integers(0, 2**31, size=60)
        data = np.hstack(
            [class_stream(p % 3, 24, 16, seed=int(s)).data for p, s in enumerate(phase_seeds)]
        )
        self.assert_batch_equal(matrix_from(data), list(range(16, 960, 16)))
        assert train_calls == []

    def test_clustered_data_needs_no_fallback(self, train_calls):
        matrix = clustered_plateau_matrix(8, 5, 5, t=600, seed=11)
        models = list(cs.prefix_models(matrix, range(3, 601)))
        assert len(models) == 598
        assert train_calls == []

    @pytest.mark.parametrize("ends", [[1], [5, 5], [6, 4], [0], [41]])
    def test_ends_must_increase_within_the_matrix(self, ends):
        with pytest.raises(InvalidParameterError):
            list(cs.prefix_models(matrix_from(np.ones((2, 40))), ends))

    @pytest.mark.parametrize("block_values", [None, 2 * 16])
    def test_a_bad_end_inside_a_group_comes_after_the_earlier_models(
        self, monkeypatch, block_values
    ):
        # 4 sensors: one group holds all 4,096 prefixes by default, 2 with 32
        # values, where the bad end is second in the second group.
        if block_values:
            monkeypatch.setattr(cs, "_BLOCK_VALUES", block_values)
        matrix = matrix_from(np.random.default_rng(2).normal(size=(4, 64)))
        models = cs.prefix_models(matrix, [8, 16, 24, 20, 40])
        for end in (8, 16, 24):
            assert next(models) == train(prefix(matrix, end))
        with pytest.raises(InvalidParameterError, match="got 20 after 24"):
            next(models)


class TestPrefixModelsControlFlow:
    """prefix_models' loop at 4 sensors and 32 block values, so that a group
    holds 2 prefixes: every group is ordered once, none empty, a bad end
    flushes the group read so far, and close() ends the generator anywhere."""

    MATRIX = matrix_from(np.random.default_rng(3).normal(size=(4, 40)))

    @pytest.fixture
    def group_sizes(self, monkeypatch):
        """The stack size of every _correlation_stats call."""
        monkeypatch.setattr(cs, "_BLOCK_VALUES", 2 * 16)
        sizes = []

        def recording(cov):
            sizes.append(len(cov))
            return correlation_stats(cov)

        correlation_stats = cs._correlation_stats
        monkeypatch.setattr(cs, "_correlation_stats", recording)
        return sizes

    def expected(self, ends, group_sizes):
        models = [train(prefix(self.MATRIX, end)) for end in ends]
        group_sizes.clear()  # train's stacks of one
        return models

    def test_no_ends_yield_nothing(self, group_sizes):
        assert list(cs.prefix_models(self.MATRIX, [])) == []
        assert group_sizes == []

    @pytest.mark.parametrize(
        "ends, sizes",
        [([8], [1]), ([8, 16], [2]), ([8, 16, 24], [2, 1]), ([8, 16, 24, 32], [2, 2])],
    )
    def test_each_group_is_ordered_once(self, group_sizes, ends, sizes):
        expected = self.expected(ends, group_sizes)
        assert list(cs.prefix_models(self.MATRIX, ends)) == expected
        assert group_sizes == sizes

    @pytest.mark.parametrize(
        "ends, sizes",
        [
            ([1], []), ([4, 2], [1]), ([8, 16, 16], [2]), ([8, 16, 24, 41], [2, 1]),
            ([8, 16, 24, 32, 30], [2, 2]),
        ],
    )
    def test_a_bad_end_flushes_the_group_read_so_far(self, group_sizes, ends, sizes):
        expected = self.expected(ends[:-1], group_sizes)
        models = cs.prefix_models(self.MATRIX, ends)
        assert [next(models) for _ in expected] == expected
        with pytest.raises(InvalidParameterError, match=f"got {ends[-1]} after"):
            next(models)
        assert group_sizes == sizes

    @pytest.mark.parametrize(
        "ends, taken",
        [
            ([8, 16, 24], 1),  # inside a full group
            ([8, 16, 24], 2),  # after a full group
            ([8, 16, 24], 3),  # after the last, partial group
            ([8, 16, 24, 4], 3),  # inside the flush before a bad end
        ],
    )
    def test_close_returns_cleanly(self, group_sizes, ends, taken):
        models = cs.prefix_models(self.MATRIX, ends)
        for _ in range(taken):
            next(models)
        models.close()
        with pytest.raises(StopIteration):
            next(models)


class TestStackedOrdering:
    """_correlation_stats and _greedy_order, orders and pick margins, give each
    matrix of a stack the bytes it gets alone, at any division block size."""

    @given(
        st.integers(0, 2**31), st.integers(1, 12), st.integers(1, 6), st.integers(1, 2_000)
    )
    @settings(max_examples=60, deadline=None)
    def test_a_stack_equals_each_matrix_alone(self, seed, n, g, block_values):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(g, n, 12))
        data[rng.random((g, n)) < 0.3] = 1.5  # flat rows
        tied = rng.random(g) < 0.5
        data[tied, -1] = data[tied, 0]  # a duplicate row, or one more flat row
        flat = data.min(axis=2) == data.max(axis=2)
        centered = data - data.mean(axis=2, keepdims=True)
        covs = centered @ centered.swapaxes(1, 2) / 12
        with mock.patch.object(cs, "_BLOCK_VALUES", block_values):
            stats = cs._correlation_stats(covs.copy())
            orders, margins = cs._greedy_order(stats.pairwise, stats.global_coeffs, flat)
            for s in range(g):
                alone = cs._correlation_stats(covs[s : s + 1].copy())
                order, margin = cs._greedy_order(
                    alone.pairwise, alone.global_coeffs, flat[s : s + 1]
                )
                assert stats.pairwise[s].tobytes() == alone.pairwise[0].tobytes()
                assert stats.global_coeffs[s].tobytes() == alone.global_coeffs[0].tobytes()
                assert orders[s].tobytes() == order[0].tobytes()
                assert margins[s].tobytes() == margin[0].tobytes()

    @given(
        st.integers(0, 2**31), st.integers(1, 12), st.integers(1, 6),
        st.sampled_from([None, 0, 1]),
    )
    @settings(max_examples=200, deadline=None)
    def test_orders_and_margins_equal_the_naive_rule(self, seed, n, g, decimals):
        # Rounded data ties scores, so leads of exactly 0 come up.
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(g, n, 8))
        if decimals is not None:
            data = data.round(decimals)
        data[rng.random((g, n)) < 0.3] = 1.5  # flat rows
        duplicated = rng.random(g) < 0.5
        data[duplicated, -1] = data[duplicated, 0]  # a duplicate row, or one more flat row
        flat = data.min(axis=2) == data.max(axis=2)
        centered = data - data.mean(axis=2, keepdims=True)
        stats = cs._correlation_stats(centered @ centered.swapaxes(1, 2) / 8)
        orders, margins = cs._greedy_order(stats.pairwise, stats.global_coeffs, flat)
        for s in range(g):
            pairwise, global_coeffs = stats.pairwise[s].tolist(), stats.global_coeffs[s].tolist()
            assert orders[s].tolist() == naive_permutation(pairwise, global_coeffs)
            assert margins[s] == naive_margin(pairwise, global_coeffs, flat[s].tolist())


def training_data(seed, n, t, offset, constant, duplicate):
    """Rows of mixed scale around ``offset``; optionally one constant row and a
    duplicate of row 0."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, t)) * rng.uniform(0.1, 10.0, size=(n, 1)) + offset
    if constant:
        data[n // 2] = data[n // 2, 0]
    if duplicate and n > 2:
        data[-1] = data[0]
    return data


# n = 1 and t = 2 included; the wide shapes put t above numpy's 8,192-value
# reduction buffer and give row counts that the row blocks do not divide.
TRAINING_SHAPES = st.one_of(
    st.tuples(st.integers(1, 40), st.integers(2, 300)),
    st.tuples(st.integers(1, 12), st.integers(8_193, 9_000)),
)


@pytest.fixture
def greedy_inputs(monkeypatch):
    """Record every pairwise matrix the greedy ordering is given."""
    seen = []

    def recording(pairwise, global_coeffs, flat=None):
        seen.extend(pairwise.copy())  # one matrix per prefix of the stack
        return greedy_order(pairwise, global_coeffs, flat)

    greedy_order = cs._greedy_order
    monkeypatch.setattr(cs, "_greedy_order", recording)
    return seen


class TestPowerOfTwoScaling:
    """Rows times 2^k train as the unscaled rows do: scaling by a power of two
    is exact, and training scales each row into one band of magnitudes."""

    @given(
        st.integers(0, 2**31), st.integers(1, 8), st.integers(2, 48), st.integers(1, 300),
        st.integers(1, 200), st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_rows_times_powers_of_two(self, seed, n, t, block_values, chunk_values, draw):
        rng = np.random.default_rng(seed)
        # Magnitudes in [1, 2): times any 2^k, k in [-1000, 1000], each stays normal.
        data = rng.uniform(1.0, 2.0, size=(n, t)) * rng.choice([-1.0, 1.0], size=(n, t))
        k = np.array(draw.draw(st.lists(st.integers(-1000, 1000), min_size=n, max_size=n)))
        scaled = np.ldexp(data, k[:, None])
        ends = sorted(draw.draw(st.sets(st.integers(2, t), min_size=1, max_size=6)))
        with mock.patch.object(cs, "_BLOCK_VALUES", block_values), \
                mock.patch.object(cs, "_CHUNK_VALUES", chunk_values):
            base, model = train(matrix_from(data)), train(matrix_from(scaled))
            assert model.permutation.tolist() == base.permutation.tolist()
            assert np.array_equal(model.lower_bounds, np.ldexp(base.lower_bounds, k))
            assert np.array_equal(model.upper_bounds, np.ldexp(base.upper_bounds, k))
            got = pairwise_correlation(matrix_from(scaled))
            want = pairwise_correlation(matrix_from(data))
            assert got.pairwise.tobytes() == want.pairwise.tobytes()
            assert got.global_coeffs.tobytes() == want.global_coeffs.tobytes()
            models = list(cs.prefix_models(matrix_from(scaled), ends))
            assert models == [train(matrix_from(scaled[:, :end])) for end in ends]


class TestTrainingMatchesReference:
    """train, pairwise_correlation and prefix_models against the training maths
    of tests/naive_reference.py, byte for byte, at any row-block size."""

    @given(
        st.integers(0, 2**31), TRAINING_SHAPES, st.sampled_from([0.0, 1e9]),
        st.booleans(), st.booleans(), st.one_of(st.none(), st.integers(1, 5_000)),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_intermediate_is_bit_identical(
        self, seed, shape, offset, constant, duplicate, block_values
    ):
        data = training_data(seed, *shape, offset, constant, duplicate)
        ref = reference_train(data)
        block_values = block_values or cs._BLOCK_VALUES
        with mock.patch.object(cs, "_BLOCK_VALUES", block_values):
            mean, comoment, lo, hi, _ = cs._comoments(data, data[:, :1])
            stats = pairwise_correlation(matrix_from(data))
            model = train(matrix_from(data))
        for name, got in [
            ("mean", mean), ("comoment", comoment), ("lower_bounds", lo),
            ("upper_bounds", hi), ("pairwise", stats.pairwise),
            ("global_coeffs", stats.global_coeffs), ("permutation", model.permutation),
            ("lower_bounds", model.lower_bounds), ("upper_bounds", model.upper_bounds),
        ]:
            assert got.tobytes() == ref[name].tobytes(), name

    @given(
        st.integers(0, 2**31), st.integers(1, 24), st.integers(20, 300),
        st.sampled_from([0.0, 1e9]), st.booleans(), st.booleans(),
        st.integers(1, 400), st.one_of(st.none(), st.integers(1, 5)), st.integers(20, 2_000),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_prefix_models_across_blocks_and_segments(
        self, seed, n, t, offset, constant, duplicate, block_values, group, chunk_values, draw
    ):
        # Small row blocks, segments and groups: ends fall inside and across all
        # three. A ``group`` sets blocks that hold that many prefixes' n x n
        # covariances (plus up to n^2 - 1 values) and more ends than one group.
        data = training_data(seed, n, t, offset, constant, duplicate)
        sizes = st.integers(1, 8)
        if group is not None:
            block_values = group * n * n + draw.draw(st.integers(0, n * n - 1))
            sizes = st.integers(group + 1, group + 6)
        ends = sorted(draw.draw(st.sets(st.integers(2, t), min_size=draw.draw(sizes), max_size=14)))

        def order_stands(pairwise, global_coeffs, flat):
            margins = cs._greedy_order(pairwise[None], global_coeffs[None], flat[None])[1]
            return margins[0] >= cs._SCORE_MARGIN

        with mock.patch.object(cs, "_BLOCK_VALUES", block_values), \
                mock.patch.object(cs, "_CHUNK_VALUES", chunk_values):
            models = list(cs.prefix_models(matrix_from(data), ends))
            expected = reference_prefix_models(
                data, ends, max(1, chunk_values // n), order_stands
            )
        assert len(models) == len(ends)
        for end, model, (order, lo, hi) in zip(ends, models, expected):
            assert model.permutation.tobytes() == order.tobytes(), f"end {end}"
            assert model.lower_bounds.tobytes() == lo.tobytes(), f"end {end}"
            assert model.upper_bounds.tobytes() == hi.tobytes(), f"end {end}"

    @pytest.mark.parametrize("n, t", [(1, 2), (2, 2), (7, 50), (33, 8_200)])
    def test_pairwise_is_exactly_symmetric(self, greedy_inputs, n, t):
        # _greedy_order reads row c of pairwise as column c.
        data = training_data(n * t, n, t, 1e9, True, True)
        matrix = matrix_from(data)
        pairwise = pairwise_correlation(matrix).pairwise
        assert np.array_equal(pairwise, pairwise.T)
        ends = sorted({2, (t + 2) // 2, t})
        train(matrix)
        list(cs.prefix_models(matrix, ends))
        assert len(greedy_inputs) >= 1 + len(ends)
        for pairwise in greedy_inputs:
            assert np.array_equal(pairwise, pairwise.T)


class TestSortNormalize:
    def test_bounds_map_to_unit_interval(self):
        model = CSModel(("s0",), [0], [5.0], [10.0])
        norm, _ = sort_normalize(window_from([[5.0, 10.0]]), model)
        assert norm.tolist() == [[0.0, 1.0]]

    def test_constant_row_maps_to_zero(self):
        model = CSModel(("s0",), [0], [7.0], [7.0])
        norm, _ = sort_normalize(window_from([[7.0, 7.0, 7.0]]), model)
        assert norm.tolist() == [[0.0, 0.0, 0.0]]

    def test_clamps_out_of_range(self):
        model = CSModel(("s0",), [0], [5.0], [10.0])
        norm, _ = sort_normalize(window_from([[12.0, 3.0]]), model)
        assert norm.tolist() == [[1.0, 0.0]]

    def test_mismatched_sensors_listed(self):
        model = CSModel(("a", "b"), [0, 1], [0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ModelIncompatibilityError, match="missing.*'b'"):
            sort_normalize(window_from([[1.0, 2.0]], ids=("a",)), model)
        with pytest.raises(ModelIncompatibilityError, match="ordered differently"):
            sort_normalize(window_from([[1, 2], [3, 4]], ids=("b", "a")), model)

    def test_derivative_uses_preceding_column(self):
        model = CSModel(("s0",), [0], [0.0], [10.0])
        _, deriv = sort_normalize(window_from([[5.0, 10.0]], preceding=[0.0]), model)
        assert deriv.tolist() == [[0.5, 0.5]]

    def test_derivative_zero_without_preceding(self):
        model = CSModel(("s0",), [0], [0.0], [10.0])
        _, deriv = sort_normalize(window_from([[5.0, 10.0]]), model)
        assert deriv.tolist() == [[0.0, 0.5]]

    def test_rows_reordered_by_permutation(self):
        model = CSModel(("a", "b"), [1, 0], [0.0, 0.0], [1.0, 1.0])
        norm, _ = sort_normalize(window_from([[0.0, 0.0], [1.0, 1.0]], ids=("a", "b")), model)
        assert norm.tolist() == [[1.0, 1.0], [0.0, 0.0]]

    def test_returns_fresh_contiguous_matrices(self):
        model = CSModel(("a", "b"), [1, 0], [0.0, 0.0], [1.0, 1.0])
        for matrix in sort_normalize(window_from([[0.0, 0.5, 1.0], [1.0, 0.5, 0.0]],
                                                 ids=("a", "b")), model):
            assert matrix.shape == (2, 3)
            assert matrix.flags.c_contiguous and matrix.base is None


class TestWindowShape:
    """Both per-window signers check a window's shape before any arithmetic."""

    MODEL = CSModel(("a", "b"), [1, 0], [0.0, 0.0], [1.0, 1.0])

    @pytest.mark.parametrize("sign", [lambda w, m: compute_signature(w, m, 1), sort_normalize])
    @pytest.mark.parametrize(
        "values, preceding, error, reason",
        [
            (np.zeros((3, 4)), None, DimensionError, "window values must be 2 sensors"),
            (np.zeros((2, 4)), np.zeros(3), DimensionError, "preceding column must hold 2"),
            (np.zeros((2, 0)), None, DegenerateInputError, "window holds no samples"),
        ],
    )
    def test_malformed_window_rejected(self, sign, values, preceding, error, reason):
        window = Window(("a", "b"), values, preceding, 0, 0)
        with pytest.raises(error, match=reason):
            sign(window, self.MODEL)


class TestSignatureBatchShape:
    @pytest.mark.parametrize(
        "starts, ends, real, imag",
        [
            (np.arange(3), np.arange(3), np.zeros((5, 2)), None),  # more rows than instants
            (np.arange(3), np.arange(3), np.zeros((3, 2)), np.zeros((3, 4))),  # wider imag
            (np.arange(3), np.arange(2), np.zeros((3, 2)), None),
            (np.zeros((3, 1)), np.zeros((3, 1)), np.zeros((3, 2)), None),
            (np.arange(3), np.arange(3), np.zeros((3, 2)), np.zeros((2, 2))),
            (np.arange(3), np.arange(3), np.zeros(3), None),
        ],
    )
    def test_mismatched_shapes_rejected(self, starts, ends, real, imag):
        with pytest.raises(DimensionError, match="^a batch needs k window starts"):
            cs.SignatureBatch(starts, ends, real, imag)

    def test_zero_rows_left_to_the_writer(self):
        empty = cs.SignatureBatch(np.arange(0), np.arange(0), np.zeros((0, 2)), np.zeros((0, 2)))
        with pytest.raises(EmptyInputError, match="^no signatures to write$"):
            write_signature_batch(io.StringIO(), empty)


class TestBlockLayout:
    def test_five_rows_two_blocks(self):
        assert block_layout(5, 2).ranges == ((1, 3), (3, 5))

    def test_six_rows_four_blocks(self):
        assert block_layout(6, 4).ranges == ((1, 2), (2, 3), (4, 5), (5, 6))

    def test_identity_blocking(self):
        for n in (1, 3, 8):
            assert block_layout(n, n).ranges == tuple((i, i) for i in range(1, n + 1))

    def test_invalid_counts(self):
        with pytest.raises(InvalidBlockCountError):
            block_layout(4, 5)
        with pytest.raises(InvalidBlockCountError):
            block_layout(4, 0)

    @pytest.mark.parametrize("ranges", [((0, 2),), ((3, 5),), ((3, 2),)])
    def test_constructor_rejects_ranges_outside_the_rows(self, ranges):
        # Before row 1, past row n, and last before first.
        with pytest.raises(InvalidBlockCountError):
            BlockLayout(4, ranges)

    @pytest.mark.parametrize("ranges", [((1.7, 2.9),), ((1.0, 2.0),), (("1", "2"),)])
    def test_constructor_rejects_non_integer_ranges(self, ranges):
        # int() would truncate (1.7, 2.9) to (1, 2) and parse strings.
        with pytest.raises(InvalidBlockCountError):
            BlockLayout(4, ranges)

    def test_constructor_rejects_an_empty_layout(self):
        with pytest.raises(InvalidBlockCountError):
            BlockLayout(4, ())

    @pytest.mark.parametrize("ranges", [((3, 4), (1, 2)), ((1, 4), (2, 3)), ((2, 3), (2, 4))])
    def test_constructor_rejects_ranges_out_of_order(self, ranges):
        # Reversed, nested, and sharing a first row.
        with pytest.raises(InvalidBlockCountError):
            BlockLayout(4, ranges)

    def test_constructor_takes_numpy_ints_as_python_ints(self):
        layout = BlockLayout(4, ((np.int64(1), np.int32(2)), (np.uint8(3), np.int64(4))))
        assert layout.ranges == ((1, 2), (3, 4))
        assert all(type(v) is int for r in layout.ranges for v in r)

    @given(st.integers(1, 64))
    @settings(max_examples=64)
    def test_invariants_for_all_block_counts(self, n):
        for l in range(1, n + 1):
            layout = block_layout(n, l)
            ranges = layout.ranges
            assert ranges[0][0] == 1
            assert ranges[-1][1] == n
            covered = set()
            sizes = []
            for (b, e), nxt in zip(ranges, list(ranges[1:]) + [None]):
                assert b <= e
                covered.update(range(b, e + 1))
                sizes.append(e - b + 1)
                if nxt is not None:
                    assert nxt[0] in (e, e + 1)
            assert covered == set(range(1, n + 1))
            assert max(sizes) - min(sizes) <= 1


def identity_model(n):
    """Bounds [0, 1] and no reordering: signatures average the raw rows."""
    return CSModel(tuple(f"s{i}" for i in range(n)), range(n), np.zeros(n), np.ones(n))


class TestComputeSignature:
    def test_hand_averaged_block(self):
        sig = compute_signature(window_from([[0, 1], [0.5, 0.5]]), identity_model(2), 1)
        assert sig.blocks_real.tolist() == [0.5]
        assert sig.blocks_imag.tolist() == [0.25]

    def test_all_zero(self):
        sig = compute_signature(window_from(np.zeros((3, 4))), identity_model(3), 2)
        assert sig.blocks_real.tolist() == [0.0, 0.0]
        assert sig.blocks_imag.tolist() == [0.0, 0.0]

    def test_identity_blocks_single_column(self):
        col = [[0.1], [0.9], [0.4]]
        sig = compute_signature(window_from(col), identity_model(3), 3)
        assert sig.blocks_real.tolist() == [0.1, 0.9, 0.4]
        assert sig.blocks_imag.tolist() == [0.0, 0.0, 0.0]

    def test_offset_and_scale_overflow_clamp_without_warning(self):
        # Row 0: 1e308 - (-1e308) overflows in the subtraction; row 1: 1e308 / 1e-300
        # in the division. Each infinity clamps to 1, as any value above the bounds.
        model = CSModel(("s0", "s1"), [0, 1], [-1e308, 0.0], [0.0, 1e-300])
        matrix = matrix_from([[1e308, 0.0, 1e308, 0.0], [1e308, 0.0, 1e308, 0.0]])
        sig = compute_signature(next(windows(matrix, WindowSpec(2, 1))), model, 2)
        assert sig.blocks_real.tolist() == [1.0, 0.5]
        assert sig.blocks_imag.tolist() == [0.0, -0.5]
        batch = compute_signature_batch(matrix, model, WindowSpec(2, 1), 2)
        assert batch.real.tolist() == [[1.0, 0.5], [1.0, 0.5], [1.0, 0.5]]
        assert batch.imag.tolist() == [[0.0, -0.5], [0.0, 0.0], [0.0, 0.0]]

    def test_plus_infinity_on_a_flat_row_gives_nan_without_warning(self):
        # A flat row's lower bound is stored as +inf, so +inf - inf is NaN there.
        model = CSModel(("a", "b"), [0, 1], [2.0, 0.0], [2.0, 1.0])
        window = Window(("a", "b"), np.array([[np.inf, 2.0], [0.5, 0.5]]), None, 0, 1)
        sig = compute_signature(window, model, 2)
        assert np.isnan(sig.blocks_real[0]) and sig.blocks_real[1] == 0.5
        assert np.isnan(sig.blocks_imag[0]) and sig.blocks_imag[1] == 0.0

    def test_identity_configuration_returns_permuted_column(self):
        data = np.array([[0.0, 4.0], [8.0, 0.0], [2.0, 2.0]])
        mat = matrix_from(data)
        model = train(mat)
        w = list(windows(mat, WindowSpec(1, 1)))[1]
        sig = compute_signature(w, model, 3)
        norm, _ = sort_normalize(w, model)
        assert sig.blocks_real.tolist() == norm[:, 0].tolist()

    def test_matches_naive_reference_on_random_matrix(self):
        rng = np.random.default_rng(42)
        data = rng.uniform(-3, 3, size=(8, 16))
        mat = matrix_from(data)
        model = train(mat)
        perm, lo, hi = naive_train(data.tolist())
        assert model.permutation.tolist() == perm
        w = window_from(data)
        sig = compute_signature(w, model, 3)
        real, imag = naive_signature(data.tolist(), None, perm, lo, hi, 3)
        np.testing.assert_allclose(sig.blocks_real, real, atol=1e-9)
        np.testing.assert_allclose(sig.blocks_imag, imag, atol=1e-9)

    def test_training_extremes_reach_bounds(self):
        # single-column windows holding per-row extremes: with one block per
        # row, the normalized blocks must attain both 0 and 1
        data = np.array([[0.0, 10.0], [5.0, -5.0], [1.0, 2.0]])
        mat = matrix_from(data)
        model = train(mat)
        for w in windows(mat, WindowSpec(1, 1)):
            sig = compute_signature(w, model, 3)
            assert sig.blocks_real.min() == 0.0
            assert sig.blocks_real.max() == 1.0

    @given(st.integers(0, 2**32 - 1), st.integers(1, 10), st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_signature_bounds_hold_even_out_of_range(self, seed, n, wl):
        rng = np.random.default_rng(seed)
        train_data = rng.uniform(-1, 1, size=(n, max(2, wl)))
        model = train(matrix_from(train_data))
        inputs = rng.uniform(-10, 10, size=(n, wl))
        sig = compute_signature(
            window_from(inputs, preceding=rng.uniform(-10, 10, size=n)),
            model,
            int(rng.integers(1, n + 1)),
        )
        assert np.all((sig.blocks_real >= 0) & (sig.blocks_real <= 1))
        assert np.all((sig.blocks_imag >= -1) & (sig.blocks_imag <= 1))
        assert np.all(np.isfinite(sig.blocks_real))
        assert np.all(np.isfinite(sig.blocks_imag))

    def test_window_past_the_chunk_size_equals_batch_bytes(self):
        # 1.2 M values, more than _CHUNK_VALUES: still one (n, w + 1) buffer.
        rng = np.random.default_rng(25)
        data = rng.normal(size=(3, 400_001))
        data[1] = 0.25  # flat in training, so a flat row of the model
        data[1, 9::7] = 3.0
        model = train(matrix_from(data[:, :8]))
        mat, spec = matrix_from(data), WindowSpec(400_000, 1)
        assert 3 * 400_000 > cs._CHUNK_VALUES
        for first, window in enumerate(windows(mat, spec)):
            sig = compute_signature(window, model, 2)
            batch = compute_signature_batch(mat, model, spec, 2, first, first + 1)
            assert sig.blocks_real.tobytes() == batch.real[0].tobytes()
            assert sig.blocks_imag.tobytes() == batch.imag[0].tobytes()

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 24),
        # w + 1 on both sides of the repeated-bounds width gate, well past it,
        # and w = 1; w at the edges of numpy's pairwise regimes (8 and 128
        # terms, and one and two blocks of eight), which the rule does not use.
        st.one_of(st.integers(1, 9),
                  st.sampled_from([7, 8, 9, 15, 16, 17, 128, 129]),
                  st.integers(cs._BUFFERED_COLUMNS - 3, cs._BUFFERED_COLUMNS + 1),
                  st.integers(cs._BUFFERED_COLUMNS + 1, 600)),
        st.booleans(),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_batch_bytes_on_both_sides_of_the_width_gate(
        self, seed, n, wl, with_preceding, data
    ):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(n, wl + 1)) * rng.uniform(0.1, 100.0)
        training = rng.normal(size=(n, 6)) * rng.uniform(0.1, 100.0)
        # Flat rows (lo == hi == 3) with values below, at and above the bound.
        flat = data.draw(st.lists(st.integers(0, n - 1), max_size=3), label="flat rows")
        training[flat] = 3.0
        values[flat] = rng.choice([2.0, 3.0, 4.0], size=(len(flat), wl + 1))
        # Rows trained to lower bound +0.0 whose window holds -0.0 samples, which
        # normalize (and clip) to -0.0: all of them, or mixed with +0.0.
        zero = data.draw(st.lists(st.integers(0, n - 1), max_size=2), label="-0.0 rows")
        training[zero] = np.abs(training[zero])
        training[zero, 0] = 0.0
        signs = [-0.0] if seed % 2 else [-0.0, 0.0]
        values[zero] = rng.choice(signs, size=(len(zero), wl + 1))
        model = train(matrix_from(training))
        mat, spec = matrix_from(values), WindowSpec(wl, 1)
        first = int(with_preceding)  # the window at column 0 has no preceding column
        window = list(windows(mat, spec))[first]
        assert (window.preceding is not None) == with_preceding
        n_blocks = data.draw(st.integers(1, n), label="blocks")
        batch = compute_signature_batch(mat, model, spec, n_blocks, first, first + 1)
        sig = compute_signature(window, model, n_blocks)
        assert sig.blocks_real.tobytes() == batch.real[0].tobytes()
        assert sig.blocks_imag.tobytes() == batch.imag[0].tobytes()
        # Up to the gate one repeated pair is cached, for this width; beyond, none.
        held = model.__dict__.get("_repeated_scaling")
        buffered = wl + 1 <= cs._BUFFERED_COLUMNS
        assert (held is not None and held[0].shape == (wl + 1, n)) == buffered

    def test_sensors_past_one_copy_tile_equal_batch_bytes(self):
        # More sensors than one tile of _normalized_window's transposing copy,
        # the last tile a partial one.
        n = 2 * cs._TILE_ROWS + 37
        rng = np.random.default_rng(28)
        data = rng.normal(size=(n, 40)) * rng.uniform(0.1, 100.0, size=(n, 1))
        model = train(matrix_from(data[:, :20]))
        mat, spec = matrix_from(data), WindowSpec(16, 1)
        batch = compute_signature_batch(mat, model, spec, 20)
        for j, window in enumerate(windows(mat, spec)):
            sig = compute_signature(window, model, 20)
            assert sig.blocks_real.tobytes() == batch.real[j].tobytes()
            assert sig.blocks_imag.tobytes() == batch.imag[j].tobytes()

    def test_one_model_at_two_widths_matches_fresh_models(self):
        data = np.random.default_rng(4).normal(size=(30, 120))
        model = train(matrix_from(data[:, :50]))
        saved = io.StringIO()
        save_model(model, saved)
        pairs = []
        for start in range(1, 60, 3):  # widths 40, 7, 40, 7, ...
            wl = (7, 40)[start % 2]
            window = window_from(data[:, start : start + wl], preceding=data[:, start - 1])
            sig = compute_signature(window, model, 4)
            pairs.append(model.__dict__["_repeated_scaling"])
            fresh = compute_signature(window, train(matrix_from(data[:, :50])), 4)
            assert sig.blocks_real.tobytes() == fresh.blocks_real.tobytes()
            assert sig.blocks_imag.tobytes() == fresh.blocks_imag.tobytes()
        # One repeated pair is cached, for the widest width, outside the model's
        # fields; the narrower width reads its leading rows and never rebuilds it.
        assert [a.shape for a in pairs[0]] == [(41, 30)] * 2
        assert all(pair[0] is pairs[0][0] and pair[1] is pairs[0][1] for pair in pairs)
        for narrow, wide in zip(model._wide_scaling(8), pairs[0]):
            assert narrow.flags.c_contiguous and np.shares_memory(narrow, wide)
        untouched = train(matrix_from(data[:, :50]))
        assert model == untouched and model.model_id == untouched.model_id
        after = io.StringIO()
        save_model(model, after)
        assert after.getvalue() == saved.getvalue()

    def test_a_wider_width_replaces_the_cached_pair_once(self):
        # Widths 7, 40, 7, 40, ...: the pair cached at 8 columns gives way to one
        # of 41 at the first wide window, which every later window reads.
        data = np.random.default_rng(6).normal(size=(30, 120))
        model = train(matrix_from(data[:, :50]))
        pairs = []
        for start in range(1, 60, 3):
            wl = (40, 7)[start % 2]
            window = window_from(data[:, start : start + wl], preceding=data[:, start - 1])
            sig = compute_signature(window, model, 4)
            pairs.append(model.__dict__["_repeated_scaling"])
            fresh = compute_signature(window, train(matrix_from(data[:, :50])), 4)
            assert sig.blocks_real.tobytes() == fresh.blocks_real.tobytes()
            assert sig.blocks_imag.tobytes() == fresh.blocks_imag.tobytes()
        assert [a.shape for a in pairs[0]] == [(8, 30)] * 2
        assert [a.shape for a in pairs[1]] == [(41, 30)] * 2
        assert all(pair[0] is pairs[1][0] and pair[1] is pairs[1][1] for pair in pairs[1:])

    def test_a_width_past_the_gate_keeps_the_cached_pair(self):
        model = train(matrix_from(np.random.default_rng(8).normal(size=(12, 30))))
        held = model._wide_scaling(20)
        wide = model._wide_scaling(cs._BUFFERED_COLUMNS + 1)
        assert [a.shape for a in wide] == [(12,)] * 2
        assert model.__dict__["_repeated_scaling"] is held
        narrow = model._wide_scaling(5)
        assert np.shares_memory(narrow[0], held[0]) and np.shares_memory(narrow[1], held[1])

    def test_short_streams_of_every_length_cache_no_repeated_pair(self):
        # Step-1 streams of 17-127 samples normalize time chunks 18-128 columns
        # wide, all up to the width gate; the batch path broadcasts the (n,)
        # bounds, so no repeated pair may stay.
        n, rng = 16, np.random.default_rng(7)
        model = train(matrix_from(rng.normal(size=(n, 40))))
        for length in range(17, 128):
            compute_signature_batch(matrix_from(rng.normal(size=(n, length))), model,
                                    WindowSpec(16, 1), 4)
        fields = {f.name for f in dataclasses.fields(CSModel)}
        cached = sum(array_bytes(v) for k, v in model.__dict__.items() if k not in fields)
        # At most one repeated pair at the gate, plus the (n,) pair of _scaling.
        assert cached <= 2 * n * (cs._BUFFERED_COLUMNS + 1) * 8
        assert "_repeated_scaling" not in model.__dict__

    def test_threads_sharing_a_model_sign_as_serial(self):
        # Two threads sign with one model at w + 1 = 8 and 41: the narrower one
        # reads the leading rows of the pair the wider one caches, and a race may
        # still replace it with a narrower pair; neither may use a pair of the
        # wrong width.
        data = np.random.default_rng(5).normal(size=(24, 400))

        def sign(model, wl):
            return [compute_signature(window_from(data[:, s : s + wl], preceding=data[:, s - 1]),
                                      model, 5) for s in range(1, 301)]

        serial = {wl: sign(train(matrix_from(data[:, :100])), wl) for wl in (7, 40)}
        shared = train(matrix_from(data[:, :100]))
        barrier, results, errors = threading.Barrier(2), {}, []

        def worker(wl):
            try:
                barrier.wait(timeout=60)
                results[wl] = sign(shared, wl)
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often
        try:
            threads = [threading.Thread(target=worker, args=(wl,)) for wl in (7, 40)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for wl in (7, 40):
            for got, want in zip(results[wl], serial[wl], strict=True):
                assert got.blocks_real.tobytes() == want.blocks_real.tobytes()
                assert got.blocks_imag.tobytes() == want.blocks_imag.tobytes()

    def test_flat_row_blocks_are_positive_zero(self):
        # Row s1 is flat (lo == hi == 2): its window values lie above, below
        # and at the bound, and the sample before the window is off it.
        model = CSModel(("s0", "s1", "s2"), [2, 1, 0], [0.0, 2.0, -1.0], [1.0, 2.0, 1.0])
        preceding = np.array([0.1, 2.5, 0.0])
        values = np.array([[0.2, 0.4, 0.9], [3.0, 1.0, 2.0], [0.0, -0.5, 0.5]])
        window = window_from(values, preceding=preceding)
        sig = compute_signature(window, model, 3)
        mat = matrix_from(np.column_stack([preceding, values]))
        batch = compute_signature_batch(mat, model, WindowSpec(3, 1), 3, first=1, stop=2)
        norm, deriv = sort_normalize(window, model)
        # With l = n each block is one row in permutation order: s1 is block 1.
        flat_row = [sig.blocks_real[1], sig.blocks_imag[1], batch.real[0, 1], batch.imag[0, 1],
                    *norm[1], *deriv[1]]
        assert all(x == 0.0 and math.copysign(1.0, x) == 1.0 for x in flat_row), flat_row
        assert sig.blocks_real[0] > 0.0 and sig.blocks_real[2] > 0.0

    @pytest.mark.parametrize("wl", [7, 8, 16, 129])
    def test_negative_zero_samples_give_positive_zero_blocks(self, wl):
        # Row s1 is trained to lower bound +0.0 and its window holds only -0.0,
        # which normalizes and clips to -0.0. The rule adds from +0.0, so the
        # row sums to +0.0 on every path.
        model = CSModel(("s0", "s1", "s2"), [2, 1, 0], [0.0, 0.0, -1.0], [1.0, 2.0, 1.0])
        values = np.full((3, wl + 1), -0.0)
        values[0], values[2] = 0.5, 0.25
        mat, spec = matrix_from(values), WindowSpec(wl, 1)
        sig = compute_signature(list(windows(mat, spec))[1], model, 3)
        batch = compute_signature_batch(mat, model, spec, 3, first=1, stop=2)
        assert sig.blocks_real.tobytes() == batch.real[0].tobytes()
        assert sig.blocks_imag.tobytes() == batch.imag[0].tobytes()
        # With l = n each block is one row in permutation order: s1 is block 1.
        for x in (sig.blocks_real[1], sig.blocks_imag[1]):
            assert x == 0.0 and math.copysign(1.0, x) == 1.0


def oldest_first(terms):
    """The summation rule by hand: ((0.0 + x1) + x2) + ..., one float add at a
    time. Not sum(), which compensates float sums from Python 3.12 on."""
    total = 0.0
    for x in terms:
        total = total + float(x)
    return total


def normalized_by_hand(values, model):
    """Min-max normalized rows, clamped to [0, 1]; a flat row is +0.0."""
    lo, hi = model.lower_bounds[:, None], model.upper_bounds[:, None]
    flat = lo == hi
    norm = np.clip((values - lo) / np.where(flat, 1.0, hi - lo), 0.0, 1.0)
    return np.where(flat, 0.0, norm)


def samples_of_kind(rng, kind, shape):
    if kind == "random":
        # Magnitudes spread over 16 decades, so any other order of the adds
        # shows in the bits.
        return rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
    if kind == "all -0.0":
        return np.full(shape, -0.0)
    return rng.choice([-0.0, 0.0, 1e-300, -1e-300], size=shape)


class TestWindowSums:
    """cs._window_sums, the summation rule of every signer, against the rule
    added by hand, byte for byte."""

    @given(
        st.one_of(st.integers(1, 300), st.integers(4000, 4100), st.integers(8191, 8193)),
        st.integers(1, 5),
        st.sampled_from(["random", "all -0.0", "mixed +-0.0"]),
        st.integers(0, 2**32 - 1),
    )
    # One column, where numpy's own reduction would add pairwise.
    @example(16, 1, "random", 0)
    @example(129, 1, "random", 1)
    @settings(max_examples=300, deadline=None)
    def test_one_window_adds_oldest_first(self, width, c, kind, seed):
        # One window of c columns, as compute_signature hands over rows of
        # sensors.
        norm = samples_of_kind(np.random.default_rng(seed), kind, (width + 1, c))
        sums = cs._window_sums(norm[:, None], np.empty((2, 1, c)))
        want = np.array([oldest_first(norm[1:, j]) for j in range(c)])
        assert sums[0, 0].tobytes() == want.tobytes()
        assert sums[1, 0].tobytes() == (norm[width] - norm[0]).tobytes()

    @given(
        st.integers(1, 300),
        st.integers(1, 5),
        st.integers(1, 40),
        st.integers(1, 20),
        st.sampled_from(["random", "all -0.0", "mixed +-0.0"]),
        st.integers(0, 2**32 - 1),
    )
    @example(4001, 1, 3, 7, "random", 0)
    @example(4001, 3, 2, 1, "mixed +-0.0", 0)
    @settings(max_examples=150, deadline=None)
    def test_windows_at_a_step_add_oldest_first(self, width, c, k, step, kind, seed):
        # k windows, step rows apart, of one time-major block, viewed as the
        # batch kernel views them.
        norm = samples_of_kind(np.random.default_rng(seed), kind, ((k - 1) * step + width + 1, c))
        time = norm.strides[0]
        strides = (time, step * time, norm.itemsize)
        view = np.lib.stride_tricks.as_strided(norm, (width + 1, k, c), strides)
        sums = cs._window_sums(view, np.empty((2, k, c)))
        for j in range(k):
            window = norm[j * step : j * step + width + 1]
            want = np.array([oldest_first(window[1:, col]) for col in range(c)])
            assert sums[0, j].tobytes() == want.tobytes(), j
            assert sums[1, j].tobytes() == (window[-1] - window[0]).tobytes(), j


class TestSignersFollowTheRule:
    """compute_signature, compute_signature_batch and _signature_stack against
    each other, against the rule by hand (l = n: each block one row) byte for
    byte, and against the criterion-1 oracle."""

    @staticmethod
    def assert_rule(values, model, spec, starts, batch):
        """Each window at ``starts`` by hand, against the batch's blocks of it."""
        width, p = spec.length_samples, model.permutation
        norm = normalized_by_hand(values, model)
        for start in starts:
            before = norm[:, max(start - 1, 0)]
            real = np.array([oldest_first(norm[r, start : start + width]) for r in p]) / width
            imag = (norm[p, start + width - 1] - before[p]) / width
            assert batch.real[start].tobytes() == real.tobytes(), start
            assert batch.imag[start].tobytes() == imag.tobytes(), start

    @staticmethod
    def assert_oracle(values, model, spec, starts, batch):
        width = spec.length_samples
        perm, lo, hi = (model.permutation.tolist(), model.lower_bounds.tolist(),
                        model.upper_bounds.tolist())
        for start in starts:
            preceding = values[:, start - 1].tolist() if start else None
            real, imag = naive_signature(values[:, start : start + width].tolist(), preceding,
                                         perm, lo, hi, len(perm))
            np.testing.assert_allclose(batch.real[start], real, atol=1e-9)
            np.testing.assert_allclose(batch.imag[start], imag, atol=1e-9)

    @staticmethod
    def assert_same(a, b):
        for field in ("window_starts", "window_ends", "real", "imag"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field

    @pytest.mark.parametrize("wl", [9, 16, 129])
    def test_one_sensor(self, wl):
        # Samples over eight decades, where numpy's pairwise order of one
        # contiguous row gives other bits than the rule.
        rng = np.random.default_rng(wl)
        values = 10.0 ** rng.uniform(-8.0, 0.0, size=(1, wl + 40))
        model = train(matrix_from(values[:, :wl]))
        mat, spec = matrix_from(values), WindowSpec(wl, 1)
        count = len(spec.starts(mat.n_samples))
        batch = compute_signature_batch(mat, model, spec, 1)
        sigs = [compute_signature(w, model, 1) for w in windows(mat, spec)]
        assert batch.real.tobytes() == np.stack([s.blocks_real for s in sigs]).tobytes()
        assert batch.imag.tobytes() == np.stack([s.blocks_imag for s in sigs]).tobytes()
        self.assert_same(cs._signature_stack(mat, [model] * count, spec, 1, 0), batch)
        starts = list(range(count))
        self.assert_rule(values, model, spec, starts, batch)
        self.assert_oracle(values, model, spec, starts, batch)
        norm = normalized_by_hand(values, model)[0]
        pairwise = [norm[s : s + wl].sum() != oldest_first(norm[s : s + wl]) for s in starts]
        assert any(pairwise)  # the data tells the two orders apart

    def test_windows_across_accumulator_and_chunk_boundaries(self):
        # Natural sizes: at 256 sensors a time chunk holds _CHUNK_VALUES // 256
        # step-1 windows, summed per_sum at a time. The stream holds one chunk,
        # one accumulator and a few windows more.
        n, wl = 256, 16
        per_chunk = cs._CHUNK_VALUES // n
        per_sum = max(8, cs._SUM_ADDS // (n * wl))
        count = per_chunk + per_sum + 5
        rng = np.random.default_rng(31)
        values = rng.normal(size=(n, count + wl - 1)) * rng.uniform(0.1, 100.0, size=(n, 1))
        values[7] = 2.5  # flat in training: a flat row of the model
        values[7, 5000:] = 3.0
        model = train(matrix_from(values[:, :200]))
        mat, spec = matrix_from(values), WindowSpec(wl, 1)
        assert len(spec.starts(mat.n_samples)) == count
        batch = compute_signature_batch(mat, model, spec, n)
        sigs = [compute_signature(w, model, n) for w in windows(mat, spec)]
        assert batch.real.tobytes() == np.stack([s.blocks_real for s in sigs]).tobytes()
        assert batch.imag.tobytes() == np.stack([s.blocks_imag for s in sigs]).tobytes()
        edges = sorted({0, per_sum - 1, per_sum, per_chunk - 1, per_chunk,
                        per_chunk + per_sum - 1, per_chunk + per_sum, count - 1})
        for first in edges:
            first = min(first, count - 2)
            self.assert_same(cs._signature_stack(mat, [model] * 2, spec, n, first),
                             compute_signature_batch(mat, model, spec, n, first, first + 2))
        self.assert_rule(values, model, spec, edges, batch)
        self.assert_oracle(values, model, spec, edges, batch)


class Drawn:
    """st.data() for an @example: each draw returns the next of ``values``."""

    def __init__(self, *values):
        self.values = iter(values)

    def draw(self, strategy, label=None):
        return next(self.values)


class TestComputeSignatureBatch:
    @staticmethod
    def per_window(matrix, model, spec, n_blocks, first=0, stop=None):
        sigs = [compute_signature(w, model, n_blocks) for w in windows(matrix, spec)]
        return sigs[first:stop]

    def assert_same(self, batch, sigs):
        assert np.array_equal(batch.real, np.stack([s.blocks_real for s in sigs]))
        assert np.array_equal(batch.imag, np.stack([s.blocks_imag for s in sigs]))
        assert batch.window_starts.tolist() == [s.window_start for s in sigs]
        assert batch.window_ends.tolist() == [s.window_end for s in sigs]

    def test_instants_exact_where_interval_times_column_wraps(self, wrapping_matrix):
        matrix, instants = wrapping_matrix
        batch = compute_signature_batch(matrix, train(matrix), WindowSpec(2, 1), 1)
        assert batch.window_starts.tolist() == instants[:-1]
        assert batch.window_ends.tolist() == instants[1:]

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 40),
        st.integers(1, 40),
        st.integers(1, 50),
        st.integers(0, 80),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_per_window_signatures_bit_for_bit(self, seed, n, wl, step, extra, data):
        # extra = 0 makes the stream exactly one window long (t == w); a step
        # beyond the window length skips samples between windows.
        t = max(2, wl + extra)
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(n, t)) * rng.uniform(0.1, 100.0)
        flat = data.draw(st.integers(-1, n - 1), label="flat row")
        if flat >= 0:
            values[flat] = 3.0
        # Trained on a prefix, so later values fall outside the bounds.
        model = train(matrix_from(values[:, : max(2, t // 2)]))
        n_blocks = data.draw(st.integers(1, n), label="blocks")
        mat, spec = matrix_from(values), WindowSpec(wl, step)
        count = len(spec.starts(t))
        first = data.draw(st.integers(0, count - 1), label="first")
        stop = data.draw(st.integers(first + 1, count), label="stop")
        self.assert_same(
            compute_signature_batch(mat, model, spec, n_blocks),
            self.per_window(mat, model, spec, n_blocks),
        )
        self.assert_same(
            compute_signature_batch(mat, model, spec, n_blocks, first, stop),
            self.per_window(mat, model, spec, n_blocks, first, stop),
        )

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 40),
        st.integers(1, 40),
        st.integers(1, 50),
        st.integers(0, 80),
        st.data(),
    )
    # Draws: flat row, blocks, first, stop. One sensor in several windows: the
    # stack's one-column sums.
    @example(1, 1, 16, 1, 20, Drawn(-1, 1, 2, 12))
    # A step past w + 1: the windows skip samples.
    @example(2, 3, 4, 7, 30, Drawn(1, 2, 1, 4))
    # first = 0: the window with no preceding column.
    @example(3, 5, 6, 2, 10, Drawn(-1, 3, 0, 3))
    @settings(max_examples=100, deadline=None)
    def test_a_stack_of_models_equals_each_window_alone(self, seed, n, wl, step, extra, data):
        # Window first + j signed with model j: each model is trained on its own
        # prefix, so bounds (flat in some models only) and orders differ.
        t = max(2, wl + extra)
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(n, t)) * rng.uniform(0.1, 100.0)
        flat = data.draw(st.integers(-1, n - 1), label="flat row")
        if flat >= 0:
            values[flat, : t // 2] = 3.0
        mat, spec = matrix_from(values), WindowSpec(wl, step)
        n_blocks = data.draw(st.integers(1, n), label="blocks")
        count = len(spec.starts(t))
        first = data.draw(st.integers(0, count - 1), label="first")
        stop = data.draw(st.integers(first + 1, count), label="stop")
        models = [
            train(matrix_from(values[:, : int(rng.integers(2, t + 1))])) for _ in range(first, stop)
        ]
        alone = [
            compute_signature_batch(mat, model, spec, n_blocks, first + j, first + j + 1)
            for j, model in enumerate(models)
        ]
        stacked = cs._signature_stack(mat, models, spec, n_blocks, first)
        for field in ("window_starts", "window_ends", "real", "imag"):
            expected = np.concatenate([getattr(b, field) for b in alone])
            assert getattr(stacked, field).tobytes() == expected.tobytes(), field
        # compute_signature shares the stack's tail: window by window, the same bits.
        each = list(windows(mat, spec))[first:stop]
        sigs = [compute_signature(w, m, n_blocks) for w, m in zip(each, models, strict=True)]
        assert stacked.real.tobytes() == np.stack([s.blocks_real for s in sigs]).tobytes()
        assert stacked.imag.tobytes() == np.stack([s.blocks_imag for s in sigs]).tobytes()

    @pytest.mark.parametrize("step", [1, 3, 20, 37])
    def test_time_chunks_do_not_change_the_result(self, monkeypatch, step):
        rng = np.random.default_rng(step)
        mat = matrix_from(rng.uniform(-1.0, 1.0, size=(7, 400)))
        model = train(matrix_from(mat.data[:, :100]))
        spec = WindowSpec(16, step)
        monkeypatch.setattr(cs, "_CHUNK_VALUES", 7 * 40)
        self.assert_same(
            compute_signature_batch(mat, model, spec, 3),
            self.per_window(mat, model, spec, 3),
        )

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 30),
        st.integers(1, 20),
        st.integers(1, 30),
        st.sampled_from([None, 1, 5, 64]),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_each_count_of_one_pass_equals_its_own_call(self, seed, n, wl, step, chunk, data):
        # chunk: windows per time chunk forced through _CHUNK_VALUES, with rows
        # transposed in tiles of 1 to 7 (None keeps both constants).
        t = wl + data.draw(st.integers(1, 60), label="extra")
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(n, t))
        model = train(matrix_from(values[:, : max(2, t // 2)]))
        mat, spec = matrix_from(values), WindowSpec(wl, step)
        counts = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=4), label="counts")
        count = len(spec.starts(t))
        first = data.draw(st.integers(0, count - 1), label="first")
        chunk_values = chunk * n * step if chunk else cs._CHUNK_VALUES
        tile = data.draw(st.integers(1, 7), label="tile rows") if chunk else cs._TILE_ROWS
        with mock.patch.object(cs, "_CHUNK_VALUES", chunk_values), \
                mock.patch.object(cs, "_TILE_ROWS", tile):
            batches = compute_signature_batches(mat, model, spec, counts, first)
            singles = [compute_signature_batch(mat, model, spec, c, first) for c in counts]
        assert len(batches) == len(counts)
        for batch, single in zip(batches, singles):
            assert np.array_equal(batch.real, single.real)
            assert np.array_equal(batch.imag, single.imag)
            assert np.array_equal(batch.window_starts, single.window_starts)
            assert np.array_equal(batch.window_ends, single.window_ends)
        if not chunk:
            return
        # Several time chunks and row tiles give the bits of one of each.
        for batch, c in zip(batches, counts):
            whole = compute_signature_batch(mat, model, spec, c, first)
            assert np.array_equal(batch.real, whole.real)
            assert np.array_equal(batch.imag, whole.imag)

    def test_every_block_count_checked_before_signing(self, monkeypatch):
        mat = matrix_from(np.random.default_rng(0).uniform(size=(4, 20)))
        model = train(mat)
        monkeypatch.setattr(cs, "_normalize", None)  # signing would call it
        with pytest.raises(InvalidBlockCountError):
            compute_signature_batches(mat, model, WindowSpec(4, 1), [2, 5])

    def test_window_longer_than_data_is_degenerate(self):
        mat = matrix_from(np.random.default_rng(0).uniform(size=(3, 10)))
        with pytest.raises(DegenerateInputError):
            compute_signature_batch(mat, train(mat), WindowSpec(11, 1), 2)

    def test_mismatched_sensors_rejected(self):
        mat = matrix_from(np.random.default_rng(0).uniform(size=(3, 10)))
        other = train(matrix_from(np.random.default_rng(1).uniform(size=(4, 10))))
        with pytest.raises(ModelIncompatibilityError):
            compute_signature_batch(mat, other, WindowSpec(4, 1), 2)


class TestRuntimeScaling:
    @staticmethod
    def median_seconds(shapes, reps=20):
        """Median seconds of one compute_signature call per (n, wl) shape. The shapes
        are timed in turn within each rep, so a burst of load on the host lands on
        all of them rather than on one side of a ratio."""
        import time

        from cs_smooth.synthetic import random_matrix

        calls = []
        for n, wl in shapes:
            window = next(windows(random_matrix(n, wl, seed=1), WindowSpec(wl, wl)))
            rng = np.random.default_rng(2)
            model = CSModel(
                sensor_ids=window.sensor_ids,
                permutation=rng.permutation(n),
                lower_bounds=window.values.min(axis=1),
                upper_bounds=window.values.max(axis=1),
            )
            compute_signature(window, model, 20)  # warm-up
            calls.append((window, model))
        times = [[] for _ in shapes]
        for _ in range(reps):
            for (window, model), shape_times in zip(calls, times):
                t0 = time.perf_counter()
                compute_signature(window, model, 20)
                shape_times.append(time.perf_counter() - t0)
        return [float(np.median(t)) for t in times]

    def test_doubling_sensor_count_stays_linear(self):
        # Each doubling of n may cost at most 2.2x. A single 4,000 -> 8,000
        # ratio moves by tens of percent with memory placement, so the same
        # per-doubling bound is checked over three doublings, where that noise
        # is small against the span; a quadratic kernel would grow 64x.
        doublings = 3
        small, large = self.median_seconds([(4000, 100), (4000 * 2**doublings, 100)])
        ratio = large / small
        assert ratio <= 2.2**doublings, f"{2**doublings}x the sensors cost {ratio:.2f}x"

    def test_doubling_window_length_stays_linear(self):
        small, large = self.median_seconds([(100, 4000), (100, 8000)])
        ratio = large / small
        assert ratio <= 2.2, f"doubling window cost {ratio:.2f}x"


class TestModelPersistence:
    def make_model(self):
        return train(matrix_from(np.random.default_rng(3).uniform(size=(5, 12))))

    def test_round_trip_exact(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        assert load_model(path) == model

    def test_round_trip_via_stream(self):
        model = self.make_model()
        buf = io.StringIO()
        save_model(model, buf)
        assert load_model(io.StringIO(buf.getvalue())) == model

    def test_unsupported_version(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        text = path.read_text().replace('"v1"', '"v999"')
        path.write_text(text)
        with pytest.raises(UnsupportedVersionError):
            load_model(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("")
        with pytest.raises(FormatError):
            load_model(path)

    def test_truncated_file(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(FormatError):
            load_model(path)

    @pytest.mark.parametrize(
        "field, value, reason",
        [
            ("permutation", [1.7, 0, 2, 3, 4], "permutation entries must be integers"),
            ("permutation", [1.0, 0, 2, 3, 4], "permutation entries must be integers"),
            ("lower_bounds", [math.nan, 0.0, 0.0, 0.0, 0.0], "bounds must be finite"),
            ("upper_bounds", [math.inf, 1.0, 1.0, 1.0, 1.0], "bounds must be finite"),
            ("lower_bounds", [-math.inf, 0.0, 0.0, 0.0, 0.0], "bounds must be finite"),
            ("sensor_ids", ["a", "b", "c", "d", "a"], "sensor ids are not unique"),
            ("sensor_ids", ["a", "b", "c", "d", 5], "sensor ids must be strings"),
            ("lower_bounds", ["x", 0.0, 0.0, 0.0, 0.0], "malformed model field"),
            # JSON booleans and strings are not numbers, even where numpy reads one.
            ("permutation", [True, 0, 2, 3, 4], "permutation entries must be integers"),
            ("lower_bounds", ["0.0", 0.0, 0.0, 0.0, 0.0], "malformed model field"),
            ("lower_bounds", [False, 0.0, 0.0, 0.0, 0.0], "malformed model field"),
            ("upper_bounds", [True, 1.0, 1.0, 1.0, 1.0], "malformed model field"),
            ("upper_bounds", [None, 1.0, 1.0, 1.0, 1.0], "malformed model field"),
            ("sensor_ids", "abcde", "sensor_ids must be a list of strings"),
            ("sensor_ids", {"a": 1}, "sensor_ids must be a list of strings"),
        ],
    )
    def test_invalid_field_rejected(self, tmp_path, field, value, reason):
        model = self.make_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        payload[field] = value
        path.write_text(json.dumps(payload))  # json writes NaN/Infinity literals
        with pytest.raises(FormatError, match=reason):
            load_model(path)

    def test_bounds_whose_span_overflows_rejected(self):
        # Each bound is finite, but their difference, the normalisation divisor, is not.
        with pytest.raises(FormatError, match="^bounds span must fit in float64$"):
            CSModel(("a", "b"), [0, 1], [-1e308, 0.0], [1e308, 0.0])

    @pytest.mark.parametrize(
        "lo, hi, reason",
        [
            ([math.nan, 1.0, -1e308], [0.0, 0.0, 1e308], "bounds must be finite"),
            ([0.0, 1.0, -1e308], [math.inf, 0.0, 1e308], "bounds must be finite"),
            ([0.0, 1.0, -1e308], [0.0, 0.0, 1e308], "lower bound exceeds upper bound"),
            ([0.0, 0.0, -1e308], [0.0, 0.0, 1e308], "bounds span must fit in float64"),
        ],
    )
    def test_the_first_failing_bounds_check_names_the_error(self, lo, hi, reason):
        # Bounds breaking several rules at once report the first rule, in this order.
        with pytest.raises(FormatError, match=f"^{reason}$"):
            CSModel(("a", "b", "c"), [0, 1, 2], lo, hi)

    def test_equal_bounds_of_either_zero_sign_accepted(self):
        model = CSModel(("a", "b"), [0, 1], [0.0, -0.0], [-0.0, 0.0])
        assert model.lower_bounds.tolist() == [0.0, -0.0]

    def test_model_id_stable_across_round_trip(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        assert load_model(path).model_id == model.model_id
