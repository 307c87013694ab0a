import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cs_smooth.errors import (
    DegenerateInputError,
    DimensionError,
    IncompatibilityError,
    PredictorError,
    StratificationError,
    TaskError,
)
from cs_smooth.evaluation import (
    CLASSIFICATION,
    REGRESSION,
    KNearestMeanRegressor,
    LabeledDataset,
    NearestNeighborClassifier,
    cross_validate,
    f1_macro,
    merge_datasets,
    nrmse_c,
    reference_predictor,
    signature_features,
    stratified_kfold,
)

from naive_reference import naive_kfold


def classification_dataset(labels, width=3, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.asarray(labels)
    return LabeledDataset(
        features=rng.uniform(size=(len(labels), width)),
        labels=labels,
        task=CLASSIFICATION,
    )


class TestLabeledDataset:
    def test_regression_needs_numeric_labels(self):
        with pytest.raises(
            TaskError,
            match=r"^regression needs numeric labels: could not convert string to float: 'a'$",
        ):
            LabeledDataset(np.zeros((2, 3)), ["a", "b"], REGRESSION)

    def test_regression_label_of_no_number_is_task_error(self):
        with pytest.raises(TaskError, match=r"^regression needs numeric labels: float\(\) argument"):
            LabeledDataset(np.zeros((2, 3)), [None, 1.0], REGRESSION)

    def test_regression_labels_parse_as_floats(self):
        ds = LabeledDataset(np.zeros((3, 1)), np.array(["1.5", "-2", "1e3"]), REGRESSION)
        assert ds.labels.dtype == np.float64
        assert ds.labels.tolist() == [1.5, -2.0, 1000.0]


class TestStratifiedKfold:
    def test_exact_stratification(self):
        ds = classification_dataset(["a"] * 5 + ["b"] * 5)
        folds = stratified_kfold(ds, 5, seed=0)
        for fold in folds:
            assert len(fold) == 2
            assert sorted(ds.labels[fold]) == ["a", "b"]

    def test_folds_disjoint_and_cover(self):
        ds = classification_dataset(["a"] * 7 + ["b"] * 9)
        folds = stratified_kfold(ds, 4, seed=3)
        all_idx = np.concatenate(folds)
        assert sorted(all_idx.tolist()) == list(range(16))

    def test_more_folds_than_rows(self):
        ds = classification_dataset(["a", "b"])
        with pytest.raises(StratificationError):
            stratified_kfold(ds, 3, seed=0)

    def test_small_class_named(self):
        ds = classification_dataset(["a"] * 6 + ["rare"] * 2)
        with pytest.raises(StratificationError, match="rare"):
            stratified_kfold(ds, 3, seed=0)

    def test_deterministic_given_seed(self):
        ds = classification_dataset(["a"] * 10 + ["b"] * 14)
        first = stratified_kfold(ds, 5, seed=11)
        second = stratified_kfold(ds, 5, seed=11)
        assert all(np.array_equal(a, b) for a, b in zip(first, second))
        different = stratified_kfold(ds, 5, seed=12)
        assert any(not np.array_equal(a, b) for a, b in zip(first, different))

    def test_regression_plain_split(self):
        rng = np.random.default_rng(0)
        ds = LabeledDataset(rng.uniform(size=(11, 2)), rng.uniform(size=11), REGRESSION)
        folds = stratified_kfold(ds, 3, seed=0)
        sizes = sorted(len(f) for f in folds)
        assert sizes == [3, 4, 4]

    @given(st.integers(0, 1000), st.integers(2, 6), st.integers(2, 5))
    @settings(max_examples=40)
    def test_fold_sizes_within_one(self, seed, k, n_classes):
        rng = np.random.default_rng(seed)
        counts = rng.integers(k, 4 * k, size=n_classes)
        labels = np.repeat([f"c{i}" for i in range(n_classes)], counts)
        ds = classification_dataset(labels, seed=seed)
        folds = stratified_kfold(ds, k, seed=seed)
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 1
        for cls in np.unique(labels):
            per_fold = [int(np.sum(ds.labels[f] == cls)) for f in folds]
            assert max(per_fold) - min(per_fold) <= 1
        assert sorted(np.concatenate(folds).tolist()) == list(range(len(labels)))

    @given(
        st.integers(0, 2**32 - 1), st.integers(2, 7), st.booleans(),
        st.lists(st.integers(0, 20), min_size=1, max_size=5), st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_folds_match_naive_dealing(self, seed, k, classification, sizes, int_labels):
        # Class sizes are unequal and may fall below k; integer labels sort
        # differently by value and by repr ("np.int64(10)" < "np.int64(9)").
        names = [10, 9, 100, -1, 2] if int_labels else ["b", "a10", "a9", "B", "c"]
        rng = np.random.default_rng(seed)
        labels = rng.permutation(np.repeat(names[: len(sizes)], sizes))
        features = np.zeros((len(labels), 2))
        if classification:
            ds = LabeledDataset(features, labels, CLASSIFICATION)
        else:
            ds = LabeledDataset(features, rng.uniform(size=len(labels)), REGRESSION)
        try:
            expected = naive_kfold(ds.labels, classification, k, seed)
        except ValueError as exc:
            with pytest.raises(StratificationError) as raised:
                stratified_kfold(ds, k, seed)
            assert str(raised.value) == str(exc)
            return
        folds = stratified_kfold(ds, k, seed)
        assert len(folds) == k
        for fold, naive in zip(folds, expected):
            assert fold.dtype == np.int64
            assert np.array_equal(fold, naive)


class TestF1Macro:
    def test_all_correct(self):
        assert f1_macro(["a", "b", "a"], ["a", "b", "a"]) == 1.0

    def test_balanced_half_errors(self):
        # per class: TP=1, FP=1, FN=1 -> P=R=0.5 -> F1=0.5
        truth = ["a", "a", "b", "b"]
        pred = ["a", "b", "a", "b"]
        assert f1_macro(truth, pred) == 0.5

    def test_all_wrong(self):
        assert f1_macro(["a", "b"], ["b", "a"]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            f1_macro(["a"], ["a", "b"])

    def test_permutation_invariant(self):
        truth = np.array(["a", "b", "b", "c", "a", "c"])
        pred = np.array(["a", "b", "c", "c", "b", "c"])
        perm = np.random.default_rng(0).permutation(len(truth))
        assert f1_macro(truth, pred) == f1_macro(truth[perm], pred[perm])


class TestNrmseC:
    def test_perfect(self):
        assert nrmse_c([0.0, 1.0, 2.0], [0.0, 1.0, 2.0]) == 1.0

    def test_total_miss(self):
        assert nrmse_c([0.0, 1.0], [1.0, 0.0]) == 0.0

    def test_hand_value(self):
        assert nrmse_c([0.0, 2.0], [0.0, 0.0]) == pytest.approx(1 - np.sqrt(2) / 2, abs=1e-12)

    def test_constant_truth(self):
        with pytest.raises(DegenerateInputError):
            nrmse_c([3.0, 3.0], [1.0, 2.0])

    def test_returns_a_python_float(self):
        # repr of a numpy scalar is "np.float64(...)", which reports could not parse.
        assert type(nrmse_c([0.0, 2.0, 5.0], [1.0, 2.0, 4.0])) is float

    @given(st.integers(0, 10_000))
    @settings(max_examples=30)
    def test_permutation_invariant(self, seed):
        rng = np.random.default_rng(seed)
        truth = rng.uniform(-5, 5, size=12)
        truth[0], truth[1] = truth.min() - 1, truth.max() + 1  # ensure span > 0
        pred = rng.uniform(-5, 5, size=12)
        perm = rng.permutation(12)
        assert nrmse_c(truth, pred) == pytest.approx(
            nrmse_c(truth[perm], pred[perm]), abs=1e-12
        )


class TestReferencePredictor:
    def test_exact_match_returns_label(self):
        clf = NearestNeighborClassifier()
        clf.fit(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array(["x", "y"]))
        assert clf.predict(np.array([[1.0, 1.0]])).tolist() == ["y"]

    def test_equidistant_tie_goes_to_lower_index(self):
        clf = NearestNeighborClassifier()
        clf.fit(np.array([[0.0], [2.0]]), np.array(["lo", "hi"]))
        assert clf.predict(np.array([[1.0]])).tolist() == ["lo"]

    def test_regressor_exact_match_k1(self):
        reg = KNearestMeanRegressor(k=1)
        reg.fit(np.array([[0.0], [1.0]]), np.array([10.0, 20.0]))
        assert reg.predict(np.array([[1.0]])).tolist() == [20.0]

    def test_regressor_averages_neighbors(self):
        reg = KNearestMeanRegressor(k=2)
        reg.fit(np.array([[0.0], [1.0], [50.0]]), np.array([10.0, 20.0, 99.0]))
        assert reg.predict(np.array([[0.5]])).tolist() == [15.0]

    def test_empty_training_set(self):
        with pytest.raises(DegenerateInputError):
            NearestNeighborClassifier().fit(np.empty((0, 2)), np.array([]))

    def test_factory(self):
        assert isinstance(reference_predictor(CLASSIFICATION), NearestNeighborClassifier)
        assert isinstance(reference_predictor(REGRESSION), KNearestMeanRegressor)


class TestCrossValidate:
    def test_memorizer_on_separated_classes(self):
        rng = np.random.default_rng(2)
        features = np.concatenate([
            rng.uniform(0.0, 0.1, size=(20, 2)),
            rng.uniform(5.0, 5.1, size=(20, 2)),
        ])
        ds = LabeledDataset(features, np.array(["a"] * 20 + ["b"] * 20), CLASSIFICATION)
        metrics = cross_validate(ds, reference_predictor(CLASSIFICATION), 5, seed=0)
        assert metrics.score == 1.0
        assert len(metrics.per_fold) == 5

    def test_constant_mean_regressor_sanity(self):
        class ConstantMean:
            def fit(self, X, y):
                self.mean = float(np.mean(y))

            def predict(self, X):
                return np.full(len(X), self.mean)

        rng = np.random.default_rng(4)
        ds = LabeledDataset(rng.uniform(size=(30, 2)), np.linspace(-1, 1, 30), REGRESSION)
        metrics = cross_validate(ds, ConstantMean(), 5, seed=0)
        assert metrics.metric == "nrmse_c"
        assert metrics.score < 1.0

    def test_deterministic(self):
        ds = classification_dataset(["a"] * 10 + ["b"] * 10, seed=7)
        a = cross_validate(ds, reference_predictor(CLASSIFICATION), 5, seed=3)
        b = cross_validate(ds, reference_predictor(CLASSIFICATION), 5, seed=3)
        assert a.per_fold == b.per_fold

    def test_predictor_failure_names_fold(self):
        class Broken:
            def fit(self, X, y):
                raise RuntimeError("boom")

            def predict(self, X):
                return np.array([])

        ds = classification_dataset(["a"] * 5 + ["b"] * 5)
        with pytest.raises(PredictorError, match="fold 0"):
            cross_validate(ds, Broken(), 5, seed=0)


class TestMergeDatasets:
    def test_equal_width_sources_concatenate(self):
        # sources with different sensor counts still produce equal-width
        # signature features at a fixed block count
        rng = np.random.default_rng(8)
        width = 40
        parts = [
            LabeledDataset(rng.uniform(size=(m, width)), np.array(["x"] * m), CLASSIFICATION)
            for m in (39, 52, 46)
        ]
        merged = merge_datasets(parts)
        assert merged.features.shape == (39 + 52 + 46, width)

    def test_single_dataset_identity(self):
        ds = classification_dataset(["a", "b"])
        assert merge_datasets([ds]) is ds

    def test_width_mismatch_names_dataset(self):
        a = classification_dataset(["a", "b"], width=4)
        b = classification_dataset(["a", "b"], width=5)
        with pytest.raises(IncompatibilityError, match="dataset 1"):
            merge_datasets([a, b])


class TestSignatureFeatures:
    def test_real_then_imaginary(self):
        real = np.array([[1.0, 2.0]])
        imag = np.array([[3.0, 4.0]])
        assert signature_features(real, imag).tolist() == [[1.0, 2.0, 3.0, 4.0]]

    def test_real_only_flag(self):
        real = np.array([[1.0, 2.0]])
        imag = np.array([[3.0, 4.0]])
        assert signature_features(real, imag, real_only=True).tolist() == [[1.0, 2.0]]

    def test_baseline_batches_have_no_imag(self):
        real = np.array([[1.0, 2.0]])
        assert signature_features(real, None).tolist() == [[1.0, 2.0]]
