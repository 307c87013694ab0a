"""Downstream-task harness: stratified k-fold scoring of signature datasets.

Predictors are pluggable: anything with sklearn-style ``fit(X, y)`` and
``predict(X)`` works. A small exact-nearest-neighbor pair ships as the
reference predictor so the harness has no model-library dependency and fully
pinned tie-breaking.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .errors import (
    DegenerateInputError,
    DimensionError,
    IncompatibilityError,
    InvalidParameterError,
    PredictorError,
    StratificationError,
    TaskError,
)

CLASSIFICATION = "classification"
REGRESSION = "regression"


class Predictor(Protocol):
    def fit(self, features: np.ndarray, labels: np.ndarray) -> None: ...

    def predict(self, features: np.ndarray) -> np.ndarray: ...


@dataclass(frozen=True)
class LabeledDataset:
    """Feature rows (one per signature) with class or regression targets."""

    features: np.ndarray
    labels: np.ndarray
    task: str

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2:
            raise DimensionError("features must be a 2-D matrix")
        if self.task not in _TASKS:
            raise TaskError(f"unknown task {self.task!r}")
        labels = np.asarray(self.labels)
        if self.task == REGRESSION:
            try:
                labels = np.array([float(v) for v in labels.tolist()])
            except (TypeError, ValueError) as exc:
                raise TaskError(f"regression needs numeric labels: {exc}") from None
        if len(labels) != feats.shape[0]:
            raise DimensionError(
                f"{feats.shape[0]} feature rows but {len(labels)} labels"
            )
        feats.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class EvalMetrics:
    """Cross-validation outcome: the metric's name and its score on each fold."""

    metric: str
    per_fold: tuple[float, ...]

    @property
    def score(self) -> float:
        return float(np.mean(self.per_fold))


def stratified_kfold(dataset: LabeledDataset, k: int, seed: int) -> list[np.ndarray]:
    """Split row indices into k disjoint folds of near-equal size.

    Rows are shuffled first (deterministically from ``seed``). Classification
    folds preserve per-class counts to within one; regression folds are plain
    shuffled splits.
    """
    if k < 2:
        raise InvalidParameterError(f"fold count must be >= 2, got {k}")
    m = dataset.n_rows
    if m < k:
        raise StratificationError(f"{m} rows cannot fill {k} folds")
    order = np.random.default_rng(seed).permutation(m)
    if dataset.task == CLASSIFICATION:
        labels = dataset.labels[order]
        sizes = Counter(labels)  # classes in order of first shuffled appearance
        for label, size in sizes.items():
            if size < k:
                raise StratificationError(f"class {label!r} has {size} members, needs >= {k}")
        # Classes in repr order, each one's rows in shuffled order, dealt round-robin.
        names = {label: repr(label) for label in sizes}
        order = order[sorted(range(m), key=lambda p: names[labels[p]])]
    return [np.sort(order[j::k]) for j in range(k)]


def f1_macro(true_labels: Sequence, predicted_labels: Sequence) -> float:
    """Macro-averaged F1 over the classes present in the true labels.

    A class with zero precision+recall contributes 0.
    """
    true = np.asarray(true_labels)
    pred = np.asarray(predicted_labels)
    if true.shape != pred.shape:
        raise DimensionError(
            f"{len(true)} true labels but {len(pred)} predictions"
        )
    scores = []
    # return_counts takes np.unique's sort path, with the same sorted classes,
    # past the masked-array check that imports numpy.ma.
    for cls in np.unique(true, return_counts=True)[0]:
        tp = np.sum((pred == cls) & (true == cls))
        fp = np.sum((pred == cls) & (true != cls))
        fn = np.sum((pred != cls) & (true == cls))
        denom = 2 * tp + fp + fn
        scores.append(2 * tp / denom if denom > 0 else 0.0)
    return float(np.mean(scores))


def nrmse_c(true_values: Sequence[float], predicted_values: Sequence[float]) -> float:
    """Complemented range-normalized RMSE: 1 - RMSE / (max - min of truth)."""
    true = np.asarray(true_values, dtype=np.float64)
    pred = np.asarray(predicted_values, dtype=np.float64)
    if true.shape != pred.shape:
        raise DimensionError(f"{len(true)} true values but {len(pred)} predictions")
    if len(true) < 2:
        raise DegenerateInputError("need >= 2 values to normalize the error")
    span = float(true.max() - true.min())
    if span == 0:
        raise DegenerateInputError(
            "constant true values leave the normalized error undefined"
        )
    rmse = float(np.sqrt(np.mean((pred - true) ** 2)))
    return 1.0 - rmse / span


class _Neighbors:
    """Exact nearest-neighbor search under Euclidean distance."""

    _X: np.ndarray | None = None  # training rows and labels, set by fit
    _y: np.ndarray | None = None
    _label_dtype: type | None = None

    def fit(self, features: np.ndarray, labels: np.ndarray) -> None:
        if len(features) == 0:
            raise DegenerateInputError("cannot fit on an empty training set")
        self._X = np.asarray(features, dtype=np.float64)
        self._y = np.asarray(labels, dtype=self._label_dtype)

    def _distances(self, features: np.ndarray) -> Iterator[np.ndarray]:
        """Squared distances from each query row to every training row."""
        if self._X is None:
            raise PredictorError("predict called before fit")
        for q in np.asarray(features, dtype=np.float64):
            yield ((self._X - q) ** 2).sum(axis=1)


class NearestNeighborClassifier(_Neighbors):
    """Exact 1-nearest-neighbor under Euclidean distance.

    Distance ties resolve to the lowest training index, so predictions are
    reproducible bit-for-bit.
    """

    def predict(self, features: np.ndarray) -> np.ndarray:
        return np.array([self._y[int(np.argmin(d2))] for d2 in self._distances(features)])


class KNearestMeanRegressor(_Neighbors):
    """Mean of the k nearest targets under Euclidean distance (default k=5).

    Neighbor ranking ties resolve to lower training indices via stable sort.
    """

    _label_dtype = np.float64

    def __init__(self, k: int = 5):
        self.k = k

    def predict(self, features: np.ndarray) -> np.ndarray:
        nearest = (np.argsort(d2, kind="stable")[: self.k] for d2 in self._distances(features))
        return np.array([float(self._y[n].mean()) for n in nearest])


# Per task: the metric, the built-in predictor, and the dtype predictions are read as.
_TASKS = {
    CLASSIFICATION: (f1_macro, NearestNeighborClassifier, None),
    REGRESSION: (nrmse_c, KNearestMeanRegressor, np.float64),
}


def cross_validate(
    dataset: LabeledDataset, predictor: Predictor, k: int, seed: int
) -> EvalMetrics:
    """Rotate through every train-on-(k-1)/test-on-1 fold combination."""
    metric, _, dtype = _TASKS[dataset.task]
    folds = stratified_kfold(dataset, k, seed)
    per_fold = []
    for i, test_idx in enumerate(folds):
        train_idx = np.concatenate([f for j, f in enumerate(folds) if j != i])
        try:
            predictor.fit(dataset.features[train_idx], dataset.labels[train_idx])
            predicted = np.asarray(predictor.predict(dataset.features[test_idx]), dtype=dtype)
        except Exception as exc:
            raise PredictorError(f"fold {i}: predictor failed: {exc}") from exc
        per_fold.append(metric(dataset.labels[test_idx], predicted))
    return EvalMetrics(metric.__name__, tuple(per_fold))


def reference_predictor(task: str) -> Predictor:
    """The built-in predictor for a task: 1-NN classes, 5-NN mean targets."""
    if task not in _TASKS:
        raise TaskError(f"unknown task {task!r}")
    return _TASKS[task][1]()


def merge_datasets(datasets: Sequence[LabeledDataset]) -> LabeledDataset:
    """Concatenate datasets row-wise; feature width and task must agree.

    Signatures of equal block count have equal width regardless of each
    source's sensor count, which is what makes cross-source merging possible.
    """
    if not datasets:
        raise DegenerateInputError("no datasets to merge")
    width = datasets[0].features.shape[1]
    task = datasets[0].task
    for i, ds in enumerate(datasets):
        if ds.features.shape[1] != width:
            raise IncompatibilityError(
                f"dataset {i} has feature width {ds.features.shape[1]}, expected {width}"
            )
        if ds.task != task:
            raise IncompatibilityError(f"dataset {i} has task {ds.task!r}, expected {task!r}")
    if len(datasets) == 1:
        return datasets[0]
    return LabeledDataset(
        features=np.concatenate([ds.features for ds in datasets]),
        labels=np.concatenate([ds.labels for ds in datasets]),
        task=task,
    )


def signature_features(
    real: np.ndarray, imag: np.ndarray | None, real_only: bool = False
) -> np.ndarray:
    """Flatten signature batches into model inputs: real parts, then imaginary.

    ``real_only`` drops the imaginary half, e.g. to measure how much the
    derivative information contributes to a task.
    """
    real = np.asarray(real, dtype=np.float64)
    if real_only or imag is None:
        return real.copy()
    imag = np.asarray(imag, dtype=np.float64)
    if imag.shape != real.shape:
        raise DimensionError("real and imaginary batches must share shape")
    return np.concatenate([real, imag], axis=1)
