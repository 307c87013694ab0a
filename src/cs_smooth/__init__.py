"""Compact image-like signatures for multi-dimensional monitoring time-series.

The correlation-wise smoothing pipeline: learn a correlation-driven sensor
ordering plus min-max bounds once, then compress each aggregation window into
a handful of complex-valued blocks (value means + derivative means). Baseline
per-sensor methods, a distribution-fidelity metric and a k-fold evaluation
harness round out the toolkit.

Each public name is imported from its module on first use (PEP 562), so a
command imports only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "baselines": ("baseline_signature_batch",),
    "core": (
        "SensorMatrix",
        "SensorSeries",
        "TimeGrid",
        "Window",
        "WindowSpec",
        "align",
        "finite_difference",
        "infer_grid",
        "load_dataset_dir",
        "load_sensor_csv",
        "windows",
    ),
    "cs": (
        "BlockLayout",
        "CorrelationStats",
        "CSModel",
        "Signature",
        "SignatureBatch",
        "block_layout",
        "compute_signature",
        "compute_signature_batch",
        "compute_signature_batches",
        "load_model",
        "pairwise_correlation",
        "prefix_models",
        "save_model",
        "sort_normalize",
        "train",
    ),
    "errors": ("CsSmoothError",),
    "evaluation": (
        "CLASSIFICATION",
        "REGRESSION",
        "EvalMetrics",
        "LabeledDataset",
        "cross_validate",
        "f1_macro",
        "merge_datasets",
        "nrmse_c",
        "reference_predictor",
        "signature_features",
        "stratified_kfold",
    ),
    "fidelity": (
        "Histogram2D",
        "build_distribution",
        "expand_signatures",
        "fidelity_components",
        "fidelity_table",
        "js_divergence",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted([*globals(), *_MODULE_OF])
