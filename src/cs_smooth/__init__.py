"""Compact image-like signatures for multi-dimensional monitoring time-series.

The correlation-wise smoothing pipeline: learn a correlation-driven sensor
ordering plus min-max bounds once, then compress each aggregation window into
a handful of complex-valued blocks (value means + derivative means). Baseline
per-sensor methods, a distribution-fidelity metric and a k-fold evaluation
harness round out the toolkit.
"""

from .baselines import baseline_signature_batch
from .core import (
    SensorMatrix,
    SensorSeries,
    TimeGrid,
    Window,
    WindowSpec,
    align,
    finite_difference,
    infer_grid,
    load_dataset_dir,
    load_sensor_csv,
    windows,
)
from .cs import (
    BlockLayout,
    CorrelationStats,
    CSModel,
    Signature,
    SignatureBatch,
    block_layout,
    compute_signature,
    compute_signature_batch,
    compute_signature_batches,
    load_model,
    pairwise_correlation,
    prefix_models,
    resample_signature,
    save_model,
    sort_normalize,
    train,
    trim_central,
)
from .errors import CsSmoothError
from .evaluation import (
    CLASSIFICATION,
    REGRESSION,
    EvalMetrics,
    LabeledDataset,
    cross_validate,
    f1_macro,
    merge_datasets,
    nrmse_c,
    reference_predictor,
    signature_features,
    stratified_kfold,
)
from .fidelity import (
    Histogram2D,
    build_distribution,
    expand_signatures,
    fidelity_components,
    fidelity_table,
    js_divergence,
)

__version__ = "0.1.0"
