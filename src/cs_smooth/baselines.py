"""Published per-sensor baseline signature methods used for comparison.

All three summarize each sensor row independently on raw window data, so the
signature length grows with the sensor count: statistical indicators (tuncer,
11 per row), distribution percentiles (bodik, 9 per row), or a mean-filter
sub-sampling of the row itself (lan, one value per retained sample). Each
method's maths maps the last two axes, ``... x n x w`` windows, to ``... x k*n``
features, so one window and a batch of windows run the same code.
"""

from __future__ import annotations

from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import cs
from .core import SensorMatrix, WindowSpec
from .errors import DegenerateInputError, InvalidParameterError

TUNCER_PER_ROW = 11
BODIK_PER_ROW = 9

_TUNCER_PERCENTILES = (5.0, 25.0, 50.0, 75.0, 95.0)
_BODIK_PERCENTILES = (5.0, 25.0, 35.0, 50.0, 65.0, 75.0, 95.0)


def _by_row(values: np.ndarray, columns: list[np.ndarray]) -> np.ndarray:
    """Per-row feature columns (each ``... x n``) as ``... x k*n``, row by row."""
    return np.stack(columns, axis=-1).reshape(*values.shape[:-2], -1)


def _sorted_percentiles(values: np.ndarray, qs: tuple[float, ...]) -> list[np.ndarray]:
    # Linear interpolation between closest ranks, from an explicit sort so the
    # per-row cost is the documented O(w log w).
    ordered = np.sort(values, axis=-1)
    w = values.shape[-1]
    out = []
    for q in qs:
        pos = q / 100.0 * (w - 1)
        lo = int(np.floor(pos))
        hi = min(lo + 1, w - 1)
        frac = pos - lo
        out.append(ordered[..., lo] + frac * (ordered[..., hi] - ordered[..., lo]))
    return out


def _tuncer(values: np.ndarray) -> np.ndarray:
    if values.shape[-1] < 2:
        raise DegenerateInputError("tuncer signatures need windows of >= 2 samples")
    diffs = np.diff(values, axis=-1)
    return _by_row(values, [
        values.mean(axis=-1),
        values.std(axis=-1),
        values.min(axis=-1),
        values.max(axis=-1),
        *_sorted_percentiles(values, _TUNCER_PERCENTILES),
        diffs.sum(axis=-1),
        np.abs(diffs).sum(axis=-1),
    ])


def _bodik(values: np.ndarray) -> np.ndarray:
    return _by_row(values, [
        values.min(axis=-1),
        values.max(axis=-1),
        *_sorted_percentiles(values, _BODIK_PERCENTILES),
    ])


def _lan(values: np.ndarray, subsample_len: int) -> np.ndarray:
    w = values.shape[-1]
    if not (1 <= subsample_len <= w):
        raise InvalidParameterError(
            f"subsample length must be in [1, {w}], got {subsample_len}"
        )
    chunks = np.array_split(values, subsample_len, axis=-1)
    return _by_row(values, [c.mean(axis=-1) for c in chunks])


def baseline_signature_batch(
    matrix: SensorMatrix, spec: WindowSpec, method: str, lan_subsample: int = 10
) -> cs.SignatureBatch:
    """Signatures of every window of windows(matrix, spec) by one baseline method.

    Per row, in row order, ``method`` gives:

    - "tuncer": mean, population std, min, max, percentiles 5/25/50/75/95, sum
      of changes and absolute sum of changes (11n values);
    - "bodik": min, max and percentiles 5/25/35/50/65/75/95 (9n values);
    - "lan": the means of ``lan_subsample`` contiguous chunks whose sizes
      differ by at most one, larger chunks first (n * lan_subsample values).

    Percentiles interpolate linearly between closest ranks. The same maths runs
    on time chunks of a sliding window view, each of about cs._CHUNK_VALUES
    window values, so memory stays bounded and every window's values are bit
    for bit those of a one-window batch on its columns. The batch has no
    imaginary part.
    """
    maths = {"tuncer": _tuncer, "bodik": _bodik, "lan": partial(_lan, subsample_len=lan_subsample)}
    if method not in maths:
        raise InvalidParameterError(f"unknown baseline method {method!r}")
    width = spec.length_samples
    starts, *instants = cs._windows(matrix, spec)
    view = sliding_window_view(matrix.data, width, axis=1)[:, :: spec.step_samples]
    view = view.transpose(1, 0, 2)  # windows x sensors x samples, still a view
    per_chunk = max(1, cs._CHUNK_VALUES // (matrix.n_sensors * width))
    values = None
    for i in range(0, len(starts), per_chunk):
        part = maths[method](view[i : i + per_chunk])
        if values is None:
            values = np.empty((len(starts), part.shape[1]))
        values[i : i + len(part)] = part
    return cs.SignatureBatch(*instants, values, None)
