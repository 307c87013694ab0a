"""Correlation-wise smoothing: training, sorting, smoothing, persistence.

The method compresses an n x w window of sensor readings into l complex-valued
blocks. Training learns a correlation-driven row ordering plus per-sensor
min-max bounds (the reusable model); each signature is then the per-block mean
of the normalized, reordered window (real part) and of its backward first
differences (imaginary part).
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass
from collections.abc import Iterable, Iterator

import numpy as np

from .core import SensorMatrix, TimeGrid, Window, WindowSpec
from .errors import (
    DegenerateInputError,
    DimensionError,
    FormatError,
    InvalidBlockCountError,
    InvalidParameterError,
    ModelIncompatibilityError,
    PathOrStream,
    UnsupportedVersionError,
    opened,
)

MODEL_VERSION = "v1"


@dataclass(frozen=True)
class CorrelationStats:
    """Shifted Pearson coefficients: pairwise matrix in [0,2], per-row means.

    The shift by +1 keeps coefficients non-negative; a row's global
    coefficient is the mean shifted correlation against all other rows and
    measures how descriptive the sensor is of overall system state.
    """

    pairwise: np.ndarray
    global_coeffs: np.ndarray


@dataclass(frozen=True)
class CSModel:
    """Reusable training product: row permutation plus normalization bounds."""

    sensor_ids: tuple[str, ...]
    permutation: np.ndarray
    lower_bounds: np.ndarray
    upper_bounds: np.ndarray
    version: str = MODEL_VERSION

    def __post_init__(self):
        try:
            ids = tuple(self.sensor_ids)
            perm = np.asarray(self.permutation)
            lo = np.asarray(self.lower_bounds, dtype=np.float64)
            hi = np.asarray(self.upper_bounds, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise FormatError(f"malformed model field: {exc}") from None
        object.__setattr__(self, "sensor_ids", ids)
        n = len(ids)
        if not all(isinstance(s, str) for s in ids):
            raise FormatError("sensor ids must be strings")
        if len(set(ids)) != n:
            raise FormatError("sensor ids are not unique")
        if perm.size and perm.dtype.kind not in "iu":
            raise FormatError("permutation entries must be integers")
        perm = np.asarray(perm, dtype=np.int64)
        if sorted(perm.tolist()) != list(range(n)):
            raise FormatError("permutation is not a bijection on the sensor rows")
        if lo.shape != (n,) or hi.shape != (n,):
            raise FormatError("bounds length does not match sensor count")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise FormatError("bounds must be finite")
        if np.any(lo > hi):
            raise FormatError("lower bound exceeds upper bound")
        for name, arr in (("permutation", perm), ("lower_bounds", lo), ("upper_bounds", hi)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_sensors(self) -> int:
        return len(self.sensor_ids)

    @functools.cached_property
    def _scaling(self) -> tuple[np.ndarray, np.ndarray]:
        """(lower bounds, divisors) of min-max normalization. A flat row (lo == hi)
        gets +inf and 1: any finite value maps to -inf, which clamps to +0.0."""
        span = self.upper_bounds - self.lower_bounds
        flat = span == 0.0
        return np.where(flat, np.inf, self.lower_bounds), np.where(flat, 1.0, span)

    def _wide_scaling(self, columns: int) -> tuple[np.ndarray, np.ndarray]:
        """_scaling for a (n, columns) block: up to _BUFFERED_COLUMNS columns,
        C-contiguous copies repeated along each row, cached for the last width
        only, in the instance __dict__ like _scaling (never a field: equality,
        model_id and the saved file do not see it); beyond, (n, 1) views. Read
        once, the cached pair is never of the wrong width under threads."""
        if columns > _BUFFERED_COLUMNS:
            return tuple(a[:, None] for a in self._scaling)
        wide = self.__dict__.get("_repeated_scaling")
        if wide is None or wide[0].shape[1] != columns:
            wide = tuple(np.repeat(a[:, None], columns, axis=1) for a in self._scaling)
            self.__dict__["_repeated_scaling"] = wide
        return wide

    @functools.cached_property
    def model_id(self) -> str:
        digest = hashlib.sha256(_model_json(self).encode("utf-8")).hexdigest()
        return digest[:12]

    def __eq__(self, other) -> bool:
        if not isinstance(other, CSModel):
            return NotImplemented
        return (
            self.version == other.version
            and self.sensor_ids == other.sensor_ids
            and np.array_equal(self.permutation, other.permutation)
            and np.array_equal(self.lower_bounds, other.lower_bounds)
            and np.array_equal(self.upper_bounds, other.upper_bounds)
        )


@dataclass(frozen=True)
class BlockLayout:
    """The l block ranges over n sensors, 1-based inclusive (first, last).

    Adjacent blocks may share one boundary sensor; together they cover all n
    rows when produced by :func:`block_layout`.
    """

    n_sensors: int
    ranges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "ranges", tuple((int(b), int(e)) for b, e in self.ranges)
        )
        for b, e in self.ranges:
            if not (1 <= b <= e <= self.n_sensors):
                raise InvalidBlockCountError(
                    f"block range ({b},{e}) outside [1,{self.n_sensors}]"
                )

    @property
    def n_blocks(self) -> int:
        return len(self.ranges)

    @functools.cached_property
    def _reduction(self) -> tuple[np.ndarray, np.ndarray]:
        """(np.add.reduceat indices, block sizes) that sum rows into blocks."""
        # Interleaved (start, stop) boundaries: reduceat sums every other
        # segment, which tolerates the one-row overlap between adjacent blocks.
        bounds = np.array([(b - 1, e) for b, e in self.ranges], dtype=np.int64).ravel()
        return bounds[:-1], np.diff(bounds)[0::2]


@dataclass(frozen=True)
class Signature:
    """l complex-valued blocks summarizing one window.

    Real parts are window-averaged normalized values in [0,1]; imaginary parts
    are window-averaged first differences of the normalized rows in [-1,1].
    """

    blocks_real: np.ndarray
    blocks_imag: np.ndarray
    layout: BlockLayout
    window_start: int = 0
    window_end: int = 0
    model_id: str = ""

    def __post_init__(self):
        re = np.asarray(self.blocks_real, dtype=np.float64)
        im = np.asarray(self.blocks_imag, dtype=np.float64)
        if re.shape != im.shape or re.shape != (self.layout.n_blocks,):
            raise DimensionError(
                f"block vectors must both have length {self.layout.n_blocks}"
            )
        re.flags.writeable = False
        im.flags.writeable = False
        object.__setattr__(self, "blocks_real", re)
        object.__setattr__(self, "blocks_imag", im)

    @property
    def n_blocks(self) -> int:
        return self.layout.n_blocks


@dataclass(frozen=True)
class SignatureBatch:
    """Columnar signatures: one row of blocks per window, plus window instants."""

    window_starts: np.ndarray
    window_ends: np.ndarray
    real: np.ndarray
    imag: np.ndarray | None

    @property
    def n_signatures(self) -> int:
        return self.real.shape[0]

    @property
    def n_blocks(self) -> int:
        return self.real.shape[1]


def pairwise_correlation(matrix: SensorMatrix) -> CorrelationStats:
    """Shifted Pearson correlation between all row pairs, plus row means.

    Uses population covariance/deviations of the data shifted by its first
    column (see _comoments); a zero-variance row correlates 1 (shifted) with
    everything, i.e. raw correlation 0. The diagonal is exactly 2 and the
    matrix is exactly symmetric. For a single row the global coefficient is 2
    by convention. O(n^2 t).
    """
    return _train_stats(matrix)[0]


def _train_stats(matrix: SensorMatrix) -> tuple[CorrelationStats, np.ndarray, np.ndarray]:
    """pairwise_correlation plus the row minima and maxima, from one pass."""
    data = matrix.data
    _, comoment, lo, hi = _comoments(data, data[:, :1])
    comoment /= data.shape[1]
    return _correlation_stats(comoment), lo, hi


_BLOCK_VALUES = 1 << 16  # values per row block of _comoments: 512 KB, cache-sized


def _comoments(
    raw: np.ndarray, shift: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Row means and co-moment matrix (sums of centred products) of raw - shift,
    plus the row minima and maxima of raw.

    Shifting each row by one of its own samples keeps the centring exact on
    data with a large offset and small spread; a constant row becomes exact
    zeros, so it is flat. One pass over blocks of about _BLOCK_VALUES values
    (whole rows) fills the centred n x t copy, the means and the bounds, so
    each block is read from memory once. The co-moment product is one BLAS
    syrk, which mirrors its triangle: the matrix is exactly symmetric.
    """
    n, t = raw.shape
    centered = np.empty((n, t))
    mean, lo, hi = np.empty(n), np.empty(n), np.empty(n)
    per_block = max(1, _BLOCK_VALUES // t)
    for first in range(0, n, per_block):
        rows = slice(first, first + per_block)
        raw[rows].min(axis=1, out=lo[rows])
        raw[rows].max(axis=1, out=hi[rows])
        block = np.subtract(raw[rows], shift[rows], out=centered[rows])
        block.mean(axis=1, out=mean[rows])
        block -= mean[rows, None]
    return mean, centered @ centered.T, lo, hi


def _correlation_stats(cov: np.ndarray) -> CorrelationStats:
    """Shifted correlation and global coefficients from a population covariance.

    Works in place: ``cov`` becomes the pairwise matrix.
    """
    sd = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    flat = sd == 0.0
    denom = np.where(flat, 1.0, sd)
    # Divided in row blocks through one small buffer, not an n x n outer product.
    n = len(cov)
    scale = np.empty((min(n, max(1, _BLOCK_VALUES // n)), n))
    for first in range(0, n, len(scale)):
        rows = slice(first, first + len(scale))
        block = np.multiply(denom[rows, None], denom, out=scale[: n - first])
        np.divide(cov[rows], block, out=cov[rows])
    pairwise = cov
    pairwise[flat, :] = 0.0
    pairwise[:, flat] = 0.0
    np.clip(pairwise, -1.0, 1.0, out=pairwise)
    pairwise += 1.0
    np.fill_diagonal(pairwise, 2.0)
    if n == 1:
        global_coeffs = np.array([2.0])
    else:
        global_coeffs = (pairwise.sum(axis=1) - 2.0) / (n - 1)
    return CorrelationStats(pairwise=pairwise, global_coeffs=global_coeffs)


def train(matrix: SensorMatrix) -> CSModel:
    """Learn a row permutation and min-max bounds from historical data.

    The permutation starts at the row with the highest global coefficient and
    greedily appends the remaining row maximizing (correlation with the last
    appended row) x (global coefficient); ties go to the lowest original row
    index. Dominated by the correlation matrix, O(n^2 t).
    """
    stats, lo, hi = _train_stats(matrix)
    perm = _greedy_order(stats.pairwise, stats.global_coeffs)
    return CSModel(
        sensor_ids=matrix.sensor_ids, permutation=perm, lower_bounds=lo, upper_bounds=hi
    )


def _greedy_order(pairwise: np.ndarray, global_coeffs: np.ndarray) -> np.ndarray:
    """The greedy row order of train from its correlation statistics.

    Relies on ``pairwise`` being exactly symmetric, as _correlation_stats makes
    it from a symmetric covariance: row c of pairwise * global_coeffs then
    holds every candidate's score after row c, pairwise[i, c] * global_coeffs[i].
    Picked rows are masked by one -inf vector added to the row read.
    """
    scores = pairwise * global_coeffs
    taken = np.zeros(len(global_coeffs))
    row = np.empty_like(taken)
    order = np.empty(len(global_coeffs), dtype=np.int64)
    current = global_coeffs.argmax()
    for k in range(len(order)):
        order[k] = current
        taken[current] = -np.inf
        current = np.add(scores[current], taken, out=row).argmax()
    return order


def _min_margin(stats: CorrelationStats, order: np.ndarray) -> float:
    """Smallest lead of the winning over the runner-up score among the greedy
    picks that produced ``order`` (the first pick scores global coefficients)."""
    n = len(order)
    if n < 2:
        return math.inf
    g = stats.global_coeffs[order]
    # scores[k, i]: the score of row order[i] at pick k, as _greedy_order forms it.
    scores = np.empty((n, n))
    scores[0] = g
    np.multiply(stats.pairwise.take(order[:-1], 0).take(order, 1), g, out=scores[1:])
    scores[np.tri(n, k=-1, dtype=bool)] = -np.inf  # rows picked before pick k
    top_two = -np.partition(-scores[:-1], 1, axis=1)[:, :2]
    return float(np.min(top_two[:, 0] - top_two[:, 1]))


# A greedy pick won by less than this may go the other way in batch train: the
# incremental and the batch covariance round differently (by about 1e-14 in
# the scores), while real picks are won by 1e-9 and more.
_SCORE_MARGIN = 1e-11


def prefix_models(matrix: SensorMatrix, ends: Iterable[int]) -> Iterator[CSModel]:
    """Yield train(matrix[:, :end]) for each end of increasing ``ends``.

    Reads each sample once. Co-moments of the data shifted by its first column
    are merged one segment of new columns at a time with the pairwise update of
    Chan, Golub & LeVeque (1979) and bounds are running min/max, so a model
    costs O(n^2) plus O(n^2) per new column instead of O(n^2 end). The
    covariance goes through train's correlation and ordering code. Where the
    order could differ from batch train's (a pick won by less than
    _SCORE_MARGIN), train runs on the prefix instead.
    """
    data = matrix.data
    n, t = data.shape
    shift = data[:, :1]
    per_segment = max(1, _CHUNK_VALUES // n)
    count = 0
    mean = np.zeros(n)
    comoment = np.zeros((n, n))
    lo = np.full(n, np.inf)
    hi = np.full(n, -np.inf)
    for end in ends:
        if not (max(count + 1, 2) <= end <= t):
            raise InvalidParameterError(
                f"prefix ends must increase within [2, {t}]; got {end} after {count}"
            )
        for first in range(count, end, per_segment):
            raw = data[:, first : min(first + per_segment, end)]
            seg_mean, seg_comoment, seg_lo, seg_hi = _comoments(raw, shift)
            # New arrays, not in place: a yielded model holds the previous ones.
            lo = np.minimum(lo, seg_lo)
            hi = np.maximum(hi, seg_hi)
            width = raw.shape[1]
            delta = seg_mean - mean
            total = count + width
            comoment += seg_comoment
            comoment += np.outer(delta, delta) * (count * width / total)
            mean += delta * (width / total)
            count = total
        stats = _correlation_stats(comoment / count)
        perm = _greedy_order(stats.pairwise, stats.global_coeffs)
        if _min_margin(stats, perm) >= _SCORE_MARGIN:
            yield CSModel(matrix.sensor_ids, perm, lo, hi)
            continue
        grid = TimeGrid(matrix.grid.start, matrix.grid.interval, count)
        yield train(SensorMatrix(matrix.sensor_ids, grid, data[:, :count]))


def _check_sensors(sensor_ids: tuple[str, ...], model: CSModel) -> None:
    # CSModel keeps the caller's tuple: identity spares comparing every id.
    if sensor_ids is model.sensor_ids or sensor_ids == model.sensor_ids:
        return
    missing = set(model.sensor_ids) - set(sensor_ids)
    extra = set(sensor_ids) - set(model.sensor_ids)
    if missing or extra:
        raise ModelIncompatibilityError(
            f"window sensors do not match model: missing={sorted(missing)} "
            f"extra={sorted(extra)}"
        )
    raise ModelIncompatibilityError(
        "window sensors match the model but are ordered differently"
    )


def _check_window(window: Window, model: CSModel) -> None:
    """_check_sensors, then the shapes: (n, w) values with w >= 1 and an (n,)
    preceding column, if any. Values are not checked for finiteness: that
    would be a full pass per window."""
    _check_sensors(window.sensor_ids, model)
    n = model.n_sensors
    shape = window.values.shape
    if len(shape) != 2 or shape[0] != n:
        raise DimensionError(f"window values must be {n} sensors x samples, got {shape}")
    before = window.preceding
    if before is not None and np.shape(before) != (n,):
        raise DimensionError(f"preceding column must hold {n} values, got {np.shape(before)}")
    if shape[1] == 0:
        raise DegenerateInputError("window holds no samples")


def _normalize_block(model: CSModel, rows: slice, before, values, out: np.ndarray) -> np.ndarray:
    """Min-max normalize sensor ``rows`` of a block of samples into ``out``, a
    C-contiguous (rows, 1 + samples) buffer, clamped to [0,1] (flat rows to 0):
    column 0 takes ``before``, the column preceding the block, the rest
    ``values``. Copied first, then normalized in place against
    CSModel._wide_scaling, so each ufunc runs once over the buffer."""
    out[:, 0] = before
    out[:, 1:] = values
    lo, denom = model._wide_scaling(out.shape[1])
    np.subtract(out, lo[rows], out=out)
    np.divide(out, denom[rows], out=out)
    return np.clip(out, 0.0, 1.0, out=out)


def sort_normalize(window: Window, model: CSModel) -> tuple[np.ndarray, np.ndarray]:
    """Min-max normalize, differentiate, and reorder a window's rows.

    Returns (normalized matrix, derivative matrix), both with rows in model
    permutation order. Values are clamped to [0,1]; rows whose training bounds
    collapse map to 0. Derivatives are backward differences of the normalized
    rows; the first column differences against the sample preceding the window
    when available and is 0 otherwise. Both matrices are fresh C-contiguous
    (n, w) arrays.
    """
    _check_window(window, model)
    values = window.values
    n, width = values.shape
    before = values[:, 0] if window.preceding is None else window.preceding
    norm = _normalize_block(model, slice(None), before, values, np.empty((n, width + 1)))
    norm = norm[model.permutation]
    return np.ascontiguousarray(norm[:, 1:]), np.diff(norm, axis=1)


@functools.lru_cache(maxsize=64)
def block_layout(n_sensors: int, n_blocks: int) -> BlockLayout:
    """Partition n sensor rows into l blocks of near-equal size.

    Block i (1-based) spans rows 1 + floor((i-1)*n/l) .. ceil(i*n/l); adjacent
    blocks overlap by at most one row and sizes differ by at most one.
    """
    if not (1 <= n_blocks <= n_sensors):
        raise InvalidBlockCountError(
            f"block count must be in [1, {n_sensors}], got {n_blocks}"
        )
    return BlockLayout(n_sensors=n_sensors, ranges=_block_ranges(n_sensors, n_blocks))


def _block_ranges(n: int, l: int) -> tuple[tuple[int, int], ...]:
    return tuple(
        (1 + (i - 1) * n // l, math.ceil(i * n / l)) for i in range(1, l + 1)
    )


def _block_means(row_sums: np.ndarray, layout: BlockLayout, width: int) -> np.ndarray:
    """Block means from per-row window sums, rows in block order along the last axis.

    ``row_sums`` is C-contiguous, 1-D or with leading axes (windows, or real and
    imaginary sums); each block's rows are added in the same order either way.
    """
    bounds, sizes = layout._reduction
    return np.add.reduceat(row_sums, bounds, axis=-1)[..., 0::2] / (sizes * width)


def compute_signature(window: Window, model: CSModel, n_blocks: int) -> Signature:
    """Full signature pipeline: normalize and sort, then smooth into l blocks.

    Produces the block means of sort_normalize(window, model) without
    materializing the sorted matrices: block means only need per-row
    window sums, and the backward differences telescope to (last normalized
    column - column preceding the window). Each value is normalized once, in
    row chunks of about _CHUNK_VALUES values, by _normalize_block: the column
    before the window (the window's first column when there is none, so its
    difference is 0) and the window go into one contiguous (rows, w + 1)
    buffer, normalized there in place. O(w * n).
    """
    _check_window(window, model)
    layout = block_layout(model.n_sensors, n_blocks)
    values = window.values
    n, width = values.shape
    sums = np.empty((2, n))  # per-row value sums, then derivative sums
    before = values[:, 0] if window.preceding is None else window.preceding
    # One buffer for all chunks: a new 8 MB array per chunk faults its pages in anew.
    buf = np.empty((min(n, max(1, _CHUNK_VALUES // (width + 1))), width + 1))
    for start in range(0, n, len(buf)):
        rows = slice(start, start + len(buf))
        norm = _normalize_block(model, rows, before[rows], values[rows], buf[: n - start])
        norm[:, 1:].sum(axis=1, out=sums[0, rows])
        np.subtract(norm[:, width], norm[:, 0], out=sums[1, rows])
    real, imag = _block_means(sums.take(model.permutation, axis=1), layout, width)
    return Signature(
        blocks_real=real,
        blocks_imag=imag,
        layout=layout,
        window_start=window.start,
        window_end=window.end,
        model_id=model.model_id,
    )


_CHUNK_VALUES = 1 << 20  # normalized values per chunk: 8 MB
# Widest block row that _normalize_block normalizes against bounds repeated
# along the row. Wider rows already run long inner loops, so they broadcast
# (n, 1) bounds; repeated ones would only add memory traffic.
_BUFFERED_COLUMNS = 128
_TILE_ROWS = 64  # rows per tile of compute_signature_batches' transposing copy


def compute_signature_batch(
    matrix: SensorMatrix, model: CSModel, spec: WindowSpec, n_blocks: int,
    first: int = 0, stop: int | None = None,
) -> SignatureBatch:
    """Signatures of windows ``first``..``stop - 1`` of windows(matrix, spec) at once.

    Bit for bit the blocks of compute_signature; the one-count case of
    compute_signature_batches.
    """
    return compute_signature_batches(matrix, model, spec, (n_blocks,), first, stop)[0]


def compute_signature_batches(
    matrix: SensorMatrix, model: CSModel, spec: WindowSpec, block_counts: Iterable[int],
    first: int = 0, stop: int | None = None,
) -> list[SignatureBatch]:
    """compute_signature_batch for each of ``block_counts``, from one pass over the data.

    Each sample is normalized once instead of once per window, by
    _normalize_block over all rows of a time chunk: row sums come from a
    sliding view over the normalized rows and derivative sums telescope as in
    compute_signature. Both are put in permutation order once per time chunk,
    then reduced into every layout's blocks. Windows go in time chunks
    of about _CHUNK_VALUES normalized values that share one set of buffers, so
    memory stays bounded at any stream length. Every block count is checked
    before any window is signed.
    """
    _check_sensors(matrix.sensor_ids, model)
    n = model.n_sensors
    layouts = [block_layout(n, n_blocks) for n_blocks in block_counts]
    width, step = spec.length_samples, spec.step_samples
    starts, *instants = _windows(matrix, spec, first, stop)
    blocks = [np.empty((2, len(starts), layout.n_blocks)) for layout in layouts]
    data, p = matrix.data, model.permutation
    per_chunk = min(len(starts), max(1, _CHUNK_VALUES // (n * step)))
    # Buffers sized by the first chunk, the largest: fresh ones in every chunk
    # fault their pages in anew. A chunk's normalized columns start with the one
    # before its first window, so a chunk of k windows spans (k - 1) step + w + 1.
    norm_buf = np.empty(n * ((per_chunk - 1) * step + width + 1))
    sums_buf = np.empty(2 * per_chunk * n)
    for i in range(0, len(starts), per_chunk):
        chunk = starts[i : i + per_chunk]
        k, begin, end = len(chunk), int(chunk[0]), int(chunk[-1]) + width
        cols = end - begin + 1
        norm = norm_buf[: n * cols].reshape(n, cols)
        # At column 0 the first column stands in for the one before it: difference 0.
        _normalize_block(model, slice(None), data[:, max(begin - 1, 0)], data[:, begin:end], norm)
        # Window sums, then derivative sums (last column minus the one before
        # the window). The windows are a strided view of norm from column 1 on
        # (as sliding_window_view builds it, at a fraction of the call cost);
        # each window's sum runs along its contiguous row segment, as
        # compute_signature's does. A one-window chunk never uses the window
        # stride, and step may exceed what a stride can hold: cols bounds it.
        sums = sums_buf[: 2 * n * k].reshape(2, n, k)
        windows = np.ndarray(
            (n, k, width), buffer=norm_buf, offset=8, strides=(8 * cols, 8 * min(step, cols), 8)
        )
        windows.sum(axis=2, out=sums[0])
        np.subtract(norm[:, width::step], norm[:, : (k - 1) * step + 1 : step], out=sums[1])
        # The normalized block is spent: its buffer takes each half transposed to
        # windows x rows, _TILE_ROWS rows at a time so the copy stays in cache.
        # The spent half then takes those rows in permutation order, so every
        # block's rows are contiguous; mode="clip" (the indices are valid) writes
        # straight into ``out``, where the default mode buffers it.
        transposed = norm_buf[: k * n].reshape(k, n)
        for half, row_sums in enumerate(sums):
            for r in range(0, n, _TILE_ROWS):
                transposed[:, r : r + _TILE_ROWS] = row_sums[r : r + _TILE_ROWS].T
            permuted = transposed.take(p, 1, row_sums.reshape(k, n), "clip")
            for layout, out in zip(layouts, blocks):
                out[half, i : i + k] = _block_means(permuted, layout, width)
    return [SignatureBatch(*instants, real, imag) for real, imag in blocks]


def _windows(
    matrix: SensorMatrix, spec: WindowSpec, first: int = 0, stop: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Start columns of windows ``first``..``stop - 1`` of windows(matrix, spec) and
    the grid instants of their first and last samples; none is a DegenerateInputError."""
    starts = np.asarray(spec.starts(matrix.n_samples)[first:stop], dtype=np.int64)
    if not len(starts):
        raise DegenerateInputError("no complete windows fit the data; shrink the window")
    t0, dt = matrix.grid.start, matrix.grid.interval
    return starts, t0 + dt * starts, t0 + dt * (starts + spec.length_samples - 1)


def resample_signature(sig: Signature, new_blocks: int) -> Signature:
    """Rescale a signature to a new block count by linear interpolation.

    Interpolation runs over block-center coordinates in sensor-row space, so
    signatures of different resolutions over the same sensors stay comparable.
    """
    if new_blocks < 1:
        raise InvalidBlockCountError(f"block count must be >= 1, got {new_blocks}")
    n = sig.layout.n_sensors
    new_layout = BlockLayout(n_sensors=n, ranges=_block_ranges(n, new_blocks))
    old_centers = _block_centers(sig.layout)
    new_centers = _block_centers(new_layout)
    real = np.interp(new_centers, *_strictly_increasing(old_centers, sig.blocks_real))
    imag = np.interp(new_centers, *_strictly_increasing(old_centers, sig.blocks_imag))
    return Signature(
        blocks_real=real,
        blocks_imag=imag,
        layout=new_layout,
        window_start=sig.window_start,
        window_end=sig.window_end,
        model_id=sig.model_id,
    )


def _block_centers(layout: BlockLayout) -> np.ndarray:
    return np.array([(b + e) / 2.0 for b, e in layout.ranges])


def _strictly_increasing(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # np.interp needs increasing sample points; duplicate centers (possible
    # only when a layout has more blocks than rows) collapse to their mean.
    if len(x) < 2 or np.all(np.diff(x) > 0):
        return x, y
    ux, inverse = np.unique(x, return_inverse=True)
    sums = np.bincount(inverse, weights=y)
    counts = np.bincount(inverse)
    return ux, sums / counts


def trim_central(sig: Signature, keep_fraction: float) -> Signature:
    """Drop the central, least informative blocks of a signature.

    Keeps ceil(l * keep_fraction / 2) blocks from each end (at least one per
    side); the layout records which original sensor ranges survive.
    """
    if not (0.0 < keep_fraction <= 1.0):
        raise InvalidParameterError(
            f"keep_fraction must be in (0, 1], got {keep_fraction}"
        )
    l = sig.n_blocks
    per_side = max(1, math.ceil(l * keep_fraction / 2))
    keep = sorted(set(range(per_side)) | set(range(l - per_side, l)))
    idx = np.array(keep, dtype=np.int64)
    layout = BlockLayout(
        n_sensors=sig.layout.n_sensors,
        ranges=tuple(sig.layout.ranges[i] for i in keep),
    )
    return Signature(
        blocks_real=sig.blocks_real[idx],
        blocks_imag=sig.blocks_imag[idx],
        layout=layout,
        window_start=sig.window_start,
        window_end=sig.window_end,
        model_id=sig.model_id,
    )


def _model_json(model: CSModel) -> str:
    return json.dumps(
        {
            "version": model.version,
            "sensor_ids": list(model.sensor_ids),
            "permutation": model.permutation.tolist(),
            "lower_bounds": model.lower_bounds.tolist(),
            "upper_bounds": model.upper_bounds.tolist(),
        },
        indent=2,
    )


def save_model(model: CSModel, sink: PathOrStream) -> None:
    """Write a model as versioned JSON; round-trips losslessly via load_model."""
    with opened(sink, "model file", "w") as stream:
        stream.write(_model_json(model) + "\n")


def load_model(source: PathOrStream) -> CSModel:
    """Read a model file written by save_model, validating version and shape."""
    with opened(source, "model file", "r") as stream:
        text = stream.read()
        if isinstance(text, bytes):
            text = text.decode("utf-8")
    if not text.strip():
        raise FormatError("model file is empty")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"model file is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise FormatError("model file must hold a JSON object")
    version = payload.get("version")
    if version != MODEL_VERSION:
        raise UnsupportedVersionError(
            f"model version {version!r} is not supported (expected {MODEL_VERSION!r})"
        )
    # A JSON string would pass as the sequence of its characters.
    if not isinstance(payload.get("sensor_ids", []), list):
        raise FormatError("sensor_ids must be a list of strings")
    try:
        return CSModel(
            sensor_ids=payload["sensor_ids"],
            permutation=payload["permutation"],
            lower_bounds=payload["lower_bounds"],
            upper_bounds=payload["upper_bounds"],
            version=version,
        )
    except KeyError as exc:
        raise FormatError(f"model file is missing field {exc}") from None
