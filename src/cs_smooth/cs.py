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
import logging
import math
import operator
from dataclasses import dataclass
from collections.abc import Iterable, Iterator

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .core import (
    SensorMatrix, TimeGrid, Window, WindowSpec, _power_of_two_scales, _window_geometry, log,
)
from .errors import (
    CsSmoothError,
    DegenerateInputError,
    DimensionError,
    FormatError,
    InvalidBlockCountError,
    InvalidParameterError,
    ModelIncompatibilityError,
    PathOrStream,
    RejectedValueError,
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
        with np.errstate(over="ignore", invalid="ignore"):
            span = hi - lo
        # The span is finite and >= 0 exactly when the bounds are finite, ordered
        # and representable: one pass clears all three checks, which run in turn
        # only on failure, for their messages.
        if not (span.min(initial=0.0) >= 0.0 and span.max(initial=0.0) < math.inf):
            if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
                raise FormatError("bounds must be finite")
            if np.any(lo > hi):
                raise FormatError("lower bound exceeds upper bound")
            raise FormatError("bounds span must fit in float64")
        for name, arr in (("permutation", perm), ("lower_bounds", lo), ("upper_bounds", hi)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_sensors(self) -> int:
        return len(self.sensor_ids)

    @functools.cached_property
    def _scaling(self) -> tuple[np.ndarray, np.ndarray]:
        return _min_max_scaling(self.lower_bounds, self.upper_bounds)

    def _wide_scaling(self, columns: int) -> tuple[np.ndarray, np.ndarray]:
        """_scaling for _normalized_window's time-major (columns, n) buffer,
        columns = w + 1: up to _BUFFERED_COLUMNS, C-contiguous (columns, n)
        copies of _scaling, one row per column. One pair is cached, for the
        widest width asked so far, in the instance __dict__ like _scaling
        (never a field: equality, model_id and the saved file do not see it);
        a narrower width gets its leading rows, C-contiguous views, so
        alternating widths build no pair twice. Beyond the gate, the (n,)
        vectors, which broadcast. Read once, the cached pair is never too
        narrow under threads."""
        if columns > _BUFFERED_COLUMNS:
            return self._scaling
        wide = self.__dict__.get("_repeated_scaling")
        if wide is None or len(wide[0]) < columns:
            wide = tuple(np.repeat(a[None], columns, axis=0) for a in self._scaling)
            self.__dict__["_repeated_scaling"] = wide
        return wide if len(wide[0]) == columns else (wide[0][:columns], wide[1][:columns])

    @functools.cached_property
    def model_id(self) -> str:
        digest = hashlib.sha256(_model_json(self).encode("utf-8")).hexdigest()
        return digest[:12]

    def __eq__(self, other) -> bool:
        if not isinstance(other, CSModel):
            return NotImplemented
        return (
            self.sensor_ids == other.sensor_ids
            and np.array_equal(self.permutation, other.permutation)
            and np.array_equal(self.lower_bounds, other.lower_bounds)
            and np.array_equal(self.upper_bounds, other.upper_bounds)
        )


@dataclass(frozen=True)
class BlockLayout:
    """The l block ranges over n sensors, 1-based inclusive (first, last).

    Adjacent blocks may share one boundary sensor; together they cover all n
    rows when produced by :func:`block_layout`. A layout has at least one
    block, integer bounds, and blocks whose firsts and lasts both increase.
    """

    n_sensors: int
    ranges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        try:
            ranges = tuple((operator.index(b), operator.index(e)) for b, e in self.ranges)
        except TypeError:
            raise InvalidBlockCountError(f"block ranges {self.ranges} are not integers") from None
        object.__setattr__(self, "ranges", ranges)
        if not ranges:
            raise InvalidBlockCountError("a block layout needs at least one block")
        for b, e in ranges:
            if not (1 <= b <= e <= self.n_sensors):
                raise InvalidBlockCountError(
                    f"block range ({b},{e}) outside [1,{self.n_sensors}]"
                )
        for (b, e), (nb, ne) in zip(ranges, ranges[1:]):
            if not (b < nb and e < ne):
                raise InvalidBlockCountError(f"block range ({nb},{ne}) does not follow ({b},{e})")

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

    def _divisor(self, width: int) -> np.ndarray:
        """Block sizes times a window width, _window_blocks' divisor: cached for
        the last width only, in the instance __dict__ as CSModel._wide_scaling
        caches its pair. Read once, the cached pair is never of the wrong width
        under threads."""
        held = self.__dict__.get("_width_divisor")
        if held is None or held[0] != width:
            held = (width, self._reduction[1] * width)
            self.__dict__["_width_divisor"] = held
        return held[1]


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

    def __post_init__(self):
        real = np.shape(self.real)
        imag = None if self.imag is None else np.shape(self.imag)
        instants = {np.shape(self.window_starts), np.shape(self.window_ends)}
        if instants != {real[:1]} or len(real) != 2 or imag not in (None, real):
            raise DimensionError(
                "a batch needs k window starts and ends, (k, l) real blocks and imag of "
                f"real's shape or None; got instants {sorted(instants)}, real {real}, imag {imag}"
            )

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
    stats = _train_stats(matrix)[0]
    return CorrelationStats(stats.pairwise[0], stats.global_coeffs[0])


def _train_stats(matrix: SensorMatrix) -> tuple[CorrelationStats, np.ndarray, np.ndarray]:
    """pairwise_correlation as a stack of one, plus the row minima and maxima,
    from one pass."""
    data = matrix.data
    _, comoment, lo, hi, _ = _comoments(data, data[:, :1])
    comoment /= data.shape[1]
    return _correlation_stats(comoment[None]), lo, hi


# Values per row block of _comoments and of _correlation_stats' division, per
# group of prefix_models' covariances and per stack of _sign_retraining's
# one-window runs (its gather; its time-major copy as many again): 512 KB.
_BLOCK_VALUES = 1 << 16


def _comoments(
    raw: np.ndarray, shift: np.ndarray, lo: np.ndarray | None = None, hi: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Row means and co-moment matrix (sums of centred products) of
    (raw - shift) x scale, the row bounds and the row scales.

    The bounds are the minima and maxima of raw and, where given, of ``lo``
    and ``hi``, those of earlier columns: _Moments.add merges each segment of
    a prefix this way, for prefix_models and so for _sign_retraining's
    retrain schedule. A row's scale is the _power_of_two_scales of its
    bounds, and the scales are None where all are 1. Shifting each row by one
    of its own samples keeps the centring exact on data with a large offset
    and small spread; a constant row becomes exact zeros, so it is flat. A
    centred value is below 4 in a scaled row and 2^402 in any other: no
    co-moment overflows. One pass over blocks of about _BLOCK_VALUES values
    (whole rows) fills the centred n x t copy, the means and the bounds, so
    each block is read from memory once. The co-moment product is one BLAS
    syrk, which mirrors its triangle: the matrix is exactly symmetric.
    """
    n, t = raw.shape
    centered = np.empty((n, t))
    mean, scale = np.empty(n), None
    lo = np.full(n, np.inf) if lo is None else lo.copy()
    hi = np.full(n, -np.inf) if hi is None else hi.copy()
    per_block = max(1, _BLOCK_VALUES // t)
    for first in range(0, n, per_block):
        rows = slice(first, first + per_block)
        np.minimum(lo[rows], raw[rows].min(axis=1), out=lo[rows])
        np.maximum(hi[rows], raw[rows].max(axis=1), out=hi[rows])
        s = _power_of_two_scales(lo[rows], hi[rows])
        if s is None:
            block = np.subtract(raw[rows], shift[rows], out=centered[rows])
        else:
            scale = np.ones(n) if scale is None else scale
            scale[rows] = s
            block = np.multiply(raw[rows], s[:, None], out=centered[rows])
            block -= shift[rows] * s[:, None]
        block.mean(axis=1, out=mean[rows])
        block -= mean[rows, None]
    return mean, centered @ centered.T, lo, hi, scale


def _check_spans(sensor_ids: tuple[str, ...], lo: np.ndarray, hi: np.ndarray) -> None:
    """Reject the sensors whose span overflows, naming them and their range."""
    # No row spans more than max(hi) - min(lo), and a Python float overflows
    # without a warning: one subtraction clears every row, once per prefix.
    if float(hi.max()) - float(lo.min()) < math.inf:
        return
    # Where hi - lo overflows, min-max normalisation cannot divide by it.
    with np.errstate(over="ignore"):
        bad = np.flatnonzero(np.isinf(hi - lo))
    if len(bad):
        names = ", ".join(repr(sensor_ids[i]) for i in bad)
        raise RejectedValueError(
            f"{'sensor' if len(bad) == 1 else 'sensors'} {names}: values in "
            f"[{lo[bad].min():g}, {hi[bad].max():g}] span more than float64 holds, "
            "so they cannot be normalised"
        )


def _correlation_stats(cov: np.ndarray) -> CorrelationStats:
    """Shifted correlation and global coefficients from a stack of population
    covariances, (g, n, n) to a (g, n, n) pairwise and a (g, n) global stack.

    Works in place: ``cov`` becomes the pairwise stack. Each matrix gets the
    same values alone or in a stack: every step is elementwise or runs along
    one row. The division goes through one buffer of about _BLOCK_VALUES
    values, in row blocks when one matrix is larger, never through a whole
    n x n outer product: train's stack of one adds no n x n temporary.
    """
    sd = np.sqrt(np.clip(np.diagonal(cov, axis1=1, axis2=2), 0.0, None))
    flat = sd == 0.0
    denom = np.where(flat, 1.0, sd)
    g, n = denom.shape
    scale = np.empty((g, min(n, max(1, _BLOCK_VALUES // (g * n))), n))
    for first in range(0, n, scale.shape[1]):
        rows = slice(first, first + scale.shape[1])
        block = np.multiply(denom[:, rows, None], denom[:, None], out=scale[:, : n - first])
        np.divide(cov[:, rows], block, out=cov[:, rows])
    pairwise = cov
    pairwise[flat] = 0.0
    pairwise.swapaxes(1, 2)[flat] = 0.0
    np.clip(pairwise, -1.0, 1.0, out=pairwise)
    pairwise += 1.0
    pairwise[:, range(n), range(n)] = 2.0
    if n == 1:
        global_coeffs = np.full((g, 1), 2.0)
    else:
        global_coeffs = (pairwise.sum(axis=2) - 2.0) / (n - 1)
    return CorrelationStats(pairwise=pairwise, global_coeffs=global_coeffs)


def train(matrix: SensorMatrix) -> CSModel:
    """Learn a row permutation and min-max bounds from historical data.

    The permutation starts at the row with the highest global coefficient and
    greedily appends the remaining row maximizing (correlation with the last
    appended row) x (global coefficient); ties go to the lowest original row
    index. Dominated by the correlation matrix, O(n^2 t). Exact power-of-two
    scaling (see _comoments) makes rows times 2^k train to the same order and
    bounds times 2^k. A sensor whose span overflows float64 cannot be
    normalised: a RejectedValueError names the sensors and their range.
    """
    stats, lo, hi = _train_stats(matrix)
    _check_spans(matrix.sensor_ids, lo, hi)
    orders, _ = _greedy_order(stats.pairwise, stats.global_coeffs)
    return CSModel(
        sensor_ids=matrix.sensor_ids, permutation=orders[0], lower_bounds=lo, upper_bounds=hi
    )


def _greedy_order(
    pairwise: np.ndarray, global_coeffs: np.ndarray, flat: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """The greedy row orders of train, (g, n), from a stack of correlation
    statistics, (g, n, n) and (g, n): each pick runs once for the whole stack.
    Given ``flat``, the (g, n) rows whose bounds meet (lo == hi), also each
    order's pick margin, (g,); else None.

    Relies on ``pairwise`` being exactly symmetric, as _correlation_stats makes
    it from a symmetric covariance: row c of pairwise * global_coeffs then
    holds every candidate's score after row c, pairwise[i, c] * global_coeffs[i].
    Picked rows are masked by one -inf vector added to the rows read, which
    are taken by flat index from the stacked rows; the first pick scores the
    global coefficients.

    A pick's lead is its score minus the best score among the other unpicked
    rows, and the margin is the smallest lead, +inf below two rows. Flat rows
    are exact zeros after the shift on every path, so they score exactly 1 at
    every pick and go in index order: a flat pick's lead leaves the other flat
    rows out.
    """
    g, n = global_coeffs.shape
    scores = (pairwise * global_coeffs[:, None]).reshape(g * n, n)
    taken = np.zeros((g, n))
    row = global_coeffs.copy()
    order = np.empty((g, n), dtype=np.int64)
    margins = None if flat is None else np.full(g, math.inf)
    first_rows = np.arange(0, g * n, n)
    for k in range(n):
        current = row.argmax(axis=1)
        order[:, k] = current
        picked = first_rows + current
        if margins is not None and k < n - 1:  # the last pick has no runner-up
            lead = row.take(picked)
            row.put(picked, -np.inf)
            np.copyto(row, -np.inf, where=flat & flat.take(picked)[:, None])
            np.minimum(margins, lead - row.max(axis=1), out=margins)
        taken.put(picked, -np.inf)
        np.add(scores.take(picked, 0), taken, out=row)
    return order, margins


# A greedy pick won by less than this may go the other way in batch train: the
# incremental and the batch covariance round differently (by about 1e-14 in
# the scores), while real picks are won by 1e-9 and more.
_SCORE_MARGIN = 1e-11


def prefix_models(matrix: SensorMatrix, ends: Iterable[int]) -> Iterator[CSModel]:
    """Yield train(matrix[:, :end]) for each end of increasing ``ends``.

    Reads each sample once: a _Moments accumulator merges the columns up to
    each end into the co-moments and bounds so far, so a model costs O(n^2)
    plus O(n^2) per new column instead of O(n^2 end). The covariance goes
    through train's correlation and ordering code. Where the order could
    differ from batch train's (a pick won by less than _SCORE_MARGIN), train
    runs on the prefix instead. sign --retrain-every drives this through
    _sign_retraining.

    Prefixes are ordered in groups of g = max(1, _BLOCK_VALUES // n^2) (16 at
    64 sensors, 1 from 182 on): each covariance goes into a (g, n, n) buffer,
    and correlation and the greedy order, which yields each order's pick
    margin, run once per full group on the stack, with the values each prefix
    gets alone. A bad end or a prefix's span error comes after the earlier
    prefixes' models.
    """
    data = matrix.data
    n, t = data.shape
    covs = np.empty((max(1, _BLOCK_VALUES // (n * n)), n, n))
    moments, group = _Moments(data[:, :1]), []
    for end in ends:
        try:
            if not (max(moments.count + 1, 2) <= end <= t):
                raise InvalidParameterError(
                    f"prefix ends must increase within [2, {t}]; got {end} after {moments.count}"
                )
            moments.add(data[:, moments.count : end])
            _check_spans(matrix.sensor_ids, moments.lo, moments.hi)
        except CsSmoothError:
            yield from _group_models(matrix, covs, group)
            raise
        np.divide(moments.comoment, moments.count, out=covs[len(group)])
        group.append((moments.count, moments.lo, moments.hi))
        if len(group) == len(covs):
            yield from _group_models(matrix, covs, group)
            group = []
    yield from _group_models(matrix, covs, group)


def _group_models(
    matrix: SensorMatrix, covs: np.ndarray, group: list[tuple[int, np.ndarray, np.ndarray]]
) -> Iterator[CSModel]:
    """prefix_models' models of a group of prefixes, none if it is empty, from
    their covariances, the first len(group) of ``covs`` (consumed), and
    (sample count, bounds) each: _greedy_order, given the rows whose bounds
    meet, yields each order and its pick margin."""
    if not group:
        return
    stats = _correlation_stats(covs[: len(group)])
    flat = np.array([lo == hi for _, lo, hi in group])
    orders, margins = _greedy_order(stats.pairwise, stats.global_coeffs, flat)
    for (count, lo, hi), order, margin in zip(group, orders, margins):
        if margin >= _SCORE_MARGIN:
            yield CSModel(matrix.sensor_ids, order, lo, hi)
            continue
        grid = TimeGrid(matrix.grid.start, matrix.grid.interval, count)
        yield train(SensorMatrix(matrix.sensor_ids, grid, matrix.data[:, :count]))


class _Moments:
    """Sample count, row means, co-moments, bounds and scales of the columns
    added so far, each row shifted by its sample in ``shift``, (n, 1).

    add merges new columns in segments of _CHUNK_VALUES // n, each through
    _comoments with the bounds so far (so it takes the scales train would on
    that prefix), by the pairwise update of Chan, Golub & LeVeque (1979). When
    the scales fall (the bounds only widen), the merged mean and co-moments
    follow by the exact power-of-two ratio. Bounds are replaced, never written
    in place: a model may hold the previous ones.
    """

    def __init__(self, shift: np.ndarray):
        n = len(shift)
        self.shift, self.count, self.scale = shift, 0, None
        self.mean, self.comoment = np.zeros(n), np.zeros((n, n))
        self.lo, self.hi = np.full(n, np.inf), np.full(n, -np.inf)

    def add(self, columns: np.ndarray) -> None:
        per_segment = max(1, _CHUNK_VALUES // len(columns))
        for first in range(0, columns.shape[1], per_segment):
            raw = columns[:, first : first + per_segment]
            mean, comoment, self.lo, self.hi, scale = _comoments(raw, self.shift, self.lo, self.hi)
            if scale is not None or self.scale is not None:
                # A power of two per row: at most 1 after the first segment, where all is 0.
                previous = 1.0 if self.scale is None else self.scale
                ratio = (1.0 if scale is None else scale) / previous
                self.mean *= ratio
                self.comoment *= ratio[:, None]
                self.comoment *= ratio
                self.scale = scale
            width = raw.shape[1]
            delta = mean - self.mean
            total = self.count + width
            self.comoment += comoment
            self.comoment += np.outer(delta, delta) * (self.count * width / total)
            self.mean += delta * (width / total)
            self.count = total


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
    raise ModelIncompatibilityError("window sensors match the model but are ordered differently")


def _normalized_window(window: Window, model: CSModel) -> np.ndarray:
    """A window's values min-max normalized into a fresh C-contiguous,
    time-major (w + 1, n) buffer: row 0 the column before the window (with
    none, the first column stands in, so its difference is 0), row 1 + i the
    window's sample i. Copied first, transposed _TILE_ROWS sensors at a
    time, then normalized in place against CSModel._wide_scaling, so each
    ufunc runs once over the buffer. The window must pass _check_sensors and
    hold (n, w) values, w >= 1, and an (n,) preceding column, if any. Values
    are not checked for finiteness: that would be a full pass per window."""
    _check_sensors(window.sensor_ids, model)
    n = model.n_sensors
    values, before = window.values, window.preceding
    if values.ndim != 2 or len(values) != n:
        raise DimensionError(f"window values must be {n} sensors x samples, got {values.shape}")
    if before is not None and np.shape(before) != (n,):
        raise DimensionError(f"preceding column must hold {n} values, got {np.shape(before)}")
    if values.shape[1] == 0:
        raise DegenerateInputError("window holds no samples")
    buffer = np.empty((values.shape[1] + 1, n))
    buffer[0] = values[:, 0] if before is None else before
    _copy_transposed(buffer[1:], values)
    return _normalize(buffer, *model._wide_scaling(len(buffer)))


def _copy_transposed(out: np.ndarray, rows: np.ndarray) -> None:
    """``out[...] = rows.T``, _TILE_ROWS rows at a time, so the rows that a
    tile reads column by column stay in cache and in the TLB: one plain copy
    of 32,000 sensors x 100 samples takes about 1.6x the tiled one."""
    for r in range(0, len(rows), _TILE_ROWS):
        out[:, r : r + _TILE_ROWS] = rows[r : r + _TILE_ROWS].T


def _min_max_scaling(lower: np.ndarray, upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lower bounds, divisors) of min-max normalization, elementwise over bounds
    of any shape. A flat row (lo == hi) gets +inf and 1: any finite value maps
    to -inf, which clamps to +0.0."""
    span = upper - lower
    flat = span == 0.0
    return np.where(flat, np.inf, lower), np.where(flat, 1.0, span)


def _normalize(out: np.ndarray, lo: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """``out`` min-max normalized in place by _min_max_scaling's (lo, denom),
    which broadcast against it, and clamped to [0,1]."""
    # A value far outside the bounds may overflow to an infinity: it clamps alike.
    # +inf on a flat row is inf - inf: NaN, as a NaN value gives.
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(out, lo, out=out)
        np.divide(out, denom, out=out)
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
    norm = _normalized_window(window, model).T[model.permutation]
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
    n, l = n_sensors, n_blocks
    ranges = tuple((1 + (i - 1) * n // l, math.ceil(i * n / l)) for i in range(1, l + 1))
    return BlockLayout(n_sensors=n, ranges=ranges)


def _window_blocks(
    windows: np.ndarray, order: np.ndarray, layouts: Iterable[BlockLayout],
    sums: np.ndarray, permuted: np.ndarray,
) -> list[np.ndarray]:
    """(real, imag) block means of k windows, (2, k, l), for each of ``layouts``.

    ``windows`` is a time-major (w + 1, k, n) view of normalized samples, its
    last axis contiguous: row 0 of window j holds the sample before it, row
    1 + i its sample i. ``order`` holds flat indices into the (k, n) sums:
    window j's permutation plus j n. The block means of sort_normalize's
    matrices need only per-row window sums, and the backward differences
    telescope to (last normalized sample - the one before the window), so the
    sorted matrices are never built: _window_sums takes both into ``sums`` by
    the rule that every signer follows, one take puts them in permutation
    order into ``permuted`` (both C-contiguous, (2, k, n)) and np.add.reduceat
    adds each block's rows in that order. O(k * n * w).
    """
    _window_sums(windows, sums)
    # mode="clip" (the indices are valid) writes straight into the buffer,
    # where the default mode buffers it.
    sums.reshape(2, -1).take(order, 1, permuted, "clip")
    return [
        np.add.reduceat(permuted, layout._reduction[0], axis=-1)[..., 0::2]
        / layout._divisor(len(windows) - 1)
        for layout in layouts
    ]


def _window_sums(windows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Value and derivative sums of k windows into ``out``, (2, k, n), from a
    time-major (w + 1, k, n) view whose last axis is contiguous; row 0 of each
    window holds the sample before it.

    This is the summation rule of every signer: a window's value sum is
    ((0.0 + x1) + x2) + ... + xw, its samples added one at a time, oldest
    first, from +0.0, so -0.0 samples sum to +0.0. Its derivative sum
    telescopes to xw - x0. The last axis has the smallest stride, so
    np.add.reduce over axis 0 loops over it innermost and adds whole rows in
    order. Its first partial is x1, not 0.0 + x1, which differs only in the
    sign of a zero, and the closing + 0.0 settles that. numpy adds a
    contiguous run pairwise, so one sensor takes np.add.accumulate, which adds
    in order.
    """
    values = out[0]
    if windows.shape[2] == 1:
        values[...] = np.add.accumulate(windows[1:], axis=0)[-1]
    else:
        np.add.reduce(windows[1:], axis=0, out=values)
    np.add(values, 0.0, out=values)
    np.subtract(windows[-1], windows[0], out=out[1])
    return out


def compute_signature(window: Window, model: CSModel, n_blocks: int) -> Signature:
    """Full signature pipeline: normalize and sort, then smooth into l blocks.

    The window goes through _normalized_window into one time-major (w + 1, n)
    buffer, so each value is normalized once, and _window_blocks reduces it
    in whole rows of n values, bit for bit as compute_signature_batch signs
    the window. O(w * n).
    """
    norm = _normalized_window(window, model)
    layout = block_layout(model.n_sensors, n_blocks)
    buf = np.empty((2, 2, 1, model.n_sensors))  # indexed below: unpacking costs 0.5 us
    [blocks] = _window_blocks(norm[:, None], model.permutation[None], (layout,), buf[0], buf[1])
    return Signature(blocks[0, 0], blocks[1, 0], layout, window.start, window.end, model.model_id)


_CHUNK_VALUES = 1 << 20  # normalized values per chunk: 8 MB
# Adds per _window_sums call of compute_signature_batches, in at least 8
# windows. The calls' fixed costs need about 2^18 adds to spread over at w =
# 16. At long windows 8 windows share each sample read into cache, and at up
# to about 128 sensors their sums stay in L1: at 128 sensors x 1,000 samples
# the batch took 62 ms, against 125 ms with sums of 2^16 values per call.
_SUM_ADDS = 1 << 18
# Widest window, in columns (w + 1), that _normalized_window normalizes against
# bounds repeated once per column. A broadcasting ufunc call pays a set-up
# that only a short window notices; for wider ones the repeated pair would
# grow with the window and only add memory traffic, so they broadcast the
# (n,) bounds.
_BUFFERED_COLUMNS = 128
# Sensor rows per tile of _copy_transposed, for a batch chunk's rows and a
# window's alike. Tiles of 64 read too little per call: a chunk's copy took
# 5.4 against 3.4 ms at 1,024 sensors x 1,040 samples, a window's 18.7
# against 10.1 us at 1,024 x 16. Untiled, the chunk copy took 11.2 against
# 6.0 ms at 4,000 x 362.
_TILE_ROWS = 256


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

    Each sample is normalized once instead of once per window: the windows go
    in time chunks of k = max(1, _CHUNK_VALUES // (n * step)) windows, whose
    (k - 1) * step + w + 1 samples are copied time-major (the column before the
    first window leading) and normalized against the (n,) bounds.
    _window_blocks then reduces a strided (w + 1, k, n) view of the chunk's
    windows into every layout's blocks, at least 8 windows and about _SUM_ADDS
    adds at a time so that the sums stay in cache, bit for bit as
    compute_signature signs each window. All chunks share one set of
    buffers, so memory stays bounded at any stream length. Every block count
    is checked before any window is signed.
    """
    _check_sensors(matrix.sensor_ids, model)
    n = model.n_sensors
    layouts = [block_layout(n, n_blocks) for n_blocks in block_counts]
    width, step = spec.length_samples, spec.step_samples
    starts, *instants = _window_geometry(matrix, spec, first, stop)
    blocks = [np.empty((2, len(starts), layout.n_blocks)) for layout in layouts]
    data = matrix.data
    per_chunk = min(len(starts), max(1, _CHUNK_VALUES // (n * step)))
    per_sum = min(per_chunk, max(8, _SUM_ADDS // (n * width)))
    # Buffers sized by the first chunk, the largest: fresh ones in every chunk
    # fault their pages in anew.
    norm_buf = np.empty(((per_chunk - 1) * step + width + 1) * n)
    sums_buf = np.empty((2, 2 * per_sum * n))
    order = model.permutation + n * np.arange(per_sum)[:, None]
    for i in range(0, len(starts), per_chunk):
        chunk = starts[i : i + per_chunk]
        begin, end = int(chunk[0]), int(chunk[-1]) + width
        norm = norm_buf[: (end - begin + 1) * n].reshape(-1, n)
        # At column 0 the first column stands in for the one before it: difference 0.
        norm[0] = data[:, max(begin - 1, 0)]
        _copy_transposed(norm[1:], data[:, begin:end])
        _normalize(norm, *model._scaling)
        time = norm.strides[0]
        for j in range(0, len(chunk), per_sum):
            k = min(per_sum, len(chunk) - j)
            # One window has stride 0: a step past the stream's end may be no
            # stride that numpy holds.
            strides = (time, step * time if k > 1 else 0, norm.itemsize)
            windows = as_strided(norm[j * step :], (width + 1, k, n), strides)
            sums, permuted = sums_buf[:, : 2 * k * n].reshape(2, 2, k, n)
            parts = _window_blocks(windows, order[:k], layouts, sums, permuted)
            for part, out in zip(parts, blocks):
                out[:, i + j : i + j + k] = part
    return [SignatureBatch(*instants, real, imag) for real, imag in blocks]


def _signature_stack(
    matrix: SensorMatrix, models: list[CSModel], spec: WindowSpec, n_blocks: int, first: int
) -> SignatureBatch:
    """Windows ``first``.. of windows(matrix, spec), window first + j signed with
    ``models[j]``: bit for bit compute_signature_batch on each window alone.

    One pass for the stack: each window's (n, w + 1) columns, the column
    before it first as in compute_signature_batches, are gathered along the
    rows into one contiguous (n, k, w + 1) stack, copied time-major into
    (w + 1, k, n) and normalized there against each window's own model's
    bounds. _window_blocks reduces that copy with each window's own
    permutation. Copying the stack's whole span time-major instead would also
    copy the samples between windows. The stack holds 2 x len(models) x n x
    (w + 1) values: callers bound it.
    """
    for model in models:
        _check_sensors(matrix.sensor_ids, model)
    n, k, width = len(matrix.sensor_ids), len(models), spec.length_samples
    layout = block_layout(n, n_blocks)
    starts, *instants = _window_geometry(matrix, spec, first, first + k)
    # One allocation for the gather, its time-major copy and the sums: the next
    # stack reuses it, where separate ones went back to the system and faulted
    # in anew (766 against 4 page faults in sign's 7 stacks at 64 x 6,400).
    size = n * k * (width + 1)
    buf = np.empty(2 * size + 4 * k * n)
    gathered = buf[:size].reshape(n, k, width + 1)
    windows = buf[size : 2 * size].reshape(width + 1, k, n)
    # At column 0 the first column stands in for the one before it: difference 0.
    matrix.data.take(np.maximum(starts[:, None] + np.arange(-1, width), 0), 1, gathered, "clip")
    np.copyto(windows, gathered.transpose(2, 1, 0))
    lo, denom = _min_max_scaling(
        np.array([m.lower_bounds for m in models]), np.array([m.upper_bounds for m in models])
    )
    _normalize(windows, lo, denom)
    order = np.array([m.permutation for m in models]) + n * np.arange(k)[:, None]
    sums, permuted = buf[2 * size :].reshape(2, 2, k, n)
    [(real, imag)] = _window_blocks(windows, order, (layout,), sums, permuted)
    return SignatureBatch(*instants, real, imag)


def _sign_retraining(
    matrix: SensorMatrix, model: CSModel, spec: WindowSpec, n_blocks: int, every: int | None
) -> SignatureBatch:
    """sign's cs batch: the windows of windows(matrix, spec) signed with
    ``model``, which given ``every`` is retrained through prefix_models on all
    samples before every every-th window (from the third sample on).

    A run of several windows that share a model goes through
    compute_signature_batch, which shares normalized samples where its windows
    overlap. Consecutive one-window runs, as every = 1 makes, go through
    _signature_stack in stacks of about _BLOCK_VALUES gathered values (twice
    that with their time-major copy; stacks of half the windows were slower),
    with the same bits. A wrong model or block count fails before any retrain.
    """
    _check_sensors(matrix.sensor_ids, model)
    block_layout(matrix.n_sensors, n_blocks)
    starts = spec.starts(matrix.n_samples)
    cuts = [i for i in range(every, len(starts), every) if starts[i] >= 2] if every else []
    retrained = prefix_models(matrix, (starts[i] for i in cuts))
    per_stack = max(1, _BLOCK_VALUES // (matrix.n_sensors * (spec.length_samples + 1)))
    parts, stack = [], []  # stack: the models of the one-window runs just before ``first``
    for first, stop in zip([0, *cuts], [*cuts, len(starts)]):
        if first:
            model = next(retrained)
            if log.isEnabledFor(logging.INFO):
                log.info("window %d: retrained model %s", first, model.model_id)
        single = stop - first == 1
        if stack and (not single or len(stack) == per_stack):
            parts.append(_signature_stack(matrix, stack, spec, n_blocks, first - len(stack)))
            stack = []
        if single:
            stack.append(model)
        else:
            parts.append(compute_signature_batch(matrix, model, spec, n_blocks, first, stop))
    if stack:
        parts.append(_signature_stack(matrix, stack, spec, n_blocks, len(starts) - len(stack)))
    fields = ("window_starts", "window_ends", "real", "imag")
    return SignatureBatch(**{f: np.concatenate([getattr(p, f) for p in parts]) for f in fields})


def _model_json(model: CSModel) -> str:
    return json.dumps(
        {
            "version": MODEL_VERSION,
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
    # CSModel would take JSON true as 1 and "0.5" as 0.5: the entries' JSON types decide.
    for field, kinds, reason in (
        ("permutation", (int,), "permutation entries must be integers"),
        ("lower_bounds", (int, float), "malformed model field: lower_bounds must hold numbers"),
        ("upper_bounds", (int, float), "malformed model field: upper_bounds must hold numbers"),
    ):
        entries = payload.get(field)
        if isinstance(entries, list) and any(type(v) not in kinds for v in entries):
            raise FormatError(reason)
    try:
        return CSModel(
            sensor_ids=payload["sensor_ids"],
            permutation=payload["permutation"],
            lower_bounds=payload["lower_bounds"],
            upper_bounds=payload["upper_bounds"],
        )
    except KeyError as exc:
        raise FormatError(f"model file is missing field {exc}") from None
