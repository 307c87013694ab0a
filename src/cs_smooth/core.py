"""Time-series data model: ingestion, alignment, windowing, derivatives.

Sensor readings arrive as per-sensor timestamp/value streams with arbitrary
sampling; downstream signature methods need an n x t matrix on a uniform time
grid. Timestamps are integer milliseconds since epoch throughout.
"""

from __future__ import annotations

import io
import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    AlignmentError,
    CsSmoothError,
    DegenerateInputError,
    EmptyInputError,
    InvalidParameterError,
    ParseError,
    PathOrStream,
    RejectedValueError,
    fits_in_memory,
    opened,
)


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SensorSeries:
    """One sensor's stream: strictly increasing timestamps, finite values."""

    sensor_id: str
    timestamps: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=np.int64)
        vs = np.asarray(self.values, dtype=np.float64)
        if ts.ndim != 1 or vs.ndim != 1 or len(ts) != len(vs):
            raise CsSmoothError(
                f"sensor {self.sensor_id!r}: timestamps and values must be "
                f"1-D and equally long ({len(ts)} vs {len(vs)})"
            )
        # Compared pairwise: np.diff wraps around in int64.
        if not np.all(ts[1:] > ts[:-1]):
            raise CsSmoothError(
                f"sensor {self.sensor_id!r}: timestamps must be strictly increasing"
            )
        if not np.all(np.isfinite(vs)):
            raise RejectedValueError(
                f"sensor {self.sensor_id!r}: non-finite value in series"
            )
        object.__setattr__(self, "timestamps", _readonly(ts))
        object.__setattr__(self, "values", _readonly(vs))

    def __len__(self) -> int:
        return len(self.timestamps)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of ``count`` instants spaced ``interval`` ms from ``start``."""

    start: int
    interval: int
    count: int

    def __post_init__(self):
        if self.interval <= 0:
            raise CsSmoothError("grid interval must be positive")
        if self.count < 1:
            raise CsSmoothError("grid count must be positive")
        if self.interval > _INT64.max or not _INT64.min <= self.start <= self.end <= _INT64.max:
            raise InvalidParameterError("grid interval and instants must fit in int64 ms")

    @property
    def end(self) -> int:
        return self.start + (self.count - 1) * self.interval

    def instants(self) -> np.ndarray:
        # np.empty fails on every count it cannot hold, where np.arange returns
        # an empty array for counts within 512 of 2**63.
        with fits_in_memory(f"a grid of {self.count} instants does not fit in memory"):
            instants = np.empty(self.count, dtype=np.int64)
            np.multiply(np.arange(self.count, dtype=np.int64), self.interval, out=instants)
        instants += self.start
        return instants


@dataclass(frozen=True)
class SensorMatrix:
    """n x t matrix of time-aligned readings; rows follow ``sensor_ids`` order."""

    sensor_ids: tuple[str, ...]
    grid: TimeGrid
    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sensor_ids", tuple(self.sensor_ids))
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 2:
            raise CsSmoothError(f"matrix data must be 2-D, got {data.ndim}-D")
        n, t = data.shape
        if n != len(self.sensor_ids):
            raise CsSmoothError(
                f"{len(self.sensor_ids)} sensor ids but {n} data rows"
            )
        if t != self.grid.count:
            raise CsSmoothError(f"grid has {self.grid.count} instants but data has {t} columns")
        if n < 1 or t < 2:
            raise DegenerateInputError(f"matrix must be at least 1x2, got {n}x{t}")
        if not np.all(np.isfinite(data)):
            raise RejectedValueError("matrix contains non-finite entries")
        object.__setattr__(self, "data", _readonly(data))

    @property
    def n_sensors(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class WindowSpec:
    """Aggregation window length and step between window starts, in samples."""

    length_samples: int
    step_samples: int

    def __post_init__(self):
        if self.length_samples < 1 or self.step_samples < 1:
            raise CsSmoothError("window length and step must be >= 1 samples")

    def starts(self, n_samples: int) -> range:
        """Start columns of the complete windows over ``n_samples`` columns."""
        return range(0, n_samples - self.length_samples + 1, self.step_samples)


@dataclass(frozen=True)
class Window:
    """One aggregation window plus the column immediately preceding it.

    ``preceding`` is None for a window starting at the first matrix column;
    otherwise it holds the per-sensor values one sample before the window,
    which backward differences at the window boundary need.
    """

    sensor_ids: tuple[str, ...]
    values: np.ndarray
    preceding: np.ndarray | None
    start: int
    end: int


def load_sensor_csv(source: PathOrStream, sensor_id: str) -> SensorSeries:
    """Parse a "timestamp,value" CSV stream into a SensorSeries.

    A line whose first non-blank character is '#' is a comment; any other '#'
    is an error. Records are re-sorted by timestamp; duplicate timestamps keep
    the last value seen in the file. Timestamps must fit in int64. A text
    stream is parsed as its UTF-8 bytes, so a lone surrogate is a ParseError.
    Whatever the source, CRLF and a lone CR end a line, as LF does.
    """
    with opened(source, f"sensor {sensor_id!r} CSV", "rb") as stream:
        data = stream.read()
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return _parse_sensor_csv(data, sensor_id)


# Bytes numpy's reader and the line loop read alike: digits, signs, decimal
# point, exponent, comma, ASCII blanks and LF. Anything else ('#', 'nan',
# '_', non-ASCII digits or blanks, bad UTF-8) goes to the line loop.
_FAST_ALPHABET = b"0123456789+-.eE, \t\n"
_RECORD_DTYPE = np.dtype([("t", np.int64), ("v", np.float64)])
_INT64 = np.iinfo(np.int64)


def _parse_sensor_csv(data: bytes, sensor_id: str) -> SensorSeries:
    records = _fast_records(data)
    if records is None:
        records = _parse_lines(data, sensor_id)
    ts, vs = records["t"], records["v"]
    if not np.all(ts[1:] > ts[:-1]):
        order = np.argsort(ts, kind="stable")
        ts, vs = ts[order], vs[order]
        # Keep the last row of each equal-timestamp run: the file's last value.
        last = np.append(ts[1:] != ts[:-1], True)
        ts, vs = ts[last], vs[last]
    return SensorSeries(sensor_id=sensor_id, timestamps=ts, values=vs)


def _fast_records(data: bytes) -> np.ndarray | None:
    """Records parsed by numpy's C reader, or None where the line loop must run.

    Returns None whenever the result could differ from the loop's: bytes
    outside the shared alphabet, no records, a row numpy rejects (it reports
    no line numbers) or a non-finite value.
    """
    if data.translate(None, _FAST_ALPHABET) or not data or data.isspace():
        return None
    try:
        records = np.loadtxt(
            io.BytesIO(data), delimiter=",", dtype=_RECORD_DTYPE, comments=None, ndmin=1
        )
    except ValueError:
        return None
    if not np.all(np.isfinite(records["v"])):
        return None
    return records


def _parse_lines(data: bytes, sensor_id: str) -> np.ndarray:
    """The reference line-by-line parser; it raises every ingest error and
    returns the records in file order."""
    records = []
    for lineno, raw in enumerate(data.split(b"\n"), start=1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise ParseError(
                f"invalid UTF-8 byte {raw[exc.start]:#04x} at column {exc.start + 1}",
                line=lineno,
            ) from None
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"expected 'timestamp,value', got {line!r}", line=lineno)
        try:
            ts = int(parts[0].strip())
            val = float(parts[1].strip())
        except ValueError as exc:
            raise ParseError(f"cannot parse {line!r}: {exc}", line=lineno) from None
        if not _INT64.min <= ts <= _INT64.max:
            raise ParseError(f"timestamp {ts} does not fit in int64", line=lineno)
        if not math.isfinite(val):
            raise RejectedValueError(
                f"sensor {sensor_id!r}: non-finite value at line {lineno}"
            )
        records.append((ts, val))
    if not records:
        raise EmptyInputError(f"sensor {sensor_id!r}: no records in stream")
    return np.array(records, dtype=_RECORD_DTYPE)


def load_dataset_dir(path: str | Path) -> list[SensorSeries]:
    """Load every ``*.csv`` in a directory; the file stem is the sensor id.

    Files are read in sorted-name order so the resulting row order is stable.
    ``labels.csv`` is reserved for window labels and skipped. Ingest errors
    name the file they come from.
    """
    path = Path(path)
    files = sorted(
        p for p in path.glob("*.csv") if p.is_file() and p.name != "labels.csv"
    )
    if not files:
        raise EmptyInputError(f"no sensor CSV files in {path}")
    series = []
    for p in files:
        try:
            series.append(load_sensor_csv(p, p.stem))
        except (ParseError, RejectedValueError, EmptyInputError) as exc:
            exc.args = (f"{p.name}: {exc}",)
            raise
    return series


def infer_grid(series: Sequence[SensorSeries], interval: int | None = None) -> TimeGrid:
    """Derive a uniform grid spanning the common time range of all series.

    The interval defaults to the median of per-series median sample gaps; the
    span is the intersection of the series' spans so no sensor needs
    extrapolation over more than its own boundary samples.
    """
    if not series:
        raise EmptyInputError("no series to infer a grid from")
    if interval is None:
        # Gaps are positive, so uint64 holds each one where int64 could wrap.
        gaps = [np.median(np.diff(s.timestamps.view(np.uint64))) for s in series if len(s) > 1]
        if not gaps:
            raise DegenerateInputError("cannot infer a grid interval from single-point series")
        interval = int(max(1, round(float(np.median(gaps)))))
    start = max(int(s.timestamps[0]) for s in series)
    end = min(int(s.timestamps[-1]) for s in series)
    if end < start:
        raise AlignmentError("series time spans do not overlap; cannot build a grid")
    count = (end - start) // interval + 1
    return TimeGrid(start=start, interval=interval, count=int(count))


def align(series: Iterable[SensorSeries], grid: TimeGrid) -> SensorMatrix:
    """Interpolate every series onto the grid, building a SensorMatrix.

    Linear interpolation between samples; instants outside a series' span take
    the nearest endpoint value. Row order follows the input collection order.
    Interpolates on offsets from the grid start, exact in float64 up to 2**53
    ms, so instants far from zero stay apart.
    """
    rows, ids = [], []
    with fits_in_memory(f"an aligned matrix of {grid.count} samples does not fit in memory"):
        instants = _offsets(grid.instants(), grid.start)
        for s in series:
            if len(s) == 0:
                raise AlignmentError(f"sensor {s.sensor_id!r} has no samples")
            if s.timestamps[-1] < grid.start or s.timestamps[0] > grid.end:
                raise AlignmentError(
                    f"sensor {s.sensor_id!r} does not overlap the grid span "
                    f"[{grid.start}, {grid.end}]"
                )
            rows.append(np.interp(instants, _offsets(s.timestamps, grid.start), s.values))
            ids.append(s.sensor_id)
        if not rows:
            raise EmptyInputError("no series to align")
        return SensorMatrix(sensor_ids=tuple(ids), grid=grid, data=np.stack(rows))


def _offsets(timestamps: np.ndarray, start: int) -> np.ndarray:
    """timestamps - start in float64. The int64 difference wraps only where it
    passes the int64 range, which only the first or the last of increasing
    timestamps can reach; those entries move back by 2**64, keeping their sign."""
    offsets = (timestamps - start).astype(np.float64)
    if start > 0:
        offsets[: np.searchsorted(timestamps, start - 2**63)] -= 2.0**64
    elif start < 0:
        offsets[np.searchsorted(timestamps, start + 2**63) :] += 2.0**64
    return offsets


def windows(matrix: SensorMatrix, spec: WindowSpec) -> Iterator[Window]:
    """Enumerate complete aggregation windows left to right.

    Windows start every ``step_samples`` columns beginning at column one;
    incomplete trailing windows are dropped. Yields an empty sequence when the
    window is longer than the matrix.
    """
    wl = spec.length_samples
    data = matrix.data
    instants = matrix.grid.instants()
    for s in spec.starts(matrix.n_samples):
        yield Window(
            sensor_ids=matrix.sensor_ids,
            values=data[:, s : s + wl],
            preceding=data[:, s - 1] if s > 0 else None,
            start=int(instants[s]),
            end=int(instants[s + wl - 1]),
        )


def finite_difference(series: SensorSeries) -> SensorSeries:
    """Backward first differences, anchored at the second timestamp onward.

    The usual pre-transform for monotonic counters (e.g. energy) whose raw
    values min-max normalization cannot handle.
    """
    if len(series) < 2:
        raise DegenerateInputError(
            f"sensor {series.sensor_id!r}: need >= 2 points to differentiate"
        )
    return SensorSeries(
        sensor_id=series.sensor_id,
        timestamps=series.timestamps[1:].copy(),
        values=np.diff(series.values),
    )
