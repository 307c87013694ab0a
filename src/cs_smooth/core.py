"""Time-series data model: ingestion, alignment, windowing, derivatives.

Sensor readings arrive as per-sensor timestamp/value streams with arbitrary
sampling; downstream signature methods need an n x t matrix on a uniform time
grid. Timestamps are integer milliseconds since epoch throughout.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import logging
import math
import os
import stat
import struct
import sys
import zlib
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    AlignmentError,
    DegenerateInputError,
    DimensionError,
    EmptyInputError,
    FormatError,
    InvalidParameterError,
    ParseError,
    PathOrStream,
    RejectedValueError,
    fits_in_memory,
    opened,
)

log = logging.getLogger("cs_smooth")


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
            raise DimensionError(
                f"sensor {self.sensor_id!r}: timestamps and values must be "
                f"1-D and equally long ({len(ts)} vs {len(vs)})"
            )
        # Compared pairwise: np.diff wraps around in int64.
        if not np.all(ts[1:] > ts[:-1]):
            raise InvalidParameterError(
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
            raise InvalidParameterError("grid interval must be positive")
        if self.count < 1:
            raise InvalidParameterError("grid count must be positive")
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
            raise DimensionError(f"matrix data must be 2-D, got {data.ndim}-D")
        n, t = data.shape
        if n != len(self.sensor_ids):
            raise DimensionError(
                f"{len(self.sensor_ids)} sensor ids but {n} data rows"
            )
        if t != self.grid.count:
            raise DimensionError(f"grid has {self.grid.count} instants but data has {t} columns")
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
            raise InvalidParameterError("window length and step must be >= 1 samples")

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
    return _parse_sensor_csv(data, sensor_id)


# Bytes numpy's reader and the line loop read alike: digits, signs, decimal
# point, exponent, comma, ASCII blanks and LF. Anything else ('#', 'nan',
# '_', non-ASCII digits or blanks, bad UTF-8) goes to the line loop.
_FAST_ALPHABET = b"0123456789+-.eE, \t\n"
_RECORD_DTYPE = np.dtype([("t", "<i8"), ("v", "<f8")])
_INT64 = np.iinfo(np.int64)


def _parse_sensor_csv(data: bytes, sensor_id: str) -> SensorSeries:
    """The series a sensor CSV's raw bytes hold; every parse of a file goes through here."""
    if b"\r" in data:  # one scan, where the replacements copy the file twice
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
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
    ``labels.csv`` is reserved for window labels and skipped, as are
    directories; any other entry that is not a regular file (a dangling link,
    a FIFO) is an error before any file is read. Ingest errors name the file
    they come from.

    Each file is read once and its bytes hashed: the ingest cache in the
    directory (``_CACHE_NAME``) supplies the series of bytes it has seen, and
    only the other files are parsed. A load that parsed any file rewrites the
    cache with the entries of the files present now. The result is the same
    as a fresh parse, byte for byte.
    """
    path = Path(path)
    files = _sensor_files(path)
    series, entries, parsed = [], {}, 0
    with contextlib.closing(_IngestCache(path)) as cache:
        for p in files:
            digest, s, was_parsed = _read_sensor_file(p, cache)
            series.append(s)
            entries[digest] = s
            parsed += was_parsed
    log.debug("ingest %s: parsed %d files, reused %d", path, parsed, len(files) - parsed)
    if parsed:
        cache.write(entries)
    return series


def _read_sensor_file(p: Path, cache: _IngestCache) -> tuple[bytes, SensorSeries, bool]:
    """The sha256 of a sensor file's bytes and its series: from ``cache`` if it
    holds those bytes, else parsed from them (True). The bytes are freed on
    return, before the next file is read: a loop that held them across the
    next read left a heap on which a later step-1 ``sign`` of 128 files peaked
    up to 3.4 MB higher (glibc)."""
    data = p.read_bytes()
    digest = hashlib.sha256(data).digest()
    s = cache.series(digest, p.stem)
    if s is not None:
        return digest, s, False
    try:
        return digest, _parse_sensor_csv(data, p.stem), True
    except (ParseError, RejectedValueError, EmptyInputError) as exc:
        exc.args = (f"{p.name}: {exc}",)
        raise


def _sensor_files(path: Path) -> list[Path]:
    """The sensor CSVs of a dataset directory in sorted-name order. Nothing is
    opened: a FIFO would block. A dangling link fails its stat with an OSError
    naming it."""
    files = []
    for p in sorted(path.glob("*.csv")):
        if p.name == "labels.csv":
            continue
        mode = p.stat().st_mode
        if stat.S_ISDIR(mode):
            continue
        if not stat.S_ISREG(mode):
            raise FormatError(f"{p.name}: not a regular file")
        files.append(p)
    if not files:
        raise EmptyInputError(f"no sensor CSV files in {path}")
    return files


# The ingest cache: one file per dataset directory holding each sensor file's
# parsed arrays under the sha256 of the file's bytes. Its name must not match
# "*.csv", which Path.glob also matches against dotfiles. Layout, little-endian:
# magic, _cache_key() and the entry count (_CACHE_HEADER); per entry the
# file's sha256 and its record count (_CACHE_ENTRY); then per entry, in that
# order, its (int64 timestamp, float64 value) records (_RECORD_DTYPE) and a
# CRC32 over its index record and its records (u32). Anything that does not
# check out is a miss.
_CACHE_NAME = ".cs-smooth-ingest"
_CACHE_FORMAT = 1
_CACHE_MAGIC = b"csingest"
_CACHE_HEADER = struct.Struct("<8s32sQ")
_CACHE_ENTRY = struct.Struct("<32sQ")
_CRC = struct.Struct("<I")


def _cache_key() -> bytes | None:
    """sha256 of everything a parse depends on besides a file's bytes: the
    cache format, the Python and numpy versions and this module's source, where
    every ingest rule lives. None, and no cache, if the source cannot be read."""
    try:
        source = Path(__file__).read_bytes()
    except OSError:
        return None
    versions = f"{_CACHE_FORMAT}\0{sys.version}\0{np.__version__}\0".encode()
    return hashlib.sha256(versions + source).digest()


class _IngestCache:
    """A dataset directory's ingest cache: open for reading while a load runs,
    then rewritten if the load parsed any file."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.key = _cache_key()
        self._file = None
        self._entries: dict[bytes, tuple[int, int]] = {}  # digest -> (offset, record count)
        path = directory / _CACHE_NAME
        try:
            if self.key is None or not stat.S_ISREG(path.stat().st_mode):  # never open a FIFO
                return
            self._file = open(path, "rb", buffering=0)
            self._entries = self._index()
        except (OSError, struct.error):
            pass
        if not self._entries:
            self.close()

    def _index(self) -> dict[bytes, tuple[int, int]]:
        """Each entry's data offset and record count; empty unless the header
        carries this key and the entries fill the file exactly."""
        size = os.fstat(self._file.fileno()).st_size
        magic, key, count = _CACHE_HEADER.unpack(self._file.read(_CACHE_HEADER.size))
        offset = _CACHE_HEADER.size + count * _CACHE_ENTRY.size
        if magic != _CACHE_MAGIC or key != self.key or offset > size:
            return {}
        entries = {}
        index = self._file.read(offset - _CACHE_HEADER.size)
        for digest, count in _CACHE_ENTRY.iter_unpack(index):
            entries[digest] = (offset, count)
            offset += count * _RECORD_DTYPE.itemsize + _CRC.size
        return entries if offset == size else {}

    def series(self, digest: bytes, sensor_id: str) -> SensorSeries | None:
        """The cached series of a file whose bytes have sha256 ``digest``, or None."""
        entry = self._entries.get(digest)
        if entry is None:
            return None
        offset, count = entry
        records = np.empty(count, _RECORD_DTYPE)  # the layout a parse returns
        crc = bytearray(_CRC.size)
        self._file.seek(offset)
        for buffer in (records, crc):
            if self._file.readinto(buffer) != memoryview(buffer).nbytes:
                return None
        if _entry_crc(digest, records) != _CRC.unpack(crc)[0]:
            return None
        return SensorSeries(sensor_id=sensor_id, timestamps=records["t"], values=records["v"])

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def write(self, entries: dict[bytes, SensorSeries]) -> None:
        """Replace the cache with ``entries``, streamed one entry at a time
        into a temporary file that ``os.replace`` moves into place. A write
        that fails (read-only directory, full disk) leaves the old cache and
        no temporary file."""
        if self.key is None:
            return
        tmp = self.directory / f"{_CACHE_NAME}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
        try:
            with open(tmp, "xb") as out:
                out.write(_CACHE_HEADER.pack(_CACHE_MAGIC, self.key, len(entries)))
                for digest, s in entries.items():
                    out.write(_CACHE_ENTRY.pack(digest, len(s)))
                for digest, s in entries.items():
                    records = np.empty(len(s), _RECORD_DTYPE)
                    records["t"], records["v"] = s.timestamps, s.values
                    out.write(records)
                    out.write(_CRC.pack(_entry_crc(digest, records)))
            os.replace(tmp, self.directory / _CACHE_NAME)
        except OSError as exc:
            log.debug("ingest cache not written: %s", exc)
        finally:
            with contextlib.suppress(OSError):  # gone after os.replace
                tmp.unlink()


def _entry_crc(digest: bytes, records: np.ndarray) -> int:
    return zlib.crc32(records, zlib.crc32(_CACHE_ENTRY.pack(digest, len(records))))


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
        gaps = [_median(np.diff(s.timestamps.view(np.uint64))) for s in series if len(s) > 1]
        if not gaps:
            raise DegenerateInputError("cannot infer a grid interval from single-point series")
        interval = int(max(1, round(float(_median(np.array(gaps))))))
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
    ms, so instants far from zero stay apart. A series' values are
    interpolated times their _power_of_two_scales scale and the row divided by
    it again: no slope overflows, so any finite values align. A series whose
    samples within the grid span are its instants takes those samples, with the
    same scaling: np.interp's value at a knot is the knot's own.
    """
    series = tuple(series)
    with fits_in_memory(f"an aligned matrix of {grid.count} samples does not fit in memory"):
        instants = grid.instants()
        for s in series:
            if len(s) == 0:
                raise AlignmentError(f"sensor {s.sensor_id!r} has no samples")
            if s.timestamps[-1] < grid.start or s.timestamps[0] > grid.end:
                raise AlignmentError(
                    f"sensor {s.sensor_id!r} does not overlap the grid span "
                    f"[{grid.start}, {grid.end}]"
                )
        if not series:
            raise EmptyInputError("no series to align")
        data = np.empty((len(series), grid.count))
        offsets = _offsets(instants, grid.start)
        # Below 2**53 ms every offset is exact, so a sample is a knot at a grid
        # instant's offset exactly when its timestamp is that instant.
        exact = grid.end - grid.start < 2**53
        scales = _power_of_two_scales(*np.array([(s.values.min(), s.values.max()) for s in series]).T)
        for row, s, scale in zip(data, series, np.ones(len(series)) if scales is None else scales):
            values = s.values if scale == 1.0 else s.values * scale
            first = np.searchsorted(s.timestamps, grid.start)
            if exact and np.array_equal(s.timestamps[first : first + grid.count], instants):
                row[:] = values[first : first + grid.count]
            else:
                row[:] = np.interp(offsets, _offsets(s.timestamps, grid.start), values)
            if scale != 1.0:
                row /= scale
        return SensorMatrix(sensor_ids=tuple(s.sensor_id for s in series), grid=grid, data=data)


def _power_of_two_scales(lo, hi) -> np.ndarray | None:
    """Each row's exact scale from its minimum ``lo`` and maximum ``hi``, or None if
    all are 1. It is 1 where the row's largest magnitude m = max(-lo, hi) is 0
    or in [2^-400, 2^400), whose co-moments and interpolation slopes stay far
    from both ends of float64; else the power of two, at most 2^1023, that
    brings m into [0.5, 1). Multiplying by a power of two is exact and commutes
    with every later rounding: a scaled row gives the unscaled row's answer."""
    _, exponent = np.frexp(np.maximum(-lo, hi))  # m in [2^(e-1), 2^e); 0 gives e = 0
    if -399 <= exponent.min() and exponent.max() <= 400:
        return None
    outside = (exponent < -399) | (exponent > 400)
    return np.ldexp(1.0, np.where(outside, np.minimum(-exponent, 1023), 0))


def _median(a: np.ndarray) -> np.float64:
    """np.median of a 1-D array without NaN, bit for bit: the float64 mean of its
    middle one or two elements after the same np.partition. np.median's NaN check
    of float input imports numpy.ma, which no command needs otherwise."""
    half, odd = divmod(a.size, 2)
    kth = [half] if odd else [half - 1, half]
    if a.dtype.kind == "f":
        kth.append(-1)  # np.median's partition places the NaN candidate too
    return np.mean(np.partition(a, kth)[half - 1 + odd : half + 1])


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
    if spec.length_samples > matrix.n_samples:
        return
    wl, data = spec.length_samples, matrix.data
    for s, start, end in zip(*(map(int, a) for a in _window_geometry(matrix, spec))):
        before = data[:, s - 1] if s > 0 else None
        yield Window(matrix.sensor_ids, data[:, s : s + wl], before, start, end)


def _window_geometry(
    matrix: SensorMatrix, spec: WindowSpec, first: int = 0, stop: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Start columns of windows ``first``..``stop - 1`` of windows(matrix, spec) and
    the grid instants of their first and last samples; none is a DegenerateInputError.
    int64 arithmetic wraps modulo 2**64, so an instant is exact when it fits."""
    starts = np.asarray(spec.starts(matrix.n_samples)[first:stop], dtype=np.int64)
    if not len(starts):
        raise DegenerateInputError("no complete windows fit the data; shrink the window")
    t0, dt = matrix.grid.start, matrix.grid.interval
    return starts, t0 + dt * starts, t0 + dt * (starts + spec.length_samples - 1)


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
