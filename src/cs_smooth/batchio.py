"""File formats: signature batch CSV, labels CSV, report CSVs, PGM images.

A signature batch holds one signature per row: window_start, window_end, then
the real block values and (for complex signatures) the imaginary block values.
Baseline signatures use the same layout without the imaginary columns.
"""

from __future__ import annotations

import csv
import itertools
from collections.abc import Iterable, Sequence
from pathlib import Path
from typing import IO

import numpy as np

from .cs import SignatureBatch
from .errors import EmptyInputError, FormatError, utf8_text

_INT64 = np.iinfo(np.int64)


def write_signature_batch(sink: IO | str | Path, batch: SignatureBatch) -> int:
    """Write a batch as CSV, one signature per row; returns the row count."""
    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="utf-8", newline="") as fh:
            return write_signature_batch(fh, batch)
    if batch.n_signatures == 0:
        raise EmptyInputError("no signatures to write")
    width = batch.n_blocks
    header = ["window_start", "window_end", *(f"real_{i}" for i in range(1, width + 1))]
    if batch.imag is not None:
        header += [f"imag_{i}" for i in range(1, width + 1)]
    sink.write(",".join(header) + "\r\n")
    # CSV as csv.writer writes it: shortest round-trip reprs, CRLF line ends and
    # no quoting (no field holds a comma or quote). Rows are boxed one at a time.
    imag = itertools.repeat(None) if batch.imag is None else batch.imag
    for start, end, real_row, imag_row in zip(
        batch.window_starts.tolist(), batch.window_ends.tolist(), batch.real, imag
    ):
        fields = [str(start), str(end), *map(repr, real_row.tolist())]
        if imag_row is not None:
            fields += map(repr, imag_row.tolist())
        sink.write(",".join(fields) + "\r\n")
    return batch.n_signatures


@utf8_text("batch file")
def read_signature_batch(source: IO | str | Path) -> SignatureBatch:
    """Read a batch file back into columnar arrays."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return read_signature_batch(fh)
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyInputError("signature batch file is empty") from None
    if header[:2] != ["window_start", "window_end"]:
        raise FormatError("batch header must start with window_start,window_end")
    n_real = sum(1 for name in header if name.startswith("real_"))
    n_imag = sum(1 for name in header if name.startswith("imag_"))
    if n_real == 0 or len(header) != 2 + n_real + n_imag:
        raise FormatError("batch header does not declare real_*/imag_* columns")
    if n_imag not in (0, n_real):
        raise FormatError("imaginary column count must match real column count")
    starts, ends, rows, linenos = [], [], [], []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise FormatError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
        try:
            starts.append(int(row[0]))
            ends.append(int(row[1]))
            rows.append([float(v) for v in row[2:]])
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
        if not (_INT64.min <= starts[-1] <= _INT64.max and _INT64.min <= ends[-1] <= _INT64.max):
            raise FormatError(f"line {lineno}: window instants must fit in int64")
        linenos.append(lineno)
    if not rows:
        raise EmptyInputError("signature batch holds no rows")
    table = np.array(rows, dtype=np.float64)
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        raise FormatError(f"line {linenos[finite.argmin()]}: non-finite block value")
    return SignatureBatch(
        window_starts=np.array(starts, dtype=np.int64),
        window_ends=np.array(ends, dtype=np.int64),
        real=table[:, :n_real],
        imag=table[:, n_real:] if n_imag else None,
    )


@utf8_text("labels file")
def read_labels_csv(source: IO | str | Path) -> dict[int, str]:
    """Read a labels file: header then one "window_start,label" row per window."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return read_labels_csv(fh)
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyInputError("labels file is empty") from None
    if [h.strip() for h in header[:2]] != ["window_start", "label"]:
        raise FormatError("labels header must be window_start,label")
    labels: dict[int, str] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 2:
            raise FormatError(f"line {lineno}: expected 2 fields, got {len(row)}")
        try:
            start = int(row[0])
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
        if start in labels:
            raise FormatError(f"line {lineno}: duplicate label for window_start {start}")
        labels[start] = row[1].strip()
    if not labels:
        raise EmptyInputError("labels file holds no rows")
    return labels


def write_csv_report(
    sink: IO | str | Path, header: Sequence[str], rows: Iterable[Sequence]
) -> None:
    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="utf-8", newline="") as fh:
            write_csv_report(fh, header, rows)
        return
    writer = csv.writer(sink)
    writer.writerow(list(header))
    for row in rows:
        writer.writerow(list(row))


def write_pgm(sink: IO | str | Path, pixels: np.ndarray) -> None:
    """Write an 8-bit grayscale image as binary PGM (P5)."""
    if isinstance(sink, (str, Path)):
        with open(sink, "wb") as fh:
            write_pgm(fh, pixels)
        return
    img = np.asarray(pixels)
    if img.ndim != 2 or img.dtype != np.uint8:
        raise FormatError("PGM writer expects a 2-D uint8 array")
    height, width = img.shape
    sink.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
    sink.write(img.tobytes())


def read_pgm(source: IO | str | Path) -> np.ndarray:
    """Read a binary PGM (P5) image back into a 2-D uint8 array."""
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            return read_pgm(fh)
    data = source.read()
    fields: list[bytes] = []
    pos = 0
    while len(fields) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError("PGM header is truncated")
        fields.append(data[start:pos])
    if fields[0] != b"P5":
        raise FormatError("not a binary PGM (P5) file")
    if not all(f.isdigit() for f in fields[1:]):
        raise FormatError("PGM width, height and maxval must be unsigned integers")
    width, height, maxval = (int(f) for f in fields[1:])
    if maxval != 255:
        raise FormatError(f"unsupported PGM maxval {maxval}")
    pos += 1
    raster = np.frombuffer(data[pos : pos + width * height], dtype=np.uint8)
    if raster.size != width * height:
        raise FormatError("PGM raster is truncated")
    return raster.reshape(height, width)
