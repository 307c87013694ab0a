"""File formats: signature batch CSV, labels CSV, report CSVs, PGM images.

A signature batch holds one signature per row: window_start, window_end, then
the real block values and (for complex signatures) the imaginary block values.
Baseline signatures use the same layout without the imaginary columns.
"""

from __future__ import annotations

import csv
import itertools
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from .cs import SignatureBatch
from .errors import EmptyInputError, FormatError, PathOrStream, opened

_INT64 = range(np.iinfo(np.int64).min, np.iinfo(np.int64).max + 1)


def _batch_header(n_blocks: int, imaginary: bool) -> list[str]:
    """window_start,window_end,real_1..real_l[,imag_1..imag_l]: the one batch header."""
    parts = ("real", "imag") if imaginary else ("real",)
    blocks = range(1, n_blocks + 1)
    return ["window_start", "window_end", *(f"{p}_{i}" for p in parts for i in blocks)]


def write_signature_batch(sink: PathOrStream, batch: SignatureBatch) -> int:
    """Write a batch as CSV, one signature per row; returns the row count."""
    if batch.n_signatures == 0:
        raise EmptyInputError("no signatures to write")
    header = _batch_header(batch.n_blocks, batch.imag is not None)
    with opened(sink, "batch file", "w", newline="") as stream:
        stream.write(",".join(header) + "\r\n")
        # CSV as csv.writer writes it: shortest round-trip reprs, CRLF line ends and
        # no quoting (no field holds a comma or quote). Rows are boxed one at a time.
        imag = itertools.repeat(None) if batch.imag is None else batch.imag
        for start, end, real_row, imag_row in zip(
            batch.window_starts.tolist(), batch.window_ends.tolist(), batch.real, imag
        ):
            fields = [str(start), str(end), *map(repr, real_row.tolist())]
            if imag_row is not None:
                fields += map(repr, imag_row.tolist())
            stream.write(",".join(fields) + "\r\n")
    return batch.n_signatures


def _table(lines: Iterable[str], what: str) -> tuple[list[str], Iterator[tuple[int, list[str]]]]:
    """A CSV table's header and its non-empty rows, each with its line number;
    a file without even a header is an EmptyInputError naming ``what``."""
    reader = csv.reader(lines)
    header = next(reader, None)
    if header is None:
        raise EmptyInputError(f"{what} is empty")
    return header, ((lineno, row) for lineno, row in enumerate(reader, start=2) if row)


def read_signature_batch(source: PathOrStream) -> SignatureBatch:
    """Read a batch file back into columnar arrays."""
    with opened(source, "batch file", "r", newline="") as stream:
        header, records = _table(stream, "signature batch file")
        n_real = sum(1 for name in header if name.startswith("real_"))
        imaginary = len(header) > 2 + n_real
        if n_real == 0 or header != _batch_header(n_real, imaginary):
            raise FormatError(
                "batch header must be window_start,window_end,real_1..real_l[,imag_1..imag_l]"
            )
        starts, ends, rows, linenos = [], [], [], []
        for lineno, row in records:
            if len(row) != len(header):
                raise FormatError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
            try:
                starts.append(int(row[0]))
                ends.append(int(row[1]))
                rows.append([float(v) for v in row[2:]])
            except ValueError as exc:
                raise FormatError(f"line {lineno}: {exc}") from None
            if starts[-1] not in _INT64 or ends[-1] not in _INT64:
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
        imag=table[:, n_real:] if imaginary else None,
    )


def read_labels_csv(source: PathOrStream) -> dict[int, str]:
    """Read a labels file: header then one "window_start,label" row per window."""
    with opened(source, "labels file", "r", newline="") as stream:
        header, records = _table(stream, "labels file")
        if [h.strip() for h in header] != ["window_start", "label"]:
            raise FormatError("labels header must be window_start,label")
        labels: dict[int, str] = {}
        for lineno, row in records:
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
    sink: PathOrStream, header: Sequence[str], rows: Iterable[Sequence]
) -> None:
    with opened(sink, "report", "w", newline="") as stream:
        writer = csv.writer(stream)
        writer.writerow(list(header))
        for row in rows:
            writer.writerow(list(row))


def write_pgm(sink: PathOrStream, pixels: np.ndarray) -> None:
    """Write an 8-bit grayscale image as binary PGM (P5)."""
    img = np.asarray(pixels)
    if img.ndim != 2 or img.dtype != np.uint8:
        raise FormatError("PGM writer expects a 2-D uint8 array")
    height, width = img.shape
    with opened(sink, "PGM image", "wb") as stream:
        stream.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        stream.write(img.tobytes())
