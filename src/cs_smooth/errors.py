"""Exception taxonomy shared by all cs_smooth modules.

Every exception carries a short machine-readable ``code`` so the CLI can emit
single-line, parsable error reasons. ``opened`` opens what each reader and
writer is given: a ``PathOrStream``. ``fits_in_memory`` guards every
allocation whose size a caller chooses.
"""

from __future__ import annotations

import contextlib
from pathlib import Path
from typing import IO


class CsSmoothError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"


class ParseError(CsSmoothError):
    """Malformed text input (CSV line, model file field)."""

    code = "parse"

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class RejectedValueError(CsSmoothError):
    """Input contained a non-finite or otherwise inadmissible value."""

    code = "rejected-value"


class EmptyInputError(CsSmoothError):
    """A source that must contain at least one record was empty."""

    code = "empty-input"


class AlignmentError(CsSmoothError):
    """A series cannot be placed on the requested time grid."""

    code = "alignment"


class DegenerateInputError(CsSmoothError):
    """Input too small or too flat for the requested operation."""

    code = "degenerate-input"


class ModelIncompatibilityError(CsSmoothError):
    """Window sensors do not match the sensors the model was trained on."""

    code = "model-incompatible"


class InvalidBlockCountError(CsSmoothError):
    """Requested block count outside [1, sensor count]."""

    code = "invalid-block-count"


class DimensionError(CsSmoothError):
    """Matrix shapes do not agree."""

    code = "dimension"


class UnsupportedVersionError(CsSmoothError):
    """Model file written by an unknown format version."""

    code = "unsupported-version"


class FormatError(CsSmoothError):
    """File does not conform to its declared format."""

    code = "format"


PathOrStream = IO | str | Path


@contextlib.contextmanager
def opened(target: PathOrStream, what: str, mode: str, **options):
    """Yield ``target`` if it is an open stream, else the file it names, opened
    with ``mode`` (UTF-8 in text modes) and ``options``. Either way a
    UnicodeDecodeError inside the block becomes a FormatError naming ``what``."""
    try:
        if isinstance(target, (str, Path)):
            encoding = None if "b" in mode else "utf-8"
            with open(target, mode, encoding=encoding, **options) as stream:
                yield stream
        else:
            yield target
    except UnicodeDecodeError as exc:
        raise FormatError(
            f"{what} is not UTF-8 text: byte {exc.object[exc.start]:#04x} ({exc.reason})"
        ) from None


@contextlib.contextmanager
def fits_in_memory(message: str):
    """Turn an allocation that fails inside the block into InvalidParameterError(message):
    a MemoryError, or the ValueError numpy raises for more bytes than an array can address."""
    try:
        yield
    except (MemoryError, ValueError):
        raise InvalidParameterError(message) from None


class IncompatibilityError(CsSmoothError):
    """Two objects that must share shape/layout/range do not."""

    code = "incompatible"


class InvalidParameterError(CsSmoothError):
    """Parameter value violates an operation's contract."""

    code = "invalid-parameter"


class StratificationError(CsSmoothError):
    """A class has too few members for the requested fold count."""

    code = "stratification"


class TaskError(CsSmoothError):
    """Labels do not match the declared prediction task."""

    code = "task"


class PredictorError(CsSmoothError):
    """A pluggable predictor failed during cross-validation."""

    code = "predictor"


class LabelMismatchError(CsSmoothError):
    """Signature batch and labels file do not describe the same windows."""

    code = "label-mismatch"
