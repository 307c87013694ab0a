"""Compression fidelity via 2-D Jensen-Shannon divergence.

Joint distributions over hundreds of sensor dimensions are intractable, so
both the original (sorted, normalized) data and the signature set are
collapsed to a (dimension x value-bin) probability mass: per-dimension value
histograms, each carrying 1/n of the total mass. The base-2 divergence between
two such distributions lies in [0, 1]; lower means higher similarity.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import SensorMatrix, WindowSpec
from . import cs
from .cs import BlockLayout, CSModel, Signature, compute_signature_batches
# perfbench/spans.py times these under this module's names.
from .cs import compute_signature, sort_normalize  # noqa: F401
from .errors import (
    DegenerateInputError, IncompatibilityError, InvalidParameterError, fits_in_memory,
)

DEFAULT_BINS = 100


@dataclass(frozen=True)
class Histogram2D:
    """(dimension x value-bin) probability mass; every dimension holds 1/n."""

    value_range: tuple[float, float]
    mass: np.ndarray

    def __post_init__(self):
        mass = np.asarray(self.mass, dtype=np.float64)
        mass.flags.writeable = False
        object.__setattr__(self, "mass", mass)
        object.__setattr__(
            self, "value_range", (float(self.value_range[0]), float(self.value_range[1]))
        )


@dataclass(frozen=True)
class FidelityComponents:
    """Divergences of the value and derivative comparisons, plus their mean."""

    js_real: float
    js_imag: float

    @property
    def js_mean(self) -> float:
        return (self.js_real + self.js_imag) / 2.0


def build_distribution(
    matrix: np.ndarray, bins: int, value_range: tuple[float, float]
) -> Histogram2D:
    """Histogram each row uniformly over ``value_range`` into a Histogram2D.

    Values outside the range are clamped into the edge bins; each row's
    histogram is normalized to total 1/n (n rows) so the whole mass sums to one.
    """
    data = np.asarray(matrix, dtype=np.float64)
    if data.ndim != 2 or data.size == 0:
        raise DegenerateInputError("distribution needs a non-empty 2-D matrix")
    if bins < 1:
        raise InvalidParameterError(f"bin count must be >= 1, got {bins}")
    lo, hi = float(value_range[0]), float(value_range[1])
    if not hi > lo:
        raise DegenerateInputError(f"value range must satisfy hi > lo, got ({lo}, {hi})")
    n, width = data.shape
    mass = _bin_counts(data, bins, lo, hi) / (width * n)
    return Histogram2D(value_range=(lo, hi), mass=mass)


def _bin_counts(values: np.ndarray, bins: int, lo: float, hi: float, out=None) -> np.ndarray:
    """Per-row counts (rows x bins) of ``values`` binned uniformly over [lo, hi].

    Values outside the range are clamped into the edge bins; the right edge
    joins the last bin. The clamped values go into ``out`` (``values`` itself
    to work in place) or one new array, which is scaled in place.
    """
    scaled = np.clip(values, lo, hi, out=out)
    scaled -= lo
    scaled *= bins / (hi - lo)
    idx = scaled.astype(np.int64)
    np.minimum(idx, bins - 1, out=idx)
    # Row r's bin b is counted at flat index r * bins + b.
    rows = len(idx)
    idx += bins * np.arange(rows)[:, None]
    return np.bincount(idx.ravel(order="K"), minlength=rows * bins).reshape(rows, bins)


def expand_signatures(
    signatures: Sequence[Signature], n_rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """Expand signature blocks back to sensor rows by nearest-block assignment.

    Returns (real matrix, imag matrix), each n_rows x len(signatures): one
    column per signature, with each sensor row taking the value of the block
    whose range contains it (the earlier block wins on overlaps and gaps).
    """
    if not signatures:
        raise DegenerateInputError("no signatures to expand")
    layout = signatures[0].layout
    for sig in signatures[1:]:
        if sig.layout != layout:
            raise IncompatibilityError("signatures use different block layouts")
    if n_rows < layout.n_blocks:
        raise IncompatibilityError(
            f"cannot expand {layout.n_blocks} blocks onto {n_rows} rows"
        )
    assignment = _row_to_block(layout, n_rows)
    real = np.stack([sig.blocks_real[assignment] for sig in signatures], axis=1)
    imag = np.stack([sig.blocks_imag[assignment] for sig in signatures], axis=1)
    return real, imag


def _row_to_block(layout: BlockLayout, n_rows: int) -> np.ndarray:
    firsts = np.array([b for b, _ in layout.ranges], dtype=np.float64)
    lasts = np.array([e for _, e in layout.ranges], dtype=np.float64)
    rows = np.arange(1, n_rows + 1, dtype=np.float64)[:, None]
    # Distance zero inside a block; ties and uncovered rows go to the earliest
    # block, which also realizes the overlap rule for shared boundary sensors.
    dist = np.maximum(firsts[None, :] - rows, 0) + np.maximum(rows - lasts[None, :], 0)
    return np.argmin(dist, axis=1)


def js_divergence(p: Histogram2D, q: Histogram2D) -> float:
    """Base-2 Jensen-Shannon divergence between two Histogram2D, in [0, 1]."""
    if p.mass.shape != q.mass.shape or p.value_range != q.value_range:
        raise IncompatibilityError(
            "histograms must share shape and value range to be compared"
        )
    mid = (p.mass + q.mass) / 2.0
    div = _entropy(mid) - (_entropy(p.mass) + _entropy(q.mass)) / 2.0
    return float(min(1.0, max(0.0, div)))


def _entropy(mass: np.ndarray) -> float:
    flat = mass.ravel()
    nz = flat[flat > 0]
    return float(-(nz * np.log2(nz)).sum())


def fidelity_table(
    original: SensorMatrix,
    model: CSModel,
    spec: WindowSpec,
    block_counts: Sequence[int],
    bins: int = DEFAULT_BINS,
) -> list[FidelityComponents]:
    """Compare signature sets against the data they compress, one per block count.

    Runs the comparison twice: real parts against the sorted+normalized
    original values over (0,1), imaginary parts against their first
    differences over (-1,1); signature columns are expanded back to n rows
    first. Lower is better; 0 means indistinguishable up to binning.

    The same numbers as build_distribution and js_divergence over
    sort_normalize and expand_signatures, without their n x t and n x windows
    copies: every block count comes from one kernel pass, the original rows are
    binned once and their counts put in permutation order, and each count's
    l block rows are binned once and their counts gathered to the n rows that
    expansion would give them. Bins and every block count are checked before
    any histogram work.
    """
    if bins < 1:
        raise InvalidParameterError(f"bin count must be >= 1, got {bins}")
    n, t = original.data.shape
    with fits_in_memory(f"{bins} bins per sensor do not fit in memory"):
        values, derivs = np.empty((2, n, bins), dtype=np.int64)
    batches = compute_signature_batches(original, model, spec, block_counts)
    # Original side: rows in chunks of about cs._CHUNK_VALUES values, sharing two
    # buffers that are binned in place; count rows then go to permutation order.
    # The first column stands in for the one before it, so its difference is 0.
    # (rows, 1) bounds broadcast: on rows this wide, repeated ones only add traffic.
    data, (lo, denom) = original.data, model._scaling
    per_chunk = min(n, max(1, cs._CHUNK_VALUES // (t + 1)))
    norm_buf, diff_buf = np.empty((per_chunk, t + 1)), np.empty((per_chunk, t))
    for start in range(0, n, per_chunk):
        rows = slice(start, start + per_chunk)
        norm = norm_buf[: n - start]
        norm[:, 0] = data[rows, 0]
        norm[:, 1:] = data[rows]
        cs._normalize(norm, lo[rows, None], denom[rows, None])
        diff = np.subtract(norm[:, 1:], norm[:, :-1], out=diff_buf[: n - start])
        values[rows] = _bin_counts(norm[:, 1:], bins, 0.0, 1.0, out=norm[:, 1:])
        derivs[rows] = _bin_counts(diff, bins, -1.0, 1.0, out=diff)
    p = model.permutation
    p_vals = Histogram2D((0.0, 1.0), values[p] / (t * n))
    p_derivs = Histogram2D((-1.0, 1.0), derivs[p] / (t * n))
    # Signature side: an expanded row holds its block's values, so it has its
    # block's counts.
    table = []
    for n_blocks, batch in zip(block_counts, batches):
        assignment = _row_to_block(cs.block_layout(n, n_blocks), n)
        total = batch.n_signatures * n
        q_vals = _bin_counts(batch.real.T, bins, 0.0, 1.0)[assignment] / total
        q_derivs = _bin_counts(batch.imag.T, bins, -1.0, 1.0)[assignment] / total
        table.append(FidelityComponents(
            js_real=js_divergence(p_vals, Histogram2D((0.0, 1.0), q_vals)),
            js_imag=js_divergence(p_derivs, Histogram2D((-1.0, 1.0), q_derivs)),
        ))
    return table


def fidelity_components(
    original: SensorMatrix,
    model: CSModel,
    spec: WindowSpec,
    n_blocks: int,
    bins: int = DEFAULT_BINS,
) -> FidelityComponents:
    """fidelity_table for one block count."""
    return fidelity_table(original, model, spec, (n_blocks,), bins)[0]

