"""Brute-force reference implementation used as an independent oracle.

Everything here is deliberately written with plain Python loops over lists,
materializing every intermediate matrix, so tests compare the production
(vectorized) path against a second, independent derivation of the same math.
The ``reference_*`` functions are the exception: they keep an earlier numpy
form of the training maths, which production code must match bit for bit.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def naive_correlation(data: list[list[float]]) -> tuple[list[list[float]], list[float]]:
    """Shifted pairwise Pearson coefficients and per-row global means.

    Each row is first shifted by its own first sample, which leaves every
    coefficient unchanged in exact arithmetic but keeps the centring exact on
    rows with a large offset and small spread.
    """
    n = len(data)
    t = len(data[0])
    data = [[v - row[0] for v in row] for row in data]
    means = [sum(row) / t for row in data]
    sds = []
    for i, row in enumerate(data):
        var = sum((v - means[i]) ** 2 for v in row) / t
        sds.append(math.sqrt(var))
    pairwise = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                pairwise[i][j] = 2.0
                continue
            if sds[i] == 0.0 or sds[j] == 0.0:
                pairwise[i][j] = 1.0
                continue
            cov = sum(
                (data[i][k] - means[i]) * (data[j][k] - means[j]) for k in range(t)
            ) / t
            r = cov / (sds[i] * sds[j])
            r = max(-1.0, min(1.0, r))
            pairwise[i][j] = r + 1.0
    if n == 1:
        global_coeffs = [2.0]
    else:
        global_coeffs = [
            sum(pairwise[i][j] for j in range(n) if j != i) / (n - 1) for i in range(n)
        ]
    return pairwise, global_coeffs


def naive_permutation(pairwise: list[list[float]], global_coeffs: list[float]) -> list[int]:
    """Greedy ordering: max global first, then max (pair with last) x global."""
    n = len(global_coeffs)
    remaining = list(range(n))
    best = remaining[0]
    for k in remaining[1:]:
        if global_coeffs[k] > global_coeffs[best]:
            best = k
    perm = [best]
    remaining.remove(best)
    while remaining:
        last = perm[-1]
        best = remaining[0]
        best_score = pairwise[best][last] * global_coeffs[best]
        for k in remaining[1:]:
            score = pairwise[k][last] * global_coeffs[k]
            if score > best_score:
                best, best_score = k, score
        perm.append(best)
        remaining.remove(best)
    return perm


def naive_train(data: list[list[float]]) -> tuple[list[int], list[float], list[float]]:
    pairwise, global_coeffs = naive_correlation(data)
    perm = naive_permutation(pairwise, global_coeffs)
    lo = [min(row) for row in data]
    hi = [max(row) for row in data]
    return perm, lo, hi


# The training maths of cs before its row-blocked rewrite: one whole-array
# pass per step and a transposed score matrix for the greedy order.


def reference_comoments(raw: np.ndarray, shift: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    centered = raw - shift
    mean = centered.mean(axis=1)
    centered -= mean[:, None]
    return mean, centered @ centered.T


def reference_correlation_stats(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    sd = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    flat = sd == 0.0
    denom = np.where(flat, 1.0, sd)
    corr = cov / np.outer(denom, denom)
    corr[flat, :] = 0.0
    corr[:, flat] = 0.0
    pairwise = np.clip(corr, -1.0, 1.0) + 1.0
    np.fill_diagonal(pairwise, 2.0)
    n = len(pairwise)
    if n == 1:
        global_coeffs = np.array([2.0])
    else:
        global_coeffs = (pairwise.sum(axis=1) - 2.0) / (n - 1)
    return pairwise, global_coeffs


def reference_greedy_order(pairwise: np.ndarray, global_coeffs: np.ndarray) -> np.ndarray:
    scores = (pairwise * global_coeffs[:, None]).T.copy()
    order = np.empty(len(global_coeffs), dtype=np.int64)
    current = int(np.argmax(global_coeffs))
    for k in range(len(order)):
        order[k] = current
        scores[:, current] = -np.inf
        current = int(scores[current].argmax())
    return order


def reference_train(data: np.ndarray) -> dict[str, np.ndarray]:
    """Every intermediate of batch training: means, co-moments, correlation,
    permutation and bounds."""
    mean, comoment = reference_comoments(data, data[:, :1])
    pairwise, global_coeffs = reference_correlation_stats(comoment / data.shape[1])
    return dict(
        mean=mean,
        comoment=comoment,
        pairwise=pairwise,
        global_coeffs=global_coeffs,
        permutation=reference_greedy_order(pairwise, global_coeffs),
        lower_bounds=data.min(axis=1),
        upper_bounds=data.max(axis=1),
    )


def reference_prefix_models(data, ends, per_segment, order_stands):
    """(permutation, lower bounds, upper bounds) for each prefix end, merged
    segment by segment as prefix_models merges them. ``order_stands(pairwise,
    global_coeffs, order)`` is prefix_models' margin test; where it fails,
    the prefix is trained in one batch instead."""
    n = data.shape[0]
    shift = data[:, :1]
    count, mean, comoment = 0, np.zeros(n), np.zeros((n, n))
    lo, hi = np.full(n, np.inf), np.full(n, -np.inf)
    models = []
    for end in ends:
        for first in range(count, end, per_segment):
            raw = data[:, first : min(first + per_segment, end)]
            lo = np.minimum(lo, raw.min(axis=1))
            hi = np.maximum(hi, raw.max(axis=1))
            seg_mean, seg_comoment = reference_comoments(raw, shift)
            width = raw.shape[1]
            delta = seg_mean - mean
            total = count + width
            comoment += seg_comoment
            comoment += np.outer(delta, delta) * (count * width / total)
            mean += delta * (width / total)
            count = total
        pairwise, global_coeffs = reference_correlation_stats(comoment / count)
        order = reference_greedy_order(pairwise, global_coeffs)
        if not order_stands(pairwise, global_coeffs, order):
            order = reference_train(data[:, :count])["permutation"]
        models.append((order, lo, hi))
    return models


def naive_align(
    series: list[tuple[list[int], list[float]]], start: int, interval: int, count: int
) -> list[list[Fraction]]:
    """Each (timestamps, values) series at the grid instants start + k interval,
    exactly: the bracketing samples are found by integer comparison and the
    linear interpolation between them is taken in Fractions. Instants before or
    after a series' span take its first or last value."""
    rows = []
    for timestamps, values in series:
        row = []
        for k in range(count):
            t = start + k * interval
            if t <= timestamps[0]:
                row.append(Fraction(values[0]))
                continue
            if t >= timestamps[-1]:
                row.append(Fraction(values[-1]))
                continue
            j = max(i for i, ts in enumerate(timestamps) if ts <= t)
            t0, t1 = timestamps[j], timestamps[j + 1]
            v0, v1 = Fraction(values[j]), Fraction(values[j + 1])
            row.append(v0 + (v1 - v0) * Fraction(t - t0, t1 - t0))
        rows.append(row)
    return rows


def naive_signature(
    values: list[list[float]],
    preceding: list[float] | None,
    perm: list[int],
    lo: list[float],
    hi: list[float],
    n_blocks: int,
) -> tuple[list[float], list[float]]:
    """Normalize, differentiate, permute and block-average one window."""
    n = len(values)
    w = len(values[0])

    def norm(i: int, v: float) -> float:
        if hi[i] == lo[i]:
            return 0.0
        return max(0.0, min(1.0, (v - lo[i]) / (hi[i] - lo[i])))

    normalized = [[norm(i, v) for v in values[i]] for i in range(n)]
    derivative = [[0.0] * w for _ in range(n)]
    for i in range(n):
        if preceding is not None:
            derivative[i][0] = normalized[i][0] - norm(i, preceding[i])
        for k in range(1, w):
            derivative[i][k] = normalized[i][k] - normalized[i][k - 1]
    sorted_norm = [normalized[p] for p in perm]
    sorted_deriv = [derivative[p] for p in perm]

    real, imag = [], []
    for i in range(1, n_blocks + 1):
        b = 1 + (i - 1) * n // n_blocks
        e = math.ceil(i * n / n_blocks)
        count = (e - b + 1) * w
        real.append(sum(sum(sorted_norm[j]) for j in range(b - 1, e)) / count)
        imag.append(sum(sum(sorted_deriv[j]) for j in range(b - 1, e)) / count)
    return real, imag


def _percentile(ordered: list[float], q: float) -> float:
    """Linear interpolation between the closest ranks of a sorted row."""
    pos = q / 100.0 * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


def naive_tuncer(values: list[list[float]]) -> list[float]:
    """Per row: mean, population std, min, max, percentiles 5/25/50/75/95, sum
    of changes, absolute sum of changes; rows concatenated in order."""
    out = []
    for row in values:
        w = len(row)
        mean = sum(row) / w
        std = math.sqrt(sum((v - mean) ** 2 for v in row) / w)
        ordered = sorted(row)
        changes = [row[k] - row[k - 1] for k in range(1, w)]
        out += [mean, std, ordered[0], ordered[-1]]
        out += [_percentile(ordered, q) for q in (5, 25, 50, 75, 95)]
        out += [sum(changes), sum(abs(c) for c in changes)]
    return out


def naive_bodik(values: list[list[float]]) -> list[float]:
    """Per row: min, max, percentiles 5/25/35/50/65/75/95; rows concatenated."""
    out = []
    for row in values:
        ordered = sorted(row)
        out += [ordered[0], ordered[-1]]
        out += [_percentile(ordered, q) for q in (5, 25, 35, 50, 65, 75, 95)]
    return out


def naive_lan(values: list[list[float]], subsample_len: int) -> list[float]:
    """Each row cut into ``subsample_len`` contiguous chunks, sizes differing by
    at most one with the larger first, and each chunk replaced by its mean."""
    out = []
    for row in values:
        size, extra = divmod(len(row), subsample_len)
        pos = 0
        for j in range(subsample_len):
            chunk = row[pos : pos + size + (1 if j < extra else 0)]
            out.append(sum(chunk) / len(chunk))
            pos += len(chunk)
    return out


def naive_kfold(labels, classification: bool, k: int, seed: int) -> list[list[int]]:
    """Fold row indices, dealt one class after another in ``repr`` order.

    The rows are shuffled from ``seed``; each class's rows keep that shuffled
    order and the running position deals them round-robin into k folds, so
    per-class counts differ by at most one between folds. Regression rows are
    dealt in shuffled order. Too few rows, or a class with fewer than k rows
    (the first such in shuffled order), raise ValueError with the library's text.
    """
    if len(labels) < k:
        raise ValueError(f"{len(labels)} rows cannot fill {k} folds")
    shuffled = np.random.default_rng(seed).permutation(len(labels)).tolist()
    folds: list[list[int]] = [[] for _ in range(k)]
    if not classification:
        for pos, idx in enumerate(shuffled):
            folds[pos % k].append(idx)
        return [sorted(f) for f in folds]
    by_class: dict = {}
    for idx in shuffled:
        by_class.setdefault(labels[idx], []).append(idx)
    for label, members in by_class.items():
        if len(members) < k:
            raise ValueError(f"class {label!r} has {len(members)} members, needs >= {k}")
    cursor = 0
    for label in sorted(by_class, key=repr):
        for idx in by_class[label]:
            folds[cursor % k].append(idx)
            cursor += 1
    return [sorted(f) for f in folds]
