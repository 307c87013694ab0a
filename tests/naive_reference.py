"""Brute-force reference implementation used as an independent oracle.

Everything here is deliberately written with plain Python loops over lists,
materializing every intermediate matrix, so tests compare the production
(vectorized) path against a second, independent derivation of the same math.
"""

from __future__ import annotations

import math


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
