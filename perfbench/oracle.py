"""Output checks for the benchmark, with an independent brute-force oracle.

The signature oracle follows the math of ``tests/naive_reference.py`` with
plain Python loops over lists, so a sampled signature row is recomputed
without any of the program's vectorised code. Every check returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from workloads import INTERVAL_MS

TOLERANCE = 1e-9


def naive_signature(values, preceding, perm, lo, hi, n_blocks):
    """Normalize, differentiate, permute and block-average one window."""
    n = len(values)
    w = len(values[0])

    def norm(i, v):
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


def window_signature(data: np.ndarray, start: int, width: int, model: dict, n_blocks: int):
    """Oracle signature of the window of ``data`` starting at column ``start``."""
    values = data[:, start : start + width].tolist()
    preceding = data[:, start - 1].tolist() if start > 0 else None
    return naive_signature(
        values, preceding, model["permutation"], model["lower_bounds"],
        model["upper_bounds"], n_blocks,
    )


def naive_train(data: np.ndarray) -> dict:
    """Greedy correlation ordering plus min/max bounds, loops over a corrcoef matrix."""
    n = data.shape[0]
    flat = (data.max(axis=1) == data.min(axis=1)).tolist()
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = np.atleast_2d(np.corrcoef(data)).tolist()
    pairwise = [
        [
            2.0 if i == j else 1.0 if flat[i] or flat[j]
            else max(-1.0, min(1.0, corr[i][j])) + 1.0
            for j in range(n)
        ]
        for i in range(n)
    ]
    if n == 1:
        coeffs = [2.0]
    else:
        coeffs = [(sum(row) - 2.0) / (n - 1) for row in pairwise]
    remaining = list(range(n))
    best = max(remaining, key=lambda k: (coeffs[k], -k))
    perm = [best]
    remaining.remove(best)
    while remaining:
        last = perm[-1]
        best = max(remaining, key=lambda k: (pairwise[k][last] * coeffs[k], -k))
        perm.append(best)
        remaining.remove(best)
    return {
        "permutation": perm,
        "lower_bounds": data.min(axis=1).tolist(),
        "upper_bounds": data.max(axis=1).tolist(),
    }


def check_model(model: dict, ids: tuple[str, ...], data: np.ndarray) -> list[str]:
    """Permutation is a bijection; bounds equal the per-row min/max of ``data``."""
    problems = []
    if tuple(model.get("sensor_ids", ())) != ids:
        problems.append("model sensor ids differ from the generated sensors")
    perm = model.get("permutation", [])
    if sorted(perm) != list(range(len(ids))) or any(not isinstance(p, int) for p in perm):
        problems.append("model permutation is not a bijection on the sensor rows")
    if model.get("lower_bounds") != data.min(axis=1).tolist():
        problems.append("model lower bounds differ from the per-row minimum")
    if model.get("upper_bounds") != data.max(axis=1).tolist():
        problems.append("model upper bounds differ from the per-row maximum")
    return problems


def check_model_file(path: Path, ids, data) -> tuple[dict, list[str]]:
    try:
        model = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        return {}, [f"model file unreadable: {exc}"]
    if not isinstance(model, dict):
        return {}, ["model file does not hold a JSON object"]
    return model, check_model(model, ids, data)


def compare_signature(got_real, got_imag, want, label: str) -> list[str]:
    want_real, want_imag = want
    got = list(got_real) + list(got_imag)
    ref = list(want_real) + list(want_imag)
    if len(got) != len(ref):
        return [f"{label}: {len(got)} block values, oracle has {len(ref)}"]
    worst = max((abs(a - b) for a, b in zip(got, ref)), default=0.0)
    if not worst <= TOLERANCE:
        return [f"{label}: differs from the brute-force oracle by {worst:.3g}"]
    return []


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return (rows[0], rows[1:]) if rows else ([], [])


def check_batch(path, data, width, step, blocks, model_for, sample) -> list[str]:
    """Row count, window instants, finiteness, and oracle agreement on ``sample``.

    ``model_for(i)`` returns the model (dict) window ``i`` was signed with.
    """
    try:
        header, rows = read_csv(path)
    except OSError as exc:
        return [f"batch unreadable: {exc}"]
    expected = (data.shape[1] - width) // step + 1
    want_header = ["window_start", "window_end"]
    want_header += [f"real_{i}" for i in range(1, blocks + 1)]
    want_header += [f"imag_{i}" for i in range(1, blocks + 1)]
    if header != want_header:
        return ["batch header is not window_start,window_end,real_*,imag_*"]
    if len(rows) != expected:
        return [f"batch has {len(rows)} rows, expected {expected} windows"]
    problems = []
    for i, row in enumerate(rows):
        start = i * step * INTERVAL_MS
        if row[:2] != [str(start), str(start + (width - 1) * INTERVAL_MS)]:
            problems.append(f"batch row {i}: window instants {row[:2]} are wrong")
            break
        if len(row) != len(header):
            problems.append(f"batch row {i}: {len(row)} fields")
            break
    if problems:
        return problems
    try:
        table = np.array([[float(v) for v in row[2:]] for row in rows])
    except ValueError as exc:
        return [f"batch value does not parse: {exc}"]
    if not np.all(np.isfinite(table)):
        return ["batch holds non-finite values"]
    for i in sample:
        want = window_signature(data, i * step, width, model_for(i), blocks)
        problems += compare_signature(
            table[i, :blocks], table[i, blocks:], want, f"batch row {i}"
        )
    return problems


def check_fidelity(path: Path, block_list: list[int]) -> list[str]:
    try:
        header, rows = read_csv(path)
    except OSError as exc:
        return [f"fidelity report unreadable: {exc}"]
    if header != ["l", "js_real", "js_imag", "js_mean"]:
        return ["fidelity header is not l,js_real,js_imag,js_mean"]
    if [r[0] for r in rows] != [str(b) for b in block_list]:
        return [f"fidelity rows {[r[0] for r in rows]} do not match blocks {block_list}"]
    try:
        values = [float(v) for r in rows for v in r[1:]]
    except ValueError as exc:
        return [f"fidelity value does not parse: {exc}"]
    if not all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values):
        return [f"fidelity values outside [0, 1]: {values}"]
    return []


def check_eval(path: Path, folds: int, min_f1: float = 0.9) -> list[str]:
    try:
        header, rows = read_csv(path)
    except OSError as exc:
        return [f"metrics report unreadable: {exc}"]
    if header != ["fold", "metric", "score"] or len(rows) != folds + 1:
        return [f"metrics report is not {folds} folds plus a mean row"]
    if [r[0] for r in rows] != [str(i) for i in range(folds)] + ["mean"]:
        return ["metrics report fold column is wrong"]
    if any(r[1] != "f1_macro" for r in rows):
        return ["metrics report does not hold f1_macro scores"]
    try:
        mean = float(rows[-1][2])
    except ValueError as exc:
        return [f"mean score does not parse: {exc}"]
    if not mean >= min_f1:
        return [f"eval F1 {mean} is below {min_f1}"]
    return []
