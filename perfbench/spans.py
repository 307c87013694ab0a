"""Traced runs: timing wrappers around each module's public functions.

The wrappers are installed from outside the program, on the names each module
looks up at call time (``cli.load_dataset_dir``, ``cs.train``,
``fidelity.compute_signature``, ...). Every call records a span (name, start,
end, parent) in memory; spans are written out when the traced command ends.
A layer's self time is the wall time its spans cover minus the part their
child spans cover, so concurrent calls from the ``sign`` thread pool are not
counted twice.

Run as a script, it executes one ``cs-smooth`` command in-process under the
tracer:

    python3 perfbench/spans.py --out spans.json --spawned-at T -- sign ...
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import threading
import time
from pathlib import Path

# Span name -> the per-layer time metric its self time counts towards.
TIME_METRICS = {
    "core.load_dataset_dir": "core.load_s",
    "core.infer_grid": "core.align_s",
    "core.align": "core.align_s",
    "cs.train": "cs.train_s",
    "cs.compute_signature": "cs.signature_s",
    "cs.load_model": "cs.model_io_s",
    "cs.save_model": "cs.model_io_s",
    "batchio.write_signature_batch": "batchio.write_s",
    "batchio.write_csv_report": "batchio.write_s",
    "batchio.read_signature_batch": "batchio.read_s",
    "batchio.read_labels_csv": "batchio.read_s",
    "fidelity.fidelity_components": "fidelity.self_s",
    "fidelity.sort_normalize": "fidelity.sort_normalize_s",
    "fidelity.expand_signatures": "fidelity.expand_s",
    "fidelity.build_distribution": "fidelity.histogram_s",
    "fidelity.js_divergence": "fidelity.js_s",
    "evaluation.cross_validate": "evaluation.cv_s",
    "evaluation.signature_features": "evaluation.cv_s",
    "evaluation.fit": "evaluation.predict_s",
    "evaluation.predict": "evaluation.predict_s",
    "cli.main": "cli.self_s",
}
COUNT_METRICS = {
    "core.load_records": "count",
    "cs.train_calls": "count",
    "cs.signature_calls": "count",
    "cs.signature_bytes": "bytes",
    "batchio.write_rows": "count",
    "evaluation.rows": "count",
}
# Every per-layer metric with its unit, in report order.
LAYER_METRICS = {
    **{metric: "s" for metric in TIME_METRICS.values()},
    **COUNT_METRICS,
    "cli.startup_s": "s",
    "trace.overhead_s": "s",
}


class Recorder:
    """In-memory spans plus counters; safe to use from several threads."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, count=None):
        stack = self._stack()
        # A worker thread's outermost span belongs to whatever the main thread
        # has open, i.e. the call that handed it the work.
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else -1)
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent])
        stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            span = self.spans[index]
            span[1], span[2] = start, end
        if count is not None:
            with self._lock:
                for key, value in count(args, result).items():
                    self.counts[key] += value
        return result

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)

        setattr(owner, attr, traced)

    def dump(self, path: Path, **extra) -> None:
        Path(path).write_text(json.dumps({"spans": self.spans, "counts": self.counts, **extra}))


def _window_bytes(args, result):
    window = args[0]
    return {"cs.signature_calls": 1, "cs.signature_bytes": window.values.size * 8}


def install(recorder: Recorder) -> None:
    """Wrap the public functions each cs_smooth module calls across layers."""
    from cs_smooth import batchio, cli, cs, evaluation, fidelity

    wrap = recorder.wrap
    wrap(cli, "load_dataset_dir", "core.load_dataset_dir",
         lambda a, r: {"core.load_records": sum(len(s) for s in r)})
    wrap(cli, "infer_grid", "core.infer_grid")
    wrap(cli, "align", "core.align")
    wrap(cs, "train", "cs.train", lambda a, r: {"cs.train_calls": 1})
    wrap(cs, "compute_signature", "cs.compute_signature", _window_bytes)
    wrap(cs, "load_model", "cs.load_model")
    wrap(cs, "save_model", "cs.save_model")
    wrap(fidelity, "compute_signature", "cs.compute_signature", _window_bytes)
    wrap(batchio, "write_signature_batch", "batchio.write_signature_batch",
         lambda a, r: {"batchio.write_rows": r})
    for name in ("write_csv_report", "read_signature_batch", "read_labels_csv"):
        wrap(batchio, name, f"batchio.{name}")
    for name in ("fidelity_components", "sort_normalize", "expand_signatures",
                 "build_distribution", "js_divergence"):
        wrap(fidelity, name, f"fidelity.{name}")
    wrap(evaluation, "cross_validate", "evaluation.cross_validate",
         lambda a, r: {"evaluation.rows": a[0].n_rows})
    wrap(evaluation, "signature_features", "evaluation.signature_features")
    for predictor in (evaluation.NearestNeighborClassifier, evaluation.KNearestMeanRegressor):
        wrap(predictor, "fit", "evaluation.fit")
        wrap(predictor, "predict", "evaluation.predict")


def _union(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(a, b) for a, b in merged]


def _subtract(start: float, end: float, holes) -> list[tuple[float, float]]:
    pieces, cursor = [], start
    for a, b in holes:  # disjoint and sorted
        a, b = max(a, start), min(b, end)
        if a >= b:
            continue
        if a > cursor:
            pieces.append((cursor, a))
        cursor = max(cursor, b)
    if cursor < end:
        pieces.append((cursor, end))
    return pieces


def self_times(spans: list[list]) -> dict[str, float]:
    """Wall time each named span group covers outside its child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    pieces: dict[str, list[tuple[float, float]]] = {}
    for index, (name, start, end, _) in enumerate(spans):
        holes = _union(children.get(index, []))
        pieces.setdefault(name, []).extend(_subtract(start, end, holes))
    return {name: sum(b - a for a, b in _union(p)) for name, p in pieces.items()}


def layer_metrics(dumps: list[dict]) -> dict[str, float]:
    """Per-layer metrics summed over the dumps of one workload's traced commands."""
    out = dict.fromkeys(LAYER_METRICS, 0.0)
    for dump in dumps:
        for name, seconds in self_times(dump["spans"]).items():
            out[TIME_METRICS[name]] += seconds
        for key, value in dump["counts"].items():
            out[key] += value
        out["cli.startup_s"] += dump.get("startup_s", 0.0)
    for key in COUNT_METRICS:
        out[key] = int(out[key])
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="run one cs-smooth command under the tracer")
    parser.add_argument("--out", required=True, help="where to write the spans (JSON)")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    from cs_smooth import cli

    startup = time.monotonic() - args.spawned_at
    recorder = Recorder()
    install(recorder)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    code = recorder.call("cli.main", cli.main, (command,), {})
    recorder.dump(args.out, startup_s=startup)
    return code


if __name__ == "__main__":
    sys.exit(main())
