"""Command-line front end: train, sign, render, fidelity, eval, bench.

Every command is deterministic given its inputs; eval and bench also take
--seed, for the fold shuffle and the random matrices bench signs. sign
--retrain-every k retrains the cs model every k windows; cs._sign_retraining
holds that schedule and signs every cs batch. The baseline methods (tuncer,
bodik, lan) have no model and reject it. bench times the batch signers that
sign runs and reports the median seconds per signature.

Each flag is checked once, by its argparse type, and every default lives in
the parser; sign's two cross-flag checks run next. So a bad flag is reported
before any file is read. Errors exit nonzero after printing a single
parsable line, "error: <code>: <reason>". The CS_SMOOTH_LOG environment
variable (debug/info/warning) controls logging.
"""

from __future__ import annotations

import argparse
import gc
import logging
import os
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import cs
from .core import SensorMatrix, WindowSpec, align, infer_grid, load_dataset_dir, log
from .errors import (
    CsSmoothError,
    FormatError,
    InvalidParameterError,
    LabelMismatchError,
    TaskError,
    fits_in_memory,
    opened,
)

METHODS = ("cs", "tuncer", "bodik", "lan")
# fidelity.DEFAULT_BINS and (evaluation.CLASSIFICATION, evaluation.REGRESSION),
# spelled out so that building the parser imports neither module; a test pins them.
_DEFAULT_BINS = 100
_TASKS = ("classification", "regression")
_SPAN_RE = re.compile(r"^(\d+)(ms|s|m|h)?$")
_SPAN_MS = {"ms": 1, "s": 1_000, "m": 60_000, "h": 3_600_000}


@dataclass(frozen=True)
class Span:
    """A window length or step: either a sample count or a duration."""

    value: int
    unit: str  # "samples" or "ms"

    def to_samples(self, interval_ms: int) -> int:
        if self.unit == "samples":
            return self.value
        if self.value % interval_ms != 0:
            raise InvalidParameterError(
                f"duration {self.value}ms is not a multiple of the grid interval "
                f"{interval_ms}ms"
            )
        return self.value // interval_ms


def parse_span(text: str) -> Span:
    m = _SPAN_RE.match(text.strip())
    if not m:
        raise InvalidParameterError(
            f"cannot parse span {text!r}: use a sample count or <int>(ms|s|m|h)"
        )
    value, unit = int(m.group(1)), m.group(2)
    if value < 1:
        raise InvalidParameterError("spans must be at least 1 sample")
    if unit is None:
        return Span(value, "samples")
    return Span(value * _SPAN_MS[unit], "ms")


# Argparse types. Argparse catches only ValueError, TypeError and
# ArgumentTypeError from a type, so an InvalidParameterError reaches main as is.
def _counts(what: str, many: bool = False, least: int = 1):
    """An integer >= ``least``, or with ``many`` a comma-separated list of them."""

    def convert(text: str):
        try:
            values = tuple(int(tok) for tok in text.split(",")) if many else (int(text),)
        except ValueError:
            raise InvalidParameterError(f"{what} must be integers, got {text!r}") from None
        if min(values) < least:
            raise InvalidParameterError(f"{what} must be >= {least}")
        return values if many else values[0]

    return convert


def _command(text: str) -> list[str]:
    """A command line split into shell words, once; it must hold at least one."""
    import shlex

    try:
        argv = shlex.split(text)
    except ValueError as exc:
        raise InvalidParameterError(f"--predictor-cmd is not valid shell words: {exc}") from None
    if not argv:
        raise InvalidParameterError("--predictor-cmd is empty")
    return argv


def _method_list(text: str) -> tuple[str, ...]:
    methods = tuple(tok.strip() for tok in text.split(","))
    for m in methods:
        if m not in METHODS:
            raise InvalidParameterError(f"unknown method {m!r}")
    return methods


def _load_matrix(args: argparse.Namespace) -> SensorMatrix:
    series = load_dataset_dir(args.dataset)
    grid = infer_grid(series, interval=args.interval)
    matrix = align(series, grid)
    log.info(
        "loaded %d sensors x %d samples (interval %dms)",
        matrix.n_sensors,
        matrix.n_samples,
        grid.interval,
    )
    return matrix


def _window_spec(args: argparse.Namespace, matrix: SensorMatrix) -> WindowSpec:
    interval = matrix.grid.interval
    return WindowSpec(
        length_samples=args.window.to_samples(interval),
        step_samples=args.step.to_samples(interval),
    )


def cmd_train(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    matrix = _load_matrix(args)
    model = cs.train(matrix)
    elapsed = time.perf_counter() - started
    cs.save_model(model, args.out)
    print(
        f"trained model {model.model_id}: n={matrix.n_sensors} t={matrix.n_samples} "
        f"wall_time_s={elapsed:.3f}"
    )
    return 0


def cmd_sign(args: argparse.Namespace) -> int:
    if args.method == "cs" and not args.model:
        raise InvalidParameterError("--model is required for method cs")
    if args.method != "cs" and args.retrain_every is not None:
        raise InvalidParameterError("--retrain-every needs method cs: baselines have no model")
    from . import batchio

    matrix = _load_matrix(args)
    spec = _window_spec(args, matrix)
    if args.method == "cs":
        model = cs.load_model(args.model)
        batch = cs._sign_retraining(matrix, model, spec, args.blocks, args.retrain_every)
    else:
        from . import baselines

        batch = baselines.baseline_signature_batch(matrix, spec, args.method, args.lan_subsample)
    count = batchio.write_signature_batch(args.out, batch)
    print(f"wrote {count} signatures to {args.out}")
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    from . import batchio

    batch = batchio.read_signature_batch(args.batch)
    if args.component == "real":
        values = batch.real
    else:
        if batch.imag is None:
            raise FormatError("batch has no imaginary columns to render")
        lo, hi = batch.imag.min(), batch.imag.max()
        if hi > lo:
            values = (batch.imag - lo) / (hi - lo)
        else:
            values = np.full_like(batch.imag, 0.5)
    pixels = np.clip(np.floor(255.0 * (1.0 - values) + 0.5), 0, 255).astype(np.uint8)
    batchio.write_pgm(args.out, pixels.T)
    print(
        f"rendered {batch.n_signatures} signatures x {batch.n_blocks} blocks "
        f"({args.component}) to {args.out}"
    )
    return 0


def cmd_fidelity(args: argparse.Namespace) -> int:
    from . import batchio, fidelity

    matrix = _load_matrix(args)
    spec = _window_spec(args, matrix)
    model = cs.load_model(args.model)
    table = fidelity.fidelity_table(matrix, model, spec, args.blocks, bins=args.bins)
    rows = []
    for n_blocks, comp in zip(args.blocks, table):
        rows.append((n_blocks, comp.js_real, comp.js_imag, comp.js_mean))
        log.info("l=%d js_real=%.4f js_imag=%.4f", n_blocks, comp.js_real, comp.js_imag)
    batchio.write_csv_report(args.out, ["l", "js_real", "js_imag", "js_mean"], rows)
    print(f"wrote fidelity report ({len(rows)} rows) to {args.out}")
    return 0


class _ExternalPredictor:
    """File-exchange predictor: train/test CSVs out, predictions CSV back."""

    def __init__(self, argv: list[str], workdir: Path):
        self.argv = argv
        self.workdir = workdir
        self.fold = 0
        self._train: tuple[np.ndarray, np.ndarray] | None = None

    def fit(self, features: np.ndarray, labels: np.ndarray) -> None:
        self._train = (features, labels)

    def predict(self, features: np.ndarray) -> np.ndarray:
        import csv
        import subprocess

        from . import batchio

        train_x, train_y = self._train
        width = train_x.shape[1]
        train_path = self.workdir / f"fold{self.fold}_train.csv"
        test_path = self.workdir / f"fold{self.fold}_test.csv"
        pred_path = self.workdir / f"fold{self.fold}_predictions.csv"
        self.fold += 1
        feat_header = [f"f_{i}" for i in range(1, width + 1)]
        batchio.write_csv_report(
            train_path,
            ["label", *feat_header],
            ([y, *x] for x, y in zip(train_x.tolist(), train_y.tolist())),
        )
        batchio.write_csv_report(test_path, feat_header, features.tolist())
        proc = subprocess.run(
            [*self.argv, str(train_path), str(test_path), str(pred_path)],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            raise CsSmoothError(
                f"external predictor exited {proc.returncode}: {proc.stderr.strip()}"
            )
        with opened(pred_path, "predictions file", "r", newline="") as fh:
            rows = [[f.strip() for f in row] for row in csv.reader(fh) if "".join(row).strip()]
        if not rows or rows[0] != ["prediction"]:
            raise FormatError("predictions file must start with a 'prediction' header")
        if any(len(row) != 1 for row in rows):
            raise FormatError("predictions file must hold one field per row")
        if len(rows) - 1 != len(features):
            raise FormatError(
                f"expected {len(features)} predictions, got {len(rows) - 1}"
            )
        return np.array([row[0] for row in rows[1:]])


def _dataset_from_files(args: argparse.Namespace):
    """The eval command's features and labels, as a LabeledDataset."""
    from . import batchio, evaluation

    batch = batchio.read_signature_batch(args.batch)
    labels_by_start = batchio.read_labels_csv(args.labels)
    missing = [s for s in batch.window_starts.tolist() if s not in labels_by_start]
    if missing or len(labels_by_start) != batch.n_signatures:
        detail = f"{batch.n_signatures} signatures vs {len(labels_by_start)} labels"
        if missing:
            detail += f"; no label for window_start {missing[:5]}"
        raise LabelMismatchError(detail)
    label_strings = [labels_by_start[s] for s in batch.window_starts.tolist()]
    features = evaluation.signature_features(
        batch.real, batch.imag, real_only=args.real_only
    )
    distinct = len(set(label_strings)) == len(label_strings) > 1
    if args.task == evaluation.CLASSIFICATION and distinct:
        raise TaskError(
            "every window has a distinct label; these look like regression targets, not classes"
        )
    return evaluation.LabeledDataset(features, np.array(label_strings), args.task)


def cmd_eval(args: argparse.Namespace) -> int:
    import tempfile

    from . import batchio, evaluation

    dataset = _dataset_from_files(args)
    # The directory holds the fold files an external predictor exchanges.
    with tempfile.TemporaryDirectory(prefix="cs_smooth_eval_") as tmp:
        if args.predictor_cmd:
            predictor = _ExternalPredictor(args.predictor_cmd, Path(tmp))
        else:
            predictor = evaluation.reference_predictor(args.task)
        metrics = evaluation.cross_validate(dataset, predictor, args.folds, args.seed)
    rows = [(i, metrics.metric, s) for i, s in enumerate(metrics.per_fold)]
    rows.append(("mean", metrics.metric, metrics.score))
    batchio.write_csv_report(args.out, ["fold", "metric", "score"], rows)
    print(f"{metrics.metric}={metrics.score:.4f} over {args.folds} folds -> {args.out}")
    return 0


_BENCH_WINDOWS = 8  # step-1 windows per timed batch call


def _bench_model(matrix: SensorMatrix, seed: int) -> cs.CSModel:
    rng = np.random.default_rng(seed)
    return cs.CSModel(
        sensor_ids=matrix.sensor_ids,
        permutation=rng.permutation(matrix.n_sensors),
        lower_bounds=matrix.data.min(axis=1),
        upper_bounds=matrix.data.max(axis=1),
    )


def cmd_bench(args: argparse.Namespace) -> int:
    import functools

    from . import baselines, batchio, synthetic

    # Each case signs one batch of step-1 windows with the signer sign runs. What
    # a signature costs depends on the batch size, so that size is fixed.
    cases = []  # (method, n, wl, signer)
    for n in args.n_list:
        for wl in args.wl_list:
            samples = wl + _BENCH_WINDOWS - 1
            with fits_in_memory(f"a {n} x {samples} matrix does not fit in memory"):
                matrix = synthetic.random_matrix(n, samples, seed=args.seed)
            spec = WindowSpec(length_samples=wl, step_samples=1)
            for method in args.methods:
                if method == "cs":
                    fn = functools.partial(
                        cs.compute_signature_batch, matrix, _bench_model(matrix, args.seed),
                        spec, min(args.blocks, n),
                    )
                else:
                    fn = functools.partial(
                        baselines.baseline_signature_batch, matrix, spec, method,
                        min(args.lan_subsample, wl),
                    )
                cases.append((method, n, wl, fn))
    with fits_in_memory(f"{args.reps} reps do not fit in memory"):
        times = np.empty((args.reps, len(cases)))
    for method, n, wl, fn in cases:
        # Warm-up outside the measurement; the timed calls allocate what it does.
        with fits_in_memory(f"{method} windows of {n} x {wl} do not fit in memory"):
            fn()
    # Every rep times every case once, in turn, so a burst of host load lands
    # on all sizes alike instead of on one side of a size ratio.
    for rep in range(args.reps):
        for i, (*_, fn) in enumerate(cases):
            t0 = time.perf_counter()
            fn()
            times[rep, i] = time.perf_counter() - t0
    rows = []
    per_signature = np.median(times, axis=0) / _BENCH_WINDOWS
    for (method, n, wl, _), median in zip(cases, per_signature.tolist()):
        rows.append((method, n, wl, median))
        log.info("bench %s n=%d wl=%d median=%.6fs", method, n, wl, median)
    batchio.write_csv_report(
        args.out, ["method", "n_sensors", "window_len", "median_seconds"], rows
    )
    print(f"wrote bench report ({len(rows)} rows) to {args.out}")
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a malformed command line as one ``error:`` line, like any bad input."""

    def error(self, message):
        raise InvalidParameterError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="cs-smooth",
        description="Compress monitoring time-series into compact image-like signatures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # The flags several commands share, each defined once.
    dataset = argparse.ArgumentParser(add_help=False)
    dataset.add_argument("--dataset", required=True, help="directory of per-sensor CSVs")
    dataset.add_argument("--interval", type=_counts("--interval"),
                         help="grid interval in ms (default: inferred)")
    windowing = argparse.ArgumentParser(add_help=False)
    windowing.add_argument("--window", type=parse_span, required=True,
                           help="window length: samples or <int>(ms|s|m|h)")
    windowing.add_argument("--step", type=parse_span, required=True,
                           help="window step: samples or duration")
    signing = argparse.ArgumentParser(add_help=False)
    signing.add_argument("--blocks", type=_counts("block counts"), default=20,
                         help="signature blocks for method cs (default 20)")
    signing.add_argument("--lan-subsample", type=_counts("--lan-subsample"), default=10)
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=_counts("--seed", least=0), default=0)

    p_train = sub.add_parser("train", parents=[dataset],
                             help="learn a sorting/normalization model")
    p_train.add_argument("--out", required=True, help="model file to write")
    p_train.set_defaults(handler=cmd_train)

    p_sign = sub.add_parser("sign", parents=[dataset, windowing, signing],
                            help="compute a signature batch")
    p_sign.add_argument("--model", help="model file (required for method cs)")
    p_sign.add_argument("--method", choices=METHODS, default="cs")
    p_sign.add_argument("--retrain-every", type=_counts("--retrain-every"),
                        help="retrain on history every k windows")
    p_sign.add_argument("--out", required=True)
    p_sign.set_defaults(handler=cmd_sign)

    p_render = sub.add_parser("render", help="render a batch as a grayscale heatmap")
    p_render.add_argument("--batch", required=True, help="signature batch CSV")
    p_render.add_argument("--component", choices=("real", "imag"), default="real")
    p_render.add_argument("--out", required=True, help="PGM (P5) image to write")
    p_render.set_defaults(handler=cmd_render)

    p_fid = sub.add_parser("fidelity", parents=[dataset, windowing],
                           help="compression fidelity across block counts")
    p_fid.add_argument("--model", required=True)
    p_fid.add_argument("--blocks", type=_counts("block counts", many=True), required=True,
                       help="comma-separated block counts")
    p_fid.add_argument("--bins", type=_counts("--bins"), default=_DEFAULT_BINS)
    p_fid.add_argument("--out", required=True)
    p_fid.set_defaults(handler=cmd_fidelity)

    p_eval = sub.add_parser("eval", parents=[seeded],
                            help="cross-validate signatures on a labeled task")
    p_eval.add_argument("--batch", required=True, help="signature batch CSV")
    p_eval.add_argument("--labels", required=True, help="window_start,label CSV")
    p_eval.add_argument("--task", choices=_TASKS, default=_TASKS[0])
    p_eval.add_argument("--folds", type=_counts("--folds", least=2), default=5)
    p_eval.add_argument("--real-only", action="store_true",
                        help="drop imaginary components from the features")
    p_eval.add_argument("--predictor-cmd", type=_command,
                        help="external predictor: invoked as CMD train.csv test.csv predictions.csv")
    p_eval.add_argument("--out", required=True)
    p_eval.set_defaults(handler=cmd_eval)

    p_bench = sub.add_parser(
        "bench", parents=[signing, seeded],
        help="median seconds per signature of sign's batch signers over a size grid",
    )
    p_bench.add_argument("--methods", type=_method_list, default=METHODS)
    p_bench.add_argument("--n-list", type=_counts("--n-list", many=True), default=(100, 1000),
                         help="comma-separated sensor counts")
    p_bench.add_argument("--wl-list", type=_counts("--wl-list", many=True), default=(10, 100),
                         help="comma-separated window lengths")
    p_bench.add_argument("--reps", type=_counts("--reps"), default=20)
    p_bench.add_argument("--out", required=True)
    p_bench.set_defaults(handler=cmd_bench)

    return parser


def _configure_logging() -> None:
    level_name = os.environ.get("CS_SMOOTH_LOG", "warning").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(level=level, format="%(asctime)s %(levelname)-7s %(message)s")


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except CsSmoothError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    """The process entry of ``cs-smooth`` and ``python -m cs_smooth.cli``: exits
    with main's code after freezing the cyclic GC, so the interpreter's teardown
    skips a last pass over every object numpy and the command left alive."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
