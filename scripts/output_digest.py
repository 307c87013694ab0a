#!/usr/bin/env python3
"""Print a sha256 of every output file the CLI writes for two synthetic datasets.

Builds the 24-sensor demo set and a 128-sensor set with
make_synthetic_dataset.py in a temporary directory, then runs on each:
train; sign with cs at step 1, and at step 16 with and without
--retrain-every 3; sign with cs --retrain-every 1 at steps 1, 4, 16 and 20
(whose windows skip samples); sign with tuncer, bodik and lan at step 1;
fidelity for l = 5, 10, 20; and the classification eval of the step-16 cs
batch. Prints one ``<sha256>  <set>/<file>`` line per output. No command
calls the library's per-window path, so one more line per set,
``<set>/compute_signature``, digests the blocks of compute_signature over
every step-1 window, signed with the set's trained model. No CLI run puts a
retrain's new columns across a segment boundary of cs.prefix_models, so a
last line, ``wide128/prefix_models``, digests its models of an in-process
128 x 9,000 class_stream matrix at ends 16, 8,500 and 9,000. Two trees
produce the same outputs bit for bit when their lines are equal:

    python scripts/output_digest.py > after.txt
    diff before.txt after.txt

Takes no flags; uses the cs_smooth package under this checkout's src/.
"""

import contextlib
import hashlib
import io
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cs_smooth import core, cs, synthetic  # noqa: E402
from cs_smooth.cli import main as cli  # noqa: E402

DATASETS = {
    "demo24": ["--sensors", "24", "--window", "16", "--windows-per-class", "20"],
    "wide128": ["--sensors", "128", "--window", "16", "--windows-per-class", "50"],
}


def quiet(call, *argv):
    """Run ``call`` with sys.argv-style ``argv``, its stdout discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return call(*argv)


def make_dataset(out: Path, flags: list[str]) -> None:
    argv = sys.argv
    sys.argv = ["make_synthetic_dataset.py", "--out", str(out), *flags]
    try:
        quiet(runpy.run_path, str(ROOT / "scripts" / "make_synthetic_dataset.py"), None, "__main__")
    except SystemExit as exc:
        if exc.code:
            raise
    finally:
        sys.argv = argv


def runs(data: Path, out: Path) -> list[tuple[str, list[str]]]:
    """(output file, CLI argv) of each run on one dataset, in order."""
    dataset, model = ["--dataset", str(data)], ["--model", str(out / "model.json")]
    step1, step16 = ["--window", "16", "--step", "1"], ["--window", "16", "--step", "16"]
    step4 = ["--window", "16", "--step", "4"]  # overlapping windows, a one-window first run
    step20 = ["--window", "16", "--step", "20"]  # windows that skip samples
    return [
        ("model.json", ["train", *dataset]),
        ("cs_step1.csv", ["sign", *dataset, *model, *step1]),
        ("cs_step16.csv", ["sign", *dataset, *model, *step16]),
        ("cs_step16_retrain3.csv", ["sign", *dataset, *model, *step16, "--retrain-every", "3"]),
        ("cs_step1_retrain1.csv", ["sign", *dataset, *model, *step1, "--retrain-every", "1"]),
        ("cs_step4_retrain1.csv", ["sign", *dataset, *model, *step4, "--retrain-every", "1"]),
        ("cs_step16_retrain1.csv", ["sign", *dataset, *model, *step16, "--retrain-every", "1"]),
        ("cs_step20_retrain1.csv", ["sign", *dataset, *model, *step20, "--retrain-every", "1"]),
        *((f"{m}_step1.csv", ["sign", *dataset, "--method", m, *step1])
          for m in ("tuncer", "bodik", "lan")),
        ("fidelity.csv", ["fidelity", *dataset, *model, *step1, "--blocks", "5,10,20"]),
        ("eval.csv", ["eval", "--batch", str(out / "cs_step16.csv"),
                      "--labels", str(data / "labels.csv"), "--task", "classification"]),
    ]


def signature_digest(data: Path, model_path: Path) -> str:
    """sha256 of the blocks_real then blocks_imag bytes of compute_signature
    (20 blocks, sign's default) over every step-1 16-sample window of ``data``,
    loaded and aligned as the CLI does."""
    series = core.load_dataset_dir(data)
    matrix = core.align(series, core.infer_grid(series))
    model = cs.load_model(model_path)
    digest = hashlib.sha256()
    for window in core.windows(matrix, core.WindowSpec(16, 1)):
        sig = cs.compute_signature(window, model, 20)
        digest.update(sig.blocks_real.tobytes())
        digest.update(sig.blocks_imag.tobytes())
    return digest.hexdigest()


def prefix_models_digest() -> str:
    """sha256 of the permutation, lower then upper bound bytes of every
    cs.prefix_models model of class_stream(0, 128, 9_000) at ends 16, 8,500
    and 9,000. At 128 sensors a segment holds 8,192 columns, so the columns
    from 16 to 8,500 are merged in two segments."""
    matrix = synthetic.class_stream(0, 128, 9_000)
    digest = hashlib.sha256()
    for model in cs.prefix_models(matrix, [16, 8_500, 9_000]):
        for array in (model.permutation, model.lower_bounds, model.upper_bounds):
            digest.update(array.tobytes())
    return digest.hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="cs_smooth_digest_") as tmp:
        for name, flags in DATASETS.items():
            data, out = Path(tmp) / name, Path(tmp) / f"{name}_out"
            out.mkdir()
            make_dataset(data, flags)
            for file, argv in runs(data, out):
                path = out / file
                if quiet(cli, [*argv, "--out", str(path)]) != 0:
                    print(f"cs-smooth {' '.join(argv)} failed", file=sys.stderr)
                    return 1
                print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {name}/{file}")
            print(f"{signature_digest(data, out / 'model.json')}  {name}/compute_signature")
    print(f"{prefix_models_digest()}  wide128/prefix_models")
    return 0


if __name__ == "__main__":
    sys.exit(main())
