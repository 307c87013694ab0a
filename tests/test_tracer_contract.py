"""The benchmark's tracer wraps library functions by name; they must all resolve.

`perfbench/spans.py` looks each wrapped name up with getattr, so a rename or
removal in the library would otherwise show only in a traced benchmark run.
It also counts what the wrapped calls do, so each call must pass through its
wrapper exactly once.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_against_the_library():
    code = (
        "import sys; "
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'perfbench')!r}]; "
        "import spans; spans.install(spans.Recorder())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_traced_io_counts_each_call_once(tmp_path):
    """A traced train + sign counts each row written once, one span per I/O call.

    A reader or writer that re-entered itself through its module global would
    be traced twice: two spans per call and every written row counted twice.
    """
    code = f"""
import json, sys
from pathlib import Path
sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'perfbench')!r}]
import spans
from cs_smooth import cli

root = Path(sys.argv[1])
data = root / "data"
data.mkdir()
for i in range(4):
    rows = "".join(f"{{k * 1000}},{{(k * (i + 2)) % 7 + 0.5 * i}}\\n" for k in range(40))
    (data / f"s{{i}}.csv").write_text(rows)
recorder = spans.Recorder()
spans.install(recorder)
model, batch = root / "model.json", root / "batch.csv"
assert cli.main(["train", "--dataset", str(data), "--out", str(model)]) == 0
assert cli.main(["sign", "--dataset", str(data), "--model", str(model), "--window", "10",
                 "--step", "1", "--blocks", "2", "--out", str(batch)]) == 0
recorder.dump(root / "spans.json")
"""
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    dump = json.loads((tmp_path / "spans.json").read_text())
    rows_written = len((tmp_path / "batch.csv").read_bytes().splitlines()) - 1
    assert rows_written == 31
    assert dump["counts"]["batchio.write_rows"] == rows_written
    names = [span[0] for span in dump["spans"]]
    for name in ("cs.save_model", "cs.load_model", "batchio.write_signature_batch"):
        assert names.count(name) == 1, name


@pytest.mark.parametrize("task", ["classification", "regression"])
def test_traced_eval_spans_each_fold_once(tmp_path, task):
    """A traced eval records one fit and one predict span per fold, both
    inside the cross-validation span, whichever task picks the predictor."""
    code = f"""
import sys
from pathlib import Path
sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'perfbench')!r}]
import numpy as np
import spans
from cs_smooth import batchio, cli, cs

root = Path(sys.argv[1])
rng = np.random.default_rng(5)
starts = 1000 * np.arange(24)
batchio.write_signature_batch(root / "batch.csv", cs.SignatureBatch(
    starts, starts + 4000, rng.uniform(size=(24, 3)), rng.uniform(size=(24, 3))
))
labels = [f"c{{i % 3}}" for i in range(24)] if sys.argv[2] == "classification" else [
    repr(v) for v in rng.uniform(size=24).tolist()
]
(root / "labels.csv").write_text(
    "window_start,label\\n" + "".join(f"{{s}},{{v}}\\n" for s, v in zip(starts.tolist(), labels))
)
recorder = spans.Recorder()
spans.install(recorder)
assert cli.main(["eval", "--batch", str(root / "batch.csv"), "--labels", str(root / "labels.csv"),
                 "--task", sys.argv[2], "--folds", "4", "--out", str(root / "m.csv")]) == 0
recorder.dump(root / "spans.json")
"""
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path), task],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    dump = json.loads((tmp_path / "spans.json").read_text())
    names = [span[0] for span in dump["spans"]]
    assert names.count("evaluation.cross_validate") == 1
    cv = names.index("evaluation.cross_validate")
    for name in ("evaluation.fit", "evaluation.predict"):
        parents = [span[3] for span in dump["spans"] if span[0] == name]
        assert parents == [cv] * 4, name
    assert dump["counts"]["evaluation.rows"] == 24
