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
