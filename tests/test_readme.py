"""The README's library example runs as written, on the README's demo set."""

import re
import runpy
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_library_overview_runs(tmp_path, monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = re.search(r"## Library overview\n+```python\n(.*?)```", readme, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [
        "make_synthetic_dataset.py", "--out", "demo_data", "--sensors", "24",
        "--window", "16", "--windows-per-class", "20",
    ])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(ROOT / "scripts" / "make_synthetic_dataset.py"), run_name="__main__")
    assert done.value.code == 0
    exec(compile(example, "README.md", "exec"), {})
    assert Path("batch.csv").stat().st_size > 0
