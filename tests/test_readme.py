"""The README's examples run as written, on the README's demo set."""

import re
import runpy
import shlex
import sys
from pathlib import Path

import pytest

from cs_smooth import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def run_script(argv, monkeypatch):
    monkeypatch.setattr(sys, "argv", argv)
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(ROOT / argv[0]), run_name="__main__")
    assert done.value.code == 0


def test_quick_start_runs(tmp_path, monkeypatch):
    block = re.search(r"## Quick start\n+```sh\n(.*?)```", README, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line, comments=True)
        if not argv:
            continue
        if argv[0] == "python":
            run_script(argv[1:], monkeypatch)
        else:
            assert argv[0] == "cs-smooth"
            assert cli.main(argv[1:]) == 0, line
        assert Path(argv[argv.index("--out") + 1]).exists(), line


def test_library_overview_runs(tmp_path, monkeypatch):
    example = re.search(r"## Library overview\n+```python\n(.*?)```", README, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    run_script([
        "scripts/make_synthetic_dataset.py", "--out", "demo_data", "--sensors", "24",
        "--window", "16", "--windows-per-class", "20",
    ], monkeypatch)
    exec(compile(example, "README.md", "exec"), {})
    assert Path("batch.csv").stat().st_size > 0
