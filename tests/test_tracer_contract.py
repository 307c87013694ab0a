"""The benchmark's tracer wraps library functions by name; they must all resolve.

`perfbench/spans.py` looks each wrapped name up with getattr, so a rename or
removal in the library would otherwise show only in a traced benchmark run.
"""

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
