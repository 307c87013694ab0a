"""Run one command from a small process and report its wall time and peak RSS.

    python3 perfbench/launch.py --timeout 60 [--spawned-at] -- <argv...>

Prints one JSON line: ``{"wall_s", "code", "maxrss_kb"}``. A child started
with vfork and exec, as ``subprocess`` starts it, inherits its parent's peak
RSS in ``ru_maxrss``: a command started straight from the benchmark, which
holds the generated inputs, would report the benchmark's peak when that is the
larger. Started from this process, which imports nothing heavy, ``ru_maxrss``
is the command's own. With ``--spawned-at`` the script (``argv[1]``) also
receives ``--spawned-at <time.monotonic()>`` taken just before it starts.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--timeout", type=float, required=True)
    parser.add_argument("--spawned-at", action="store_true")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.command[1:] if args.command[:1] == ["--"] else args.command

    started = time.perf_counter()
    if args.spawned_at:
        argv = [*argv[:2], "--spawned-at", repr(time.monotonic()), *argv[2:]]
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
    watchdog = threading.Timer(args.timeout, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - started
    print(json.dumps({"wall_s": wall, "code": os.waitstatus_to_exitcode(status),
                      "maxrss_kb": usage.ru_maxrss}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
