"""The online-wide workload: the cs_smooth library driven in memory.

One caller trains a model on a history, then signs every new step-1 window
of a live stream in a closed loop: each ``cs.compute_signature`` call waits
for the one before it, as a monitoring agent signing each new sample would.
Runs as its own process so its peak RSS comes from the child rusage:

    python3 perfbench/online.py --out result.json --seed 1 --seconds 10 --trace 0 \
        --sensors 1024 --history 8000 --samples 20015 --window 16 --blocks 20 \
        --setup-reps 15 --min-reps 3 --oracle-rows 8

``--seconds`` counts from the start of this process, input generation
included. With ``--trace 1`` it makes one untraced set-up and pass, then one
traced set-up and pass, and writes the spans next to the result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import oracle
import spans
from hostspeed import HostSpeed
from workloads import INTERVAL_MS, phase_matrix, sensor_ids

SEGMENT = 2000  # closed-loop calls per timed segment


class Loop:
    def __init__(self, args):
        from cs_smooth.core import SensorMatrix, TimeGrid

        self.args = args
        self.ids = sensor_ids(args.sensors)
        data, _ = phase_matrix(args.sensors, args.history + args.samples, args.seed)
        self.data = data
        self.history = SensorMatrix(
            sensor_ids=self.ids,
            grid=TimeGrid(start=0, interval=INTERVAL_MS, count=args.history),
            data=data[:, : args.history],
        )
        self.starts = range(args.history, args.history + args.samples - args.window + 1)
        rng = np.random.default_rng(args.seed + 1)
        picks = rng.choice(len(self.starts), size=min(args.oracle_rows, len(self.starts)),
                           replace=False)
        self.sample = {self.starts[int(i)] for i in picks}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_pass: dict[int, tuple] = {}

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.problems += problems

    def setup(self):
        from cs_smooth import cs

        self.attempted += 1
        started = time.perf_counter()
        model = cs.train(self.history)
        elapsed = time.perf_counter() - started
        as_dict = {
            "sensor_ids": list(model.sensor_ids),
            "permutation": model.permutation.tolist(),
            "lower_bounds": model.lower_bounds.tolist(),
            "upper_bounds": model.upper_bounds.tolist(),
        }
        problems = oracle.check_model(as_dict, self.ids, self.history.data)
        if problems:
            self.fail(problems)
        return model, as_dict, elapsed

    def sign(self, model, as_dict, starts, latencies: list[float] | None) -> float:
        """Sign the live windows starting at ``starts`` in turn; returns the wall time."""
        from cs_smooth import cs
        from cs_smooth.core import Window

        data, ids, width, blocks = self.data, self.ids, self.args.window, self.args.blocks
        clock = time.perf_counter
        outputs = {}
        failures = 0
        started = clock()
        for s in starts:
            window = Window(ids, data[:, s : s + width], data[:, s - 1],
                            s * INTERVAL_MS, (s + width - 1) * INTERVAL_MS)
            t0 = clock()
            try:
                sig = cs.compute_signature(window, model, blocks)
            except Exception as exc:  # counted as a failed call, never fatal
                failures += 1
                self.problems.append(f"window {s}: {type(exc).__name__}: {exc}")
                continue
            if latencies is not None:
                latencies.append(clock() - t0)
            if s in self.sample:
                outputs[s] = sig
        elapsed = clock() - started
        self.attempted += len(starts)
        self.failed += failures
        for s, sig in sorted(outputs.items()):
            got = (sig.blocks_real.tolist(), sig.blocks_imag.tolist(),
                   sig.window_start, sig.window_end)
            want = oracle.window_signature(data, s, width, as_dict, blocks)
            problems = oracle.compare_signature(got[0], got[1], want, f"window {s}")
            if got[2:] != (s * INTERVAL_MS, (s + width - 1) * INTERVAL_MS):
                problems.append(f"window {s}: wrong window instants {got[2:]}")
            if self.first_pass.setdefault(s, got) != got:
                problems.append(f"window {s}: differs between passes")
            if problems:
                self.fail(problems)
        return elapsed


def measure(loop: Loop, args, started: float) -> dict:
    """Set up and sign until ``args.seconds`` after ``started`` (perf_counter).

    The reference task (hostspeed.py) runs before every set-up and every
    segment; the end-to-end times are over the run's host factor: the median
    ``cs.train`` call (the first call in the process is the slowest) and the
    mean pace over every segment.
    """
    speed = HostSpeed()
    speed.sample()  # warm-up, not counted
    speed.samples.clear()
    setups = []
    for _ in range(args.setup_reps):
        speed.sample()
        model, as_dict, elapsed = loop.setup()
        setups.append(elapsed)
    # Walk the stream again and again, timing it in segments of SEGMENT calls.
    starts = loop.starts
    segments = [starts[i : i + SEGMENT] for i in range(0, len(starts), SEGMENT)]
    latencies: list[float] = []
    signed_s = 0.0
    signed = 0
    n_segments = 0
    passes = 0
    while passes < args.min_reps or time.perf_counter() - started < args.seconds:
        for segment in segments:
            speed.sample()
            signed_s += loop.sign(model, as_dict, segment, latencies)
            signed += len(segment)
            n_segments += 1
            if passes >= args.min_reps and time.perf_counter() - started >= args.seconds:
                break
        else:
            passes += 1
    factor = speed.factor()
    setup_wall = statistics.median(setups)
    sign_wall = signed_s / signed * len(starts)
    lat_us = np.array(latencies) * 1e6
    return {
        "setup_s": setup_wall / factor,
        "sign_s": sign_wall / factor,
        "host_factor": factor,
        "setup_wall_s": setup_wall,
        "sign_wall_s": sign_wall,
        "passes": passes,
        "segments": n_segments,
        "reference_units": len(speed.samples),
        "calls": len(latencies),
        "window_p50_us": float(np.percentile(lat_us, 50)),
        "window_p99_us": float(np.percentile(lat_us, 99)),
    }


def trace(loop: Loop, spans_path: Path) -> dict:
    model, as_dict, plain_setup = loop.setup()
    plain = plain_setup + loop.sign(model, as_dict, loop.starts, None)
    recorder = spans.Recorder()
    spans.install(recorder)
    model, as_dict, traced_setup = loop.setup()
    traced = traced_setup + loop.sign(model, as_dict, loop.starts, None)
    recorder.dump(spans_path)
    return {"untraced_s": plain, "traced_s": traced}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    for name in ("--sensors", "--history", "--samples", "--window", "--blocks",
                 "--setup-reps", "--min-reps", "--oracle-rows"):
        parser.add_argument(name, type=int, required=True)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    loop = Loop(args)
    out = Path(args.out)
    if args.trace:
        result = trace(loop, out.with_suffix(".spans.json"))
    else:
        result = measure(loop, args, started)
    result.update(attempted=loop.attempted, failed=loop.failed, problems=loop.problems[:20])
    out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
