#!/usr/bin/env python3
"""End-to-end benchmark of the cs-smooth CLI and the cs_smooth library.

    python3 perfbench/run.py --workload long-batch --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. Inputs are generated from ``--seed``; every output is checked. The
report lines name each metric with its unit; the last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics of BENCHMARK.json with ``--trace 0`` and the per-layer
metrics with ``--trace 1``. See perfbench/README.md for the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle
import spans
from hostspeed import HostSpeed
from workloads import WORKLOADS, Workload, phase_matrix, sensor_ids, write_dataset

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEADLINE_S = 165.0  # a run must end well within 180 s

END_TO_END = {"setup_s": "s", "sign_s": "s", "total_s": "s", "peak_rss_mb": "MB"}
REFERENCE_UNITS = 3  # reference units timed before each CLI command


@dataclass
class Child:
    wall_s: float
    code: int
    stderr: str


@dataclass
class Tally:
    """Commands or calls attempted and failed, plus what went wrong."""

    started: float = field(default_factory=time.perf_counter)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["CS_SMOOTH_LOG"] = "warning"
    return env


def run_child(argv: list[str], workdir: Path, tally: Tally, spawned_at: bool = False) -> Child:
    """Run one process to completion through ``launch.py``; wall time and peak RSS.

    With ``spawned_at`` the script (``argv[1]``) also receives
    ``--spawned-at <time.monotonic()>`` taken just before the process starts.
    """
    err_path = workdir / "child.err"
    timeout = max(1.0, tally.remaining())
    launcher = [sys.executable, str(HERE / "launch.py"), "--timeout", repr(timeout),
                *(["--spawned-at"] if spawned_at else []), "--"]
    with open(err_path, "w") as err:
        proc = subprocess.run(launcher + argv, stdout=subprocess.PIPE, stderr=err, cwd=workdir,
                              env=child_env(), text=True, timeout=timeout + 10)
    report = json.loads(proc.stdout)
    tally.peak_rss_mb = max(tally.peak_rss_mb, report["maxrss_kb"] / 1024.0)
    return Child(report["wall_s"], report["code"], err_path.read_text())


def command_problems(child: Child) -> list[str]:
    problems = []
    if child.code != 0:
        problems.append(f"exit code {child.code}")
    errors = [ln for ln in child.stderr.splitlines() if ln.startswith("error:")]
    problems += errors[:3]
    return problems


def digest(path: Path) -> str:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return "missing"


class CliRun:
    """One CLI workload: its dataset, the commands, and the output checks."""

    def __init__(self, w: Workload, seed: int, workdir: Path, tally: Tally):
        self.w, self.seed, self.workdir, self.tally = w, seed, workdir, tally
        self.data, labels = phase_matrix(w.sensors, w.samples, seed)
        self.ids = sensor_ids(w.sensors)
        self.dataset = workdir / "data"
        write_dataset(self.dataset, self.data, labels)
        self.first: dict[str, tuple[str, list[str]]] = {}
        self.model: dict = {}
        self._retrained: dict[int, dict] = {}

    def args(self, command: str, tag: str) -> tuple[list[str], Path]:
        w, d = self.w, self.workdir
        model = d / f"model{tag}.json"
        batch = d / f"batch{tag}.csv"
        if command == "train":
            out = model
            argv = ["train", "--dataset", self.dataset, "--out", out]
        elif command == "sign":
            out = batch
            argv = ["sign", "--dataset", self.dataset, "--model", model,
                    "--window", w.window, "--step", w.step, "--blocks", w.blocks]
            if w.retrain_every:
                argv += ["--retrain-every", w.retrain_every]
            argv += ["--out", out]
        elif command == "fidelity":
            out = d / f"fidelity{tag}.csv"
            argv = ["fidelity", "--dataset", self.dataset, "--model", model,
                    "--window", w.window, "--step", w.step,
                    "--blocks", w.fidelity_blocks, "--out", out]
        else:
            out = d / f"metrics{tag}.csv"
            argv = ["eval", "--batch", batch, "--labels", self.dataset / "labels.csv",
                    "--task", "classification", "--out", out]
        return [str(a) for a in argv], out

    def spans_path(self, command: str) -> Path:
        return self.workdir / f"spans-{command}.json"

    def run(self, command: str, traced: bool = False) -> Child:
        """Run one command as a child process, untraced or under the tracer."""
        tag = "-traced" if traced else ""
        argv, out = self.args(command, tag)
        if traced:
            prefix = [sys.executable, str(HERE / "spans.py"),
                      "--out", str(self.spans_path(command)), "--"]
        else:
            prefix = [sys.executable, "-m", "cs_smooth.cli"]
        out.unlink(missing_ok=True)
        child = run_child(prefix + argv, self.workdir, self.tally, spawned_at=traced)
        problems = command_problems(child)
        if not problems:
            problems = self.check(command, out)
        self.tally.record(f"{command}{tag}", problems)
        return child

    def check(self, command: str, out: Path) -> list[str]:
        """Full checks on a command's first output; later outputs must be identical."""
        key = digest(out)
        if command in self.first:
            first_key, problems = self.first[command]
            return problems if key == first_key else [
                f"{out.name} differs from the first {command} output of this seed"
            ]
        problems = self.full_check(command, out)
        self.first[command] = (key, problems)
        return problems

    def full_check(self, command: str, out: Path) -> list[str]:
        w = self.w
        if command == "train":
            self.model, problems = oracle.check_model_file(out, self.ids, self.data)
            return problems
        if command == "fidelity":
            return oracle.check_fidelity(out, [int(b) for b in w.fidelity_blocks.split(",")])
        if command == "eval":
            return oracle.check_eval(out, folds=5)
        if not self.model:
            return ["no valid model to check the batch against"]
        rng = np.random.default_rng(self.seed)
        size = min(w.oracle_rows, w.n_windows)
        sample = sorted(rng.choice(w.n_windows, size=size, replace=False).tolist())
        return oracle.check_batch(out, self.data, w.window, w.step, w.blocks,
                                  self.model_for, sample)

    def model_for(self, i: int) -> dict:
        """The model the CLI's retrain loop signs window ``i`` with."""
        k = self.w.retrain_every
        if not k:
            return self.model
        last = (i // k) * k
        while last > 0 and last * self.w.step < 2:
            last -= k
        if last <= 0:
            return self.model
        if last not in self._retrained:
            self._retrained[last] = oracle.naive_train(self.data[:, : last * self.w.step])
        return self._retrained[last]


def run_cli(w: Workload, seed: int, seconds: float, trace: bool, workdir: Path, tally: Tally):
    bench = CliRun(w, seed, workdir, tally)
    commands = ("train", "sign", w.post)
    if trace:
        # Pairs of one untraced and one traced pass repeat while another pair
        # fits in --seconds; the pair with the median traced wall time is
        # reported, so its layer times still add up to its own wall time.
        pairs = []
        pair_s = 0.0
        while not pairs or (time.perf_counter() - tally.started + pair_s < seconds
                            and tally.remaining() > pair_s + 10):
            pair_started = time.perf_counter()
            plain = sum(bench.run(c).wall_s for c in commands)
            traced = sum(bench.run(c, traced=True).wall_s for c in commands)
            dumps = []
            for c in commands:
                try:
                    dumps.append(json.loads(bench.spans_path(c).read_text()))
                except (OSError, ValueError) as exc:
                    tally.record(f"{c} spans", [f"unreadable: {exc}"])
            pairs.append((traced, plain, dumps))
            pair_s = time.perf_counter() - pair_started
        traced, plain, dumps = sorted(pairs, key=lambda p: p[0])[(len(pairs) - 1) // 2]
        metrics = spans.layer_metrics(dumps)
        metrics["trace.overhead_s"] = traced - plain
        info = {"untraced_wall_s": plain, "traced_wall_s": traced,
                "reps": f"{len(pairs)} untraced + traced passes"}
        return metrics, info

    # Each rep runs the whole command sequence, so every metric samples the
    # machine at the same moments; reps repeat while another fits in
    # --seconds, counted from the start of the run (input generation too).
    # The reference task runs before every command; each end-to-end time is
    # the mean over the reps divided by the run's host factor (hostspeed.py).
    speed = HostSpeed()
    speed.sample()  # warm-up, not counted
    speed.samples.clear()
    walls: dict[str, list[float]] = {c: [] for c in commands}
    reps = 0
    rep_s = 0.0
    while True:
        elapsed = time.perf_counter() - tally.started
        if tally.remaining() < rep_s + 10:
            break
        if reps >= w.min_reps and elapsed + rep_s > seconds:
            break
        for command, samples in walls.items():
            speed.sample(REFERENCE_UNITS)
            samples.append(bench.run(command).wall_s)
        rep_s = time.perf_counter() - tally.started - elapsed
        reps += 1
    factor = speed.factor()
    setup_wall, sign_wall, post_wall = (statistics.fmean(v) for v in walls.values())
    setup_s, sign_s, post_s = setup_wall / factor, sign_wall / factor, post_wall / factor
    metrics = {
        "setup_s": setup_s,
        "sign_s": sign_s,
        "total_s": setup_s + sign_s + post_s,
        "peak_rss_mb": tally.peak_rss_mb,
    }
    info = {
        f"{w.post}_s": post_s,
        "windows_per_s": w.n_windows / sign_s,
        "host_factor": factor,
        "setup_wall_s": setup_wall,
        "sign_wall_s": sign_wall,
        f"{w.post}_wall_s": post_wall,
        "reps": f"{reps} x (train, sign, {w.post}), {len(speed.samples)} reference units",
    }
    return metrics, info


def run_library(w: Workload, seed: int, seconds: float, trace: bool, workdir: Path, tally: Tally):
    out = workdir / "online.json"
    budget = max(0.0, seconds - (time.perf_counter() - tally.started))
    argv = [sys.executable, str(HERE / "online.py"), "--out", str(out), "--seed", str(seed),
            "--seconds", repr(budget), "--trace", str(int(trace)),
            "--sensors", str(w.sensors), "--history", str(w.history),
            "--samples", str(w.samples), "--window", str(w.window), "--blocks", str(w.blocks),
            "--setup-reps", str(w.setup_reps), "--min-reps", str(w.min_reps),
            "--oracle-rows", str(w.oracle_rows)]
    child = run_child(argv, workdir, tally)
    problems = command_problems(child)
    try:
        result = json.loads(out.read_text())
    except (OSError, ValueError) as exc:
        tally.record("online", problems + [f"no result: {exc}"])
        return None, {}
    tally.attempted += result["attempted"]
    tally.failed += result["failed"]
    tally.problems += result["problems"]
    if problems:
        tally.record("online", problems)
    if trace:
        try:
            dump = json.loads(out.with_suffix(".spans.json").read_text())
        except (OSError, ValueError) as exc:
            tally.record("online spans", [f"unreadable: {exc}"])
            return None, {}
        metrics = spans.layer_metrics([dump])
        metrics["trace.overhead_s"] = result["traced_s"] - result["untraced_s"]
        info = {"untraced_wall_s": result["untraced_s"], "traced_wall_s": result["traced_s"]}
        return metrics, info
    sign_s = result["sign_s"]
    metrics = {
        "setup_s": result["setup_s"],
        "sign_s": sign_s,
        "total_s": result["setup_s"] + sign_s,
        "peak_rss_mb": tally.peak_rss_mb,
    }
    info = {
        "windows_per_s": w.n_windows / sign_s,
        "window_p50_us": result["window_p50_us"],
        "window_p99_us": result["window_p99_us"],
        "latency_samples": result["calls"],
        "host_factor": result["host_factor"],
        "setup_wall_s": result["setup_wall_s"],
        "sign_wall_s": result["sign_wall_s"],
        "reps": f"{w.setup_reps} train; {result['passes']} full passes over "
                f"{w.n_windows} windows, timed in {result['segments']} segments; "
                f"{result['reference_units']} reference units",
    }
    return metrics, info


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas = "unknown"
    threads = {k: os.environ[k] for k in sorted(os.environ)
               if k.endswith("_NUM_THREADS") or k == "OMP_THREAD_LIMIT"}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": threads or "unset (library defaults)",
        "sign_threads": "CLI default --threads 0 (= all cores)",
    }


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Generate, run and check one workload; returns the result with its metrics."""
    tally = Tally()
    workdir.mkdir(parents=True, exist_ok=True)
    runner = run_cli if w.kind == "cli" else run_library
    metrics, info = runner(w, seed, seconds, trace, workdir, tally)
    names = spans.LAYER_METRICS if trace else END_TO_END
    if metrics is None:
        metrics = {}
    if trace and metrics:
        # Layer self times + cli.self_s + cli.startup_s: the traced wall time
        # less process exit (CLI) or the harness loop (online-wide).
        info["accounted_s"] = sum(
            v for k, v in metrics.items() if names[k] == "s" and k != "trace.overhead_s"
        )
    return {
        "correct": tally.failed == 0 and tally.attempted > 0 and set(metrics) == set(names),
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in names.items() if k in metrics},
        "info": info,
        "problems": tally.problems,
    }


def report(w: Workload, args, result: dict) -> None:
    print(f"perfbench workload={w.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"why: {w.why}")
    print(f"loads: {w.loads}; bypasses: {w.bypasses}")
    print("env: " + json.dumps(environment()))
    for name, m in result["metrics"].items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    units = {"untraced_wall_s": "s", "traced_wall_s": "s", "accounted_s": "s",
             "fidelity_s": "s", "eval_s": "s", "host_factor": "ratio",
             "setup_wall_s": "s", "sign_wall_s": "s", "fidelity_wall_s": "s", "eval_wall_s": "s",
             "windows_per_s": "1/s", "window_p50_us": "us", "window_p99_us": "us",
             "latency_samples": "count"}
    for name, value in result["info"].items():
        print(f"metric {name} = {value:.6g} {units[name]}" if name in units
              else f"note {name}: {value}")
    error_rate = result["failed"] / result["attempted"]
    print(f"metric error_rate = {error_rate:.6g} ratio "
          f"({result['failed']} of {result['attempted']} commands or calls)")
    for problem in result["problems"][:20]:
        print(f"problem: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "cs_smooth" / "cli.py").is_file():
        print(f"error: no cs_smooth sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cs_smooth

    if Path(cs_smooth.__file__).resolve().parent != SRC / "cs_smooth":
        print(f"error: imported cs_smooth from {cs_smooth.__file__}, not {SRC}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / f"{w.name}-{os.getpid()}"
    try:
        result = run_workload(w, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    report(w, args, result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
