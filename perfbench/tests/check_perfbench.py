"""Tests of the benchmark itself, at a tiny size.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/tests/check_perfbench.py

The file name keeps it out of the repository's default test run: collected
there, before tests/, it made tests/test_cs.py's timing test of doubling the
sensor count (bound 2.2x, measuring close to it on a shared host) fail in
most full runs instead of rarely.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import hostspeed  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def declared(trace: bool) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}


def tiny_run(name: str, trace: bool, tmp_path: Path, seed: int = 1) -> dict:
    return run.run_workload(workloads.tiny(name), seed, 0.0, trace, tmp_path / "work")


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_and_emits_every_metric(name, trace, tmp_path):
    result = tiny_run(name, trace, tmp_path)
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    emitted = {k: m["unit"] for k, m in result["metrics"].items()}
    assert emitted == declared(trace)
    for key, metric in result["metrics"].items():
        assert np.isfinite(metric["value"]), key
        if not trace:
            assert metric["value"] > 0, key


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert set(run.END_TO_END.items()) == set(declared(False).items())
    assert set(spans.LAYER_METRICS.items()) == set(declared(True).items())


def test_second_seed_gives_same_metric_names_and_no_errors(tmp_path):
    first = tiny_run("long-batch", False, tmp_path / "a", seed=1)
    second = tiny_run("long-batch", False, tmp_path / "b", seed=2)
    assert set(first["metrics"]) == set(second["metrics"])
    assert second["failed"] == 0 and second["correct"]


def test_seed_makes_the_inputs():
    a, labels = workloads.phase_matrix(8, 64, seed=3)
    b, _ = workloads.phase_matrix(8, 64, seed=3)
    c, _ = workloads.phase_matrix(8, 64, seed=4)
    assert np.array_equal(a, b) and not np.array_equal(a, c)
    assert labels == ["phase0", "phase1", "phase2", "phase0"]


def _corrupting(target: str, corrupt):
    real = run.run_child

    def run_child(argv, workdir, tally, spawned_at=False):
        child = real(argv, workdir, tally, spawned_at)
        if target in argv:
            out = Path(argv[argv.index("--out", argv.index(target)) + 1])
            corrupt(out)
        return child

    return run_child


def _edit_field(path: Path, rows, column: int, edit) -> None:
    lines = path.read_text().splitlines()
    for row in rows if rows is not None else range(1, len(lines)):
        fields = lines[row].split(",")
        fields[column] = edit(fields[column])
        lines[row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def test_corrupted_batch_raises_error_rate(tmp_path, monkeypatch):
    # Nudge real_1 of every row by 1e-6, far beyond the oracle's 1e-9.
    def nudge(path: Path) -> None:
        _edit_field(path, None, 2, lambda v: repr(float(v) + 1e-6))

    monkeypatch.setattr(run, "run_child", _corrupting("sign", nudge))
    result = tiny_run("long-batch", False, tmp_path)
    assert result["failed"] > 0 and not result["correct"]
    assert any("brute-force oracle" in p for p in result["problems"])


def test_corrupted_fidelity_report_raises_error_rate(tmp_path, monkeypatch):
    def out_of_range(path: Path) -> None:
        _edit_field(path, [1], 1, lambda v: "1.5")

    monkeypatch.setattr(run, "run_child", _corrupting("fidelity", out_of_range))
    result = tiny_run("long-batch", False, tmp_path)
    assert result["failed"] > 0 and not result["correct"]
    assert any("outside [0, 1]" in p for p in result["problems"])


def test_changed_repeat_output_raises_error_rate(tmp_path, monkeypatch):
    calls = []

    def second_only(path: Path) -> None:
        calls.append(path)
        if len(calls) == 2:
            _edit_field(path, [1], -1, lambda v: repr(float(v) + 1e-6))

    monkeypatch.setattr(run, "run_child", _corrupting("sign", second_only))
    result = tiny_run("long-batch", False, tmp_path)
    assert result["failed"] == 1
    assert any("differs from the first" in p for p in result["problems"])


def test_oracle_rejects_a_wrong_model():
    data = np.random.default_rng(0).uniform(size=(5, 30))
    ids = workloads.sensor_ids(5)
    model = oracle.naive_train(data)
    model["sensor_ids"] = list(ids)
    assert oracle.check_model(model, ids, data) == []
    assert oracle.check_model({**model, "permutation": [0, 0, 1, 2, 3]}, ids, data)
    assert oracle.check_model({**model, "upper_bounds": [1.0] * 5}, ids, data)


def test_oracle_matches_the_library_kernel():
    from cs_smooth import cs
    from cs_smooth.core import SensorMatrix, TimeGrid, Window

    data = np.random.default_rng(1).normal(size=(600, 40))
    ids = workloads.sensor_ids(600)
    model = cs.train(SensorMatrix(ids, TimeGrid(0, 1000, 40), data))
    as_dict = {"permutation": model.permutation.tolist(),
               "lower_bounds": model.lower_bounds.tolist(),
               "upper_bounds": model.upper_bounds.tolist()}
    assert oracle.naive_train(data)["permutation"] == as_dict["permutation"]
    sig = cs.compute_signature(Window(ids, data[:, 5:21], data[:, 4], 5, 20), model, 20)
    want = oracle.window_signature(data, 5, 16, as_dict, 20)
    assert oracle.compare_signature(sig.blocks_real, sig.blocks_imag, want, "w") == []
    wrong = (want[0], [v + 1e-8 for v in want[1]])
    assert oracle.compare_signature(sig.blocks_real, sig.blocks_imag, wrong, "w")


def test_self_time_counts_concurrent_children_once():
    # parent [0, 10]; two overlapping children [1, 4] and [2, 6] from two threads
    recorded = [["cli.main", 0.0, 10.0, -1], ["cs.compute_signature", 1.0, 4.0, 0],
                ["cs.compute_signature", 2.0, 6.0, 0], ["cs.train", 7.0, 8.0, 0]]
    times = spans.self_times(recorded)
    assert times == pytest.approx({"cli.main": 4.0, "cs.compute_signature": 5.0,
                                   "cs.train": 1.0})


def test_recorder_nests_spans_and_counts(tmp_path):
    class Module:
        @staticmethod
        def outer(x):
            return Module.inner(x) + 1

        @staticmethod
        def inner(x):
            return x * 2

    recorder = spans.Recorder()
    recorder.wrap(Module, "inner", "cs.train", lambda a, r: {"cs.train_calls": 1})
    recorder.wrap(Module, "outer", "cli.main")
    assert Module.outer(3) == 7
    names = [(s[0], s[3]) for s in recorder.spans]
    assert names == [("cli.main", -1), ("cs.train", 0)]
    assert recorder.counts["cs.train_calls"] == 1
    recorder.dump(tmp_path / "spans.json")
    metrics = spans.layer_metrics([json.loads((tmp_path / "spans.json").read_text())])
    assert set(metrics) == set(spans.LAYER_METRICS)
    assert metrics["cs.train_calls"] == 1 and metrics["cs.train_s"] > 0


def test_child_peak_rss_excludes_the_benchmark_process(tmp_path):
    held = np.ones(40_000_000 // 8)  # 40 MB held by this process while the child runs
    held[::512] = 2.0  # touch every page
    tally = run.Tally()
    child = run.run_child([sys.executable, "-c", "pass"], tmp_path, tally)
    assert child.code == 0 and child.wall_s > 0
    assert 0 < tally.peak_rss_mb < 30
    assert held.sum() > 0


def test_host_factor_is_mean_reference_time_over_reference():
    speed = hostspeed.HostSpeed()
    speed.sample(3)
    assert len(speed.samples) == 3 and min(speed.samples) > 0
    assert speed.factor() == pytest.approx(statistics.fmean(speed.samples) / hostspeed.REFERENCE_S)


@pytest.mark.parametrize("name", ["long-batch", "online-wide"])
def test_end_to_end_times_are_wall_times_over_host_factor(name, tmp_path):
    result = tiny_run(name, False, tmp_path)
    info, metrics = result["info"], result["metrics"]
    assert info["host_factor"] > 0
    for key in ("setup", "sign"):
        want = info[f"{key}_wall_s"] / info["host_factor"]
        assert metrics[f"{key}_s"]["value"] == pytest.approx(want)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "long-batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
