"""The benchmark's workloads: what each runs, why, and how its inputs are made.

Every input is generated in-process from the ``--seed`` argument with the
program's own ``cs_smooth.synthetic.class_stream`` generator (harness only,
never timed): the stream cycles through three workload phases, one phase per
16-sample window, exactly as ``scripts/make_synthetic_dataset.py`` lays it out.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

INTERVAL_MS = 1000
PHASE_SAMPLES = 16


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    loads: str
    bypasses: str
    kind: str  # "cli" or "library"
    sensors: int
    samples: int  # CLI: dataset length; library: live stream length
    window: int = 16
    step: int = 1
    blocks: int = 20
    post: str = ""  # CLI step after sign: "fidelity" or "eval"
    fidelity_blocks: str = "5,20"
    retrain_every: int | None = None
    history: int = 0  # library: samples the model is trained on
    setup_reps: int = 3  # library: cs.train calls before the loop
    min_reps: int = 3  # CLI: command sequences; library: passes over the stream
    oracle_rows: int = 8

    @property
    def n_windows(self) -> int:
        return (self.samples - self.window) // self.step + 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="long-batch",
            why=(
                "long step-1 batch through the CLI: ingest runs three times, the "
                "kernel is called for every window, the batch writer handles every "
                "row and fidelity runs its histograms; training is a small part"
            ),
            loads="core (ingest, align), cs kernel, batchio writer, fidelity, cli thread pool",
            bypasses="evaluation, batchio readers, retraining",
            kind="cli",
            sensors=128,
            samples=2400,
            step=1,
            post="fidelity",
        ),
        Workload(
            name="retrain-stream",
            why=(
                "step-16 stream retrained on every growing prefix through the CLI: "
                "the only workload where cs.train dominates (its cost grows with the "
                "square of the history length) and the only one running eval"
            ),
            loads="cs.train (retrain loop), core ingest, evaluation, batchio readers",
            bypasses="fidelity; the kernel and batch writer are light",
            kind="cli",
            sensors=64,
            samples=6400,
            step=16,
            post="eval",
            retrain_every=1,
        ),
        Workload(
            name="online-wide",
            why=(
                "library in memory, 1,024 sensors: one closed-loop caller signs each "
                "new step-1 window, so the kernel runs one window at a time on its "
                "chunked path with no ingest and no file I/O"
            ),
            loads="cs.compute_signature per window (chunked path above 512 rows), cs.train once",
            bypasses="core ingest and align, batchio, fidelity, evaluation, cli",
            kind="library",
            sensors=1024,
            samples=20015,
            history=8000,
            setup_reps=15,
        ),
    )
}

# Sizes for the benchmark's own tests: every workload in well under a second
# per command, same code paths (except the >512-row kernel chunking).
TINY = {
    "long-batch": dict(sensors=24, samples=192, min_reps=2, oracle_rows=4),
    "retrain-stream": dict(sensors=24, samples=960, min_reps=2, oracle_rows=4),
    "online-wide": dict(sensors=40, samples=80, history=64, setup_reps=2, min_reps=2, oracle_rows=4),
}


def tiny(name: str) -> Workload:
    return replace(WORKLOADS[name], **TINY[name])


def sensor_ids(n: int) -> tuple[str, ...]:
    width = max(3, len(str(n - 1)))
    return tuple(f"s{i:0{width}d}" for i in range(n))


def phase_matrix(sensors: int, samples: int, seed: int) -> tuple[np.ndarray, list[str]]:
    """Class phases of PHASE_SAMPLES each; returns (data, one label per phase)."""
    from cs_smooth.synthetic import class_stream

    rng = np.random.default_rng(seed)
    n_phases = -(-samples // PHASE_SAMPLES)
    phase_seeds = rng.integers(0, 2**31, size=n_phases)
    data = np.empty((sensors, samples))
    labels = []
    for p in range(n_phases):
        label = p % 3
        lo = p * PHASE_SAMPLES
        hi = min(samples, lo + PHASE_SAMPLES)
        stream = class_stream(label, sensors, PHASE_SAMPLES, seed=int(phase_seeds[p]))
        data[:, lo:hi] = stream.data[:, : hi - lo]
        labels.append(f"phase{label}")
    return data, labels


def write_dataset(root: Path, data: np.ndarray, labels: list[str]) -> None:
    """Per-sensor ``timestamp,value`` CSVs (repr round-trips) plus labels.csv."""
    root.mkdir(parents=True, exist_ok=True)
    stamps = [str(k * INTERVAL_MS) for k in range(data.shape[1])]
    for sid, row in zip(sensor_ids(data.shape[0]), data):
        lines = "\n".join(f"{t},{v!r}" for t, v in zip(stamps, row.tolist()))
        (root / f"{sid}.csv").write_text(lines + "\n")
    starts = (p * PHASE_SAMPLES * INTERVAL_MS for p in range(len(labels)))
    rows = "\n".join(f"{s},{label}" for s, label in zip(starts, labels))
    (root / "labels.csv").write_text("window_start,label\n" + rows + "\n")
