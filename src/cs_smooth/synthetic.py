"""Synthetic sensor-matrix generators for tests, demos and benchmarks."""

from __future__ import annotations

import numpy as np

from .core import SensorMatrix, TimeGrid


def smooth_signal(t: int, rng: np.random.Generator) -> np.ndarray:
    """A unit-variance random walk; adjacent samples change slowly."""
    s = np.cumsum(rng.standard_normal(t))
    sd = s.std()
    return (s - s.mean()) / (sd if sd > 0 else 1.0)


def plateau_signal(t: int, rng: np.random.Generator) -> np.ndarray:
    """Monitoring-style signal: 100-sample load-level plateaus plus slow drift.

    Values sit on plateaus with occasional jumps, so first differences are
    tiny except at level changes; standardized to zero mean, unit variance.
    """
    levels = rng.uniform(-1.0, 1.0, size=t // 100 + 2)
    steps = np.repeat(levels, 100)[:t]
    s = steps + 0.3 * smooth_signal(t, rng)
    sd = s.std()
    return (s - s.mean()) / (sd if sd > 0 else 1.0)


def clustered_plateau_matrix(
    n_pos: int, n_neg: int, n_noise: int, t: int = 600, seed: int = 0
) -> SensorMatrix:
    """Two opposing clusters around a plateau signal, plus independent noise.

    Like :func:`anti_correlated_matrix` but with plateau-style dynamics: every
    noise term is an independent plateau signal scaled to 0.05 times the
    shared signal's deviation.
    """
    rng = np.random.default_rng(seed)
    s = plateau_signal(t, rng)
    sigma = 0.05 * s.std()
    return _opposing_clusters(s, lambda: sigma * plateau_signal(t, rng), n_pos, n_neg, n_noise)


def anti_correlated_matrix(
    n_pos: int, n_neg: int, n_noise: int, t: int, seed: int = 0
) -> SensorMatrix:
    """Two opposing clusters tracking one signal, plus independent noise rows.

    Rows 0..n_pos-1 follow the shared signal, the next n_neg rows follow its
    negation, the last n_noise rows are pure noise; all noise terms have
    standard deviation 0.05 times the signal's.
    """
    rng = np.random.default_rng(seed)
    s = smooth_signal(t, rng)
    sigma = 0.05 * s.std()
    return _opposing_clusters(s, lambda: sigma * rng.standard_normal(t), n_pos, n_neg, n_noise)


def _opposing_clusters(signal, noise, n_pos, n_neg, n_noise) -> SensorMatrix:
    """Rows signal + noise(), -signal + noise() and noise(), drawn in that order,
    on a 1 s grid."""
    rows = [signal + noise() for _ in range(n_pos)]
    rows += [-signal + noise() for _ in range(n_neg)]
    rows += [noise() for _ in range(n_noise)]
    ids = tuple(f"s{i:03d}" for i in range(len(rows)))
    return SensorMatrix(ids, TimeGrid(0, 1000, len(signal)), np.stack(rows))


def class_stream(
    label: int,
    n_sensors: int,
    n_samples: int,
    seed: int = 0,
    interval: int = 1000,
    noise_scale: float = 0.05,
) -> SensorMatrix:
    """A sensor matrix whose temporal pattern is characteristic of one class.

    Each class drives three sensor groups at distinct base levels with a
    class-specific oscillation frequency; the lower half of the sensors moves
    with the pattern and the upper half against it. Streams of different
    classes are separable both in levels and in dynamics.
    """
    rng = np.random.default_rng(seed)
    phase = rng.uniform(0, 2 * np.pi)
    k = np.arange(n_samples)
    freq = 2.0 + 3.0 * label
    wave = np.sin(2 * np.pi * freq * k / max(64, n_samples) + phase)
    levels = np.array([0.2, 0.5, 0.8])
    base = levels[(np.arange(n_sensors) + label) % 3]
    direction = np.where(np.arange(n_sensors) < n_sensors // 2, 1.0, -1.0)
    amp = 0.25 + 0.1 * label
    data = (
        base[:, None]
        + amp * direction[:, None] * wave[None, :]
        + noise_scale * rng.standard_normal((n_sensors, n_samples))
    )
    return SensorMatrix(
        sensor_ids=tuple(f"s{i:03d}" for i in range(n_sensors)),
        grid=TimeGrid(start=0, interval=interval, count=n_samples),
        data=data,
    )


def random_matrix(n_sensors: int, n_samples: int, seed: int = 0) -> SensorMatrix:
    """A uniform-random sensor matrix, e.g. for timing signature methods."""
    rng = np.random.default_rng(seed)
    # Drawn before the grid and the ids, so a size beyond memory fails at once as such.
    data = rng.uniform(0.0, 1.0, size=(n_sensors, n_samples))
    return SensorMatrix(
        sensor_ids=tuple(f"s{i:05d}" for i in range(n_sensors)),
        grid=TimeGrid(start=0, interval=1000, count=n_samples),
        data=data,
    )
