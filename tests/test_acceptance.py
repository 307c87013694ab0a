"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they execute.
"""

import csv
import os
import time

import numpy as np
import pytest

from cs_smooth.baselines import baseline_signature_batch
from cs_smooth.cli import main as cli_main
from cs_smooth.core import SensorMatrix, SensorSeries, TimeGrid, WindowSpec, align, finite_difference, windows
from cs_smooth.cs import block_layout, compute_signature, compute_signature_batch, train
from cs_smooth.evaluation import (
    CLASSIFICATION,
    LabeledDataset,
    cross_validate,
    merge_datasets,
    reference_predictor,
    signature_features,
)
from cs_smooth.fidelity import fidelity_components
from cs_smooth.synthetic import anti_correlated_matrix, class_stream, clustered_plateau_matrix

from naive_reference import naive_signature, naive_train


def report(criterion: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_oracle_equivalence():
    """compute_signature and the batched kernel match the brute-force reference.

    Each case trains on a short matrix, then signs every window of a longer
    stream that starts with it: windows at the first column and after it,
    steps shorter and longer than the window, values clamped beyond the
    training bounds.
    """
    rng = np.random.default_rng(20240101)
    started = time.perf_counter()
    worst = 0.0
    checked = 0
    for case in range(200):
        n = int(rng.integers(2, 17))
        wl = int(rng.integers(2, 33))
        n_blocks = int(rng.integers(1, n + 1))
        prefix = int(rng.integers(0, 2))
        data = rng.uniform(-5.0, 5.0, size=(n, wl + prefix))
        matrix = SensorMatrix(
            sensor_ids=tuple(f"s{i}" for i in range(n)),
            grid=TimeGrid(0, 1000, wl + prefix),
            data=data,
        )
        model = train(matrix)
        perm, lo, hi = naive_train(data.tolist())
        assert model.permutation.tolist() == perm, f"case {case}: permutations differ"
        step = int(rng.integers(1, wl + 3))
        extra = rng.uniform(-6.0, 6.0, size=(n, int(rng.integers(0, 3 * step + 1))))
        stream = SensorMatrix(
            sensor_ids=matrix.sensor_ids,
            grid=TimeGrid(0, 1000, wl + prefix + extra.shape[1]),
            data=np.hstack([data, extra]),
        )
        spec = WindowSpec(wl, step)
        batch = compute_signature_batch(stream, model, spec, n_blocks)
        for k, window in enumerate(windows(stream, spec)):
            sig = compute_signature(window, model, n_blocks)
            ref_real, ref_imag = naive_signature(
                window.values.tolist(),
                None if window.preceding is None else window.preceding.tolist(),
                perm,
                lo,
                hi,
                n_blocks,
            )
            for real, imag in ((sig.blocks_real, sig.blocks_imag), (batch.real[k], batch.imag[k])):
                worst = max(
                    worst,
                    float(np.max(np.abs(real - ref_real))),
                    float(np.max(np.abs(imag - ref_imag))),
                )
            checked += 1
        assert k == batch.n_signatures - 1, f"case {case}: window counts differ"
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 10.0
    assert report(
        1, ok, f"200 cases, {checked} windows, max |diff| {worst:.2e}, {elapsed:.2f}s"
    )


def test_criterion_2_block_layout_exhaustive():
    """Layout invariants hold for every (n, l) with n up to 64."""
    started = time.perf_counter()
    checked = 0
    for n in range(1, 65):
        for l in range(1, n + 1):
            ranges = block_layout(n, l).ranges
            assert len(ranges) == l
            assert ranges[0][0] == 1 and ranges[-1][1] == n
            covered = set()
            sizes = []
            for i, (b, e) in enumerate(ranges):
                assert b <= e
                covered.update(range(b, e + 1))
                sizes.append(e - b + 1)
                if i + 1 < l:
                    assert ranges[i + 1][0] in (e, e + 1)
            assert covered == set(range(1, n + 1))
            assert max(sizes) - min(sizes) <= 1
            checked += 1
    elapsed = time.perf_counter() - started
    ok = elapsed < 1.0
    assert report(2, ok, f"{checked} layouts verified in {elapsed:.3f}s")


def _cluster_positions(perm: np.ndarray, sizes: tuple[int, int, int]) -> dict[int, np.ndarray]:
    """Ordered positions of cluster A (0), cluster B (1) and noise (2) rows."""
    kind = np.repeat([0, 1, 2], sizes)[perm]
    return {k: np.where(kind == k)[0] for k in (0, 1, 2)}


def _clusters_apart(positions: dict[int, np.ndarray]) -> bool:
    """Each cluster is one contiguous run and no A row sits next to a B row."""
    contiguous = all(
        p.max() - p.min() + 1 == len(p) for p in (positions[0], positions[1])
    )
    gaps = np.abs(positions[0][:, None] - positions[1][None, :])
    return contiguous and gaps.min() > 1


def _clusters_at_ends(positions: dict[int, np.ndarray]) -> bool:
    """Both clusters contiguous at the two ends, the noise in one central run."""
    last = sum(len(p) for p in positions.values()) - 1
    contiguous = all(p.max() - p.min() + 1 == len(p) for p in positions.values())
    at_ends = (positions[0].min() == 0 and positions[1].max() == last) or (
        positions[1].min() == 0 and positions[0].max() == last
    )
    noise_in_middle = positions[2].min() > min(
        positions[0].max(), positions[1].max()
    ) and positions[2].max() < max(positions[0].min(), positions[1].min())
    return contiguous and at_ends and noise_in_middle


def test_criterion_3_grouping_property():
    """The ordering keeps each opposing cluster in one run, apart from the other.

    (a) Two equally sized opposing clusters plus noise: the positive and
    negative correlations cancel in the global coefficient, so a noise row
    (~1.0) usually outscores the cluster rows (~0.97) and the ordering most
    often starts with noise (89 of these 100 seeds), which then splits
    around the clusters (69 seeds: noise, one cluster, noise, the other
    cluster, noise). What the greedy rule does keep is the grouping: once a
    cluster's last row is placed, a noise row scores about 1 x 1 against an
    opposing row's 0.03 x 0.97, so each cluster forms one contiguous run and
    the two clusters are never adjacent.

    (b) When one correlation orientation dominates, the full layout emerges:
    the clusters at the two ends and the noise in one central run.
    """
    balanced = 0
    for seed in range(100):
        mat = clustered_plateau_matrix(15, 15, 10, t=600, seed=seed)
        if _clusters_apart(_cluster_positions(train(mat).permutation, (15, 15, 10))):
            balanced += 1
    dominant = 0
    for seed in range(100):
        mat = anti_correlated_matrix(20, 8, 12, t=400, seed=seed)
        if _clusters_at_ends(_cluster_positions(train(mat).permutation, (20, 8, 12))):
            dominant += 1
    ok = balanced >= 95 and dominant >= 95
    assert report(
        3,
        ok,
        f"balanced 15/15/10: {balanced}/100 trials kept each cluster in one run, apart; "
        f"dominant 20/8/12: {dominant}/100 trials put the clusters at the ends, noise centered",
    )


def test_criterion_4_compression_ratio():
    """At 128 sensors, a 20-block signature is >10x smaller than tuncer's."""
    rng = np.random.default_rng(4)
    data = rng.uniform(size=(128, 16))
    matrix = SensorMatrix(
        sensor_ids=tuple(f"s{i}" for i in range(128)),
        grid=TimeGrid(0, 1000, 16),
        data=data,
    )
    model = train(matrix)
    window = next(windows(matrix, WindowSpec(16, 16)))
    sig = compute_signature(window, model, 20)
    cs_size = len(sig.blocks_real) + len(sig.blocks_imag)
    tuncer_size = baseline_signature_batch(matrix, WindowSpec(16, 16), "tuncer").n_blocks
    ok = cs_size == 40 and tuncer_size == 1408 and tuncer_size > 10 * cs_size
    assert report(4, ok, f"cs {cs_size} values vs tuncer {tuncer_size} ({tuncer_size / cs_size:.1f}x)")


def test_criterion_5_fidelity_trend():
    """Divergence never rises with block count; dropping derivatives hurts."""
    mat = clustered_plateau_matrix(15, 15, 10, t=600, seed=0)
    model = train(mat)
    spec = WindowSpec(60, 1)
    block_counts = (5, 10, 20, 40)
    comps = [fidelity_components(mat, model, spec, l, bins=40) for l in block_counts]
    means = [c.js_mean for c in comps]
    non_increasing = all(means[i + 1] <= means[i] + 0.01 for i in range(len(means) - 1))
    margins = [c.js_real - c.js_mean for c in comps]
    real_only_worse = all(m > 0.05 for m in margins)
    ok = non_increasing and real_only_worse
    assert report(
        5,
        ok,
        f"js_mean {[f'{m:.3f}' for m in means]}, real-only margins {[f'{m:.3f}' for m in margins]}",
    )


def _three_class_dataset(
    n_sensors: int, wl: int, per_class: int, n_blocks: int, seed: int, real_only=False
) -> LabeledDataset:
    streams = [
        class_stream(label, n_sensors, wl * per_class, seed=seed + label)
        for label in range(3)
    ]
    history = np.concatenate([s.data for s in streams], axis=1)
    model = train(
        SensorMatrix(
            sensor_ids=streams[0].sensor_ids,
            grid=TimeGrid(0, 1000, history.shape[1]),
            data=history,
        )
    )
    real, imag, labels = [], [], []
    for label, stream in enumerate(streams):
        for window in windows(stream, WindowSpec(wl, wl)):
            sig = compute_signature(window, model, n_blocks)
            real.append(sig.blocks_real)
            imag.append(sig.blocks_imag)
            labels.append(f"pattern{label}")
    features = signature_features(np.stack(real), np.stack(imag), real_only=real_only)
    return LabeledDataset(features=features, labels=np.array(labels), task=CLASSIFICATION)


def test_criterion_6_downstream_classification():
    """Separable temporal patterns reach high macro F1 through the harness."""
    started = time.perf_counter()
    full = _three_class_dataset(32, 16, 200, 10, seed=600)
    f1_full = cross_validate(full, reference_predictor(CLASSIFICATION), 5, seed=0).score
    real_only = _three_class_dataset(32, 16, 200, 10, seed=600, real_only=True)
    f1_real = cross_validate(real_only, reference_predictor(CLASSIFICATION), 5, seed=0).score
    elapsed = time.perf_counter() - started
    ok = f1_full >= 0.95 and f1_real >= f1_full - 0.05 and elapsed < 60.0
    assert report(6, ok, f"f1 {f1_full:.4f}, real-only {f1_real:.4f}, {elapsed:.1f}s")


def _bench_medians(tmp_path, name: str, n_list: str, wl_list: str) -> dict:
    out = tmp_path / name
    code = cli_main(
        [
            "bench", "--methods", "cs", "--n-list", n_list, "--wl-list", wl_list,
            "--blocks", "20", "--seed", "7", "--out", str(out),
        ]
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {
        (int(r["n_sensors"]), int(r["window_len"])): float(r["median_seconds"])
        for r in rows
    }


def test_criterion_7_bench_linearity(tmp_path):
    """Ten-fold growth in either axis costs at most fifteen-fold time."""
    by_n = _bench_medians(tmp_path, "bench_n.csv", "1000,10000", "100")
    n_ratio = by_n[(10_000, 100)] / by_n[(1_000, 100)]
    by_wl = _bench_medians(tmp_path, "bench_wl.csv", "100", "100,1000")
    wl_ratio = by_wl[(100, 1000)] / by_wl[(100, 100)]
    ok = n_ratio <= 15.0 and wl_ratio <= 15.0
    assert report(7, ok, f"n 10x -> {n_ratio:.1f}x, window 10x -> {wl_ratio:.1f}x")


def test_criterion_8_cross_source_merge():
    """Sources with different sensor counts merge into one learnable dataset."""
    parts = []
    for source_idx, n_sensors in enumerate((39, 52, 46)):
        parts.append(
            _three_class_dataset(n_sensors, 12, 100, 20, seed=800 + 10 * source_idx)
        )
    merged = merge_datasets(parts)
    metrics = cross_validate(merged, reference_predictor(CLASSIFICATION), 5, seed=0)
    ok = merged.features.shape[1] == 40 and metrics.score >= 0.9
    assert report(
        8, ok, f"merged {merged.features.shape[0]}x{merged.features.shape[1]}, f1 {metrics.score:.4f}"
    )


def test_criterion_9_degenerate_inputs():
    """Constant, differenced-monotonic, single-sensor and out-of-range inputs."""
    failures = []

    # constant sensors next to live ones
    data = np.vstack([np.full(30, 3.3), np.linspace(0, 1, 30), np.full(30, -1.0)])
    mat = SensorMatrix(("c1", "live", "c2"), TimeGrid(0, 1000, 30), data)
    model = train(mat)
    for window in windows(mat, WindowSpec(10, 10)):
        sig = compute_signature(window, model, 2)
        if not (np.all(np.isfinite(sig.blocks_real)) and np.all(np.isfinite(sig.blocks_imag))):
            failures.append("constant sensors")

    # monotonic counter handled via finite differences
    counter = SensorSeries("energy", np.arange(41) * 1000, np.cumsum(np.ones(41) * 2.5))
    rate = finite_difference(counter)
    grid = TimeGrid(int(rate.timestamps[0]), 1000, len(rate))
    mono = align([rate], grid)
    mono_model = train(mono)
    for window in windows(mono, WindowSpec(8, 8)):
        sig = compute_signature(window, mono_model, 1)
        if not np.all(np.isfinite(sig.blocks_real)):
            failures.append("monotonic counter")

    # single-sensor matrix
    single = SensorMatrix(("only",), TimeGrid(0, 1000, 12), np.arange(12.0)[None, :])
    single_model = train(single)
    sig = compute_signature(next(windows(single, WindowSpec(4, 4))), single_model, 1)
    if not np.all(np.isfinite(sig.blocks_real)):
        failures.append("single sensor")

    # inference far outside the training range stays clamped and finite
    rng = np.random.default_rng(9)
    train_mat = SensorMatrix(
        tuple(f"s{i}" for i in range(4)), TimeGrid(0, 1000, 20), rng.uniform(size=(4, 20))
    )
    wild_model = train(train_mat)
    wild = SensorMatrix(
        train_mat.sensor_ids, TimeGrid(0, 1000, 20), rng.uniform(-1e6, 1e6, size=(4, 20))
    )
    for window in windows(wild, WindowSpec(5, 5)):
        sig = compute_signature(window, wild_model, 3)
        if not (
            np.all((sig.blocks_real >= 0) & (sig.blocks_real <= 1))
            and np.all((sig.blocks_imag >= -1) & (sig.blocks_imag <= 1))
        ):
            failures.append("out-of-range inference")

    ok = not failures
    assert report(9, ok, "all degenerate inputs finite" if ok else f"failed: {failures}")


@pytest.mark.skipif(
    "HPC_ODA_APPLICATION_DIR" not in os.environ,
    reason="optional: set HPC_ODA_APPLICATION_DIR (sensor CSVs + labels.csv) "
    "and optionally HPC_ODA_PREDICTOR_CMD to run the integration check",
)
def test_criterion_10_optional_hpc_oda_integration(tmp_path):
    """Optional end-to-end check against a local HPC-ODA Application segment."""
    dataset = os.environ["HPC_ODA_APPLICATION_DIR"]
    labels = os.path.join(dataset, "labels.csv")
    model = tmp_path / "model.json"
    batch = tmp_path / "batch.csv"
    metrics = tmp_path / "metrics.csv"
    assert cli_main(["train", "--dataset", dataset, "--out", str(model)]) == 0
    assert cli_main(
        [
            "sign", "--dataset", dataset, "--model", str(model),
            "--window", "30s", "--step", "5s", "--blocks", "20", "--out", str(batch),
        ]
    ) == 0
    eval_args = [
        "eval", "--batch", str(batch), "--labels", labels,
        "--task", "classification", "--out", str(metrics),
    ]
    predictor_cmd = os.environ.get("HPC_ODA_PREDICTOR_CMD")
    if predictor_cmd:
        eval_args += ["--predictor-cmd", predictor_cmd]
    assert cli_main(eval_args) == 0
    with open(metrics, newline="") as fh:
        score = float(list(csv.DictReader(fh))[-1]["score"])
    ok = abs(score - 0.995) <= 0.05
    assert report(10, ok, f"application-segment f1 {score:.4f}")
