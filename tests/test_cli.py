import contextlib
import csv
import io
import json
import math
import re
import shlex
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cs_smooth import batchio, cs
from cs_smooth.cli import main, parse_span
from cs_smooth.core import SensorMatrix, TimeGrid, WindowSpec, align, infer_grid, load_dataset_dir
from cs_smooth.errors import EmptyInputError, FormatError, InvalidParameterError
from cs_smooth.synthetic import anti_correlated_matrix, class_stream

from naive_reference import naive_align, naive_signature, naive_train


def run(*argv):
    return main([str(a) for a in argv])


def assert_one_line_error(capsys, code):
    err = capsys.readouterr().err
    assert err.startswith(f"error: {code}:")
    assert "\n" not in err.strip()
    assert "Traceback" not in err


def read_report(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestParseSpan:
    def test_samples(self):
        assert parse_span("15").to_samples(1000) == 15

    def test_durations(self):
        assert parse_span("30s").to_samples(1000) == 30
        assert parse_span("500ms").to_samples(100) == 5
        assert parse_span("2m").to_samples(1000) == 120
        assert parse_span("1h").to_samples(60_000) == 60

    def test_non_multiple_duration(self):
        with pytest.raises(InvalidParameterError):
            parse_span("2500ms").to_samples(1000)

    def test_garbage(self):
        with pytest.raises(InvalidParameterError):
            parse_span("fast")


@pytest.mark.parametrize("command", ["train", "sign", "fidelity"])
def test_shared_flags_share_their_help(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    out = capsys.readouterr().out
    assert "directory of per-sensor CSVs" in out
    assert "grid interval in ms (default: inferred)" in out
    assert ("window length: samples or <int>(ms|s|m|h)" in out) == (command != "train")


class TestTrainCommand:
    def test_writes_round_trippable_model(self, write_dataset, tmp_path, capsys):
        rng = np.random.default_rng(0)
        dataset = write_dataset(rng.uniform(size=(4, 20)))
        out = tmp_path / "model.json"
        assert run("train", "--dataset", dataset, "--out", out) == 0
        captured = capsys.readouterr().out
        assert "n=4 t=20" in captured
        model = cs.load_model(out)
        assert model.n_sensors == 4

    def test_empty_dir_fails(self, tmp_path, capsys):
        empty = tmp_path / "none"
        empty.mkdir()
        assert run("train", "--dataset", empty, "--out", tmp_path / "m.json") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: empty-input:")
        assert "\n" not in err.strip()

    def test_constant_sensor_is_fine(self, write_dataset, tmp_path):
        data = np.vstack([np.full(12, 7.0), np.arange(12, dtype=float)])
        dataset = write_dataset(data)
        assert run("train", "--dataset", dataset, "--out", tmp_path / "m.json") == 0

    @pytest.mark.parametrize("interval", [2**63, 99999999999999999999])
    def test_interval_beyond_int64(self, write_dataset, tmp_path, capsys, interval):
        dataset = write_dataset(np.random.default_rng(0).uniform(size=(3, 10)))
        out = tmp_path / "m.json"
        assert run("train", "--dataset", dataset, "--interval", interval, "--out", out) == 1
        assert_one_line_error(capsys, "invalid-parameter")
        assert not out.exists()

    def test_grid_beyond_memory(self, write_dataset, tmp_path, capsys):
        # 10**17 + 1 int64 instants are 711 PiB: the allocation fails at once.
        dataset = write_dataset(np.array([[1.0, 2.0], [3.0, 5.0]]), interval=10**17)
        out = tmp_path / "m.json"
        assert run("train", "--dataset", dataset, "--interval", 1, "--out", out) == 1
        assert capsys.readouterr().err == (
            "error: invalid-parameter: a grid of 100000000000000001 instants "
            "does not fit in memory\n"
        )
        assert not out.exists()

    def test_aligned_matrix_beyond_memory(self, write_dataset, tmp_path, capsys, monkeypatch):
        def no_memory(*args):
            raise MemoryError

        dataset = write_dataset(np.random.default_rng(0).uniform(size=(3, 10)))
        monkeypatch.setattr(np, "interp", no_memory)  # what align fills each row with
        out = tmp_path / "m.json"
        assert run("train", "--dataset", dataset, "--out", out) == 1
        assert capsys.readouterr().err == (
            "error: invalid-parameter: an aligned matrix of 10 samples does not fit in memory\n"
        )
        assert not out.exists()

    def test_inferred_gap_beyond_int64(self, write_dataset, tmp_path, capsys):
        # The one gap, 1.8e19 ms, wraps around in int64 arithmetic.
        data = np.array([[1.0, 2.0], [3.0, 5.0]])
        dataset = write_dataset(data, interval=18 * 10**18, start=-9 * 10**18)
        out = tmp_path / "m.json"
        assert run("train", "--dataset", dataset, "--out", out) == 1
        assert capsys.readouterr().err == (
            "error: invalid-parameter: grid interval and instants must fit in int64 ms\n"
        )
        assert not out.exists()


class TestIngestErrors:
    @pytest.mark.parametrize(
        "content, reason",
        [
            (b"0,1.0\n99999999999999999999,1.0\n", "s001.csv: line 2: timestamp"),
            (b"0,1.0\n1000,2.0\n2000,\xff3.0\n", "s001.csv: line 3: invalid UTF-8 byte 0xff"),
        ],
    )
    def test_bad_sensor_file_is_one_line_parse_error(
        self, write_dataset, tmp_path, capsys, content, reason
    ):
        dataset = write_dataset(np.random.default_rng(0).uniform(size=(3, 10)))
        (dataset / "s001.csv").write_bytes(content)
        assert run("train", "--dataset", dataset, "--out", tmp_path / "m.json") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: parse: {reason}")
        assert "\n" not in err.strip()


    @pytest.mark.parametrize(
        "content, expected",
        [
            (b"1000,x\n", "parse: s001.csv: line 1: cannot parse '1000,x'"),
            (
                b"0,1.0\n1000,nan\n",
                "rejected-value: s001.csv: sensor 's001': non-finite value at line 2",
            ),
            (b"# nothing here\n", "empty-input: s001.csv: sensor 's001': no records"),
        ],
    )
    def test_error_names_the_file(self, write_dataset, tmp_path, capsys, content, expected):
        dataset = write_dataset(np.random.default_rng(0).uniform(size=(3, 10)))
        (dataset / "s001.csv").write_bytes(content)
        assert run("train", "--dataset", dataset, "--out", tmp_path / "m.json") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {expected}")
        assert "\n" not in err.strip()


class TestSignCommand:
    def make_model(self, dataset, tmp_path):
        out = tmp_path / "model.json"
        assert run("train", "--dataset", dataset, "--out", out) == 0
        return out

    def test_window_enumeration_row_count(self, write_dataset, tmp_path):
        rng = np.random.default_rng(1)
        dataset = write_dataset(rng.uniform(size=(3, 10)))
        model = self.make_model(dataset, tmp_path)
        out = tmp_path / "batch.csv"
        assert run(
            "sign", "--dataset", dataset, "--model", model,
            "--window", 4, "--step", 3, "--blocks", 2, "--out", out,
        ) == 0
        batch = batchio.read_signature_batch(out)
        assert batch.n_signatures == 3

    def test_cs_row_width_is_twice_blocks(self, write_dataset, tmp_path):
        rng = np.random.default_rng(2)
        dataset = write_dataset(rng.uniform(size=(25, 12)))
        model = self.make_model(dataset, tmp_path)
        out = tmp_path / "batch.csv"
        assert run(
            "sign", "--dataset", dataset, "--model", model,
            "--window", 6, "--step", 6, "--blocks", 20, "--out", out,
        ) == 0
        batch = batchio.read_signature_batch(out)
        assert batch.real.shape[1] == 20
        assert batch.imag.shape[1] == 20

    def test_tuncer_row_width(self, write_dataset, tmp_path):
        rng = np.random.default_rng(3)
        dataset = write_dataset(rng.uniform(size=(128, 8)))
        out = tmp_path / "batch.csv"
        assert run(
            "sign", "--dataset", dataset, "--method", "tuncer",
            "--window", 4, "--step", 4, "--out", out,
        ) == 0
        batch = batchio.read_signature_batch(out)
        assert batch.real.shape[1] == 1408
        assert batch.imag is None

    def test_duration_window_converted_by_interval(self, write_dataset, tmp_path):
        rng = np.random.default_rng(4)
        dataset = write_dataset(rng.uniform(size=(3, 12)), interval=500)
        model = self.make_model(dataset, tmp_path)
        out = tmp_path / "batch.csv"
        assert run(
            "sign", "--dataset", dataset, "--model", model,
            "--window", "2s", "--step", "1s", "--blocks", 3, "--out", out,
        ) == 0
        batch = batchio.read_signature_batch(out)
        # 12 samples at 500ms: windows of 4 samples every 2 -> 5 windows
        assert batch.n_signatures == 5

    def test_retrain_every_stays_deterministic(self, write_dataset, tmp_path):
        rng = np.random.default_rng(5)
        dataset = write_dataset(rng.uniform(size=(4, 30)))
        model = self.make_model(dataset, tmp_path)
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert run(
                "sign", "--dataset", dataset, "--model", model,
                "--window", 5, "--step", 5, "--blocks", 4,
                "--retrain-every", 2, "--out", out,
            ) == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]

    def test_retrain_updates_bounds_for_later_windows(self, write_dataset, tmp_path):
        # values drift upward, so a retrained model has wider bounds and later
        # signatures must differ from the frozen-model run
        rng = np.random.default_rng(12)
        drift = rng.uniform(size=(3, 40)) + np.linspace(0, 5, 40)
        dataset = write_dataset(drift)
        model = self.make_model(dataset, tmp_path)
        frozen, retrained = tmp_path / "frozen.csv", tmp_path / "retrained.csv"
        for out, extra in ((frozen, []), (retrained, ["--retrain-every", "2"])):
            assert run(
                "sign", "--dataset", dataset, "--model", model,
                "--window", 5, "--step", 5, "--blocks", 3, "--out", out, *extra,
            ) == 0
        a = batchio.read_signature_batch(frozen)
        b = batchio.read_signature_batch(retrained)
        assert np.array_equal(a.real[0], b.real[0])  # before the first retrain
        assert not np.array_equal(a.real[-1], b.real[-1])

    @pytest.mark.parametrize("window,step", [(6, 1), (5, 4)])
    def test_retrain_every_window_matches_per_prefix_train(
        self, write_dataset, tmp_path, window, step
    ):
        # The reference retrains from scratch on every sample before each
        # window (from the third sample on), as sign did before it updated
        # the correlation incrementally.
        data = anti_correlated_matrix(4, 3, 2, t=90, seed=13).data
        dataset = write_dataset(data)
        model_path = self.make_model(dataset, tmp_path)
        out = tmp_path / "batch.csv"
        assert run(
            "sign", "--dataset", dataset, "--model", model_path, "--window", window,
            "--step", step, "--blocks", 4, "--retrain-every", 1, "--out", out,
        ) == 0
        series = load_dataset_dir(dataset)
        matrix = align(series, infer_grid(series))
        spec = WindowSpec(window, step)
        model = cs.load_model(model_path)
        parts = []
        for i, start in enumerate(spec.starts(matrix.n_samples)):
            if start >= 2:
                history = SensorMatrix(
                    matrix.sensor_ids, TimeGrid(0, 1000, start), matrix.data[:, :start]
                )
                model = cs.train(history)
            parts.append(cs.compute_signature_batch(matrix, model, spec, 4, i, i + 1))
        expected = tmp_path / "expected.csv"
        batchio.write_signature_batch(expected, concat_batches(parts))
        assert out.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("step", [1, 4])
    def test_raw_irregular_csv_matches_naive_pipeline(self, tmp_path, step):
        # Sensors sampled at their own irregular instants over different spans,
        # written as raw files: lines shuffled, a comment, and a duplicate
        # timestamp whose later line wins.
        rng = np.random.default_rng(21)
        dataset = tmp_path / "raw"
        dataset.mkdir()
        truth = []
        for i, sign in enumerate([1.0, -1.0, 1.0, -0.5]):
            ts = (int(rng.integers(0, 3000)) + np.cumsum(rng.integers(300, 1700, 70))).tolist()
            vs = (sign * np.sin(np.asarray(ts) / 4000.0) + rng.normal(0.0, 0.3, 70)).tolist()
            truth.append((ts, vs))
            lines = [f"{t},{v!r}" for t, v in zip(ts, vs)]
            rng.shuffle(lines)
            lines = ["# raw export", f"{ts[5]},{vs[5] + 100.0!r}", *lines]
            (dataset / f"s{i}.csv").write_text("\n".join(lines) + "\n")
        model, out = tmp_path / "model.json", tmp_path / "batch.csv"
        assert run("train", "--dataset", dataset, "--interval", 1000, "--out", model) == 0
        assert run(
            "sign", "--dataset", dataset, "--model", model, "--interval", 1000,
            "--window", 6, "--step", step, "--blocks", 3, "--out", out,
        ) == 0
        start = max(ts[0] for ts, _ in truth)
        count = (min(ts[-1] for ts, _ in truth) - start) // 1000 + 1
        aligned = [[float(v) for v in row] for row in naive_align(truth, start, 1000, count)]
        perm, lo, hi = naive_train(aligned)
        assert cs.load_model(model).permutation.tolist() == perm
        batch = batchio.read_signature_batch(out)
        starts = range(0, count - 6 + 1, step)
        assert batch.window_starts.tolist() == [start + 1000 * s for s in starts]
        for real, imag, s in zip(batch.real, batch.imag, starts, strict=True):
            window = [row[s : s + 6] for row in aligned]
            preceding = [row[s - 1] for row in aligned] if s else None
            want_real, want_imag = naive_signature(window, preceding, perm, lo, hi, 3)
            np.testing.assert_allclose(real, want_real, rtol=0, atol=1e-9)
            np.testing.assert_allclose(imag, want_imag, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("method", ["tuncer", "bodik", "lan"])
    def test_retrain_every_rejected_for_baselines(self, write_dataset, tmp_path, capsys, method):
        # Baselines have no model, so there is nothing to retrain.
        dataset = write_dataset(np.random.default_rng(11).uniform(size=(3, 40)))
        code = run(
            "sign", "--dataset", dataset, "--method", method, "--window", 5, "--step", 5,
            "--lan-subsample", 2, "--retrain-every", 2, "--out", tmp_path / "batch.csv",
        )
        assert code == 1
        assert_one_line_error(capsys, "invalid-parameter")
        assert not (tmp_path / "batch.csv").exists()

    def test_threads_flag_rejected(self, write_dataset, tmp_path, capsys):
        rng = np.random.default_rng(11)
        dataset = write_dataset(rng.uniform(size=(6, 40)))
        model = self.make_model(dataset, tmp_path)
        capsys.readouterr()
        code = run(
            "sign", "--dataset", dataset, "--model", model,
            "--window", 5, "--step", 5, "--blocks", 3,
            "--threads", 2, "--out", tmp_path / "batch.csv",
        )
        assert code == 1
        assert_one_line_error(capsys, "invalid-parameter")

    def test_zero_blocks_rejected(self, write_dataset, tmp_path, capsys):
        # More sensors than the default 20 blocks, so a 0 read as "unset" would sign.
        dataset = write_dataset(np.random.default_rng(4).uniform(size=(24, 10)))
        model = self.make_model(dataset, tmp_path)
        out = tmp_path / "batch.csv"
        assert run(
            "sign", "--dataset", dataset, "--model", model,
            "--window", 4, "--step", 4, "--blocks", 0, "--out", out,
        ) == 1
        err = capsys.readouterr().err
        assert err == "error: invalid-parameter: block counts must be >= 1\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags", [["--blocks", 2], ["--model", "model.json", "--blocks", 0]]
    )
    def test_flags_checked_before_any_file_is_read(self, write_dataset, tmp_path, capsys, flags):
        # The dataset holds a malformed CSV and no model file exists, so only a
        # check made before reading either reports invalid-parameter.
        dataset = write_dataset(np.random.default_rng(4).uniform(size=(24, 10)))
        (dataset / "s001.csv").write_bytes(b"0,1.0\n1000,x\n")
        flags = [tmp_path / f if f == "model.json" else f for f in flags]
        out = tmp_path / "batch.csv"
        assert run(
            "sign", "--dataset", dataset, "--window", 4, "--step", 4, *flags, "--out", out,
        ) == 1
        assert_one_line_error(capsys, "invalid-parameter")
        assert not out.exists()

    def test_model_mismatch_reported(self, write_dataset, tmp_path, capsys):
        rng = np.random.default_rng(6)
        dataset = write_dataset(rng.uniform(size=(3, 10)))
        other = write_dataset(rng.uniform(size=(4, 10)), subdir="other")
        model = self.make_model(other, tmp_path)
        code = run(
            "sign", "--dataset", dataset, "--model", model,
            "--window", 4, "--step", 2, "--blocks", 2, "--out", tmp_path / "x.csv",
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: model-incompatible:")


class TestWindowLongerThanData:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sign", "--step", 1],
            ["sign", "--step", 1, "--retrain-every", 2],
            ["sign", "--step", 1, "--method", "tuncer"],
            ["fidelity", "--step", 1],
        ],
    )
    def test_one_degenerate_input_line(self, write_dataset, tmp_path, capsys, argv):
        dataset = write_dataset(np.random.default_rng(0).uniform(size=(3, 10)))
        model = tmp_path / "model.json"
        assert run("train", "--dataset", dataset, "--out", model) == 0
        capsys.readouterr()
        code = run(
            *argv, "--dataset", dataset, "--model", model, "--window", 11,
            "--blocks", 2, "--out", tmp_path / "out.csv",
        )
        assert code == 1
        assert_one_line_error(capsys, "degenerate-input")


class TestStepBeyondStream:
    """A step longer than any stride numpy can hold still signs the one window,
    byte for byte as a step of the whole stream does."""

    @pytest.mark.parametrize("step", [2**60, 2**63, 10**30])
    @pytest.mark.parametrize(
        "argv",
        [
            ["sign", "--blocks", 2],
            ["sign", "--blocks", 2, "--retrain-every", 1],
            ["fidelity", "--blocks", "1,2"],
        ],
    )
    def test_matches_step_of_whole_stream(self, write_dataset, tmp_path, argv, step):
        dataset = write_dataset(np.random.default_rng(14).uniform(size=(4, 30)))
        model = tmp_path / "model.json"
        assert run("train", "--dataset", dataset, "--out", model) == 0
        outputs = []
        for name, value in (("whole.csv", 30), ("huge.csv", step)):
            out = tmp_path / name
            assert run(
                *argv, "--dataset", dataset, "--model", model,
                "--window", 5, "--step", value, "--out", out,
            ) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestRenderCommand:
    def write_batch(self, tmp_path, real, imag):
        """A batch file of the given (signatures x blocks) rows, all at instant 0."""
        path = tmp_path / "batch.csv"
        instants = np.zeros(len(real), dtype=np.int64)
        batchio.write_signature_batch(path, cs.SignatureBatch(
            instants, instants, np.asarray(real, dtype=float), np.asarray(imag, dtype=float)
        ))
        return path

    @staticmethod
    def read_image(path):
        """The pixels of a P5 image under the writer's fixed header."""
        magic, size, maxval, raster = path.read_bytes().split(b"\n", 3)
        assert (magic, maxval) == (b"P5", b"255")
        width, height = map(int, size.split())
        return np.frombuffer(raster, dtype=np.uint8).reshape(height, width)

    def test_real_pixel_mapping(self, tmp_path):
        batch = self.write_batch(tmp_path, [[1.0, 0.0, 0.5]], [[0.0, 0.0, 0.0]])
        out = tmp_path / "img.pgm"
        assert run("render", "--batch", batch, "--component", "real", "--out", out) == 0
        img = self.read_image(out)
        assert img.shape == (3, 1)  # one pixel-row per block, one column per signature
        assert img[:, 0].tolist() == [0, 255, 128]

    def test_constant_imag_renders_mid_gray(self, tmp_path):
        batch = self.write_batch(tmp_path, [[0.1, 0.2], [0.4, 0.5]], [[0.3, 0.3], [0.3, 0.3]])
        out = tmp_path / "img.pgm"
        assert run("render", "--batch", batch, "--component", "imag", "--out", out) == 0
        img = self.read_image(out)
        assert img.shape == (2, 2)
        assert np.all(img == 128)

    def test_imag_rescaled_over_batch(self, tmp_path):
        batch = self.write_batch(tmp_path, [[0.0, 0.0]], [[-0.2, 0.6]])
        out = tmp_path / "img.pgm"
        assert run("render", "--batch", batch, "--component", "imag", "--out", out) == 0
        img = self.read_image(out)
        assert img[:, 0].tolist() == [255, 0]

    def test_empty_batch_errors(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert run("render", "--batch", path, "--out", tmp_path / "img.pgm") == 1
        assert capsys.readouterr().err.startswith("error: empty-input:")


def _csv_writer_batch(batch):
    """The batch bytes as csv.writer with a per-float repr wrote them."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    width = batch.n_blocks
    parts = ("real",) if batch.imag is None else ("real", "imag")
    writer.writerow(
        ["window_start", "window_end"]
        + [f"{part}_{i}" for part in parts for i in range(1, width + 1)]
    )
    for k in range(batch.n_signatures):
        writer.writerow(
            [int(batch.window_starts[k]), int(batch.window_ends[k])]
            + [repr(float(v)) for part in parts for v in getattr(batch, part)[k]]
        )
    return buf.getvalue().encode("utf-8")


def concat_batches(parts):
    """One batch holding the rows of ``parts`` (complex batches) in order."""
    return cs.SignatureBatch(*(
        np.concatenate([getattr(p, f) for p in parts])
        for f in ("window_starts", "window_ends", "real", "imag")
    ))


class TestBatchWriterBytes:
    def test_matches_csv_writer_bytes(self, tmp_path):
        rng = np.random.default_rng(5)
        real = np.array([[-0.0, 1e-300, 0.1, 1.0], rng.uniform(size=4)])
        imag = np.array([[0.1, -0.0, -1e-300, 5e-324], rng.uniform(-1, 1, size=4)])
        starts, ends = np.array([0, 1_000]), np.array([15_000, 16_000])
        # A complex batch, then a baseline batch without imaginary columns.
        for batch in (
            cs.SignatureBatch(starts, ends, real, imag),
            cs.SignatureBatch(starts, ends, real, None),
        ):
            path = tmp_path / "batch.csv"
            assert batchio.write_signature_batch(path, batch) == 2
            assert path.read_bytes() == _csv_writer_batch(batch)
            buf = io.StringIO(newline="")
            batchio.write_signature_batch(buf, batch)
            assert buf.getvalue().encode("utf-8") == _csv_writer_batch(batch)


class TestFidelityCommand:
    def test_report_rows_per_block_count(self, write_dataset, tmp_path):
        rng = np.random.default_rng(7)
        dataset = write_dataset(np.cumsum(rng.standard_normal((12, 60)), axis=1))
        model = tmp_path / "model.json"
        assert run("train", "--dataset", dataset, "--out", model) == 0
        out = tmp_path / "fidelity.csv"
        assert run(
            "fidelity", "--dataset", dataset, "--model", model,
            "--window", 10, "--step", 10, "--blocks", "2,4,8,12", "--out", out,
        ) == 0
        rows = read_report(out)
        assert [r["l"] for r in rows] == ["2", "4", "8", "12"]
        for row in rows:
            mean = (float(row["js_real"]) + float(row["js_imag"])) / 2
            assert float(row["js_mean"]) == pytest.approx(mean, abs=1e-12)

    def test_lossless_configuration_reports_zero(self, write_dataset, tmp_path):
        rng = np.random.default_rng(8)
        dataset = write_dataset(rng.uniform(size=(5, 30)))
        model = tmp_path / "model.json"
        assert run("train", "--dataset", dataset, "--out", model) == 0
        out = tmp_path / "fidelity.csv"
        assert run(
            "fidelity", "--dataset", dataset, "--model", model,
            "--window", 1, "--step", 1, "--blocks", "5", "--out", out,
        ) == 0
        row = read_report(out)[0]
        assert float(row["js_mean"]) < 1e-9

    def test_block_count_beyond_sensors_errors(self, write_dataset, tmp_path, capsys):
        rng = np.random.default_rng(9)
        dataset = write_dataset(rng.uniform(size=(4, 20)))
        model = tmp_path / "model.json"
        assert run("train", "--dataset", dataset, "--out", model) == 0
        code = run(
            "fidelity", "--dataset", dataset, "--model", model,
            "--window", 5, "--step", 5, "--blocks", "2,8", "--out", tmp_path / "f.csv",
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: invalid-block-count:")

    @pytest.mark.parametrize(
        "flags, code",
        [
            (["--blocks", "5,500"], "invalid-block-count"),
            (["--blocks", "5", "--bins", "0"], "invalid-parameter"),
        ],
    )
    def test_bad_count_or_bins_writes_no_report(self, write_dataset, tmp_path, capsys, flags, code):
        dataset = write_dataset(np.random.default_rng(9).uniform(size=(8, 40)))
        model = tmp_path / "model.json"
        assert run("train", "--dataset", dataset, "--out", model) == 0
        capsys.readouterr()
        out = tmp_path / "f.csv"
        assert run(
            "fidelity", "--dataset", dataset, "--model", model,
            "--window", 5, "--step", 1, *flags, "--out", out,
        ) == 1
        assert_one_line_error(capsys, code)
        assert not out.exists()

    # (2, 4 sensors, bins) int64 counts: 2**61 bytes, beyond any address space,
    # so the allocation fails at once; 10**20 bins exceed what numpy can index.
    @pytest.mark.parametrize("bins", [2**55, 10**20])
    def test_bins_beyond_memory(self, write_dataset, tmp_path, capsys, bins):
        dataset = write_dataset(np.random.default_rng(9).uniform(size=(4, 20)))
        model = tmp_path / "model.json"
        assert run("train", "--dataset", dataset, "--out", model) == 0
        capsys.readouterr()
        out = tmp_path / "f.csv"
        assert run(
            "fidelity", "--dataset", dataset, "--model", model, "--window", 5,
            "--step", 5, "--blocks", 2, "--bins", bins, "--out", out,
        ) == 1
        assert_one_line_error(capsys, "invalid-parameter")
        assert not out.exists()

    def test_malformed_block_list(self, write_dataset, tmp_path, capsys):
        dataset = write_dataset(np.random.default_rng(9).uniform(size=(4, 20)))
        model = tmp_path / "model.json"
        assert run("train", "--dataset", dataset, "--out", model) == 0
        code = run(
            "fidelity", "--dataset", dataset, "--model", model,
            "--window", 5, "--step", 5, "--blocks", "1,,2", "--out", tmp_path / "f.csv",
        )
        assert code == 1
        assert_one_line_error(capsys, "invalid-parameter")


def make_labeled_batch(tmp_path, windows_per_class=12, n=12, wl=8, real_only_signal=True):
    """Three separable classes of CS signatures plus a labels CSV."""
    streams = [
        class_stream(label, n, wl * windows_per_class + 1, seed=17 + label)
        for label in range(3)
    ]
    merged = np.concatenate([s.data for s in streams], axis=1)
    model = cs.train(
        SensorMatrix(
            sensor_ids=streams[0].sensor_ids,
            grid=TimeGrid(0, 1000, merged.shape[1]),
            data=merged,
        )
    )
    parts, labels = [], {}
    offset = 0
    for label, stream in enumerate(streams):
        shifted = SensorMatrix(
            sensor_ids=stream.sensor_ids,
            grid=TimeGrid(offset, 1000, stream.n_samples),
            data=stream.data,
        )
        parts.append(cs.compute_signature_batch(shifted, model, WindowSpec(wl, wl), 6))
        labels.update((start, f"app{label}") for start in parts[-1].window_starts.tolist())
        offset += stream.n_samples * 1000
    batch_path = tmp_path / "batch.csv"
    batchio.write_signature_batch(batch_path, concat_batches(parts))
    labels_path = tmp_path / "labels.csv"
    labels_path.write_text(
        "window_start,label\n"
        + "\n".join(f"{s},{v}" for s, v in sorted(labels.items()))
        + "\n"
    )
    return batch_path, labels_path


class TestEvalCommand:
    def test_separable_classes_score_high(self, tmp_path, capsys):
        batch, labels = make_labeled_batch(tmp_path)
        out = tmp_path / "metrics.csv"
        assert run(
            "eval", "--batch", batch, "--labels", labels,
            "--task", "classification", "--out", out,
        ) == 0
        rows = read_report(out)
        assert rows[-1]["fold"] == "mean"
        assert float(rows[-1]["score"]) >= 0.95

    @pytest.mark.parametrize("task", ["classification", "regression"])
    def test_every_report_row_parses_as_a_number(self, tmp_path, task):
        batch, labels = make_labeled_batch(tmp_path)
        if task == "regression":
            rows = read_report_batch(batch)
            labels.write_text("window_start,label\n" + "".join(
                f"{row['window_start']},{i % 7 * 0.25}\n" for i, row in enumerate(rows)))
        out = tmp_path / "metrics.csv"
        assert run("eval", "--batch", batch, "--labels", labels, "--task", task,
                   "--folds", 4, "--out", out) == 0
        rows = read_report(out)
        assert [row["fold"] for row in rows] == ["0", "1", "2", "3", "mean"]
        scores = [float(row["score"]) for row in rows]
        assert scores[-1] == float(np.mean(scores[:-1]))

    def test_same_seed_same_report(self, tmp_path):
        batch, labels = make_labeled_batch(tmp_path)
        reports = []
        for name in ("m1.csv", "m2.csv"):
            out = tmp_path / name
            assert run(
                "eval", "--batch", batch, "--labels", labels,
                "--seed", 9, "--out", out,
            ) == 0
            reports.append(out.read_text())
        assert reports[0] == reports[1]

    def test_regression_labels_with_classification_flag(self, tmp_path, capsys):
        batch, labels = make_labeled_batch(tmp_path)
        distinct = "window_start,label\n" + "\n".join(
            f"{row['window_start']},{i * 0.125}"
            for i, row in enumerate(read_report_batch(batch))
        )
        labels.write_text(distinct + "\n")
        code = run("eval", "--batch", batch, "--labels", labels, "--out", tmp_path / "m.csv")
        assert code == 1
        assert capsys.readouterr().err.startswith("error: task:")

    def test_negative_seed_rejected_before_any_file_is_read(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        code = run("eval", "--batch", missing, "--labels", missing, "--seed", -1,
                   "--out", tmp_path / "m.csv")
        assert code == 1
        assert_one_line_error(capsys, "invalid-parameter")

    @pytest.mark.parametrize(
        "flag, value, reason",
        [
            ("--folds", "1", "--folds must be >= 2"),
            ("--folds", "x", "--folds must be integers, got 'x'"),
            ("--predictor-cmd", '"unterminated',
             "--predictor-cmd is not valid shell words: No closing quotation"),
            ("--predictor-cmd", "", "--predictor-cmd is empty"),
            ("--predictor-cmd", "  ", "--predictor-cmd is empty"),
        ],
    )
    def test_bad_flag_rejected_before_any_file_is_read(self, tmp_path, capsys, flag, value, reason):
        missing = tmp_path / "missing.csv"
        code = run("eval", "--batch", missing, "--labels", missing, flag, value,
                   "--out", tmp_path / "m.csv")
        assert code == 1
        assert capsys.readouterr().err == f"error: invalid-parameter: {reason}\n"

    def test_predictor_cmd_split_into_shell_words_once(self, tmp_path):
        batch, labels = make_labeled_batch(tmp_path)
        plugin = tmp_path / "a plugin dir" / "plugin.py"
        plugin.parent.mkdir()
        # Predicts the first training label for every test row. It runs only if
        # its quoted path and its '$x' each reach it as one word, unexpanded.
        plugin.write_text(
            """
import csv, sys
tag, train_path, test_path, out_path = sys.argv[1:5]
assert tag == "$x", tag
with open(train_path, newline="") as fh:
    label = next(csv.DictReader(fh))["label"]
with open(test_path) as fh:
    count = len(fh.read().splitlines()) - 1
with open(out_path, "w") as fh:
    fh.write("prediction\\n" + (label + "\\n") * count)
"""
        )
        out = tmp_path / "metrics.csv"
        command = f"{shlex.quote(sys.executable)} {shlex.quote(str(plugin))} '$x'"
        assert run("eval", "--batch", batch, "--labels", labels,
                   "--predictor-cmd", command, "--out", out) == 0
        assert [row["metric"] for row in read_report(out)] == ["f1_macro"] * 6

    def test_non_numeric_regression_labels(self, tmp_path, capsys):
        batch, labels = make_labeled_batch(tmp_path)
        code = run("eval", "--batch", batch, "--labels", labels, "--task", "regression",
                   "--out", tmp_path / "m.csv")
        assert code == 1
        assert capsys.readouterr().err == (
            "error: task: regression needs numeric labels: "
            "could not convert string to float: 'app0'\n"
        )

    def test_label_count_mismatch(self, tmp_path, capsys):
        batch, labels = make_labeled_batch(tmp_path)
        lines = labels.read_text().strip().splitlines()
        labels.write_text("\n".join(lines[:-1]) + "\n")
        code = run("eval", "--batch", batch, "--labels", labels, "--out", tmp_path / "m.csv")
        assert code == 1
        assert capsys.readouterr().err.startswith("error: label-mismatch:")

    def test_one_field_labels_row(self, tmp_path, capsys):
        batch, labels = make_labeled_batch(tmp_path)
        lines = labels.read_text().strip().splitlines()
        lines[2] = lines[2].split(",")[0]
        labels.write_text("\n".join(lines) + "\n")
        code = run("eval", "--batch", batch, "--labels", labels, "--out", tmp_path / "m.csv")
        assert code == 1
        assert_one_line_error(capsys, "format")

    def test_regression_task_reports_nrmse(self, tmp_path):
        batch, labels = make_labeled_batch(tmp_path)
        # numeric targets derived from the class index, plus jitter
        rows = read_report_batch(batch)
        rng = np.random.default_rng(0)
        lines = ["window_start,label"]
        with open(labels) as fh:
            by_start = dict(
                line.strip().split(",") for line in fh.readlines()[1:] if line.strip()
            )
        for row in rows:
            cls = float(by_start[row["window_start"]][-1])
            lines.append(f"{row['window_start']},{cls + rng.uniform(-0.05, 0.05)!r}")
        labels.write_text("\n".join(lines) + "\n")
        out = tmp_path / "metrics.csv"
        assert run(
            "eval", "--batch", batch, "--labels", labels,
            "--task", "regression", "--out", out,
        ) == 0
        report = read_report(out)
        assert report[-1]["metric"] == "nrmse_c"
        assert 0.8 <= float(report[-1]["score"]) <= 1.0

    def test_external_predictor_round_trip(self, tmp_path):
        batch, labels = make_labeled_batch(tmp_path)
        plugin = tmp_path / "plugin.py"
        plugin.write_text(
            """
import csv, sys
train_path, test_path, out_path = sys.argv[1:4]
with open(train_path) as fh:
    rows = list(csv.DictReader(fh))
labels = [r["label"] for r in rows]
train_x = [[float(v) for k, v in r.items() if k != "label"] for r in rows]
with open(test_path) as fh:
    test_x = [[float(v) for v in row.values()] for row in csv.DictReader(fh)]
def nearest(q):
    best, dist = 0, float("inf")
    for i, x in enumerate(train_x):
        d = sum((a - b) ** 2 for a, b in zip(x, q))
        if d < dist:
            best, dist = i, d
    return labels[best]
with open(out_path, "w") as fh:
    fh.write("prediction\\n")
    for q in test_x:
        fh.write(nearest(q) + "\\n")
"""
        )
        out = tmp_path / "metrics.csv"
        assert run(
            "eval", "--batch", batch, "--labels", labels,
            "--predictor-cmd", f"{sys.executable} {plugin}", "--out", out,
        ) == 0
        rows = read_report(out)
        assert float(rows[-1]["score"]) >= 0.95


    def test_external_predictor_fold_files_hold_each_float_as_its_repr(self, tmp_path):
        batch, labels = make_labeled_batch(tmp_path)
        signatures = batchio.read_signature_batch(batch)
        starts = signatures.window_starts.tolist()
        labels.write_text("window_start,label\n" + "".join(f"{s},{s / 3!r}\n" for s in starts))
        plugin = tmp_path / "plugin.py"
        plugin.write_text(f"""
import shutil, sys
for path in sys.argv[1:3]:
    shutil.copy(path, {str(tmp_path)!r})
with open(sys.argv[2]) as fh:
    count = len(fh.readlines()) - 1
with open(sys.argv[3], "w") as fh:
    fh.write("prediction\\n" + "0.5\\n" * count)
""")
        out = tmp_path / "m.csv"
        assert run("eval", "--batch", batch, "--labels", labels, "--task", "regression",
                   "--predictor-cmd", f"{sys.executable} {plugin}", "--out", out) == 0
        rows = [",".join(map(repr, [s / 3, *r, *i])) for s, r, i in
                zip(starts, signatures.real.tolist(), signatures.imag.tolist())]
        lines = lambda pattern: [line for f in tmp_path.glob(pattern)
                                 for line in f.read_text().splitlines()[1:]]
        assert set(lines("fold*_train.csv")) <= set(rows)
        assert sorted(lines("fold*_test.csv")) == sorted(r.split(",", 1)[1] for r in rows)
        assert all(repr(float(row["score"])) == row["score"] for row in read_report(out))

    def test_external_predictor_non_numeric_regression_output(self, tmp_path, capsys):
        batch, labels = make_labeled_batch(tmp_path)
        labels.write_text("window_start,label\n" + "\n".join(
            f"{row['window_start']},{i * 0.5}" for i, row in enumerate(read_report_batch(batch))
        ) + "\n")
        plugin = tmp_path / "plugin.py"
        plugin.write_text(
            """
import sys
with open(sys.argv[2]) as fh:
    count = len(fh.read().splitlines()) - 1
with open(sys.argv[3], "w") as fh:
    fh.write("prediction\\n" + "abc\\n" * count)
"""
        )
        code = run(
            "eval", "--batch", batch, "--labels", labels, "--task", "regression",
            "--predictor-cmd", f"{sys.executable} {plugin}", "--out", tmp_path / "m.csv",
        )
        assert code == 1
        assert_one_line_error(capsys, "predictor")

    def test_external_predictor_output_that_is_not_utf8(self, tmp_path, capsys):
        batch, labels = make_labeled_batch(tmp_path)
        plugin = tmp_path / "plugin.py"
        plugin.write_text(
            """
import sys
with open(sys.argv[3], "wb") as fh:
    fh.write(b"prediction\\n\\xff\\n")
"""
        )
        code = run(
            "eval", "--batch", batch, "--labels", labels,
            "--predictor-cmd", f"{sys.executable} {plugin}", "--out", tmp_path / "m.csv",
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: predictor: fold 0: predictor failed: "
            "predictions file is not UTF-8 text: byte 0xff (invalid start byte)\n"
        )

    def test_external_predictor_labels_hold_commas_and_quotes(self, tmp_path):
        batch, labels = make_labeled_batch(tmp_path)
        with open(labels, newline="") as fh:
            rows = list(csv.reader(fh))
        with open(labels, "w", newline="") as fh:
            csv.writer(fh).writerows(
                [rows[0], *([start, f'{label}, "quoted"'] for start, label in rows[1:])]
            )
        plugin = tmp_path / "plugin.py"
        plugin.write_text(
            """
import csv, sys
train_path, test_path, out_path = sys.argv[1:4]
with open(train_path, newline="") as fh:
    rows = list(csv.DictReader(fh))
with open(test_path, newline="") as fh:
    tests = [[float(v) for v in row.values()] for row in csv.DictReader(fh)]
def nearest(q):
    dist = lambda r: sum((float(r[k]) - v) ** 2 for k, v in zip(list(r)[1:], q))
    return min(rows, key=dist)["label"]
with open(out_path, "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["prediction"])
    writer.writerows([nearest(q)] for q in tests)
"""
        )
        out = tmp_path / "metrics.csv"
        assert run(
            "eval", "--batch", batch, "--labels", labels,
            "--predictor-cmd", f"{sys.executable} {plugin}", "--out", out,
        ) == 0
        assert float(read_report(out)[-1]["score"]) >= 0.95


def read_report_batch(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def corrupt_utf8(path):
    """Replace the last byte before the final newline with 0xff."""
    data = path.read_bytes()
    path.write_bytes(data[:-2] + b"\xff" + data[-1:])


class TestNonUtf8Files:
    """One byte that is not UTF-8 in any file the CLI reads back ends in one
    ``error: format:`` line, not a UnicodeDecodeError traceback."""

    def test_labels_file(self, tmp_path, capsys):
        batch, labels = make_labeled_batch(tmp_path)
        corrupt_utf8(labels)
        assert run("eval", "--batch", batch, "--labels", labels, "--out", tmp_path / "m.csv") == 1
        assert_one_line_error(capsys, "format")

    def test_signature_batch(self, tmp_path, capsys):
        batch, labels = make_labeled_batch(tmp_path)
        corrupt_utf8(batch)
        assert run("eval", "--batch", batch, "--labels", labels, "--out", tmp_path / "m.csv") == 1
        assert_one_line_error(capsys, "format")

    def test_labels_stream(self, tmp_path):
        _, labels = make_labeled_batch(tmp_path)
        corrupt_utf8(labels)
        with open(labels, encoding="utf-8", newline="") as fh:
            with pytest.raises(FormatError, match="labels file is not UTF-8"):
                batchio.read_labels_csv(fh)

    def test_signature_batch_stream(self, tmp_path):
        batch, _ = make_labeled_batch(tmp_path)
        corrupt_utf8(batch)
        with open(batch, encoding="utf-8", newline="") as fh:
            with pytest.raises(FormatError, match="batch file is not UTF-8"):
                batchio.read_signature_batch(fh)

    def test_model_file(self, write_dataset, tmp_path, capsys):
        dataset = write_dataset(np.random.default_rng(3).uniform(size=(3, 12)))
        model = tmp_path / "model.json"
        assert run("train", "--dataset", dataset, "--out", model) == 0
        corrupt_utf8(model)
        assert run(
            "sign", "--dataset", dataset, "--model", model,
            "--window", 4, "--step", 4, "--out", tmp_path / "b.csv",
        ) == 1
        assert_one_line_error(capsys, "format")


class TestBadBatchRow:
    """A window instant outside int64 or a non-finite block value in a batch
    file ends in one ``error: format:`` line, in every command that reads it."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["render", "eval"])
    @pytest.mark.parametrize(
        "field, value, reason",
        [
            (0, b"99999999999999999999999", "window instants must fit in int64"),
            (1, b"-9223372036854775809", "window instants must fit in int64"),
            (2, b"nan", "non-finite block value"),
            (9, b"-inf", "non-finite block value"),
            (13, b"1e999", "non-finite block value"),
        ],
    )
    def test_one_format_line(self, tmp_path, capsys, command, field, value, reason):
        batch, labels = make_labeled_batch(tmp_path)
        lines = batch.read_bytes().split(b"\r\n")
        row = lines[3].split(b",")
        row[field] = value
        lines[3] = b",".join(row)
        batch.write_bytes(b"\r\n".join(lines))
        argv = {
            "render": ["render", "--batch", batch, "--out", tmp_path / "img.pgm"],
            "eval": ["eval", "--batch", batch, "--labels", labels, "--out", tmp_path / "m.csv"],
        }[command]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: format: line 4: {reason}\n"


class TestTableRows:
    """The batch and labels readers share one row loop: an empty file names
    what it is, and empty rows are skipped but keep their line numbers."""

    @pytest.mark.parametrize(
        "read, what",
        [(batchio.read_signature_batch, "signature batch file"),
         (batchio.read_labels_csv, "labels file")],
    )
    def test_empty_file(self, read, what):
        with pytest.raises(EmptyInputError, match=f"^{what} is empty$"):
            read(io.StringIO(""))

    @pytest.mark.parametrize(
        "read, text, reason",
        [
            (batchio.read_signature_batch,
             "window_start,window_end,real_1\r\n\r\n0,4,0.5\r\n\r\n5,9\r\n",
             "expected 3 fields, got 2"),
            (batchio.read_labels_csv, "window_start,label\n\n0,idle\n\n5\n",
             "expected 2 fields, got 1"),
        ],
    )
    def test_empty_rows_skipped_and_counted(self, read, text, reason):
        with pytest.raises(FormatError, match=f"^line 5: {reason}$"):
            read(io.StringIO(text, newline=""))


class TestBenchCommand:
    def test_row_per_combination(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert run(
            "bench", "--methods", "cs,lan", "--n-list", "8,16",
            "--wl-list", "5,10", "--reps", 3, "--out", out,
        ) == 0
        rows = read_report(out)
        combos = {(r["method"], r["n_sensors"], r["window_len"]) for r in rows}
        assert len(rows) == 8
        assert ("cs", "8", "5") in combos
        assert ("lan", "16", "10") in combos
        for row in rows:
            assert float(row["median_seconds"]) >= 0.0

    def test_unknown_method_rejected(self, tmp_path, capsys):
        code = run("bench", "--methods", "pca", "--out", tmp_path / "b.csv")
        assert code == 1
        assert capsys.readouterr().err.startswith("error: invalid-parameter:")

    @pytest.mark.parametrize(
        "flag, value",
        [("--n-list", "10,x"), ("--wl-list", "10,x"), ("--wl-list", "5,,6"),
         ("--n-list", "-2"), ("--wl-list", "0"), ("--reps", "0")],
    )
    def test_bad_size_list_rejected(self, tmp_path, capsys, flag, value):
        code = run("bench", "--methods", "cs", "--n-list", "4", "--wl-list", "5",
                   flag, value, "--out", tmp_path / "b.csv")
        assert code == 1
        assert_one_line_error(capsys, "invalid-parameter")

    @pytest.mark.parametrize(
        "flag, value",
        [
            # More values than an array can address: ValueError at once.
            ("--n-list", 10**20),
            ("--reps", 10**20),
            # 2^61 bytes, beyond any address space: MemoryError at once.
            ("--n-list", 2**55),
            ("--reps", 2**58),
            ("--seed", -1),
        ],
    )
    def test_out_of_range_integer_is_one_line(self, tmp_path, capsys, flag, value):
        code = run("bench", "--methods", "cs", "--n-list", 2, "--wl-list", 1,
                   flag, value, "--out", tmp_path / "b.csv")
        assert code == 1
        assert_one_line_error(capsys, "invalid-parameter")
        assert not (tmp_path / "b.csv").exists()

    def test_warm_up_beyond_memory_is_one_line(self, tmp_path, capsys, monkeypatch):
        def no_memory(*args):
            raise MemoryError

        monkeypatch.setattr(cs, "compute_signature_batch", no_memory)
        code = run("bench", "--methods", "cs", "--n-list", 2, "--wl-list", 1,
                   "--out", tmp_path / "b.csv")
        assert code == 1
        assert capsys.readouterr().err == (
            "error: invalid-parameter: cs windows of 2 x 1 do not fit in memory\n"
        )
        assert not (tmp_path / "b.csv").exists()

    def test_cs_linear_vs_tuncer_superlinear_in_window(self, tmp_path):
        # sorted percentiles cost w*log(w) per row, so a 50x window costs
        # tuncer more than 50x (its linear terms alone grow exactly 50x) while
        # cs stays within criterion 7's 1.5x slack over linear; and cs costs
        # less per signature than tuncer at both lengths, the paper's speed
        # claim. The short window holds 64k values so that tuncer's fixed
        # per-call cost (tens of microseconds) does not dilute the log factor
        # below the noise, and its ~1 ms signatures get more repeats so a
        # brief stall of the host cannot move their median.
        short, growth = 4000, 50

        def medians(window_len, reps):
            out = tmp_path / f"bench_{window_len}.csv"
            assert run(
                "bench", "--methods", "cs,tuncer", "--n-list", "16",
                "--wl-list", window_len, "--reps", reps, "--out", out,
            ) == 0
            return {r["method"]: float(r["median_seconds"]) for r in read_report(out)}

        small = medians(short, 101)
        large = medians(short * growth, 11)
        tuncer_ratio = large["tuncer"] / small["tuncer"]
        cs_ratio = large["cs"] / small["cs"]
        assert tuncer_ratio > growth, f"tuncer grew only {tuncer_ratio:.1f}x"
        assert cs_ratio <= 1.5 * growth, f"cs grew {cs_ratio:.1f}x"
        for window_len, times in ((short, small), (short * growth, large)):
            assert times["cs"] < times["tuncer"], f"window {window_len}: {times}"


class TestLoggingEnvVar:
    def test_log_level_env_smoke(self, tmp_path, monkeypatch, write_dataset, capsys):
        monkeypatch.setenv("CS_SMOOTH_LOG", "debug")
        dataset = write_dataset(np.random.default_rng(0).uniform(size=(3, 8)))
        assert run("train", "--dataset", dataset, "--out", tmp_path / "m.json") == 0


_ERROR_LINE = re.compile(r"error: [a-z-]+: \S")
_JUNK = st.text(alphabet="abxyz@!?;:_/", min_size=1, max_size=6)
_STAMP = st.integers(0, 11).map(lambda k: str(1000 * k))
_BAD_LINE = st.one_of(
    st.builds("{},{}".format, _STAMP, _JUNK),
    st.builds("{},{}".format, _STAMP, st.sampled_from(["nan", "-inf", "Infinity", "1e999", "--1"])),
    st.builds("{},1.0".format, _JUNK),
    st.builds("{}.5,1.0".format, _STAMP),
    st.builds("{},1.0".format, st.integers(2**63, 10**30) | st.integers(-(10**30), -(2**63) - 1)),
    _STAMP,
    st.builds("{},1.0,{}".format, _STAMP, st.integers(0, 9)),
    st.builds("{},1.0 #{}".format, _STAMP, _JUNK),
).map(str.encode) | st.sampled_from([b"0,\xff1.0", b"\xc3\x28,1.0"])
_NO_RECORDS = st.sampled_from([b"", b"\n\n", b"# no records\n"])
_MODEL_FIELDS = ("version", "sensor_ids", "permutation", "lower_bounds", "upper_bounds")
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_ONE_NON_FINITE = st.builds(
    lambda i, x: [x if j == i else 0.0 for j in range(3)], st.integers(0, 2), _NON_FINITE
)
_WRONG_LENGTH = st.lists(st.floats(-1, 1), max_size=4).filter(lambda b: len(b) != 3)
_BAD_FIELD = {
    "version": st.text(max_size=3).filter(lambda v: v != "v1") | st.none() | st.integers(),
    "sensor_ids": st.lists(st.sampled_from(["s000", "s001", "s002", "x"]), max_size=4).filter(
        lambda ids: ids != ["s000", "s001", "s002"]
    ) | st.lists(st.integers(0, 2), min_size=3, max_size=3),
    "permutation": st.lists(st.integers(-1, 3), max_size=4).filter(lambda p: sorted(p) != [0, 1, 2])
    | st.lists(st.floats(), min_size=1, max_size=3)
    | st.sampled_from([None, "012", [[0], [1], [2]], [True, False, True]]),
    # The data lie in [-2, 2]: bounds beyond 3 cross their partner.
    "lower_bounds": _WRONG_LENGTH | _ONE_NON_FINITE | st.lists(st.floats(3, 9), min_size=3, max_size=3),
    "upper_bounds": _WRONG_LENGTH | _ONE_NON_FINITE | st.lists(st.floats(-9, -3), min_size=3, max_size=3)
    | st.sampled_from([None, {}, ["a", 0, 0]]),
}
_BAD_SPAN = _JUNK | st.sampled_from(["0", "0s", "1500ms", "2.5", "-3"])
_NOT_POSITIVE = st.integers(-5, 0).map(str)
_BEYOND_INT64 = st.integers(2**63, 10**30).map(str)
_COMMON_FAULTS = st.one_of(
    st.tuples(st.sampled_from(["--dataset", "--out"]), st.none()),
    st.tuples(st.just("--interval"), _NOT_POSITIVE | _JUNK | _BEYOND_INT64),
    st.tuples(st.sampled_from(["--bogus", "-q"]), st.just("1")),
)
# Flags with a bad value: None drops the flag, "<missing>" names no file and
# "<dir>" names a directory.
_BAD_ARGUMENT = {
    "train": _COMMON_FAULTS
    | st.sampled_from([("--dataset", "<missing>"), ("--out", "<dir>")]),
    "sign": st.one_of(
        _COMMON_FAULTS,
        st.tuples(st.sampled_from(["--window", "--step", "--model"]), st.none()),
        st.tuples(st.just("--window"), _BAD_SPAN | st.integers(13, 10**6).map(str)),
        st.tuples(st.just("--step"), _BAD_SPAN),
        st.tuples(st.just("--blocks"), _JUNK | (st.integers(-3, 0) | st.integers(4, 99)).map(str)),
        st.tuples(st.just("--retrain-every"), _NOT_POSITIVE | _JUNK),
        st.tuples(st.just("--method"), _JUNK),
        st.sampled_from([("--dataset", "<missing>"), ("--model", "<missing>"), ("--out", "<dir>")]),
    ),
    "fidelity": st.one_of(
        _COMMON_FAULTS,
        st.tuples(st.sampled_from(["--window", "--step", "--model", "--blocks"]), st.none()),
        st.tuples(st.just("--window"), _BAD_SPAN | st.integers(13, 10**6).map(str)),
        st.tuples(st.just("--step"), _BAD_SPAN),
        st.tuples(st.just("--blocks"), _JUNK | st.sampled_from(["5,,1", "", "1,x", "0", "2,-1", "4"])),
        st.tuples(st.just("--bins"), _NOT_POSITIVE | _JUNK | _BEYOND_INT64),
        st.sampled_from([("--dataset", "<missing>"), ("--model", "<missing>"), ("--out", "<dir>")]),
    ),
    "eval": st.one_of(
        st.tuples(st.sampled_from(["--batch", "--labels"]), st.none()),
        st.tuples(st.just("--folds"), _JUNK | (st.integers(-5, 1) | st.integers(7, 10**30)).map(str)),
        st.tuples(st.just("--seed"), _JUNK | st.integers(-5, -1).map(str)),
        st.tuples(st.just("--task"), _JUNK),
        st.tuples(st.just("--predictor-cmd"), st.sampled_from(['"unterminated', "cmd 'arg", "", " "])),
        st.tuples(st.sampled_from(["--bogus", "-q"]), st.just("1")),
        st.sampled_from([("--batch", "<missing>"), ("--labels", "<missing>"), ("--out", "<dir>")]),
    ),
}


class TestErrorContractFuzz:
    """Every malformed dataset file, model file or command line ends in exit
    code 1 and exactly one ``error: <code>: <reason>`` line, never a traceback."""

    DATA = np.random.default_rng(21).uniform(-2.0, 2.0, size=(3, 12))
    ARGS = {
        "train": {},
        "sign": {"--window": "4", "--step": "2", "--blocks": "2", "--retrain-every": "2"},
        "fidelity": {"--window": "4", "--step": "2", "--blocks": "2,3", "--bins": "10"},
        "eval": {"--folds": "3", "--seed": "4", "--task": "classification"},
    }

    def run_case(self, root, command, lines=None, model=None, args=None):
        """Run ``command`` on the three-sensor dataset; returns (exit code, stderr)."""
        lines = lines or {}
        dataset = root / "dataset"
        dataset.mkdir()
        for i, row in enumerate(self.DATA):
            default = [f"{1000 * k},{v!r}".encode() for k, v in enumerate(row.tolist())]
            (dataset / f"s{i:03d}.csv").write_bytes(b"\n".join(lines.get(i, default)) + b"\n")
        (root / "model.json").write_text(model if model is not None else json.dumps({
            "version": "v1",
            "sensor_ids": ["s000", "s001", "s002"],
            "permutation": [0, 1, 2],
            "lower_bounds": self.DATA.min(axis=1).tolist(),
            "upper_bounds": self.DATA.max(axis=1).tolist(),
        }))
        # Twelve signatures of two blocks, six windows per class.
        starts = 1000 * np.arange(12)
        batchio.write_signature_batch(root / "batch.csv", cs.SignatureBatch(
            starts, starts + 3000, self.DATA[:2].T.copy(), self.DATA[1:].T.copy()
        ))
        (root / "labels.csv").write_text(
            "window_start,label\n" + "".join(f"{s},c{s // 6000}\n" for s in starts.tolist())
        )
        (root / "a_dir").mkdir()
        flags = {"--out": str(root / "out.csv")}
        if command == "eval":
            flags.update({"--batch": str(root / "batch.csv"), "--labels": str(root / "labels.csv")})
        else:
            flags["--dataset"] = str(dataset)
        if command not in ("train", "eval"):
            flags["--model"] = str(root / "model.json")
        flags.update(self.ARGS.get(command, {}))
        flags.update(args or {})
        paths = {"<missing>": str(root / "missing"), "<dir>": str(root / "a_dir")}
        argv = [command]
        for flag, value in flags.items():
            if value is not None:
                argv += [flag, paths.get(value, value)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        return code, err.getvalue()

    @pytest.mark.parametrize("command", ["train", "sign", "fidelity", "eval"])
    def test_unbroken_inputs_succeed(self, tmp_path, command):
        assert self.run_case(tmp_path, command) == (0, "")

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_malformed_input_is_one_error_line(self, data):
        command = data.draw(st.sampled_from(list(_BAD_ARGUMENT)), label="command")
        kinds = {"train": ["dataset", "argument"], "eval": ["argument"]}.get(
            command, ["dataset", "model", "argument"]
        )
        kinds.append("command")
        kind = data.draw(st.sampled_from(kinds), label="fault")
        case = {}
        if kind == "dataset":
            sensor = data.draw(st.integers(0, 2), label="sensor")
            lines = [f"{1000 * k},{v!r}".encode() for k, v in enumerate(self.DATA[sensor].tolist())]
            if data.draw(st.booleans(), label="no records"):
                lines = [data.draw(_NO_RECORDS)]
            else:
                lines[data.draw(st.integers(0, 11), label="line")] = data.draw(_BAD_LINE)
            case["lines"] = {sensor: lines}
        elif kind == "model":
            payload = {
                "version": "v1", "sensor_ids": ["s000", "s001", "s002"], "permutation": [0, 1, 2],
                "lower_bounds": [-2.0] * 3, "upper_bounds": [2.0] * 3,
            }
            field = data.draw(st.sampled_from(_MODEL_FIELDS), label="field")
            how = data.draw(st.sampled_from(["value", "drop", "truncate", "not an object"]))
            if how == "value":
                payload[field] = data.draw(_BAD_FIELD[field], label="value")
                case["model"] = json.dumps(payload)
            elif how == "drop":
                del payload[field]
                case["model"] = json.dumps(payload)
            elif how == "truncate":
                # Every cut before the closing brace leaves invalid JSON.
                text = json.dumps(payload, indent=2)
                case["model"] = text[: data.draw(st.integers(0, len(text) - 1), label="cut")]
            else:
                case["model"] = data.draw(st.sampled_from(["[]", "3", "null", '"v1"']))
        elif kind == "argument":
            flag, value = data.draw(_BAD_ARGUMENT[command], label="flag")
            case["args"] = {flag: value}
        else:
            command = data.draw(_JUNK | st.sampled_from(["", "--out", "trains"]), label="command")
        with tempfile.TemporaryDirectory() as tmp:
            code, err = self.run_case(Path(tmp), command, **case)
        assert code == 1, err
        assert len(err.splitlines()) == 1 and _ERROR_LINE.match(err), err
        assert "Traceback" not in err
