"""Every reader and writer takes a path or an open stream, with the same result.

A stream is opened as the README's "File formats" says: binary for sensor
CSVs and PGM images, UTF-8 text for the rest, with ``newline=""`` for the
batch, labels and report CSVs.
"""

import dataclasses
import io

import numpy as np
import pytest

from cs_smooth import batchio, cs
from cs_smooth.core import load_sensor_csv
from cs_smooth.errors import CsSmoothError, FormatError

BINARY = {"mode": "rb"}
CSV_TEXT = {"mode": "r", "encoding": "utf-8", "newline": ""}
TEXT = {"mode": "r", "encoding": "utf-8"}
BINARY_OUT = {"mode": "wb"}
CSV_TEXT_OUT = {**CSV_TEXT, "mode": "w"}
TEXT_OUT = {**TEXT, "mode": "w"}

MODEL = cs.CSModel(
    sensor_ids=("a", "b", "c"),
    permutation=[2, 0, 1],
    lower_bounds=[0.0, -1.5, 2.0],
    upper_bounds=[1.0, 0.1, 2.0],
)
BATCH = cs.SignatureBatch(
    window_starts=np.array([0, 5000], dtype=np.int64),
    window_ends=np.array([4000, 9000], dtype=np.int64),
    real=np.array([[0.1, 1 / 3], [0.0, 1.0]]),
    imag=np.array([[-0.25, 2e-17], [0.5, -1.0]]),
)
_buffer = io.StringIO()
cs.save_model(MODEL, _buffer)
MODEL_JSON = _buffer.getvalue().encode()

WRITERS = {
    "write_signature_batch": (lambda t: batchio.write_signature_batch(t, BATCH), CSV_TEXT_OUT),
    "write_csv_report": (
        lambda t: batchio.write_csv_report(t, ["k", "v"], [("a,b", 0.1), ('"q"', 2)]),
        CSV_TEXT_OUT,
    ),
    "write_pgm": (
        lambda t: batchio.write_pgm(t, np.array([[0, 255, 10]], dtype=np.uint8)), BINARY_OUT
    ),
    "save_model": (lambda t: cs.save_model(MODEL, t), TEXT_OUT),
}

READERS = {
    "load_sensor_csv": (lambda s: load_sensor_csv(s, "s1"), BINARY, [
        b"1000,2.5\n0,1.0\n# note\n1000,3.0\n",
        b"0,1.0\n1000,\xff2.5\n",
        b"0,1.0\n1000,x\n",
        b"",
    ]),
    "read_signature_batch": (batchio.read_signature_batch, CSV_TEXT, [
        b"window_start,window_end,real_1,imag_1\r\n0,4,0.5,-0.5\r\n5,9,1.0,0.0\r\n",
        b"window_start,window_end,real_1\r\n0,4,0.5,1\r\n",
        b"window_start,window_end,real_1\r\n0,4,0.\xff\r\n",
        b"",
    ]),
    "read_labels_csv": (batchio.read_labels_csv, CSV_TEXT, [
        b'window_start,label\n0,idle\n5,"a,b"\n',
        b"window_start,label\n0,idle\n0,busy\n",
        b"window_start,label\n0,\xffidle\n",
        b"",
    ]),
    "load_model": (cs.load_model, TEXT, [
        MODEL_JSON,
        MODEL_JSON.replace(b'"v1"', b'"v0"'),
        MODEL_JSON.replace(b'"a"', b'"\xff"'),
        b"",
    ]),
}


def _outcome(read, source):
    """The value read, or the class, code and message of the error raised."""
    try:
        return read(source)
    except CsSmoothError as exc:
        return type(exc), exc.code, str(exc)


def _same(a, b) -> bool:
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("name", WRITERS)
def test_writer_gives_the_same_bytes_to_a_path_and_a_stream(tmp_path, name):
    write, options = WRITERS[name]
    write(tmp_path / "path")
    with open(tmp_path / "stream", **options) as stream:
        write(stream)
    assert (tmp_path / "stream").read_bytes() == (tmp_path / "path").read_bytes()


@pytest.mark.parametrize(
    "name, case",
    [(name, case) for name, (_, _, contents) in READERS.items() for case in range(len(contents))],
)
def test_reader_gives_the_same_outcome_from_a_path_and_a_stream(tmp_path, name, case):
    read, options, contents = READERS[name]
    path = tmp_path / "input"
    path.write_bytes(contents[case])
    from_path = _outcome(read, path)
    with open(path, **options) as stream:
        from_stream = _outcome(read, stream)
    assert _same(from_path, from_stream), (from_path, from_stream)
    # The first input of each reader is good; every other one is an error.
    assert isinstance(from_path, tuple) == (case > 0), from_path


def test_sensor_csv_text_stream_that_is_not_utf8(tmp_path):
    path = tmp_path / "s1.csv"
    path.write_bytes(b"0,1.0\n1000,\xff2.5\n")
    with open(path, "r", encoding="utf-8") as stream:
        with pytest.raises(FormatError, match=r"^sensor 's1' CSV is not UTF-8 text: byte 0xff"):
            load_sensor_csv(stream, "s1")
