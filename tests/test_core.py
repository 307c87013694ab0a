import io
import itertools
import logging
import math
import os
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cs_smooth import core
from cs_smooth.core import (
    SensorMatrix,
    SensorSeries,
    TimeGrid,
    WindowSpec,
    align,
    finite_difference,
    infer_grid,
    load_dataset_dir,
    load_sensor_csv,
    windows,
)
from cs_smooth.errors import (
    AlignmentError,
    CsSmoothError,
    DegenerateInputError,
    DimensionError,
    EmptyInputError,
    InvalidParameterError,
    ParseError,
    RejectedValueError,
)

from naive_reference import naive_align


def series(ts, vs, sensor_id="s"):
    return SensorSeries(sensor_id=sensor_id, timestamps=ts, values=vs)


SOURCES = ["path", "binary stream", "text stream"]


def _source(kind, data, tmp_path):
    """``data`` as a sensor-CSV file path, a binary stream or an untranslated text stream."""
    if kind == "path":
        path = tmp_path / "s.csv"
        path.write_bytes(data)
        return path
    if kind == "binary stream":
        return io.BytesIO(data)
    return io.StringIO(data.decode("utf-8"), newline="")


class TestLoadSensorCsv:
    def test_direct_parse(self):
        s = load_sensor_csv(io.StringIO("0,1.0\n1000,2.0"), "a")
        assert s.timestamps.tolist() == [0, 1000]
        assert s.values.tolist() == [1.0, 2.0]

    def test_resorts_ascending(self):
        s = load_sensor_csv(io.StringIO("1000,2.0\n0,1.0"), "a")
        assert s.timestamps.tolist() == [0, 1000]
        assert s.values.tolist() == [1.0, 2.0]

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ParseError, match="line 1"):
            load_sensor_csv(io.StringIO("0,abc"), "a")
        with pytest.raises(ParseError, match="line 3"):
            load_sensor_csv(io.StringIO("0,1\n1,2\nbroken"), "a")

    # The comment sends the second file to the line loop; both parsers share one sort.
    @pytest.mark.parametrize("head", ["", "# c\n"], ids=["c parser", "line loop"])
    def test_duplicate_timestamp_keeps_last(self, head):
        s = load_sensor_csv(io.StringIO(head + "1000,2.0\n0,1.0\n0,9.0"), "a")
        assert s.timestamps.tolist() == [0, 1000]
        assert s.values.tolist() == [9.0, 2.0]

    def test_comments_and_blanks_skipped(self):
        s = load_sensor_csv(io.StringIO("# header\n\n0,1.0\n1000,2.0\n"), "a")
        assert len(s) == 2

    def test_non_finite_rejected(self):
        with pytest.raises(RejectedValueError):
            load_sensor_csv(io.StringIO("0,nan"), "a")
        with pytest.raises(RejectedValueError):
            load_sensor_csv(io.StringIO("0,inf"), "a")

    def test_empty_stream(self):
        with pytest.raises(EmptyInputError):
            load_sensor_csv(io.StringIO(""), "a")

    def test_bytes_stream(self):
        s = load_sensor_csv(io.BytesIO(b"0,1.5\n1000,2.5"), "a")
        assert s.values.tolist() == [1.5, 2.5]

    def test_mid_line_hash_is_an_error(self):
        with pytest.raises(ParseError, match="line 2"):
            load_sensor_csv(io.StringIO("0,1.0\n1000,2.0 # 3"), "a")

    def test_indented_comment_skipped(self):
        s = load_sensor_csv(io.StringIO("  # note\n0,1.0"), "a")
        assert s.values.tolist() == [1.0]

    def test_timestamp_beyond_int64(self):
        with pytest.raises(ParseError, match="line 2: timestamp .* does not fit in int64"):
            load_sensor_csv(io.StringIO("0,1.0\n99999999999999999999,1.0"), "a")

    def test_invalid_utf8_carries_line_number(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_bytes(b"0,1.0\n1000,\xff2.0\n")
        with pytest.raises(ParseError, match="line 2: invalid UTF-8 byte 0xff"):
            load_sensor_csv(path, "a")

    @pytest.mark.parametrize("kind", SOURCES)
    @pytest.mark.parametrize("data, timestamps, values", [
        (b"1000,2.0\r0,1.0\r\n2000,3.0", [0, 1000, 2000], [1.0, 2.0, 3.0]),
        (b"#c\r0,1\r1000,2\n3000,4\n", [0, 1000, 3000], [1.0, 2.0, 4.0]),  # CR ends a comment
    ], ids=["records", "comment"])
    def test_lone_cr_is_a_line_break(self, tmp_path, kind, data, timestamps, values):
        s = load_sensor_csv(_source(kind, data, tmp_path), "a")
        assert s.timestamps.tolist() == timestamps
        assert s.values.tolist() == values

    @pytest.mark.parametrize(
        "text, line, column",
        [("0,1.0\n1000,2\ud800\n", 2, 7), ("# note \ud800\n0,1.0\n", 1, 8)],
    )
    def test_lone_surrogate_in_text_stream(self, text, line, column):
        # A text stream is parsed as its UTF-8 bytes, comment lines included.
        with pytest.raises(ParseError, match=f"^line {line}: invalid UTF-8 byte 0xed at "
                                             f"column {column}$") as caught:
            load_sensor_csv(io.StringIO(text), "a")
        assert caught.value.line == line

    def test_plain_file_takes_the_c_parser(self, tmp_path, monkeypatch):
        def no_loop(data, sensor_id):
            raise AssertionError("line loop used")

        monkeypatch.setattr(core, "_parse_lines", no_loop)
        path = tmp_path / "s.csv"
        path.write_bytes(b" 2000 , +3.5\r\n0,1e-300\r\n\r\n+0001000,-0.0\r\n0,0.1\r\n")
        s = load_sensor_csv(path, "a")
        assert s.timestamps.tolist() == [0, 1000, 2000]
        assert s.values.tobytes() == np.array([0.1, -0.0, 3.5]).tobytes()


def _reference_load(lines, sensor_id):
    """The per-line ingest loop, kept as an independent oracle for the parser."""
    points = {}
    for lineno, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise ParseError(
                f"invalid UTF-8 byte {raw[exc.start]:#04x} at column {exc.start + 1}",
                line=lineno,
            ) from None
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"expected 'timestamp,value', got {line!r}", line=lineno)
        try:
            ts = int(parts[0].strip())
            val = float(parts[1].strip())
        except ValueError as exc:
            raise ParseError(f"cannot parse {line!r}: {exc}", line=lineno) from None
        if not -(2**63) <= ts < 2**63:
            raise ParseError(f"timestamp {ts} does not fit in int64", line=lineno)
        if not math.isfinite(val):
            raise RejectedValueError(f"sensor {sensor_id!r}: non-finite value at line {lineno}")
        points[ts] = val
    if not points:
        raise EmptyInputError(f"sensor {sensor_id!r}: no records in stream")
    order = sorted(points)
    return SensorSeries(
        sensor_id=sensor_id,
        timestamps=np.array(order, dtype=np.int64),
        values=np.array([points[ts] for ts in order], dtype=np.float64),
    )


def _outcome(load):
    try:
        s = load()
    except CsSmoothError as exc:
        return type(exc), exc.code, str(exc), getattr(exc, "line", None)
    return s.timestamps.dtype, s.timestamps.tobytes(), s.values.tobytes()


_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
_BLANK = st.sampled_from(["", "", " ", "\t", " \t "])
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# Text the C parser reads in full, and text that sends a file to the loop.
_CLEAN_VALUE = st.one_of(
    _FINITE.map(repr),
    _FINITE.map(lambda v: f"{v:.6e}"),
    st.sampled_from(["0.1", "-0.0", "1e-300", "5e-324", "1e-400", "+.5", "5.", "1E+05"]),
)
_VALUE = st.one_of(
    _CLEAN_VALUE,
    _CLEAN_VALUE,
    st.sampled_from(["1e400", "-1e400", "1_000", "nan", "inf", "-inf", "٥", "0x10", "", "1 2"]),
)


@st.composite
def _timestamp_text(draw, clean):
    ranges = [st.integers(0, 12), st.integers(-(2**63), 2**63 - 1)]  # 0..12: duplicates
    styles = ["plain"] * 4 + ["plus", "zeros"]
    if not clean:
        ranges.append(st.integers(10**19, 10**20 - 1))  # 20 digits, beyond int64
        styles += ["underscore", "arabic"]
    ts = draw(st.one_of(ranges))
    text = str(ts)
    style = draw(st.sampled_from(styles))
    if style == "plus" and ts >= 0:
        text = "+" + text
    elif style == "zeros":
        text = text.replace("-", "-00") if ts < 0 else "00" + text
    elif style == "underscore" and len(text.lstrip("-")) > 1:
        text = text[:-1] + "_" + text[-1]
    elif style == "arabic":
        text = text.translate(_ARABIC_INDIC)
    return text


@st.composite
def _record_line(draw, clean):
    value = draw(_CLEAN_VALUE if clean else _VALUE)
    return (
        draw(_BLANK) + draw(_timestamp_text(clean)) + draw(_BLANK) + ","
        + draw(_BLANK) + value + draw(_BLANK)
    ).encode("utf-8")


_ODD_LINE = st.sampled_from([
    b"", b"   ", b"\t", b"# comment", b"  # indented comment", b"#", b"# 5,1.0",
    b"5,1.0 # note", b"5,1.0#", b"5,1.0 # 2", b"5#,1.0", b"7,1e400", b"7,-1e400",
    b"5", b"5,1.0,2.0", b",", b"5,1.0,", b"\xff\xfe", b"5,1.\xe9", b"5,\xc3\xa9",
    b"\xc2\xa05,1.0", b"5,1.0\x0b", b"\"5\",1.0", b"5;1.0", b"5,1.0\r7,2.0",
])


@st.composite
def _sensor_file(draw):
    clean = draw(st.booleans())
    lines = draw(st.lists(_record_line(clean), max_size=10))
    for odd in draw(st.lists(_ODD_LINE, min_size=0 if clean else 1, max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), odd)
    newline = draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))
    return newline.join(lines) + draw(st.sampled_from([b"", newline]))


class TestParserAgreesWithLineLoop:
    @settings(max_examples=500, deadline=None)
    @given(_sensor_file())
    def test_same_arrays_or_same_error(self, data):
        # Every source reads CRLF and a lone CR as LF.
        lines = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        expected = _outcome(lambda: _reference_load(io.BytesIO(lines), "s"))
        try:
            data.decode("utf-8")
            kinds = SOURCES
        except UnicodeDecodeError:
            kinds = ["path", "binary stream"]  # bytes no text stream holds
        with tempfile.TemporaryDirectory() as tmp:
            for kind in kinds:
                source = _source(kind, data, Path(tmp))
                assert _outcome(lambda: load_sensor_csv(source, "s")) == expected, kind


class TestSeriesInvariants:
    def test_rejects_unsorted_on_construction(self):
        with pytest.raises(CsSmoothError):
            series([2, 1], [0.0, 1.0])

    def test_int64_extremes_in_order_accepted(self):
        # np.diff would wrap around: max - min overflows int64.
        text = "-9223372036854775808,1\n9223372036854775807,2\n"
        loaded = load_sensor_csv(io.StringIO(text), "s")
        assert loaded.timestamps.tolist() == [-(2**63), 2**63 - 1]
        assert loaded.values.tolist() == [1.0, 2.0]

    def test_rejects_length_mismatch(self):
        with pytest.raises(CsSmoothError):
            series([1, 2, 3], [0.0, 1.0])

    def test_rejects_nan(self):
        with pytest.raises(RejectedValueError):
            series([1, 2], [0.0, np.nan])


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: series([1, 2, 3], [0.0, 1.0]), DimensionError),
        (lambda: series([2, 1], [0.0, 1.0]), InvalidParameterError),
        (lambda: TimeGrid(0, 0, 3), InvalidParameterError),
        (lambda: TimeGrid(0, 1000, 0), InvalidParameterError),
        (lambda: SensorMatrix(("a",), TimeGrid(0, 1000, 2), np.zeros(2)), DimensionError),
        (lambda: SensorMatrix(("a", "b"), TimeGrid(0, 1000, 2), np.zeros((1, 2))), DimensionError),
        (lambda: SensorMatrix(("a",), TimeGrid(0, 1000, 3), np.zeros((1, 2))), DimensionError),
        (lambda: WindowSpec(0, 1), InvalidParameterError),
    ],
    ids=[
        "series-lengths", "series-order", "grid-interval", "grid-count",
        "matrix-ndim", "matrix-rows", "matrix-columns", "window-length",
    ],
)
def test_value_types_raise_the_error_naming_their_rule(build, error):
    # The base class's code would print as "error: error: ...".
    with pytest.raises(CsSmoothError) as raised:
        build()
    assert type(raised.value) is error
    assert raised.value.code != "error"


class TestAlign:
    def test_exact_grid_points(self):
        s = series([0, 2000], [0.0, 2.0])
        m = align([s], TimeGrid(0, 1000, 3))
        assert m.data.tolist() == [[0.0, 1.0, 2.0]]

    def test_single_point_constant_extrapolation(self):
        s = series([1000], [5.0])
        m = align([s], TimeGrid(0, 1000, 3))
        assert m.data.tolist() == [[5.0, 5.0, 5.0]]

    def test_interpolation_between_samples(self):
        # hand interpolation: t=500 -> 1 + 0.5*(4-1) = 2.5; t=1500 -> 4 + 0.5*(2-4) = 3.0
        s = series([0, 1000, 2000], [1.0, 4.0, 2.0])
        m = align([s], TimeGrid(500, 1000, 2))
        assert m.data.tolist() == [[2.5, 3.0]]

    def test_no_overlap_names_sensor(self):
        s = series([5000, 6000], [1.0, 2.0], sensor_id="lonely")
        with pytest.raises(AlignmentError, match="lonely"):
            align([s], TimeGrid(0, 1000, 3))

    def test_row_order_follows_input_order(self):
        a = series([0, 2000], [0.0, 1.0], "a")
        b = series([0, 2000], [1.0, 0.0], "b")
        m = align([b, a], TimeGrid(0, 1000, 3))
        assert m.sensor_ids == ("b", "a")

    def test_instants_beyond_2_53_stay_apart(self):
        # As float64, 2**62 + 0..3 are one number: the offsets from the grid start are not.
        stamps = [2**62 + k for k in range(4)]
        up = series(stamps, [0.0, 1.0, 2.0, 3.0], "up")
        down = series(stamps, [3.0, 2.0, 1.0, 0.0], "down")
        grid = infer_grid([up, down])
        assert grid == TimeGrid(2**62, 1, 4)
        assert align([up, down], grid).data.tolist() == [[0, 1, 2, 3], [3, 2, 1, 0]]

    def test_offsets_past_int64_keep_their_sign(self):
        # From these grid starts, the first or the last sample lies over 2**63 ms away.
        far = 9 * 10**18
        late = series([-far, far - 1, far], [4.0, 1.0, 3.0])
        assert align([late], TimeGrid(far - 1, 1, 2)).data.tolist() == [[1.0, 3.0]]
        early = series([-far, 1 - far, far], [1.0, 3.0, 4.0])
        assert align([early], TimeGrid(-far, 1, 2)).data.tolist() == [[1.0, 3.0]]

    def test_interpolation_between_float64_extremes_is_exact(self):
        # Unscaled, the slope between -1e308 and 1e308 overflows float64.
        wild = series([0, 2000, 4000], [-1e308, 1e308, 0.0], "wild")
        tame = series([0, 1000, 2000, 3000, 4000], [0.0, 1.0, 2.0, 3.0, 4.0], "tame")
        assert align([wild, tame], TimeGrid(0, 1000, 5)).data.tolist() == [
            [-1e308, 0.0, 1e308, 5e307, 0.0], [0.0, 1.0, 2.0, 3.0, 4.0],
        ]

    def test_subnormal_midpoint_is_exact(self):
        # Unscaled, the slope between 0 and 2 x 5e-324 underflows to 0.
        tiny = series([0, 2000], [0.0, 2 * 5e-324], "tiny")
        assert align([tiny], TimeGrid(0, 1000, 3)).data.tolist() == [[0.0, 5e-324, 1e-323]]

    @given(st.integers(0, 10_000), st.integers(1, 500), st.integers(2, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_idempotent_on_grid_conforming_data(self, start, interval, count, seed):
        rng = np.random.default_rng(seed)
        grid = TimeGrid(start, interval, count)
        values = rng.uniform(-1e6, 1e6, size=count)
        s = series(grid.instants(), values)
        m = align([s], grid)
        assert np.array_equal(m.data[0], values)


# Every sensor's span covers the instant _SHARED ms after the anchor, with up to
# 11 gaps of up to 50 ms on either side of it, so it lies within _MAX_SPAN ms of
# the anchor.
_SHARED = 11 * 50
_MAX_SPAN = 2 * _SHARED
_ANCHOR = st.one_of(
    st.integers(-(2**63), -(2**63) + 1000),  # the int64 minimum
    st.integers(2**63 - 1 - 2 * _MAX_SPAN, 2**63 - 1 - _MAX_SPAN),  # the int64 maximum
    st.integers(-(10**6), 10**6),  # around zero, negative timestamps included
    st.integers(-(2**62), 2**62),  # mostly beyond 2**53
)


@st.composite
def _sampled_sensors(draw):
    """1-4 sensors whose spans all cover one instant near the anchor, so the
    grid exists, each with 2-12 samples at irregular gaps of 1-50 ms placed
    anywhere around that instant, so their spans differ.

    Of several sensors, the one that starts first (for an anchor >= 0) or ends
    last (for one below) may also take one sample near the other int64 end,
    before its first sample or after its last, where its offset from the grid
    start passes the int64 range. Another sensor keeps the grid's edge on the
    near side, so the sample brackets no grid instant."""
    anchor = draw(_ANCHOR)
    value = st.floats(allow_nan=False, allow_infinity=False)
    sensors = []
    for _ in range(draw(st.integers(1, 4))):
        gaps = draw(st.lists(st.integers(1, 50), min_size=1, max_size=11))
        first = anchor + _SHARED - draw(st.integers(0, sum(gaps)))
        values = draw(st.lists(value, min_size=len(gaps) + 1, max_size=len(gaps) + 1))
        sensors.append((list(itertools.accumulate(gaps, initial=first)), values))
    if len(sensors) > 1 and draw(st.booleans()):
        if anchor >= 0:
            ts, vs = min(sensors, key=lambda sensor: sensor[0][0])
            ts.insert(0, draw(st.integers(-(2**63), -(2**63) + 1000)))
            vs.insert(0, draw(value))
        else:
            ts, vs = max(sensors, key=lambda sensor: sensor[0][-1])
            ts.append(draw(st.integers(2**63 - 1001, 2**63 - 1)))
            vs.append(draw(value))
    return sensors


class TestAlignAgainstExactReference:
    @given(_sampled_sensors(), st.one_of(st.none(), st.integers(1, 60)))
    @example(  # subnormal values: np.interp's roundings are absolute there
        sensors=[([-(2**63) + 1000, -(2**63) + 1001, -(2**63) + 1012],
                  [0.0, 0.0, 2.225073858507203e-309])],
        interval=None,
    )
    @settings(max_examples=200, deadline=None)
    def test_infer_grid_and_align_match_naive_align(self, sensors, interval):
        inputs = [series(ts, vs, f"s{i}") for i, (ts, vs) in enumerate(sensors)]
        start = max(ts[0] for ts, _ in sensors)
        end = min(ts[-1] for ts, _ in sensors)
        grid = infer_grid(inputs, interval)
        assert grid.start == start and grid.end <= end < grid.end + grid.interval
        assert interval is None or grid.interval == interval
        if grid.count < 2:
            with pytest.raises(DegenerateInputError):
                align(inputs, grid)
            return
        got = align(inputs, grid).data.tolist()
        exact = naive_align(sensors, grid.start, grid.interval, grid.count)
        # np.interp computes (y1 - y0) / (x1 - x0) * (x - x0) + y0 and so rounds
        # four times (value difference, slope, slope x offset, sum); the offsets
        # are exact below 2**53. A rounding errs by at most eps/2 of its result,
        # at most twice the series' largest |value|, or, on a subnormal result,
        # by at most 2**-1075. 8 eps x max |value| is twice the relative bound.
        # Of the absolute errors, the difference's reaches the result divided
        # by x1 - x0 and times x - x0 < x1 - x0, so at most 2**-1075; the
        # slope's is times x - x0 < 50 ms, so below 50 x 2**-1075; the product's
        # and the sum's are 2**-1075 each: 53 x 2**-1075 in all.
        eps = Fraction(np.finfo(np.float64).eps)
        for row, want, (_, values) in zip(got, exact, sensors):
            tol = 8 * eps * max(abs(Fraction(v)) for v in values) + Fraction(53, 2**1075)
            assert all(abs(Fraction(g) - e) <= tol for g, e in zip(row, want))


def _interpolated(inputs, grid):
    """align's matrix with every row through np.interp, as before on-grid rows
    were copied: offsets from the grid start, values times their scale."""
    offsets = core._offsets(grid.instants(), grid.start)
    rows = []
    for s in inputs:
        scale = core._power_of_two_scales(s.values.min(), s.values.max())
        values = s.values if scale is None else s.values * scale
        row = np.interp(offsets, core._offsets(s.timestamps, grid.start), values)
        rows.append(row if scale is None else row / scale)
    return np.stack(rows)


_EDGE_VALUE = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.225e-308, -1e-310, 1e300, -1e300, 1e308, -1e308]
)
_ALIGN_VALUE = st.one_of(_EDGE_VALUE, st.floats(allow_nan=False, allow_infinity=False))
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


@st.composite
def _grid_and_series(draw):
    """A grid of 2-30 instants near zero, beyond 2**53 or at either int64 end,
    and 1-4 series on it: exactly on its instants, on them with extra samples
    before and after plus up to two anywhere in int64, shifted by one instant,
    jittered off the instants, or missing some; each row of random finite values
    or of float64 edge values (signed zeros, subnormals, +-1e300 and +-1e308)."""
    count = draw(st.integers(2, 30))
    interval = draw(st.one_of(st.integers(1, 1000), st.integers(1, (2**64 - 1) // (count - 1))))
    span = interval * (count - 1)
    start = draw(st.one_of(
        st.integers(_INT64_MIN, _INT64_MIN + 1000),
        st.integers(_INT64_MAX - span - 1000, _INT64_MAX - span),
        st.integers(-(10**6), 10**6),
        st.integers(-(2**62), 2**62),
    ).filter(lambda t: _INT64_MIN <= t and t + span <= _INT64_MAX))
    grid = TimeGrid(start, interval, count)
    instants = [start + k * interval for k in range(count)]
    inputs = []
    for i in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["on", "extra", "shifted", "jittered", "sparse"]))
        stamps = list(instants)
        if kind == "extra":
            gap = draw(st.integers(1, 2**62))
            stamps = [*(start - k * gap for k in (2, 1)), *stamps,
                      *(stamps[-1] + k * gap for k in (1, 2))]
            stamps += draw(st.lists(st.integers(_INT64_MIN, _INT64_MAX), max_size=2))
        elif kind == "shifted":
            shift = draw(st.sampled_from([-interval, interval]))
            stamps = [t + shift for t in stamps]
        elif kind == "jittered":
            # Clamped into int64: a dropped end stamp could leave none on the grid's span.
            jitter = st.integers(-(interval // 3), interval // 3)
            stamps = [min(max(t + draw(jitter), _INT64_MIN), _INT64_MAX) for t in stamps]
        elif kind == "sparse":
            keep = draw(st.lists(st.booleans(), min_size=count, max_size=count))
            stamps = [t for t, k in zip(stamps, keep) if k] or stamps[:1]
        stamps = sorted({t for t in stamps if _INT64_MIN <= t <= _INT64_MAX})
        value = draw(st.sampled_from([_ALIGN_VALUE, _EDGE_VALUE]))
        values = draw(st.lists(value, min_size=len(stamps), max_size=len(stamps)))
        inputs.append(series(stamps, values, f"s{i}"))
    return inputs, grid


class TestAlignCopiesOnGridRows:
    @given(_grid_and_series())
    @example(  # past 2**53 ms the sample 1 ms after the grid's end rounds onto its offset
        ([series([-(2**62), -(2**61), 0, 2**61, 2**61 + 1], [1.0, 2.0, 3.0, 4.0, 5.0])],
         TimeGrid(-(2**62), 2**61, 4)),
    )
    @example(  # a grid of 2**53 ms: the sample 1 ms after its end rounds onto its offset
        ([series([0, 2**53, 2**53 + 1], [1.0, 2.0, 3.0])], TimeGrid(0, 2**53, 2)),
    )
    @example(  # a grid of 2**53 - 1 ms: every offset is exact
        ([series([0, 2**53 - 1, 2**53], [1.0, 2.0, 3.0])], TimeGrid(0, 2**53 - 1, 2)),
    )
    @example(  # a 1e300 row scales its subnormal sample down to 0
        ([series([0, 1000, 2000], [1e300, 5e-324, -0.0])], TimeGrid(0, 1000, 3)),
    )
    @settings(max_examples=300, deadline=None)
    def test_align_equals_the_interpolation_path(self, case):
        inputs, grid = case
        assert align(inputs, grid).data.tobytes() == _interpolated(inputs, grid).tobytes()

    def test_on_grid_rows_skip_interpolation(self, monkeypatch):
        grid = TimeGrid(-(2**63), 7, 5)
        tame = series(grid.instants(), [-0.0, 5e-324, 1e-300, -7.0, 2.5])
        # Scaled by 2**-997 and back, the subnormal sample becomes 0, as interpolated.
        wild = series(grid.instants(), [-0.0, 5e-324, 1e300, -1e300, 2.5])
        monkeypatch.setattr(np, "interp", mock.Mock(side_effect=AssertionError))
        assert align([tame, wild], grid).data.tobytes() == np.array(
            [[-0.0, 5e-324, 1e-300, -7.0, 2.5], [-0.0, 0.0, 1e300, -1e300, 2.5]]
        ).tobytes()


def _gap_arrays(dtype):
    if dtype == "uint64":
        element = st.one_of(st.integers(0, 2**53), st.integers(2**53, 2**64 - 1))
    else:
        element = st.one_of(_EDGE_VALUE, st.floats(allow_nan=False))
    return st.lists(element, min_size=1, max_size=40).map(lambda xs: np.array(xs, dtype=dtype))


class TestMedian:
    @given(st.one_of(_gap_arrays("uint64"), _gap_arrays("float64")))
    @example(np.array([2**64 - 1, 2**64 - 2], dtype=np.uint64))
    @example(np.array([0.0, -0.0, -0.0, 0.0]))
    @settings(max_examples=300, deadline=None)
    def test_equals_np_median_byte_for_byte(self, a):
        with np.errstate(all="ignore"):  # inf - inf and sums past float64, alike
            want, got = np.median(a), core._median(a)
        assert type(got) is type(want) is np.float64
        assert got.tobytes() == want.tobytes()

    @given(st.lists(
        st.lists(st.integers(_INT64_MIN, _INT64_MAX), min_size=1, max_size=12, unique=True),
        min_size=1, max_size=4,
    ))
    @example([[-9 * 10**18, 9 * 10**18]])
    @settings(max_examples=200, deadline=None)
    def test_infer_grid_interval_is_the_median_of_medians(self, stamp_lists):
        inputs = [series(sorted(ts), [0.0] * len(ts), f"s{i}") for i, ts in enumerate(stamp_lists)]

        def outcome(interval):
            try:
                return infer_grid(inputs, interval)
            except CsSmoothError as exc:
                return type(exc)

        gaps = [np.median(np.diff(s.timestamps.view(np.uint64))) for s in inputs if len(s) > 1]
        if not gaps:
            assert outcome(None) is DegenerateInputError
        else:
            assert outcome(None) == outcome(int(max(1, round(float(np.median(gaps))))))


class TestInferGrid:
    def test_median_interval_and_common_span(self):
        a = series([0, 1000, 2000, 3000], [0, 1, 2, 3], "a")
        b = series([500, 1500, 2500], [0, 1, 2], "b")
        grid = infer_grid([a, b])
        assert grid.interval == 1000
        assert grid.start == 500
        assert grid.end <= 2500

    def test_disjoint_spans_error(self):
        a = series([0, 1000], [0, 1], "a")
        b = series([5000, 6000], [0, 1], "b")
        with pytest.raises(AlignmentError):
            infer_grid([a, b])

    def test_gaps_taken_without_wrapping(self):
        # A gap of 1.8e19 ms wraps around in int64; in uint64 it is exact.
        far = series([-9 * 10**18, 9 * 10**18], [0, 1], "far")
        with pytest.raises(InvalidParameterError, match="int64"):
            infer_grid([far, far])
        three = series([-9 * 10**18, 0, 9 * 10**18], [0, 1, 2], "three")
        grid = infer_grid([three])
        assert grid == TimeGrid(-9 * 10**18, 9 * 10**18, 3)
        assert grid.instants().tolist() == three.timestamps.tolist()


class TestTimeGrid:
    @pytest.mark.parametrize(
        "start, interval, count",
        [(0, 2**63, 1), (0, 10**20, 3), (2**63 - 5, 3, 3), (-(2**63) - 1, 1, 2)],
    )
    def test_instants_beyond_int64_rejected(self, start, interval, count):
        with pytest.raises(InvalidParameterError, match="int64"):
            TimeGrid(start, interval, count)

    def test_last_instant_at_int64_max(self):
        top = 2**63 - 1
        assert TimeGrid(top - 6, 3, 3).instants().tolist() == [top - 6, top - 3, top]

    # 10**17 instants are 711 PiB and the rest are more than numpy can index,
    # so each allocation fails at once; np.arange returns nothing for the last two.
    @pytest.mark.parametrize("count", [10**17, 2**62, 2**63 - 512, 2**63 - 1])
    def test_grid_beyond_memory(self, count):
        with pytest.raises(InvalidParameterError, match=f"^a grid of {count} instants does not"):
            TimeGrid(-(2**62), 1, count).instants()


class TestWindows:
    @staticmethod
    def matrix(t, n=2):
        data = np.arange(n * t, dtype=float).reshape(n, t)
        return SensorMatrix(
            sensor_ids=tuple(f"s{i}" for i in range(n)),
            grid=TimeGrid(0, 1000, t),
            data=data,
        )

    def test_enumeration(self):
        # t=10, window 4, step 3 -> columns 1..4, 4..7, 7..10 (1-based)
        ws = list(windows(self.matrix(10), WindowSpec(4, 3)))
        assert len(ws) == 3
        first, second, third = ws
        assert first.values[0].tolist() == [0, 1, 2, 3]
        assert second.values[0].tolist() == [3, 4, 5, 6]
        assert third.values[0].tolist() == [6, 7, 8, 9]
        assert first.preceding is None
        assert second.preceding.tolist() == self.matrix(10).data[:, 2].tolist()
        assert third.preceding.tolist() == self.matrix(10).data[:, 5].tolist()
        assert first.start == 0 and first.end == 3000
        assert third.start == 6000 and third.end == 9000

    def test_single_full_window_has_no_preceding(self):
        ws = list(windows(self.matrix(4), WindowSpec(4, 1)))
        assert len(ws) == 1
        assert ws[0].preceding is None

    def test_window_longer_than_data_is_empty(self):
        assert list(windows(self.matrix(3), WindowSpec(4, 1))) == []

    def test_instants_exact_where_interval_times_column_wraps(self, wrapping_matrix):
        matrix, instants = wrapping_matrix
        ws = list(windows(matrix, WindowSpec(2, 1)))
        assert [(w.start, w.end) for w in ws] == list(zip(instants[:-1], instants[1:]))

    @given(st.integers(2, 60), st.integers(1, 20), st.integers(1, 20))
    @settings(max_examples=60)
    def test_covers_first_column_never_past_last(self, t, wl, step):
        ws = list(windows(self.matrix(t), WindowSpec(wl, step)))
        if wl > t:
            assert ws == []
            return
        assert ws, "at least one window must fit"
        assert ws[0].values[0][0] == 0  # column 1 covered
        for w in ws:
            assert w.values.shape[1] == wl
            assert w.values[0][-1] <= t - 1  # never extends past column t


class TestFiniteDifference:
    def test_direct_differences(self):
        out = finite_difference(series([0, 1, 2], [1.0, 3.0, 6.0]))
        assert out.values.tolist() == [2.0, 3.0]
        assert out.timestamps.tolist() == [1, 2]

    def test_constant_series(self):
        out = finite_difference(series([0, 1, 2], [5.0, 5.0, 5.0]))
        assert out.values.tolist() == [0.0, 0.0]

    def test_sign(self):
        out = finite_difference(series([0, 1, 2], [0.0, 10.0, 5.0]))
        assert out.values.tolist() == [10.0, -5.0]

    def test_too_short(self):
        with pytest.raises(DegenerateInputError):
            finite_difference(series([0], [1.0]))

    @given(st.lists(st.integers(-10**9, 10**9), min_size=2, max_size=200))
    @settings(max_examples=80)
    def test_cumsum_reconstructs_exactly(self, values):
        ts = np.arange(len(values))
        diff = finite_difference(series(ts, np.array(values, dtype=float)))
        rebuilt = np.concatenate([[values[0]], values[0] + np.cumsum(diff.values)])
        assert rebuilt.tolist() == [float(v) for v in values]


class TestDatasetDir:
    def test_loads_by_stem_sorted(self, tmp_path):
        (tmp_path / "b_sensor.csv").write_text("0,1\n1000,2\n")
        (tmp_path / "a_sensor.csv").write_text("0,3\n1000,4\n")
        loaded = load_dataset_dir(tmp_path)
        assert [s.sensor_id for s in loaded] == ["a_sensor", "b_sensor"]

    def test_empty_dir(self, tmp_path):
        with pytest.raises(EmptyInputError):
            load_dataset_dir(tmp_path)


def _fresh_load(directory):
    """What load_dataset_dir returns with no cache: each sensor file through
    load_sensor_csv, the first failure prefixed with its file name."""
    loaded = []
    for p in sorted(directory.glob("*.csv")):
        try:
            s = load_sensor_csv(p, p.stem)
        except CsSmoothError as exc:
            return type(exc), f"{p.name}: {exc}"
        loaded.append((s.sensor_id, s.timestamps.dtype, s.timestamps.tobytes(), s.values.tobytes()))
    return loaded


def _cached_load(directory):
    """load_dataset_dir's outcome in _fresh_load's terms, and how many files it parsed."""
    with mock.patch.object(core, "_parse_sensor_csv", wraps=core._parse_sensor_csv) as parse:
        try:
            loaded = [(s.sensor_id, s.timestamps.dtype, s.timestamps.tobytes(),
                       s.values.tobytes()) for s in load_dataset_dir(directory)]
        except CsSmoothError as exc:
            loaded = type(exc), str(exc)
    return loaded, parse.call_count


def _write_sensors(directory, files):
    """Make ``directory`` hold exactly the sensor files ``files`` (name -> bytes)."""
    for p in directory.glob("*.csv"):
        if p.stem not in files:
            p.unlink()
    for name, data in files.items():
        (directory / f"{name}.csv").write_bytes(data)


_SENSOR_NAME = st.sampled_from(["a", "b", "c", "d", "e"])
# Valid files mostly: a load that fails writes no cache.
_CACHE_FILE = st.one_of(
    st.lists(_record_line(clean=True), min_size=1, max_size=6).map(b"\n".join),
    st.lists(_record_line(clean=True), min_size=1, max_size=6).map(b"\r\n".join),
    _sensor_file(),
)


@st.composite
def _dataset_edits(draw):
    """A start state (name -> bytes) and edits, each one file changed, added,
    removed, renamed or copied byte for byte under a new name."""
    files = draw(st.dictionaries(_SENSOR_NAME, _CACHE_FILE, min_size=1, max_size=4))
    states = []
    for _ in range(draw(st.integers(1, 4))):
        files = dict(files)
        edit = draw(st.sampled_from(["change", "add", "remove", "rename", "copy"]))
        name, other = draw(st.sampled_from(sorted(files))), draw(_SENSOR_NAME)
        if edit == "change":
            files[name] = draw(_CACHE_FILE)
        elif edit == "add":
            files[other] = draw(_CACHE_FILE)
        elif edit == "remove" and len(files) > 1:
            del files[name]
        elif edit == "rename":
            files[other] = files.pop(name)
        elif edit == "copy":
            files[other] = files[name]
        states.append(files)
    return states


@pytest.fixture(scope="class")
def cached_dir(tmp_path_factory):
    """One dataset directory every example of a class rewrites, so each starts
    from the cache the previous one left."""
    return tmp_path_factory.mktemp("cached")


class TestIngestCache:
    @settings(max_examples=100, deadline=None)
    @given(_dataset_edits())
    def test_reload_equals_a_fresh_parse(self, cached_dir, states):
        for files in states:
            _write_sensors(cached_dir, files)
            expected = _fresh_load(cached_dir)
            first, _ = _cached_load(cached_dir)
            again, parsed = _cached_load(cached_dir)
            assert first == expected
            assert again == expected
            if isinstance(expected, list):
                assert parsed == 0  # every file came from the cache

    def test_identical_files_share_one_entry(self, tmp_path):
        for name in ("a", "b", "c"):
            (tmp_path / f"{name}.csv").write_bytes(b"0,1.5\n1000,2.5\n")
        load_dataset_dir(tmp_path)
        cache = (tmp_path / core._CACHE_NAME).read_bytes()
        entry = core._CACHE_ENTRY.size + 2 * 16 + core._CRC.size
        assert len(cache) == core._CACHE_HEADER.size + entry
        assert _cached_load(tmp_path) == (_fresh_load(tmp_path), 0)

    @pytest.mark.parametrize("damage, reparsed", [
        (lambda b: b[:-1], 3),  # truncated
        (lambda b: b[: core._CACHE_HEADER.size], 3),
        (lambda b: b"", 3),
        (lambda b: b + b"\0", 3),  # trailing bytes
        (lambda b: bytes(range(256)) * 4, 3),  # garbage
        (lambda b: b[:8] + bytes(32) + b[40:], 3),  # another key: another version
        (lambda b: b[:-10] + bytes([b[-10] ^ 1]) + b[-9:], 1),  # a flipped bit in one entry
        (lambda b: b[:-2] + bytes([b[-2] ^ 1]) + b[-1:], 1),  # a flipped bit in its CRC
    ])
    def test_damaged_cache_is_a_miss_and_rewritten(self, tmp_path, damage, reparsed):
        for name, offset in (("a", 0.5), ("b", 1.5), ("c", 2.5)):
            (tmp_path / f"{name}.csv").write_text(f"0,{offset}\n1000,{-offset}\n2000,7\n")
        load_dataset_dir(tmp_path)
        path = tmp_path / core._CACHE_NAME
        valid = path.read_bytes()
        path.write_bytes(damage(valid))
        assert _cached_load(tmp_path) == (_fresh_load(tmp_path), reparsed)
        assert path.read_bytes() == valid
        assert _cached_load(tmp_path)[1] == 0

    def test_another_source_is_another_version(self, tmp_path, monkeypatch):
        (tmp_path / "a.csv").write_text("0,1\n1000,2\n")
        load_dataset_dir(tmp_path)
        monkeypatch.setattr(core, "__file__", str(tmp_path / "a.csv"))
        assert _cached_load(tmp_path)[1] == 1
        assert _cached_load(tmp_path)[1] == 0

    @pytest.mark.parametrize("entry", ["directory", "fifo"])
    def test_cache_path_that_is_no_file_is_a_miss(self, tmp_path, entry):
        (tmp_path / "a.csv").write_text("0,1\n1000,2\n")
        path = tmp_path / core._CACHE_NAME
        if entry == "directory":
            path.mkdir()
        else:
            os.mkfifo(path)  # opening it would block
        assert _cached_load(tmp_path) == (_fresh_load(tmp_path), 1)
        # os.replace puts the cache in a FIFO's place, not in a directory's.
        assert _cached_load(tmp_path)[1] == (entry == "directory")
        assert sorted(p.name for p in tmp_path.iterdir()) == [core._CACHE_NAME, "a.csv"]

    @pytest.mark.parametrize("fails", ["replace", "write"])
    def test_failed_write_leaves_no_temporary_file(self, tmp_path, monkeypatch, fails):
        (tmp_path / "a.csv").write_text("0,1\n1000,2\n")

        def no_room(*args):
            raise OSError(28, "No space left on device")

        if fails == "replace":
            monkeypatch.setattr(core.os, "replace", no_room)
        else:
            monkeypatch.setattr(core, "_entry_crc", no_room)
        assert _cached_load(tmp_path) == (_fresh_load(tmp_path), 1)
        assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]

    def test_interrupted_write_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        (tmp_path / "a.csv").write_text("0,1\n1000,2\n")

        def interrupt(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(core, "_entry_crc", interrupt)
        with pytest.raises(KeyboardInterrupt):
            load_dataset_dir(tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]

    @pytest.mark.parametrize("content, error, message", [
        (b"0,1.0\n99999999999999999999,1.0\n", ParseError,
         "b.csv: line 2: timestamp 99999999999999999999 does not fit in int64"),
        (b"0,1.0\n1000,nan\n", RejectedValueError,
         "b.csv: sensor 'b': non-finite value at line 2"),
        (b"# nothing\n", EmptyInputError, "b.csv: sensor 'b': no records in stream"),
    ])
    def test_bad_file_beside_a_valid_cache_raises_its_error(self, tmp_path, content, error,
                                                            message):
        for name in ("a", "b", "c"):
            (tmp_path / f"{name}.csv").write_text("0,1\n1000,2\n")
        load_dataset_dir(tmp_path)
        cache = (tmp_path / core._CACHE_NAME).read_bytes()
        (tmp_path / "b.csv").write_bytes(content)
        for _ in range(2):  # the bad file is never cached
            with pytest.raises(error) as caught:
                load_dataset_dir(tmp_path)
            assert str(caught.value) == message
        assert (tmp_path / core._CACHE_NAME).read_bytes() == cache

    def test_debug_log_counts_parsed_and_reused_files(self, tmp_path, caplog):
        caplog.set_level(logging.DEBUG, logger="cs_smooth")
        for name, value in (("a", 2), ("b", 5)):
            (tmp_path / f"{name}.csv").write_text(f"0,1\n1000,{value}\n")
        load_dataset_dir(tmp_path)
        (tmp_path / "b.csv").write_text("0,1\n1000,3\n")
        load_dataset_dir(tmp_path)
        load_dataset_dir(tmp_path)
        counts = [m.split(": ")[1] for m in caplog.messages if m.startswith("ingest ")]
        assert counts == [f"parsed {p} files, reused {2 - p}" for p in (2, 1, 0)]

    def test_sensor_ids_come_from_current_names(self, tmp_path):
        (tmp_path / "a.csv").write_text("0,1\n1000,2\n")
        load_dataset_dir(tmp_path)
        (tmp_path / "a.csv").rename(tmp_path / "z.csv")
        loaded, parsed = _cached_load(tmp_path)
        assert (loaded[0][0], parsed) == ("z", 0)
