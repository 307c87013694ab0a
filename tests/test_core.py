import io
import itertools
import math
import tempfile
from fractions import Fraction
from pathlib import Path

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

    @given(st.integers(0, 10_000), st.integers(1, 500), st.integers(2, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_idempotent_on_grid_conforming_data(self, start, interval, count, seed):
        rng = np.random.default_rng(seed)
        grid = TimeGrid(start, interval, count)
        values = rng.uniform(-1e6, 1e6, size=count)
        s = series(grid.instants(), values)
        m = align([s], grid)
        assert np.array_equal(m.data[0], values)


# Sensors are sampled within this many ms of their anchor: a first sample up to
# 100 ms after it, then up to 11 gaps of up to 50 ms.
_MAX_SPAN = 100 + 11 * 50
_ANCHOR = st.one_of(
    st.integers(-(2**63), -(2**63) + 1000),  # the int64 minimum
    st.integers(2**63 - 1 - 2 * _MAX_SPAN, 2**63 - 1 - _MAX_SPAN),  # the int64 maximum
    st.integers(-(10**6), 10**6),  # around zero, negative timestamps included
    st.integers(-(2**62), 2**62),  # mostly beyond 2**53
)


@st.composite
def _sampled_sensors(draw):
    """1-4 sensors around one anchor, each with its own first sample and 2-12
    samples at irregular gaps of 1-50 ms, so their spans differ.

    The first of several sensors may also take one sample near the other int64
    end, where its offset from the grid start passes the int64 range: before
    its first sample for an anchor >= 0, after its last for one below. It is
    added only where another sensor keeps the grid's edge on the near side, so
    it brackets no grid instant."""
    anchor = draw(_ANCHOR)
    value = st.floats(-1e9, 1e9)
    sensors = []
    for _ in range(draw(st.integers(1, 4))):
        first = anchor + draw(st.integers(0, 100))
        gaps = draw(st.lists(st.integers(1, 50), min_size=1, max_size=11))
        values = draw(st.lists(value, min_size=len(gaps) + 1, max_size=len(gaps) + 1))
        sensors.append((list(itertools.accumulate(gaps, initial=first)), values))
    (ts, vs), rest = sensors[0], sensors[1:]
    if rest and draw(st.booleans()):
        if anchor >= 0 and ts[0] <= max(r[0] for r, _ in rest):
            ts.insert(0, draw(st.integers(-(2**63), -(2**63) + 1000)))
            vs.insert(0, draw(value))
        elif anchor < 0 and ts[-1] >= min(r[-1] for r, _ in rest):
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
        if end < start:
            with pytest.raises(AlignmentError):
                infer_grid(inputs, interval)
            return
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
