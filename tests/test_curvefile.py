import hashlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import feqt.curvefile as curvefile_mod
from feqt.curvefile import CurveFileError, read_curves, write_curves
from feqt.fdata import (
    FunctionalSample,
    Grid,
    GroupedPairedSample,
    PairedFunctionalSample,
    equispaced_grid,
)

from conftest import make_grouped
import reference_curvefile


def parse_text(text):
    """The sample in curve file ``text``, parsed as :func:`read_curves` parses a file."""
    return curvefile_mod._parse(text.splitlines())


def curve_text(sample):
    """The curve file text of ``sample``, as :func:`write_curves` writes it."""
    return "\n".join(curvefile_mod._lines(sample)) + "\n"


def header_and_rows(text):
    lines = text.splitlines()
    return lines[0], lines[1:]


class TestRoundTrip:
    def test_grouped_bit_exact(self, rng):
        data = make_grouped(rng, n_groups=3, group_size=4, n_points=7)
        text = curve_text(data)
        back = parse_text(text)
        assert isinstance(back, GroupedPairedSample)
        np.testing.assert_array_equal(back.grid.points, data.grid.points)
        for g0, g1 in zip(data.groups, back.groups):
            np.testing.assert_array_equal(g0.curves_1, g1.curves_1)
            np.testing.assert_array_equal(g0.curves_2, g1.curves_2)
        # and the text itself is stable under a second round trip
        assert curve_text(back) == text

    def test_paired_bit_exact(self, rng):
        grid = equispaced_grid(5)
        data = PairedFunctionalSample(
            grid, rng.normal(size=(6, 5)), rng.normal(size=(6, 5))
        )
        back = parse_text(curve_text(data))
        assert isinstance(back, PairedFunctionalSample)
        np.testing.assert_array_equal(back.curves_1, data.curves_1)
        np.testing.assert_array_equal(back.curves_2, data.curves_2)

    def test_single_bit_exact(self, rng):
        grid = equispaced_grid(4)
        data = FunctionalSample(grid, rng.normal(size=(3, 4)))
        back = parse_text(curve_text(data))
        assert isinstance(back, FunctionalSample)
        np.testing.assert_array_equal(back.curves, data.curves)

    def test_file_round_trip(self, rng, tmp_path):
        data = make_grouped(rng, n_groups=2, group_size=3, n_points=4)
        path = tmp_path / "curves.csv"
        write_curves(data, path)
        back = read_curves(path)
        np.testing.assert_array_equal(back.stacked(), data.stacked())

    def test_awkward_floats_survive(self):
        grid = equispaced_grid(3)
        vals = np.array([[0.1, 1e-300, -1.2345678901234567]])
        data = FunctionalSample(grid, vals)
        back = parse_text(curve_text(data))
        np.testing.assert_array_equal(back.curves, vals)

    def test_header_contains_grid(self, rng):
        data = make_grouped(rng, n_groups=2, group_size=2, n_points=3)
        header, rows = header_and_rows(curve_text(data))
        assert header.startswith("#feqt-curves v1; grid=")
        assert len(rows) == 2 * 2 * 2  # groups x breaths x channels

    def test_rows_pinned(self):
        # the bytes of all three sample shapes: a reordered row or channel
        # would still round-trip, but moves this digest
        rng = np.random.default_rng(17)
        grid = Grid(np.array([0.0, 0.1, 0.35, 0.6, 1.0]))
        grouped = GroupedPairedSample(grid, tuple(
            PairedFunctionalSample(grid, rng.normal(size=(n, 5)), rng.normal(size=(n, 5)))
            for n in (2, 3)
        ))
        paired = PairedFunctionalSample(grid, rng.normal(size=(3, 5)), rng.normal(size=(3, 5)))
        single = FunctionalSample(grid, rng.normal(size=(2, 5)))
        h = hashlib.sha256()
        for sample in (grouped, paired, single):
            h.update(curve_text(sample).encode())
        assert h.hexdigest() == (
            "c03df4d9ad261ea9da20d410fc44ec57c277bc591ae8eed6a3770414a97d6577"
        )


@st.composite
def samples(draw):
    """A single, paired or grouped sample of random shape and finite values."""
    points = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5, unique=True))
    grid = Grid(sorted(points))
    values = st.floats(allow_nan=False, allow_infinity=False)

    def curves(n):
        return draw(arrays(np.float64, (n, len(grid)), elements=values))

    def pairs():
        n = draw(st.integers(1, 4))
        return PairedFunctionalSample(grid, curves(n), curves(n))

    kind = draw(st.sampled_from(["single", "paired", "grouped"]))
    if kind == "single":
        return FunctionalSample(grid, curves(draw(st.integers(1, 4))))
    if kind == "paired":
        return pairs()
    return GroupedPairedSample(grid, tuple(pairs() for _ in range(draw(st.integers(2, 4)))))


@given(samples())
@settings(max_examples=80, deadline=None)
def test_write_read_round_trip(sample):
    text = curve_text(sample)
    back = parse_text(text)
    assert type(back) is type(sample)
    np.testing.assert_array_equal(back.grid.points, sample.grid.points)
    if isinstance(sample, FunctionalSample):
        np.testing.assert_array_equal(back.curves, sample.curves)
    else:
        np.testing.assert_array_equal(back.stacked(), sample.stacked())
    assert curve_text(back) == text  # signs of zeros survive too


def small_text():
    grid = equispaced_grid(3)
    rng = np.random.default_rng(0)
    data = make_grouped(rng, n_groups=2, group_size=2, n_points=3)
    return curve_text(data)


class TestErrors:
    def test_unknown_sample_refused(self, tmp_path):
        with pytest.raises(TypeError, match="cannot serialize dict"):
            curve_text({})
        with pytest.raises(TypeError, match="cannot serialize dict"):
            write_curves({}, tmp_path / "curves.csv")
        assert not (tmp_path / "curves.csv").exists()

    def test_missing_header(self):
        with pytest.raises(CurveFileError, match="line 1: missing header"):
            parse_text("1,1,1,0.0,0.0\n")

    def test_bad_channel_line_number(self):
        text = small_text()
        lines = text.splitlines()
        parts = lines[2].split(",")
        parts[1] = "3"
        lines[2] = ",".join(parts)
        with pytest.raises(CurveFileError, match="line 3: channel must be 1 or 2"):
            parse_text("\n".join(lines) + "\n")

    def test_orphan_channel_row(self):
        text = small_text()
        lines = [l for l in text.splitlines() if not l.startswith("1,2,1,")]
        with pytest.raises(CurveFileError, match="channel 1 but no channel 2"):
            parse_text("\n".join(lines) + "\n")

    def test_duplicate_row(self):
        lines = small_text().splitlines()
        lines.append(lines[1])
        lineno = len(lines)
        with pytest.raises(CurveFileError, match=f"line {lineno}: duplicate row"):
            parse_text("\n".join(lines) + "\n")

    def test_bad_float(self):
        lines = small_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + ",oops"
        with pytest.raises(CurveFileError, match="line 3: bad float"):
            parse_text("\n".join(lines) + "\n")

    def test_row_with_too_few_fields(self):
        lines = small_text().splitlines()
        lines[1] = "1,1,0.5"
        with pytest.raises(CurveFileError, match="line 2: expected group,channel,breath,values"):
            parse_text("\n".join(lines) + "\n")

    def test_wrong_value_count(self):
        lines = small_text().splitlines()
        lines[1] = lines[1] + ",9.0"
        with pytest.raises(CurveFileError, match="line 2: expected 3 values, got 4"):
            parse_text("\n".join(lines) + "\n")

    def test_non_integer_ids(self):
        lines = small_text().splitlines()
        lines[1] = "a" + lines[1][1:]
        with pytest.raises(CurveFileError, match="must be integers"):
            parse_text("\n".join(lines) + "\n")

    def test_bad_header_grid_names_line_1(self):
        body = small_text().split("\n", 1)[1]
        with pytest.raises(CurveFileError, match="line 1: grid points must be strictly increasing"):
            parse_text("#feqt-curves v1; grid=0.5,0.2\n" + body)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_its_line(self, value):
        lines = small_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + "," + value
        with pytest.raises(CurveFileError, match="line 4: non-finite value"):
            parse_text("\n".join(lines) + "\n")

    def test_finite_values_whose_sum_overflows_are_read(self):
        lines = small_text().splitlines()
        lines[2] = "1,2,1,1e308,1e308,1e308"
        back = parse_text("\n".join(lines) + "\n")
        assert np.all(back.groups[0].curves_2[0] == 1e308)

    def test_empty_body(self):
        header = small_text().splitlines()[0]
        with pytest.raises(CurveFileError, match="line 1: no curve rows"):
            parse_text(header + "\n")

    def test_grouped_channel_1_only_names_the_second_group(self):
        lines = [l for l in small_text().splitlines() if l.split(",")[1] != "2"]
        assert lines[3].startswith("2,1,1,")
        with pytest.raises(CurveFileError, match="line 4: group 2 makes the sample grouped"):
            parse_text("\n".join(lines) + "\n")


class TestKindInference:
    def test_blank_lines_ignored(self):
        lines = small_text().splitlines()
        lines.insert(2, "")
        back = parse_text("\n".join(lines) + "\n")
        assert isinstance(back, GroupedPairedSample)


def outcome(read, source):
    """The bits ``read(source)`` gives, or the message of its CurveFileError."""
    try:
        sample = read(source)
    except CurveFileError as exc:
        return str(exc)
    chans = [
        c
        for g in getattr(sample, "groups", (sample,))
        for c in ((g.curves,) if isinstance(g, FunctionalSample) else (g.curves_1, g.curves_2))
    ]
    return type(sample), sample.grid.points.tobytes(), [(c.shape, c.tobytes()) for c in chans]


@st.composite
def mutated_texts(draw):
    """A valid curve file, mutated line by line, its lines joined by breaks
    that ``str.splitlines`` splits on, some of which (a lone carriage
    return, form feed, next line) a binary read does not split on."""
    lines = curve_text(draw(samples())).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(
            ["delete", "duplicate", "swap", "truncate", "nan", "blank", "bad key after bad value"]
        ))
        # the header stays line 1 but for the line's own mutations
        first = 0 if op in ("truncate", "nan") else 1
        if len(lines) <= first:
            break
        i = draw(st.integers(first, len(lines) - 1))
        fields = lines[i].split(",")
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(draw(st.integers(1, len(lines))), lines[i])
        elif op == "swap":
            j = draw(st.integers(1, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "truncate":
            lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
        elif op == "nan":
            fields[draw(st.integers(0, len(fields) - 1))] = "nan"
            lines[i] = ",".join(fields)
        elif op == "blank":
            lines.insert(i, draw(st.sampled_from(["", " ", "\t"])))
        else:
            fields[-1] = "oops"
            lines[i] = ",".join(fields)
            if i + 1 < len(lines):
                lines[i + 1] = re.sub(r"^([^,]*),[^,]*", r"\1,3", lines[i + 1])
    breaks = st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\x85", "\n\n"])
    return "".join(line + draw(breaks) for line in lines)


@pytest.mark.parametrize("block", [1, 3, curvefile_mod._BLOCK_LINES])
@given(text=mutated_texts())
@settings(max_examples=60)
def test_mutated_files_read_alike(block, text, tmp_path_factory):
    # from a path or from text, in blocks of any size, the streaming reader
    # reads what the line-by-line reader read, and fails where it failed
    path = tmp_path_factory.mktemp("mutated") / "curves.csv"
    path.write_bytes(text.encode("utf-8"))
    saved, curvefile_mod._BLOCK_LINES = curvefile_mod._BLOCK_LINES, block
    try:
        got = outcome(read_curves, path)
        assert outcome(parse_text, text) == got
    finally:
        curvefile_mod._BLOCK_LINES = saved
    assert outcome(reference_curvefile.read_curves_text, text) == got
    if isinstance(got, str):
        assert re.match(r"line \d+: ", got)


def numbered(lines):
    return "\n".join(lines) + "\n"


class TestLineOrder:
    """Errors are raised in line order, although a row's values are parsed
    only with its block's."""

    def rows(self):
        text = curve_text(make_grouped(np.random.default_rng(3), 2, 4, 3))
        return text.splitlines()

    def test_bad_float_before_a_duplicate_row(self):
        lines = self.rows()
        lines[4] = lines[4].rsplit(",", 1)[0] + ",oops"
        lines[8] = lines[1]
        with pytest.raises(CurveFileError, match="line 5: bad float"):
            parse_text(numbered(lines))

    def test_bad_float_before_a_wrong_value_count(self):
        lines = self.rows()
        lines[2] = lines[2].rsplit(",", 1)[0] + ",nan"
        lines[6] += ",1.0"
        with pytest.raises(CurveFileError, match="line 3: non-finite value"):
            parse_text(numbered(lines))

    def test_a_row_with_a_bad_float_and_a_wrong_count_names_the_float(self):
        lines = self.rows()
        lines[3] += ",oops"
        with pytest.raises(CurveFileError, match="line 4: bad float"):
            parse_text(numbered(lines))

    def test_bad_float_in_an_earlier_block(self, monkeypatch):
        monkeypatch.setattr(curvefile_mod, "_BLOCK_LINES", 2)
        lines = self.rows()
        lines[2] = lines[2].rsplit(",", 1)[0] + ",inf"
        lines[7] = lines[7].rsplit(",", 1)[0] + ",oops"
        with pytest.raises(CurveFileError, match="line 3: non-finite value"):
            parse_text(numbered(lines))


class TestNotUtf8:
    def write(self, tmp_path, lineno, at=10):
        lines = small_text().encode().splitlines(keepends=True)
        lines[lineno - 1] = lines[lineno - 1][:at] + b"\xff" + lines[lineno - 1][at + 1:]
        path = tmp_path / "bad.csv"
        path.write_bytes(b"".join(lines))
        return path

    @pytest.mark.parametrize("lineno", [1, 3, 9])
    def test_names_the_line(self, tmp_path, lineno):
        with pytest.raises(CurveFileError, match=f"^line {lineno}: byte 0xff is not UTF-8$"):
            read_curves(self.write(tmp_path, lineno))

    def test_counts_lines_split_by_other_breaks(self, tmp_path):
        # one line of the file as bytes, two as text
        path = tmp_path / "bad.csv"
        lines = small_text().encode().splitlines()
        path.write_bytes(b"\n".join(lines[:2]) + b"\x0c" + b"\n".join(lines[2:3] + [b"\xe9"]))
        with pytest.raises(CurveFileError, match="^line 4: byte 0xe9 is not UTF-8$"):
            read_curves(path)

    def test_an_earlier_bad_value_comes_first(self, tmp_path):
        path = self.write(tmp_path, 5)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2].rsplit(b",", 1)[0] + b",oops\n"
        path.write_bytes(b"".join(lines))
        with pytest.raises(CurveFileError, match="^line 3: bad float"):
            read_curves(path)


class TestMemory:
    """Lines stream out and in: a write holds one line at a time, and a
    read a few times the sample's values."""

    @pytest.fixture(scope="class")
    def large(self):
        rng = np.random.default_rng(11)
        grid = equispaced_grid(25)
        return PairedFunctionalSample(
            grid, rng.normal(size=(10_000, 25)), rng.normal(size=(10_000, 25))
        )

    @staticmethod
    def peak(fn, *args):
        tracemalloc.start()
        try:
            result = fn(*args)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_write_and_read_peaks(self, large, tmp_path):
        path = tmp_path / "large.csv"
        _, write_peak = self.peak(write_curves, large, path)
        assert write_peak <= 1_000_000
        back, read_peak = self.peak(read_curves, path)
        np.testing.assert_array_equal(back.curves_1, large.curves_1)
        np.testing.assert_array_equal(back.curves_2, large.curves_2)
        assert read_peak <= 5 * (large.curves_1.nbytes + large.curves_2.nbytes)
