import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from feqt.curvefile import (
    CurveFileError,
    read_curves,
    read_curves_text,
    write_curves,
    write_curves_text,
)
from feqt.fdata import (
    FunctionalSample,
    Grid,
    GroupedPairedSample,
    PairedFunctionalSample,
    equispaced_grid,
)

from conftest import make_grouped


def header_and_rows(text):
    lines = text.splitlines()
    return lines[0], lines[1:]


class TestRoundTrip:
    def test_grouped_bit_exact(self, rng):
        data = make_grouped(rng, n_groups=3, group_size=4, n_points=7)
        text = write_curves_text(data)
        back = read_curves_text(text)
        assert isinstance(back, GroupedPairedSample)
        np.testing.assert_array_equal(back.grid.points, data.grid.points)
        for g0, g1 in zip(data.groups, back.groups):
            np.testing.assert_array_equal(g0.curves_1, g1.curves_1)
            np.testing.assert_array_equal(g0.curves_2, g1.curves_2)
        # and the text itself is stable under a second round trip
        assert write_curves_text(back) == text

    def test_paired_bit_exact(self, rng):
        grid = equispaced_grid(5)
        data = PairedFunctionalSample(
            grid, rng.normal(size=(6, 5)), rng.normal(size=(6, 5))
        )
        back = read_curves_text(write_curves_text(data))
        assert isinstance(back, PairedFunctionalSample)
        np.testing.assert_array_equal(back.curves_1, data.curves_1)
        np.testing.assert_array_equal(back.curves_2, data.curves_2)

    def test_single_bit_exact(self, rng):
        grid = equispaced_grid(4)
        data = FunctionalSample(grid, rng.normal(size=(3, 4)))
        back = read_curves_text(write_curves_text(data))
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
        back = read_curves_text(write_curves_text(data))
        np.testing.assert_array_equal(back.curves, vals)

    def test_header_contains_grid(self, rng):
        data = make_grouped(rng, n_groups=2, group_size=2, n_points=3)
        header, rows = header_and_rows(write_curves_text(data))
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
            h.update(write_curves_text(sample).encode())
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
    text = write_curves_text(sample)
    back = read_curves_text(text)
    assert type(back) is type(sample)
    np.testing.assert_array_equal(back.grid.points, sample.grid.points)
    if isinstance(sample, FunctionalSample):
        np.testing.assert_array_equal(back.curves, sample.curves)
    else:
        np.testing.assert_array_equal(back.stacked(), sample.stacked())
    assert write_curves_text(back) == text  # signs of zeros survive too


def small_text():
    grid = equispaced_grid(3)
    rng = np.random.default_rng(0)
    data = make_grouped(rng, n_groups=2, group_size=2, n_points=3)
    return write_curves_text(data)


class TestErrors:
    def test_unknown_sample_refused(self):
        with pytest.raises(TypeError, match="cannot serialize dict"):
            write_curves_text({})

    def test_missing_header(self):
        with pytest.raises(CurveFileError, match="line 1: missing header"):
            read_curves_text("1,1,1,0.0,0.0\n")

    def test_bad_channel_line_number(self):
        text = small_text()
        lines = text.splitlines()
        parts = lines[2].split(",")
        parts[1] = "3"
        lines[2] = ",".join(parts)
        with pytest.raises(CurveFileError, match="line 3: channel must be 1 or 2"):
            read_curves_text("\n".join(lines) + "\n")

    def test_orphan_channel_row(self):
        text = small_text()
        lines = [l for l in text.splitlines() if not l.startswith("1,2,1,")]
        with pytest.raises(CurveFileError, match="channel 1 but no channel 2"):
            read_curves_text("\n".join(lines) + "\n")

    def test_duplicate_row(self):
        lines = small_text().splitlines()
        lines.append(lines[1])
        lineno = len(lines)
        with pytest.raises(CurveFileError, match=f"line {lineno}: duplicate row"):
            read_curves_text("\n".join(lines) + "\n")

    def test_bad_float(self):
        lines = small_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + ",oops"
        with pytest.raises(CurveFileError, match="line 3: bad float"):
            read_curves_text("\n".join(lines) + "\n")

    def test_row_with_too_few_fields(self):
        lines = small_text().splitlines()
        lines[1] = "1,1,0.5"
        with pytest.raises(CurveFileError, match="line 2: expected group,channel,breath,values"):
            read_curves_text("\n".join(lines) + "\n")

    def test_wrong_value_count(self):
        lines = small_text().splitlines()
        lines[1] = lines[1] + ",9.0"
        with pytest.raises(CurveFileError, match="line 2: expected 3 values, got 4"):
            read_curves_text("\n".join(lines) + "\n")

    def test_non_integer_ids(self):
        lines = small_text().splitlines()
        lines[1] = "a" + lines[1][1:]
        with pytest.raises(CurveFileError, match="must be integers"):
            read_curves_text("\n".join(lines) + "\n")

    def test_bad_header_grid_names_line_1(self):
        body = small_text().split("\n", 1)[1]
        with pytest.raises(CurveFileError, match="line 1: grid points must be strictly increasing"):
            read_curves_text("#feqt-curves v1; grid=0.5,0.2\n" + body)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_its_line(self, value):
        lines = small_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + "," + value
        with pytest.raises(CurveFileError, match="line 4: non-finite value"):
            read_curves_text("\n".join(lines) + "\n")

    def test_finite_values_whose_sum_overflows_are_read(self):
        lines = small_text().splitlines()
        lines[2] = "1,2,1,1e308,1e308,1e308"
        back = read_curves_text("\n".join(lines) + "\n")
        assert np.all(back.groups[0].curves_2[0] == 1e308)

    def test_empty_body(self):
        header = small_text().splitlines()[0]
        with pytest.raises(CurveFileError, match="line 1: no curve rows"):
            read_curves_text(header + "\n")

    def test_grouped_channel_1_only_names_the_second_group(self):
        lines = [l for l in small_text().splitlines() if l.split(",")[1] != "2"]
        assert lines[3].startswith("2,1,1,")
        with pytest.raises(CurveFileError, match="line 4: group 2 makes the sample grouped"):
            read_curves_text("\n".join(lines) + "\n")


class TestKindInference:
    def test_blank_lines_ignored(self):
        lines = small_text().splitlines()
        lines.insert(2, "")
        back = read_curves_text("\n".join(lines) + "\n")
        assert isinstance(back, GroupedPairedSample)
