import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feqt.fdata import (
    BandKind,
    BandPair,
    FunctionalSample,
    Grid,
    GroupedPairedSample,
    PairedFunctionalSample,
    ValidationError,
    band_contains,
    equispaced_grid,
    make_cosine_bands,
)

from feqt.simlab import default_truth

from conftest import make_grouped


class TestGrid:
    def test_equispaced_default(self):
        g = equispaced_grid()
        assert len(g) == 25
        assert g.points[0] == 0.0 and g.points[-1] == 1.0
        assert np.allclose(np.diff(g.points), 1.0 / 24.0)

    def test_rejects_decreasing(self):
        with pytest.raises(ValidationError, match="strictly increasing"):
            Grid([0.0, 0.5, 0.4])

    def test_rejects_duplicates(self):
        with pytest.raises(ValidationError, match="strictly increasing"):
            Grid([0.0, 0.5, 0.5])

    def test_rejects_outside_unit_interval(self):
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            Grid([0.0, 1.5])

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValidationError, match="nonempty"):
            Grid([])
        with pytest.raises(ValidationError, match="non-finite"):
            Grid([0.0, np.nan, 1.0])

    def test_equality_and_hash(self):
        assert equispaced_grid(5) == equispaced_grid(5)
        assert equispaced_grid(5) != equispaced_grid(6)
        assert hash(equispaced_grid(5)) == hash(equispaced_grid(5))

    def test_points_frozen(self):
        g = equispaced_grid(5)
        with pytest.raises(ValueError):
            g.points[0] = 0.5

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=1,
            max_size=30,
            unique=True,
        )
    )
    @settings(max_examples=50)
    def test_any_sorted_unique_points_accepted(self, pts):
        g = Grid(sorted(pts))
        assert len(g) == len(pts)


class TestCosineBands:
    def test_additive_values_at_zero(self, grid25):
        b = make_cosine_bands(grid25, BandKind.ADDITIVE)
        assert b.lower[0] == pytest.approx(-0.2)
        assert b.upper[0] == pytest.approx(0.2)
        # trough at t = 0.5
        mid = 12
        assert b.upper[mid] == pytest.approx(0.1)

    def test_multiplicative_reciprocal(self, grid25):
        b = make_cosine_bands(grid25, BandKind.MULTIPLICATIVE)
        assert b.upper[0] == pytest.approx(1.9)
        np.testing.assert_allclose(b.lower, 1.0 / b.upper)

    def test_additive_symmetry(self, grid25):
        b = make_cosine_bands(grid25, BandKind.ADDITIVE)
        np.testing.assert_allclose(b.lower, -b.upper)

    def test_midline(self, grid25):
        add = make_cosine_bands(grid25, BandKind.ADDITIVE)
        mult = make_cosine_bands(grid25, BandKind.MULTIPLICATIVE)
        np.testing.assert_allclose(add.midline, 0.0, atol=1e-15)
        np.testing.assert_allclose(mult.midline, 1.0)

    def test_working_scale(self, grid25):
        add = make_cosine_bands(grid25, BandKind.ADDITIVE)
        mult = make_cosine_bands(grid25, BandKind.MULTIPLICATIVE)
        np.testing.assert_array_equal(add.to_working(add.upper), add.upper)
        np.testing.assert_array_equal(mult.to_working(mult.upper), np.log(mult.upper))
        # the reciprocal cosine bands are symmetric about 0 on the log scale
        np.testing.assert_allclose(mult.to_working(mult.lower), -mult.to_working(mult.upper))
        for b in (add, mult):
            np.testing.assert_allclose(b.from_working(b.to_working(b.upper)), b.upper)

    def test_band_pair_validation(self, grid25):
        t = grid25.points
        with pytest.raises(ValidationError, match="strictly below"):
            BandPair(grid25, np.ones_like(t), np.ones_like(t), BandKind.ADDITIVE)
        with pytest.raises(ValidationError, match="strictly positive"):
            BandPair(grid25, -np.ones_like(t), np.ones_like(t), BandKind.MULTIPLICATIVE)
        with pytest.raises(ValidationError, match="does not match grid"):
            BandPair(grid25, [0.0], [1.0], BandKind.ADDITIVE)


class TestBandContains:
    def test_strictly_inside(self, grid25):
        b = make_cosine_bands(grid25, BandKind.ADDITIVE)
        assert band_contains(b, np.zeros(25))

    def test_touching_fails(self, grid25):
        b = make_cosine_bands(grid25, BandKind.ADDITIVE)
        curve = np.zeros(25)
        curve[7] = b.upper[7]  # on the band, not inside the open interval
        assert not band_contains(b, curve)

    def test_shape_check(self, grid25):
        b = make_cosine_bands(grid25, BandKind.ADDITIVE)
        with pytest.raises(ValidationError, match="shape"):
            band_contains(b, np.zeros(7))

    @given(st.floats(min_value=-0.099, max_value=0.099, allow_nan=False))
    @settings(max_examples=50)
    def test_constant_within_narrowest_width(self, c):
        b = make_cosine_bands(equispaced_grid(25), BandKind.ADDITIVE)
        assert band_contains(b, np.full(25, c))


class TestSamples:
    def test_functional_sample_shape_mismatch(self, grid25):
        with pytest.raises(ValidationError, match="grid has 25 points"):
            FunctionalSample(grid25, np.zeros((3, 7)))

    def test_paired_shape_mismatch(self, grid25):
        with pytest.raises(ValidationError, match="curves_2"):
            PairedFunctionalSample(grid25, np.zeros((3, 25)), np.zeros((4, 25)))

    def test_paired_stacked(self, rng, grid25):
        c1 = rng.normal(size=(3, 25))
        c2 = rng.normal(size=(3, 25))
        s = PairedFunctionalSample(grid25, c1, c2)
        assert s.stacked().shape == (3, 2, 25)
        np.testing.assert_array_equal(s.stacked()[:, 0], c1)

    def test_grouped_requires_two_groups(self, rng, grid25):
        g = PairedFunctionalSample(grid25, rng.normal(size=(2, 25)), rng.normal(size=(2, 25)))
        with pytest.raises(ValidationError, match="at least 2 groups"):
            GroupedPairedSample(grid25, (g,))

    def test_grouped_rejects_foreign_grid(self, rng, grid25):
        other = equispaced_grid(10)
        g1 = PairedFunctionalSample(grid25, rng.normal(size=(2, 25)), rng.normal(size=(2, 25)))
        g2 = PairedFunctionalSample(other, rng.normal(size=(2, 10)), rng.normal(size=(2, 10)))
        with pytest.raises(ValidationError, match="different grid"):
            GroupedPairedSample(grid25, (g1, g2))

    def test_grouped_bookkeeping(self, rng):
        s = make_grouped(rng, group_sizes=[2, 3, 4])
        assert s.n_groups == 3
        assert s.n_total == 9
        np.testing.assert_array_equal(s.group_sizes, [2, 3, 4])
        np.testing.assert_array_equal(s.group_labels(), [0, 0, 1, 1, 1, 2, 2, 2, 2])
        assert s.stacked().shape == (9, 2, 6)

    def test_non_2d_curves_refused(self, grid25):
        message = r"curves must be 2-dimensional, got shape \(25,\)"
        with pytest.raises(ValidationError, match=message):
            FunctionalSample(grid25, np.zeros(25))

    @pytest.mark.parametrize("paired, unit", [(False, "curve"), (True, "pair")])
    def test_empty_sample_refused(self, grid25, paired, unit):
        empty = np.zeros((0, 25))
        with pytest.raises(ValidationError, match=f"at least one {unit}"):
            if paired:
                PairedFunctionalSample(grid25, empty, empty)
            else:
                FunctionalSample(grid25, empty)

    def test_paired_columns_must_match_grid(self, grid25):
        with pytest.raises(ValidationError, match="curves have 7 columns but grid has 25 points"):
            PairedFunctionalSample(grid25, np.zeros((3, 7)), np.zeros((3, 7)))

    def test_grouped_refuses_a_group_of_curves(self, rng, grid25):
        g = PairedFunctionalSample(grid25, rng.normal(size=(2, 25)), rng.normal(size=(2, 25)))
        curves = FunctionalSample(grid25, rng.normal(size=(2, 25)))
        with pytest.raises(ValidationError, match="group 1 is not a PairedFunctionalSample"):
            GroupedPairedSample(grid25, (g, curves))

    def test_curves_frozen(self, rng, grid25):
        s = FunctionalSample(grid25, rng.normal(size=(3, 25)))
        with pytest.raises(ValueError):
            s.curves[0, 0] = 1.0


def _equal_objects(kind):
    """Two distinct objects of ``kind`` built from equal values."""
    grid = equispaced_grid(5)
    c = np.arange(15.0).reshape(3, 5)
    build = {
        "sample": lambda: FunctionalSample(grid, c),
        "pair": lambda: PairedFunctionalSample(grid, c, c + 1.0),
        "grouped": lambda: make_grouped(np.random.default_rng(3), n_groups=2, n_points=5),
        "band": lambda: make_cosine_bands(grid, BandKind.ADDITIVE),
        "truth": lambda: default_truth(grid, 2, 2),
    }[kind]
    return build(), build()


@pytest.mark.parametrize("kind", ["sample", "pair", "grouped", "band", "truth"])
def test_array_holders_compare_by_identity(kind):
    a, b = _equal_objects(kind)
    assert (a == b) is False and (a != b) is True
    assert a == a
    assert {a: 1, b: 2}[a] == 1 and len({a, b, a}) == 2
