import numpy as np
import pytest

from feqt.bayes.posterior import (
    PosteriorDraws,
    posterior_equivalence_prob,
    simultaneous_bands,
)
from feqt.fdata import BandKind, BandPair, equispaced_grid, make_cosine_bands
from feqt.tost import Metric, empirical_quantile

from conftest import band_coverage


def make_draws(rng, m=400, T=10):
    grid = equispaced_grid(T)
    return PosteriorDraws(
        grid_points=grid.points,
        theta=rng.normal(0.0, 0.05, (m, T)),
        lam=np.exp(rng.normal(0.0, 0.1, (m, T))),
        psi=np.exp(rng.normal(0.0, 0.1, (m, T))),
        chain=np.zeros(m, dtype=int),
    )


class TestEquivalenceProb:
    def test_counts_strictly_inside_curves(self):
        grid = equispaced_grid(3)
        band = BandPair(grid, [-1.0] * 3, [1.0] * 3, BandKind.ADDITIVE)
        theta = np.zeros((100, 3))
        theta[:30, 1] = 2.0  # outside
        theta[30:40, 2] = 1.0  # on the band: not strictly inside
        draws = PosteriorDraws(
            grid_points=grid.points, theta=theta,
            lam=np.ones((100, 3)), psi=np.ones((100, 3)),
            chain=np.zeros(100, dtype=int),
        )
        probs = posterior_equivalence_prob(draws, {Metric.THETA: band})
        assert probs["theta"] == pytest.approx(0.6)

    def test_lambda_gets_noninferiority(self, rng):
        grid = equispaced_grid(10)
        band = make_cosine_bands(grid, BandKind.MULTIPLICATIVE)
        draws = make_draws(rng)
        probs = posterior_equivalence_prob(draws, {Metric.LAMBDA: band})
        assert set(probs) == {"lambda", "lambda_noninferior"}
        assert probs["lambda_noninferior"] >= probs["lambda"]

    def test_requires_draws(self, rng):
        draws = make_draws(rng, m=50)
        band = make_cosine_bands(equispaced_grid(10), BandKind.ADDITIVE)
        with pytest.raises(ValueError, match="100"):
            posterior_equivalence_prob(draws, {Metric.THETA: band})


class TestSimultaneousBands:
    @pytest.mark.parametrize("coverage", [0.90, 0.95])
    def test_coverage_at_least_nominal_by_construction(self, rng, coverage):
        x = rng.normal(size=(500, 12)) * rng.uniform(0.5, 2.0, 12)
        band = simultaneous_bands(x, coverage)
        achieved = band_coverage(band, x)
        assert achieved >= coverage
        assert np.all(band.lower <= band.center) and np.all(band.center <= band.upper)

    def test_tighter_coverage_nested(self, rng):
        x = rng.normal(size=(300, 8))
        b90 = simultaneous_bands(x, 0.90)
        b99 = simultaneous_bands(x, 0.99)
        assert np.all(b99.lower <= b90.lower) and np.all(b90.upper <= b99.upper)

    def test_degenerate_point_fallback(self, rng):
        x = rng.normal(size=(200, 5))
        x[:, 2] = 3.14  # zero spread at one grid point
        band = simultaneous_bands(x, 0.9)
        np.testing.assert_array_equal(band.degenerate_points, [2])
        assert band.lower[2] == band.upper[2] == pytest.approx(3.14)
        assert band_coverage(band, x) >= 0.9

    def test_every_point_degenerate_gives_the_pointwise_band(self, rng):
        # more than half the draws equal at each point: zero MAD everywhere
        x = np.zeros((200, 4))
        x[:60] = rng.normal(size=(60, 4))
        band = simultaneous_bands(x, 0.9)
        np.testing.assert_array_equal(band.degenerate_points, np.arange(4))
        np.testing.assert_array_equal(band.lower, empirical_quantile(x, 0.05))
        np.testing.assert_array_equal(band.upper, empirical_quantile(x, 0.95))
        assert np.all(band.lower < 0.0) and np.all(band.upper > 0.0)

    def test_input_validation(self, rng):
        with pytest.raises(ValueError, match="100"):
            simultaneous_bands(rng.normal(size=(20, 4)), 0.9)
        with pytest.raises(ValueError, match="coverage"):
            simultaneous_bands(rng.normal(size=(200, 4)), 1.2)


class TestPosteriorDraws:
    def test_metric_accessor(self, rng):
        d = make_draws(rng)
        assert d.metric(Metric.THETA) is d.theta
        assert d.metric(Metric.LAMBDA) is d.lam
        assert d.metric(Metric.PSI) is d.psi
        assert d.n_draws == 400


def test_draws_and_bands_are_read_only(rng):
    draws = make_draws(rng)
    band = simultaneous_bands(draws.theta, 0.9)
    arrays = [draws.grid_points, draws.theta, draws.lam, draws.psi, draws.chain,
              band.lower, band.upper, band.center, band.degenerate_points]
    assert not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError, match="read-only"):
        band.lower[0] = 99.0
