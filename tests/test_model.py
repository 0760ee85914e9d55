import numpy as np
import pytest
from scipy.stats import multivariate_normal

from feqt.bayes.model import (
    PriorSpec,
    block_loglik,
    channel_term,
    count_terms,
    paired_block_loglik,
    rho_terms,
)
from feqt.fdata import BandKind, equispaced_grid, make_cosine_bands
from feqt.tost import Metric


@pytest.fixture
def grid8():
    return equispaced_grid(8)


class TestPairedBlockLoglik:
    @staticmethod
    def scipy_loglik(dev, l1, l2, rho):
        cov = np.array([
            [np.exp(l1), rho * np.exp(0.5 * (l1 + l2))],
            [rho * np.exp(0.5 * (l1 + l2)), np.exp(l2)],
        ])
        return multivariate_normal(mean=[0.0, 0.0], cov=cov).logpdf(dev).sum()

    def test_matches_scipy_bivariate(self, rng):
        for _ in range(10):
            l1, l2 = rng.uniform(-1.5, 1.0, 2)
            rho = rng.uniform(-0.9, 0.9)
            dev = rng.normal(size=(1, 2))
            got = paired_block_loglik(
                l1, l2, rho, dev[0, 0] ** 2, dev[0, 1] ** 2, dev[0, 0] * dev[0, 1], 1.0
            )
            assert got == pytest.approx(self.scipy_loglik(dev, l1, l2, rho), rel=1e-12)

    def test_sums_pairs_per_gridpoint(self, rng):
        """Sufficient statistics of n pairs give the summed per-pair
        log-densities at every grid point."""
        n, T = 7, 5
        l = rng.uniform(-1.0, 1.0, (2, T))
        rho = rng.uniform(-0.8, 0.8, T)
        dev = rng.normal(size=(n, 2, T))
        s11 = (dev[:, 0] ** 2).sum(axis=0)
        s22 = (dev[:, 1] ** 2).sum(axis=0)
        s12 = (dev[:, 0] * dev[:, 1]).sum(axis=0)
        got = paired_block_loglik(l[0], l[1], rho, s11, s22, s12, float(n))
        assert got.shape == (T,)
        for t in range(T):
            expected = self.scipy_loglik(dev[:, :, t], l[0, t], l[1, t], rho[t])
            assert got[t] == pytest.approx(expected, rel=1e-12)


class TestCachedTerms:
    """:func:`block_loglik` on cached terms gives the bits of
    :func:`paired_block_loglik`, and both give the bits of the one-expression
    formula below, which the sampler's Metropolis blocks rely on for draws
    that do not depend on what they cache."""

    @staticmethod
    def one_expression(l1, l2, rho, s11, s22, s12, count):
        omr2 = 1.0 - rho * rho
        quad = s11 * np.exp(-l1) - 2.0 * rho * s12 * np.exp(-0.5 * (l1 + l2)) + s22 * np.exp(-l2)
        return (
            -count * np.log(2.0 * np.pi)
            - 0.5 * count * (l1 + l2 + np.log(omr2))
            - 0.5 * quad / omr2
        )

    @staticmethod
    def inputs(rng, n=4000):
        l1, l2 = rng.uniform(-30.0, 30.0, (2, n))
        near_one = 1.0 - 10.0 ** -rng.uniform(1.0, 12.0, n // 2)
        rho = np.concatenate([rng.uniform(-0.99, 0.99, n - n // 2), near_one])
        rho[::2] *= -1.0
        s11, s22 = rng.exponential(5.0, (2, n))
        s12 = rng.uniform(-1.0, 1.0, n) * np.sqrt(s11 * s22)
        return l1, l2, rho, s11, s22, s12

    def test_composition_matches_one_expression(self, rng):
        args = self.inputs(rng)
        for count in (1.0, 400.0):
            assert np.array_equal(
                paired_block_loglik(*args, count), self.one_expression(*args, count)
            )

    def test_one_channel_moves(self, rng):
        l1, l2, rho, s11, s22, s12 = self.inputs(rng)
        rterms = rho_terms(rho, rho * rho, s12)
        a, b = channel_term(l1, s11), channel_term(l2, s22)
        for count in (1.0, 400.0):
            cterms = count_terms(count)
            p1, p2 = rng.uniform(-30.0, 30.0, (2, l1.size))
            lsum, e12 = p1 + l2, np.exp(-0.5 * (p1 + l2))
            moved_1 = block_loglik(channel_term(p1, s11), b, lsum, e12, rterms, cterms)
            assert np.array_equal(moved_1, paired_block_loglik(p1, l2, rho, s11, s22, s12, count))
            lsum, e12 = l1 + p2, np.exp(-0.5 * (l1 + p2))
            moved_2 = block_loglik(a, channel_term(p2, s22), lsum, e12, rterms, cterms)
            assert np.array_equal(moved_2, paired_block_loglik(l1, p2, rho, s11, s22, s12, count))

    def test_rho_moves(self, rng):
        l1, l2, rho, s11, s22, s12 = self.inputs(rng)
        lsum = l1 + l2
        fixed = (channel_term(l1, s11), channel_term(l2, s22), lsum, np.exp(-0.5 * lsum))
        for count in (1.0, 20.0):
            new = rng.permutation(rho)
            got = block_loglik(*fixed, rho_terms(new, new * new, s12), count_terms(count))
            assert np.array_equal(got, paired_block_loglik(l1, l2, new, s11, s22, s12, count))


class TestPriorSpec:
    def test_band_kind_enforcement(self, grid8):
        add = make_cosine_bands(grid8, BandKind.ADDITIVE)
        mult = make_cosine_bands(grid8, BandKind.MULTIPLICATIVE)
        PriorSpec(0.3, 0.1, {Metric.THETA: add, Metric.LAMBDA: mult, Metric.PSI: mult})
        with pytest.raises(ValueError, match="theta prior needs additive"):
            PriorSpec(0.3, 0.1, {Metric.THETA: mult, Metric.LAMBDA: mult, Metric.PSI: mult})
        with pytest.raises(ValueError, match="lambda prior needs multiplicative"):
            PriorSpec(0.3, 0.1, {Metric.THETA: add, Metric.LAMBDA: add, Metric.PSI: mult})
        with pytest.raises(ValueError, match="psi prior needs multiplicative"):
            PriorSpec(0.3, 0.1, {Metric.THETA: add, Metric.LAMBDA: mult})

    @pytest.mark.parametrize("range_a, scale", [
        (np.nan, 0.1), (np.inf, 0.1), (0.3, np.nan), (0.3, np.inf),
    ])
    def test_range_and_scale_positive_and_finite(self, grid8, range_a, scale):
        add = make_cosine_bands(grid8, BandKind.ADDITIVE)
        mult = make_cosine_bands(grid8, BandKind.MULTIPLICATIVE)
        bands = {Metric.THETA: add, Metric.LAMBDA: mult, Metric.PSI: mult}
        with pytest.raises(ValueError, match="must be positive and finite"):
            PriorSpec(range_a, scale, bands)

    def test_offsets_log_for_multiplicative(self, grid8):
        mult = make_cosine_bands(grid8, BandKind.MULTIPLICATIVE)
        add = make_cosine_bands(grid8, BandKind.ADDITIVE)
        prior = PriorSpec(0.3, 0.1, {Metric.THETA: add, Metric.LAMBDA: mult, Metric.PSI: mult})
        lo, hi = prior.offsets(Metric.LAMBDA)
        np.testing.assert_allclose(lo, np.log(mult.lower))
        np.testing.assert_allclose(hi, np.log(mult.upper))
        lo, hi = prior.offsets(Metric.THETA)
        np.testing.assert_allclose(hi, add.upper)
