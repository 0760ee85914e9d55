import numpy as np
import pytest
from scipy.stats import multivariate_normal

from feqt.bayes.model import GPBandPrior, PriorSpec, paired_block_loglik
from feqt.fdata import BandKind, equispaced_grid, make_cosine_bands


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


class TestPriorSpec:
    def test_band_kind_enforcement(self, grid8):
        add = make_cosine_bands(grid8, BandKind.ADDITIVE)
        mult = make_cosine_bands(grid8, BandKind.MULTIPLICATIVE)
        good = PriorSpec(
            mean_prior=GPBandPrior(0.3, 0.1, add),
            error_var_prior=GPBandPrior(0.3, 0.1, mult),
            reffect_var_prior=GPBandPrior(0.3, 0.1, mult),
        )
        assert good.gamma == 0.95
        with pytest.raises(ValueError, match="additive"):
            PriorSpec(GPBandPrior(0.3, 0.1, mult), GPBandPrior(0.3, 0.1, mult), GPBandPrior(0.3, 0.1, mult))
        with pytest.raises(ValueError, match="multiplicative"):
            PriorSpec(GPBandPrior(0.3, 0.1, add), GPBandPrior(0.3, 0.1, add), GPBandPrior(0.3, 0.1, mult))
        with pytest.raises(ValueError, match="gamma"):
            PriorSpec(
                GPBandPrior(0.3, 0.1, add), GPBandPrior(0.3, 0.1, mult),
                GPBandPrior(0.3, 0.1, mult), gamma=1.5,
            )

    def test_offsets_log_for_multiplicative(self, grid8):
        mult = make_cosine_bands(grid8, BandKind.MULTIPLICATIVE)
        lo, hi = GPBandPrior(0.3, 0.1, mult).offsets()
        np.testing.assert_allclose(lo, np.log(mult.lower))
        np.testing.assert_allclose(hi, np.log(mult.upper))
        add = make_cosine_bands(grid8, BandKind.ADDITIVE)
        lo, hi = GPBandPrior(0.3, 0.1, add).offsets()
        np.testing.assert_allclose(hi, add.upper)
