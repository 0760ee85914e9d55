import numpy as np
import pytest
import scipy.special
from scipy.optimize import brentq
from scipy.stats import multivariate_normal, norm, qmc

import feqt.bayes.mvnprob as mvnprob_mod
from feqt._scipyext import _load_scipy_ext
from feqt.bayes.kernels import matern_corr
from feqt.bayes.mvnprob import (
    AccuracyError,
    calibrate_prior_scale,
    mvn_rectangle_prob,
    prior_equivalence_prob,
)
from feqt.fdata import BandKind, equispaced_grid, make_cosine_bands


def scipy_rectangle(mean, cov, lower, upper):
    """Inclusion-exclusion rectangle probability from scipy's MVN CDF."""
    d = len(mean)
    total = 0.0
    for mask in range(1 << d):
        point = np.array(
            [upper[i] if not (mask >> i) & 1 else lower[i] for i in range(d)]
        )
        sign = (-1) ** bin(mask).count("1")
        total += sign * multivariate_normal(mean=mean, cov=cov).cdf(point)
    return total


class TestRectangleProb:
    def test_one_dimensional_exact(self):
        z = norm.ppf(0.975)
        r = mvn_rectangle_prob([0.0], [[1.0]], [-z], [z])
        assert r.estimate == pytest.approx(0.95, abs=1e-12)
        assert r.error == 0.0

    def test_independent_product(self):
        r = mvn_rectangle_prob(
            np.zeros(3), np.eye(3), -np.ones(3), np.ones(3), accuracy=1e-4
        )
        expected = (norm.cdf(1.0) - norm.cdf(-1.0)) ** 3
        assert r.estimate == pytest.approx(expected, abs=5e-4)

    def test_correlated_2d_vs_scipy(self):
        cov = np.array([[1.0, 0.6], [0.6, 2.0]])
        lower = np.array([-1.0, -0.5])
        upper = np.array([0.8, 1.5])
        mean = np.array([0.1, -0.2])
        r = mvn_rectangle_prob(mean, cov, lower, upper, accuracy=2e-4)
        assert r.estimate == pytest.approx(scipy_rectangle(mean, cov, lower, upper), abs=1e-3)

    def test_correlated_3d_matern_vs_scipy(self):
        grid = equispaced_grid(3)
        cov = 0.5 * matern_corr(0.4, grid)
        lower = np.array([-0.5, -0.6, -0.4])
        upper = np.array([0.7, 0.5, 0.9])
        r = mvn_rectangle_prob(np.zeros(3), cov, lower, upper, accuracy=2e-4)
        expected = scipy_rectangle(np.zeros(3), cov, lower, upper)
        assert r.estimate == pytest.approx(expected, abs=2e-3)

    def test_deterministic_in_seed(self):
        args = (np.zeros(4), np.eye(4) + 0.3, -np.ones(4), np.ones(4))
        a = mvn_rectangle_prob(*args, seed=5)
        b = mvn_rectangle_prob(*args, seed=5)
        assert a.estimate == b.estimate and a.error == b.error
        c = mvn_rectangle_prob(*args, seed=6)
        assert c.estimate != a.estimate

    def test_seed_reproduced_after_other_seed(self):
        """Engines are built once per (seed, dimension) and reset per call:
        a seed's result does not depend on the calls made before it."""
        args = (np.zeros(4), np.eye(4) + 0.3, -np.ones(4), np.ones(4))
        a = mvn_rectangle_prob(*args, seed=8)
        mvn_rectangle_prob(*args, seed=9)
        b = mvn_rectangle_prob(*args, seed=8)
        mvnprob_mod._sobol_engines.cache_clear()
        fresh = mvn_rectangle_prob(*args, seed=8)
        assert (a.estimate, a.error) == (b.estimate, b.error) == (fresh.estimate, fresh.error)

    def test_invalid_rectangle(self):
        with pytest.raises(ValueError, match="strictly below"):
            mvn_rectangle_prob([0.0, 0.0], np.eye(2), [0.0, 0.0], [1.0, 0.0])

    def test_accuracy_cap_raises(self, monkeypatch):
        monkeypatch.setattr(mvnprob_mod, "_MAX_POINTS", 2048)
        with pytest.raises(AccuracyError, match="after 2048 points"):
            mvn_rectangle_prob(
                np.zeros(5), np.eye(5) + 0.5, -np.ones(5), np.ones(5), accuracy=1e-12,
            )

    def test_relative_accuracy_for_tails(self):
        # far-tail rectangle: absolute tolerance 1.0 never binds, the relative
        # tolerance drives the stopping rule
        cov = np.eye(3) * 0.01
        r = mvn_rectangle_prob(
            np.zeros(3), cov, np.full(3, 0.5), np.full(3, 1.0),
            accuracy=1.0, rel_accuracy=0.05,
        )
        assert 0.0 < r.estimate < 1e-6
        assert r.error <= 0.05 * r.estimate


class TestPriorEquivalence:
    def test_mixture_components_symmetric(self, grid25):
        # additive cosine bands are symmetric about zero, so the two mixture
        # centers give equal mass and the mixture equals either component
        bands = make_cosine_bands(grid25, BandKind.ADDITIVE)
        p = prior_equivalence_prob(0.3, 0.1, bands, accuracy=5e-4, seed=1)
        lo, hi = bands.lower, bands.upper
        cov = 2.0 * 0.1 * matern_corr(0.3, grid25)
        single = mvn_rectangle_prob(hi, cov, lo, hi, accuracy=5e-4, seed=11)
        assert p.estimate == pytest.approx(single.estimate, abs=6e-3)

    def test_monotone_in_scale(self, grid25):
        bands = make_cosine_bands(grid25, BandKind.ADDITIVE)
        probs = [
            prior_equivalence_prob(0.3, s2, bands, accuracy=5e-4, seed=2).estimate
            for s2 in (0.05, 0.1, 0.4)
        ]
        assert probs[0] > probs[1] > probs[2]


class TestCalibrationSearch:
    def test_no_point_evaluated_twice(self, grid25, monkeypatch):
        real = mvnprob_mod.prior_equivalence_prob
        scales = []

        def counting(range_a, s2, *args, **kwargs):
            scales.append(s2)
            return real(range_a, s2, *args, **kwargs)

        monkeypatch.setattr(mvnprob_mod, "prior_equivalence_prob", counting)
        kb = make_cosine_bands(grid25, BandKind.ADDITIVE)
        s2 = calibrate_prior_scale(0.3, kb, 0.01, seed=5)
        assert repr(s2) == "0.09549981016408426"
        assert scales[:2] == [np.exp(-12.0), np.exp(8.0)]
        assert len(scales) == len(set(scales)) == 10

    def test_unattainable_target_names_the_bracket(self, grid25):
        kb = make_cosine_bands(grid25, BandKind.ADDITIVE)
        with pytest.raises(ValueError, match="not attainable on the bracket"):
            calibrate_prior_scale(0.3, kb, 0.9, seed=1)


class TestCalibrationPinned:
    def test_criterion_3_scale_unchanged(self, grid25):
        """The QMC path at the criterion 3 arguments reproduces the scale it
        returned with ``scipy.stats.norm`` in the integrand (the direct
        ``ndtr``/``ndtri`` calls are the same kernels)."""
        kb = make_cosine_bands(grid25, BandKind.ADDITIVE)
        s2 = calibrate_prior_scale(0.3, kb, 0.01, seed=2)
        assert s2 == pytest.approx(0.0955874086715996, rel=1e-12)


class TestPrivateScipyRoutines:
    """The routines loaded from scipy's extension files act as their public
    scipy names."""

    @pytest.mark.parametrize("dim", [1, 2, 5, 24])
    @pytest.mark.parametrize("seed", [0, 3, 2**62 + 5, np.int64(987654321)])
    def test_sobol_points_equal_scipy(self, dim, seed):
        ours = mvnprob_mod._Sobol(dim, seed)
        theirs = qmc.Sobol(dim, scramble=True, seed=seed)
        # the first point alone, then on across several doublings
        for n in (1, 1, 2, 4, 8, 1024, 1040, 2048):
            assert np.array_equal(ours.random(n), theirs.random(n))
        ours.reset()
        theirs.reset()
        for n in (1024, 1024, 2048):
            assert np.array_equal(ours.random(n), theirs.random(n))

    def test_sobol_table_loaded_c_contiguous(self, monkeypatch):
        """The engine fills the extension's empty table cache itself, and
        in C order: with the file's Fortran-ordered arrays the extension
        would skip every direction number and repeat one point."""
        sobol = mvnprob_mod._sobol_ext()
        monkeypatch.setattr(sobol, "_poly_dict", {})
        monkeypatch.setattr(sobol, "_vinit_dict", {})
        points = mvnprob_mod._Sobol(6, 11).random(1024)
        for cache in (sobol._poly_dict, sobol._vinit_dict):
            assert list(cache) == [np.uint32] and cache[np.uint32].flags.c_contiguous
        # the first 2**10 points of a scrambled Sobol sequence fill each
        # of the 2**10 equal bins of every coordinate once
        bins = np.sort(np.floor(points * 1024).astype(int), axis=0)
        assert np.array_equal(bins, np.tile(np.arange(1024)[:, None], (1, 6)))

    def test_brentq_root_equals_scipy(self):
        f = lambda x: np.log(np.exp(x) + 1.0) - 2.0
        for xtol in (1e-4, 1e-12, 1e-300):  # at 1e-300 the relative tolerance decides
            assert mvnprob_mod._brentq(f, -12.0, 8.0, xtol) == brentq(f, -12.0, 8.0, xtol=xtol)

    @pytest.mark.parametrize(
        "f",
        [lambda x: x * x + 1.0, lambda x: np.nan],
        ids=["same-signs", "nan"],
    )
    def test_brentq_errors_equal_scipy(self, f):
        with pytest.raises(ValueError) as want:
            brentq(f, -1.0, 2.0, xtol=1e-4)
        with pytest.raises(ValueError) as got:
            mvnprob_mod._brentq(f, -1.0, 2.0, 1e-4)
        assert str(got.value) == str(want.value)

    def test_ndtr_equals_scipy(self):
        x = np.concatenate([[-np.inf, -40.0, -1e-300, 0.0, 1e-300, 9.0, np.inf, np.nan],
                            np.linspace(-10.0, 10.0, 2001)])
        got = _load_scipy_ext("special/_special_ufuncs").ndtr(x)
        assert np.array_equal(got, scipy.special.ndtr(x), equal_nan=True)
