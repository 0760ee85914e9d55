import hashlib
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import k0, k1, kv

from feqt._scipyext import _load_scipy_ext
from feqt.bayes.kernels import JITTER, corr_cholesky, matern_corr
from feqt.fdata import Grid, equispaced_grid


def k2_recurrence(x):
    """K_2 via the Bessel recurrence K_{v+1} = K_{v-1} + (2v/x) K_v."""
    return k0(x) + (2.0 / x) * k1(x)


def k2_quadrature(x):
    """K_2 from its integral representation, independent of scipy.special.kv."""
    val, _ = quad(lambda t: np.exp(-x * np.cosh(t)) * np.cosh(2.0 * t), 0.0, 30.0)
    return val


def corr_at(range_a, d):
    """The kernel's correlation at distance ``d``, from a two-point grid."""
    return matern_corr(range_a, Grid([0.0, d]))[0, 1]


class TestMaternKernel:
    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            matern_corr(-1.0, equispaced_grid(3))

    def test_unit_at_zero(self):
        assert np.all(np.diag(matern_corr(0.3, equispaced_grid(5))) == 1.0)

    def test_against_recurrence_oracle(self):
        for d in (0.01, 0.05, 0.2, 0.5, 1.0):
            x = d / 0.3
            expected = 0.5 * x**2 * k2_recurrence(x)
            assert corr_at(0.3, d) == pytest.approx(expected, rel=1e-12)

    def test_against_quadrature_oracle(self):
        for d in (0.1, 0.4, 0.9):
            x = d / 0.5
            expected = 0.5 * x**2 * k2_quadrature(x)
            assert corr_at(0.5, d) == pytest.approx(expected, rel=1e-9)

    def test_depends_only_on_scaled_distance(self):
        assert corr_at(0.2, 0.1) == pytest.approx(corr_at(0.4, 0.2), rel=1e-14)

    def test_monotone_decreasing(self):
        d = np.linspace(0.0, 1.0, 50)
        c = matern_corr(0.3, Grid(d))[0]  # correlations at distances d
        assert np.all(np.diff(c) < 0.0)
        assert np.all(c > 0.0) and np.all(c <= 1.0)


    @pytest.mark.parametrize("range_a", [1e-300, 1e-310])
    def test_range_below_every_distance_is_the_identity(self, range_a):
        # d/a overflows x**2 (and, below about 1e-308, the float range);
        # K_2 underflows to 0 there, so every off-diagonal entry is 0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            c = matern_corr(range_a, equispaced_grid(6))
        np.testing.assert_array_equal(c, np.eye(6))

    def test_range_above_every_distance_is_finite(self):
        # K_2 overflows at d/a below about 1e-152; the entry is the limit 1
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            c = matern_corr(1e300, equispaced_grid(6))
        assert np.all(np.isfinite(c)) and np.all(np.diag(c) == 1.0)

    @pytest.mark.parametrize("range_a, digest", [
        (0.1, "1437b94d2be7523c6a4b34b1b253247f411536ad1df67952d9e5aba6121575e3"),
        (0.3, "60b7f636c0f235db7fd8b89c85fd2a71a41269b582da5d29a2dc2611f2cc2b70"),
    ])
    def test_bits_pinned(self, range_a, digest):
        c = matern_corr(range_a, equispaced_grid(25))
        assert hashlib.sha256(c.tobytes()).hexdigest() == digest


class TestCorrelationMatrix:
    def test_structure(self):
        grid = equispaced_grid(25)
        c = matern_corr(0.3, grid)
        np.testing.assert_allclose(np.diag(c), 1.0)
        np.testing.assert_allclose(c, c.T)
        assert np.all(np.linalg.eigvalsh(c + JITTER * np.eye(25)) > 0.0)

    def test_cholesky_reconstructs(self):
        grid = equispaced_grid(10)
        c = matern_corr(0.2, grid)
        L = corr_cholesky(c)
        np.testing.assert_allclose(L @ L.T, c + JITTER * np.eye(10), atol=1e-12)


def test_kv_equals_scipy():
    x = np.concatenate([[0.0, 1e-300, 1e-152, 700.0, 743.0, 800.0, np.inf, np.nan],
                        np.geomspace(1e-8, 1e3, 2001)])
    got = _load_scipy_ext("special/_special_ufuncs").kv(2, x)
    assert np.array_equal(got, kv(2, x), equal_nan=True)
