import numpy as np
import pytest
from scipy.signal import lfilter

from ess import bulk_ess


def ar1(rng, phi, chains, n):
    """Stationary Gaussian AR(1) draws with coefficient ``phi``, (chains, n)."""
    z = rng.standard_normal((chains, n))
    z[:, 1:] *= np.sqrt(1.0 - phi * phi)
    return lfilter([1.0], [1.0, -phi], z, axis=1)


@pytest.mark.parametrize("phi", [0.0, 0.5, 0.9])
def test_ar1_oracle(phi):
    """An AR(1) chain's effective sample size is n (1 - phi) / (1 + phi).
    Over seeds the estimate's relative spread is about 3 % at phi = 0.9 with
    these sizes (under 1 % at the others), so 10 % is three spreads."""
    x = ar1(np.random.default_rng(0), phi, chains=4, n=50000)
    oracle = x.size * (1.0 - phi) / (1.0 + phi)
    assert abs(bulk_ess(x) / oracle - 1.0) < 0.1


def test_coordinates_and_monotone_invariance():
    """Each trailing coordinate gets its own ESS, and ranks make it invariant
    under a monotone map such as exp."""
    rng = np.random.default_rng(1)
    x = np.stack([ar1(rng, 0.0, 2, 1000), ar1(rng, 0.8, 2, 1000)], axis=-1)
    ess = bulk_ess(x)
    assert ess.shape == (2,) and ess[0] > 3 * ess[1]
    np.testing.assert_allclose(bulk_ess(np.exp(x)), ess)


def test_separated_chains_have_few_effective_draws():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 1000))
    x[1] += 10.0
    assert bulk_ess(x) < 20
