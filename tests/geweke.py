"""Prior simulation and data regeneration for the successive-conditional
check of Geweke (2004, *JASA* 99(467), "Getting it right: joint distribution
tests of posterior simulators"), kept on the test side.

The check compares independent draws of the joint prior with a chain that
alternates a data draw from the likelihood at the current state with one
posterior sweep; if every sweep leaves the posterior invariant, both have the
prior as their marginal. Only the tests run that check, so the two samplers
of the joint model live here, not in the library. They draw through the
sampler's own helpers (``_start``, ``_set_data``, ``_normals``,
``_coin_flips``, ``_mv``, ``_bvn``, ``_batch``) and its per-chain streams, so
they draw the same bits the sweep's conditionals are tested against.

The flat hyper-mean priors are improper, so prior simulation conditions on
supplied hyper-means; set the sampler's ``fixed_hypers`` to skip their Gibbs
update while cycling.
"""

import numpy as np

from feqt.bayes.sampler import _batch, _bvn, _coin_flips, _mv, _normals


def init_from_prior(sampler, rngs, mu0, tau_e, tau_a) -> dict:
    """Draw every parameter of one chain per generator in ``rngs`` from its
    prior, with the (T,) hyper-means ``mu0``, ``tau_e`` and ``tau_a`` fixed."""
    chains = len(rngs)
    sampler._start(chains)
    hypers = _batch(np.array([mu0, tau_e, tau_a], float)[None], chains)
    indicators = np.stack([_coin_flips(rngs) for _ in range(3)], axis=1)
    curves = []  # mu, log lambda's and log psi's channel curves, (chains, 2, T) each
    for hyper, d, offsets in zip(hypers.swapaxes(0, 1), indicators.T, sampler.offsets):
        c1 = hyper + _mv(sampler.lcov, _normals(rngs, (sampler.T,)))
        c2 = hyper - offsets[d] + _mv(sampler.lcov, _normals(rngs, (sampler.T,)))
        curves.append(np.stack([c1, c2], axis=1))
    uniforms = lambda: np.stack([r.uniform(-1.0, 1.0, sampler.T) for r in rngs])
    rho = np.stack([uniforms(), uniforms()], axis=1)
    return {
        "mu": curves[0],
        "alpha": _draw_pairs(sampler, curves[0][:, None], curves[2], rho[:, 1], sampler.A, rngs),
        "logvars": np.stack(curves[1:], axis=1),
        "rho": rho,
        "hypers": hypers,
        "indicators": indicators,
    }


def _draw_pairs(sampler, mean, logvar, rho, n, rngs):
    """``n`` bivariate-normal curve pairs per chain around ``mean``
    (broadcast to (chains, n, 2, T)) with channel log-variances ``logvar``
    and correlation ``rho``."""
    s = np.exp(0.5 * logvar)
    s1, s2 = s[:, 0, None], s[:, 1, None]
    z = _normals(rngs, (n, 2, sampler.T))
    return _bvn(mean[..., 0, :], mean[..., 1, :], s1**2, rho[:, None] * s1 * s2, s2**2, z)


def simulate_data(sampler, state, rngs) -> None:
    """Replace the sampler's observed curves by one draw per chain from the
    likelihood at ``state``."""
    mean = state["alpha"][:, sampler.labels]
    lv, rho = state["logvars"][:, 0], state["rho"][:, 0]  # the error level
    sampler._set_data(_draw_pairs(sampler, mean, lv, rho, sampler.N, rngs))
