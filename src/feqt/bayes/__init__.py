"""Bayesian engine: heteroscedastic MVGP likelihood with a pointwise-factorized
correlation, Log-GP variance priors, mixture GP mean priors, prior calibration,
Metropolis-within-Gibbs sampling, and posterior equivalence summaries."""

from .kernels import matern_corr
from .model import PriorSpec, paired_block_loglik
from .mvnprob import RectangleProb, mvn_rectangle_prob, calibrate_prior_scale, prior_equivalence_prob
from .posterior import PosteriorDraws, posterior_equivalence_prob, simultaneous_bands, SimultaneousBand
from .sampler import run_mwg

__all__ = [
    "matern_corr",
    "PriorSpec",
    "paired_block_loglik",
    "RectangleProb",
    "mvn_rectangle_prob",
    "calibrate_prior_scale",
    "prior_equivalence_prob",
    "PosteriorDraws",
    "posterior_equivalence_prob",
    "simultaneous_bands",
    "SimultaneousBand",
    "run_mwg",
]
