"""Likelihood building blocks and prior specification for the Bayesian engine.

The correlation model keeps only the within-pair, same-gridpoint dependence:
the 2T-dimensional likelihood factorizes over grid points into 2x2 blocks
[[1, rho(t)], [rho(t), 1]], which makes marginal variance inference immune to
misspecification of the along-domain correlation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..fdata import BandKind, BandPair

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class GPBandPrior:
    """A band-centred GP prior family: Matern range, scale, and the band pair
    whose curves act as the two 50/50 mixture centers."""

    range_a: float
    scale_s2: float
    bands: BandPair

    def __post_init__(self):
        if self.range_a <= 0.0 or self.scale_s2 <= 0.0:
            raise ValueError("prior range and scale must be positive")

    def offsets(self) -> tuple:
        """The two mixture offsets on the band's working scale."""
        return self.bands.to_working(self.bands.lower), self.bands.to_working(self.bands.upper)


@dataclass(frozen=True)
class PriorSpec:
    """Hyperparameters of the three metric priors plus the decision threshold."""

    mean_prior: GPBandPrior  # additive bands
    error_var_prior: GPBandPrior  # multiplicative bands
    reffect_var_prior: GPBandPrior  # multiplicative bands
    gamma: float = 0.95

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if self.mean_prior.bands.kind is not BandKind.ADDITIVE:
            raise ValueError("mean prior needs additive bands")
        for p in (self.error_var_prior, self.reffect_var_prior):
            if p.bands.kind is not BandKind.MULTIPLICATIVE:
                raise ValueError("variance priors need multiplicative bands")


def paired_block_loglik(l1, l2, rho, s11, s22, s12, count):
    """Per-gridpoint log-likelihood of ``count`` zero-mean bivariate-normal
    pairs, from their sufficient statistics.

    (l1, l2) are the channel log-variances, ``rho`` the cross-correlation and
    (s11, s22, s12) the residual sums of squares and cross-products at each
    grid point; all arguments broadcast elementwise.
    """
    omr2 = 1.0 - rho * rho
    e1 = np.exp(-l1)
    e2 = np.exp(-l2)
    e12 = np.exp(-0.5 * (l1 + l2))
    quad = s11 * e1 - 2.0 * rho * s12 * e12 + s22 * e2
    return (
        -count * _LOG_2PI
        - 0.5 * count * (l1 + l2 + np.log(omr2))
        - 0.5 * quad / omr2
    )
