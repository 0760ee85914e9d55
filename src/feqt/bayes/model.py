"""Likelihood building blocks and prior specification for the Bayesian engine.

The correlation model keeps only the within-pair, same-gridpoint dependence:
the 2T-dimensional likelihood factorizes over grid points into 2x2 blocks
[[1, rho(t)], [rho(t), 1]], which makes marginal variance inference immune to
misspecification of the along-domain correlation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..tost import Metric
from .kernels import prior_corr

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True, eq=False)
class PriorSpec:
    """The band-centred GP priors of the three metrics: one Matern range and
    scale, and each metric's equivalence bands, whose two curves act as the
    50/50 mixture centers of its prior."""

    range_a: float
    scale_s2: float
    bands: dict  # Metric -> BandPair

    def __post_init__(self):
        if not (0.0 < self.range_a < np.inf and 0.0 < self.scale_s2 < np.inf):
            raise ValueError("prior range and scale must be positive and finite")
        for m in Metric:
            if m not in self.bands or self.bands[m].kind is not m.band_kind:
                raise ValueError(f"{m.value} prior needs {m.band_kind.value} bands")
        prior_corr(self.range_a, self.bands[Metric.THETA].grid)

    def offsets(self, metric: Metric) -> np.ndarray:
        """The (2, T) mixture offsets of ``metric`` on its band's working scale."""
        b = self.bands[metric]
        return np.stack([b.to_working(b.lower), b.to_working(b.upper)])


def channel_term(l, s):
    """One channel's quadratic-form term ``s * exp(-l)`` (s its sum of squares)."""
    return s * np.exp(-l)


def rho_terms(rho, rr, s12):
    """The terms of ``rho`` (``rr = rho * rho``): ``1 - rho^2``, its log, and
    ``2 rho s12``."""
    omr2 = 1.0 - rr
    return omr2, np.log(omr2), 2.0 * rho * s12


def count_terms(count):
    """The terms of the pair ``count``: ``-count * log(2 pi)`` and ``0.5 * count``."""
    return -count * _LOG_2PI, 0.5 * count


def block_loglik(a, b, lsum, e12, rterms, cterms):
    """Combine the cached terms of :func:`paired_block_loglik`: the channel
    terms ``a``, ``b`` (:func:`channel_term`), ``lsum = l1 + l2``,
    ``e12 = exp(-0.5 * lsum)``, ``rterms`` (:func:`rho_terms`) and
    ``cterms`` (:func:`count_terms`)."""
    omr2, log_omr2, r2s12 = rterms
    log_norm, half_count = cterms
    quad = a - r2s12 * e12 + b
    return log_norm - half_count * (lsum + log_omr2) - 0.5 * quad / omr2


def paired_block_loglik(l1, l2, rho, s11, s22, s12, count):
    """Per-gridpoint log-likelihood of ``count`` zero-mean bivariate-normal
    pairs, from their sufficient statistics.

    (l1, l2) are the channel log-variances, ``rho`` the cross-correlation and
    (s11, s22, s12) the residual sums of squares and cross-products at each
    grid point; all arguments broadcast elementwise. It is the composition of
    :func:`channel_term`, :func:`rho_terms`, :func:`count_terms` and
    :func:`block_loglik`; a sampler that holds some terms fixed calls those
    parts with cached terms and gets the same bits.
    """
    lsum = l1 + l2
    return block_loglik(
        channel_term(l1, s11), channel_term(l2, s22), lsum, np.exp(-0.5 * lsum),
        rho_terms(rho, rho * rho, s12), count_terms(count),
    )
