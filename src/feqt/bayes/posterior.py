"""Posterior summaries: equivalence probabilities and simultaneous bands."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .. import tost as _tost
from ..fdata import freeze_arrays

Metric = _tost.Metric

#: Fewest draws the equivalence probabilities and simultaneous bands accept.
MIN_POSTERIOR_DRAWS = 100


@dataclass(frozen=True, eq=False)
class PosteriorDraws:
    """Thinned post-burn-in draws of the three metric curves.

    Each matrix is (M, T); ``chain`` labels the source chain of each row.
    Ratio metrics are stored on the ratio scale (exponentiated at emission).
    """

    grid_points: np.ndarray
    theta: np.ndarray
    lam: np.ndarray
    psi: np.ndarray
    chain: np.ndarray
    acceptance: dict = field(default_factory=dict)
    rhat: dict = field(default_factory=dict)
    rhat_warning: bool = False
    #: (M, 3) mixture-indicator draws (mean, error-variance, reffect-variance)
    indicators: Optional[np.ndarray] = None

    def __post_init__(self):
        freeze_arrays(self)

    @property
    def n_draws(self) -> int:
        return self.theta.shape[0]

    def metric(self, m: Metric) -> np.ndarray:
        return {Metric.THETA: self.theta, Metric.LAMBDA: self.lam, Metric.PSI: self.psi}[m]


def posterior_equivalence_prob(draws: PosteriorDraws, bands: dict) -> dict:
    """Fraction of posterior curves lying strictly inside the bands, per metric.

    ``bands`` maps :class:`Metric` to :class:`BandPair`. The error-variance
    ratio additionally gets a one-sided (noninferiority) fraction under key
    ``"lambda_noninferior"``.
    """
    if draws.n_draws < MIN_POSTERIOR_DRAWS:
        raise ValueError(f"need at least {MIN_POSTERIOR_DRAWS} posterior draws")
    out = {}
    for metric, band in bands.items():
        x = draws.metric(metric)
        inside = np.all((band.lower < x) & (x < band.upper), axis=1)
        out[metric.value] = float(inside.mean())
        if metric is Metric.LAMBDA:
            out["lambda_noninferior"] = float(np.all(x < band.upper, axis=1).mean())
    return out


@dataclass(frozen=True, eq=False)
class SimultaneousBand:
    lower: np.ndarray
    upper: np.ndarray
    center: np.ndarray
    coverage: float
    #: grid indices where the spread degenerated and a pointwise quantile band
    #: was substituted
    degenerate_points: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))

    def __post_init__(self):
        freeze_arrays(self)


def simultaneous_bands(draws: np.ndarray, coverage: float) -> SimultaneousBand:
    """Max-type simultaneous band containing at least ``coverage`` of the draws.

    Center is the pointwise median and the half-width is c times the
    MAD-based spread, with c the empirical ``coverage``-quantile of the
    max-over-grid standardized deviation. By construction at least
    ceil(coverage * M) draws lie entirely inside the returned band.
    """
    x = np.atleast_2d(np.asarray(draws, dtype=float))
    m, T = x.shape
    if m < MIN_POSTERIOR_DRAWS:
        raise ValueError(f"need at least {MIN_POSTERIOR_DRAWS} draws")
    if not 0.0 < coverage < 1.0:
        raise ValueError("coverage must lie in (0, 1)")
    center = np.median(x, axis=0)
    dev = x - center
    mad = np.median(np.abs(dev), axis=0)
    scale = 1.4826 * mad
    degenerate = np.flatnonzero(scale <= 0.0)
    good = scale > 0.0

    c = 0.0  # where every point is degenerate, the fallback below sets the band
    if np.any(good):
        z = np.abs(dev[:, good]) / scale[good]
        zmax = z.max(axis=1)
        c = _tost.empirical_quantile(zmax, coverage)
    lower = center - c * scale
    upper = center + c * scale

    # pointwise fallback keeps the construction well defined where the
    # spread collapses
    lower[degenerate] = _tost.empirical_quantile(x[:, degenerate], (1.0 - coverage) / 2.0)
    upper[degenerate] = _tost.empirical_quantile(x[:, degenerate], (1.0 + coverage) / 2.0)
    return SimultaneousBand(
        lower=lower, upper=upper, center=center, coverage=coverage,
        degenerate_points=degenerate,
    )

