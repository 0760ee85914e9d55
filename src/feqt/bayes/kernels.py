"""Matern correlation kernel with smoothness fixed at 2."""

from __future__ import annotations

import numpy as np

from .._scipyext import _load_scipy_ext
from ..fdata import Grid

#: Diagonal jitter added before any factorization of a correlation matrix.
JITTER = 1e-10


def matern_corr(range_a: float, grid: Grid) -> np.ndarray:
    """T-by-T Matern correlation matrix with range ``range_a`` on the grid.

    Smoothness is fixed at nu = 2: corr(d) = (1/2) (d/a)^2 K_2(d/a), with the
    analytic limit 1 at d = 0, so the diagonal is exactly 1. The formula is
    evaluated only where K_2 is finite and positive: where it overflows
    (d/a below about 1e-152, or 0) the entry is the limit 1, and where it
    underflows (d/a above about 743) the entry is 0.
    """
    kv = _load_scipy_ext("special/_special_ufuncs").kv
    if not 0.0 < range_a < np.inf:  # NaN fails both comparisons
        raise ValueError("kernel range must be positive and finite")
    t = grid.points
    with np.errstate(over="ignore"):  # d/a past the float range is inf, K_2 0
        x = np.abs(t[:, None] - t[None, :]) / range_a
    k = kv(2, x)
    out = np.where(np.isinf(k), 1.0, 0.0)
    fin = np.isfinite(k) & (k > 0.0)
    out[fin] = 0.5 * x[fin] ** 2 * k[fin]
    return out


def prior_corr(range_a: float, grid: Grid) -> np.ndarray:
    """``matern_corr`` for a GP prior: refused unless the jitter moves none of its
    eigenvalues by more than a tenth, past which the sampler's curves can overflow."""
    corr = matern_corr(range_a, grid)
    if np.linalg.eigvalsh(corr)[0] < 10.0 * JITTER:
        raise ValueError(f"prior range {range_a:g} makes the correlation numerically singular")
    return corr


def corr_cholesky(corr: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of ``corr`` after adding the standard jitter."""
    return np.linalg.cholesky(corr + JITTER * np.eye(corr.shape[0]))
