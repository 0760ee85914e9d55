"""Matern correlation kernel with smoothness fixed at 2."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import kv

from ..fdata import Grid

#: Diagonal jitter added before any factorization of a correlation matrix.
JITTER = 1e-10


@dataclass(frozen=True)
class MaternKernel:
    """Matern correlation with range ``range_a``.

    Smoothness is fixed at nu = 2: corr(d) = (1/2) (d/a)^2 K_2(d/a), with the
    analytic limit 1 at d = 0.
    """

    range_a: float

    def __post_init__(self):
        if self.range_a <= 0.0:
            raise ValueError("kernel range must be positive")

    def correlation(self, d) -> np.ndarray:
        """Correlation at distances ``d`` (elementwise)."""
        x = np.asarray(d, dtype=float) / self.range_a
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        out = np.ones_like(x)
        pos = x > 0.0
        out[pos] = 0.5 * x[pos] ** 2 * kv(2, x[pos])
        return out[0] if scalar else out


def matern_corr(kernel: MaternKernel, grid: Grid) -> np.ndarray:
    """T-by-T correlation matrix of the kernel on the grid (unit diagonal)."""
    t = grid.points
    return kernel.correlation(np.abs(t[:, None] - t[None, :]))


def corr_cholesky(corr: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of ``corr`` after adding the standard jitter."""
    return np.linalg.cholesky(corr + JITTER * np.eye(corr.shape[0]))
