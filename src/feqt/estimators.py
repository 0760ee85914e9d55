"""Pointwise plug-in estimators for the equivalence metrics and the
random-effects ANOVA quantities that back the hierarchical bootstrap."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fdata import GroupedPairedSample, PairedFunctionalSample, freeze_arrays

#: Pointwise floor applied to the random-effect variance estimate. The ANOVA
#: estimator can go negative; the bootstrap and the ratio metric both need a
#: strictly positive value.
VARIANCE_FLOOR = 1e-12


class DegenerateVarianceError(ValueError):
    """A variance estimate in a denominator is zero (or negative)."""


class DegenerateSpreadError(ValueError):
    """The spread of the estimated group means is zero at some grid point."""


@dataclass(frozen=True, eq=False)
class MetricEstimates:
    """Point estimates of the three equivalence metrics on the grid.

    ``theta_hat`` is the difference of mean curves, ``lambda_hat`` the
    error-variance ratio, and ``psi_hat`` (hierarchical designs only) the
    random-effect variance ratio.
    """

    theta_hat: np.ndarray
    lambda_hat: np.ndarray
    psi_hat: Optional[np.ndarray] = None

    def __post_init__(self):
        freeze_arrays(self)


@dataclass(frozen=True, eq=False)
class AnovaDecomposition:
    """Pointwise one-way ANOVA quantities for a grouped paired sample.

    Arrays indexed by channel j in {0, 1} along their first axis; the
    decomposition of a batch of datasets puts the batch axes before it.
    ``s2_alpha`` is floored at ``VARIANCE_FLOOR`` pointwise.
    """

    mean_overall: np.ndarray  # (2, T)
    mean_by_group: np.ndarray  # (A, 2, T)
    sse: np.ndarray  # (2, T)
    ssa: np.ndarray  # (2, T)
    n_star: float
    s2_alpha: np.ndarray  # (2, T)

    def __post_init__(self):
        freeze_arrays(self)


def estimate_metrics_paired(s) -> MetricEstimates:
    """Mean-difference and variance-ratio estimates of two channels: a
    matched-pairs sample, or a ``(FunctionalSample, FunctionalSample)`` pair
    of independent samples."""
    if isinstance(s, PairedFunctionalSample):
        c1, c2 = s.curves_1, s.curves_2
    else:
        c1, c2 = (x.curves for x in s)
    if min(c1.shape[0], c2.shape[0]) < 2:
        raise ValueError("metric estimation requires at least 2 curves per channel")
    theta = c1.mean(axis=0) - c2.mean(axis=0)
    v1 = c1.var(axis=0, ddof=1)
    v2 = c2.var(axis=0, ddof=1)
    if np.any(v2 <= 0.0):
        t = int(np.argmax(v2 <= 0.0))
        raise DegenerateVarianceError(f"zero denominator variance at grid index {t}")
    return MetricEstimates(theta_hat=theta, lambda_hat=v1 / v2)


def anova_decompose(g: GroupedPairedSample) -> AnovaDecomposition:
    """Pointwise SSE, SSA, n* and the random-effect variance estimate.

    SSE is taken around the overall mean with divisor N-1 inside ``s2_alpha``,
    following the printed estimator.
    """
    return _decompose(g.stacked(), g.group_sizes)


def _decompose(y: np.ndarray, sizes: np.ndarray) -> AnovaDecomposition:
    """:func:`anova_decompose` of the (..., N, 2, T) pairs ``y``, each
    group's rows contiguous, over any leading axes. Each dataset's sums run
    in the same order, and so have the same bits, whatever the leading axes.
    """
    A = sizes.size
    N = y.shape[-3]
    if N < A + 1:
        raise ValueError("need at least A+1 pairs in total")

    ybar = y.mean(axis=-3)  # (..., 2, T)
    # each group's mean as y[rows].mean(axis=0) computes it: the rows summed in order
    ybar_group = np.empty(ybar.shape[:-2] + (A,) + ybar.shape[-2:])
    for i, (n, e) in enumerate(zip(sizes.tolist(), np.cumsum(sizes).tolist())):
        np.add.reduce(y[..., e - n : e, :, :], axis=-3, out=ybar_group[..., i, :, :])
    ybar_group /= sizes[:, None, None]

    dev = y - ybar[..., None, :, :]
    sse = np.square(dev, out=dev).sum(axis=-3)
    ssa = (sizes[:, None, None] * (ybar_group - ybar[..., None, :, :]) ** 2).sum(axis=-3)
    n_star = (N - (sizes.astype(float) ** 2).sum() / N) / (A - 1)

    return AnovaDecomposition(
        mean_overall=ybar,
        mean_by_group=ybar_group,
        sse=sse,
        ssa=ssa,
        n_star=float(n_star),
        s2_alpha=random_effect_variance(ssa, sse, A, N, n_star),
    )


def random_effect_variance(ssa, sse, A: int, N: int, n_star: float) -> np.ndarray:
    """The random-effect variance ``(SSA/(A-1) - SSE/(N-1)) / n*``, floored pointwise."""
    return np.maximum((ssa / (A - 1) - sse / (N - 1)) / n_star, VARIANCE_FLOOR)


def estimate_metrics_grouped(
    g: GroupedPairedSample, d: Optional[AnovaDecomposition] = None
) -> MetricEstimates:
    """Metric estimates for the hierarchical design.

    theta_hat is the unweighted mean of group-mean differences, lambda_hat the
    SSE ratio, psi_hat the (floored) random-effect variance ratio. ``d`` is
    ``anova_decompose(g)``, computed here if not given.
    """
    if d is None:
        d = anova_decompose(g)
    theta = _theta_hat(d)
    if np.any(d.sse[1] <= 0.0):
        t = int(np.argmax(d.sse[1] <= 0.0))
        raise DegenerateVarianceError(f"zero SSE denominator at grid index {t}")
    lam = d.sse[0] / d.sse[1]
    psi = d.s2_alpha[0] / d.s2_alpha[1]
    return MetricEstimates(theta_hat=theta, lambda_hat=lam, psi_hat=psi)


def _theta_hat(d: AnovaDecomposition) -> np.ndarray:
    """The mean of the group-mean differences, over any leading axes of ``d``."""
    return (d.mean_by_group[..., 0, :] - d.mean_by_group[..., 1, :]).mean(axis=-2)


def adjusted_random_effects(d: AnovaDecomposition) -> np.ndarray:
    """Rescale estimated group means so their pointwise spread matches s2_alpha.

    Returns an (A, 2, T) array
    ``a_hat[i, j] = ybar_j - (mean_by_group[i, j] - ybar_j) * s_alpha_j / SD_j``,
    where SD_j is the pointwise standard deviation (divisor A-1) of the group
    means. The bootstrap needs this rescaling for its confidence intervals to
    be consistent; the sign flip leaves variances and |correlations| unchanged.
    """
    sd = _group_spread(d)  # (2, T)
    if np.any(sd <= 0.0):
        j, t = (int(v) for v in np.argwhere(sd <= 0.0)[0])
        raise DegenerateSpreadError(
            f"zero spread of group means at channel {j + 1}, grid index {t}"
        )
    return _adjust(d, sd)


def _group_spread(d: AnovaDecomposition) -> np.ndarray:
    """SD_j of :func:`adjusted_random_effects`, over any leading axes of ``d``."""
    return d.mean_by_group.std(axis=-3, ddof=1)


def _adjust(d: AnovaDecomposition, sd: np.ndarray) -> np.ndarray:
    """:func:`adjusted_random_effects` from the spread ``sd``, over any
    leading axes of ``d``."""
    scale = np.sqrt(d.s2_alpha) / sd  # (..., 2, T)
    mean = d.mean_overall[..., None, :, :]
    return mean - (d.mean_by_group - mean) * scale[..., None, :, :]
