"""Rank-normalized split bulk effective sample size (Vehtari, Gelman, Simpson,
Carpenter & Buerkner 2021, *Bayesian Analysis* 16(2)), kept on the test side
to measure how well the sampler mixes.

Each chain is split in half, the pooled draws are replaced by the normal
scores of their ranks, and the effective sample size follows from the
multi-chain autocorrelation with Geyer's initial monotone sequence.
"""

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata


def _autocov(x):
    """Biased autocovariance of each row of (chains, n) ``x`` at lags 0..n-1."""
    n = x.shape[1]
    dev = x - x.mean(axis=1, keepdims=True)
    size = 2 ** int(np.ceil(np.log2(2 * n)))
    f = np.fft.rfft(dev, size, axis=1)
    return np.fft.irfft(f * np.conjugate(f), size, axis=1)[:, :n] / n


def _ess(x):
    """Effective sample size of (chains, n) draws by Geyer's initial monotone sequence."""
    m, n = x.shape
    acov = _autocov(x)
    mean_var = acov[:, 0].mean() * n / (n - 1.0)
    var_plus = mean_var * (n - 1.0) / n
    if m > 1:
        var_plus += x.mean(axis=1).var(ddof=1)
    rho = np.zeros(n)
    rho[0] = even = 1.0
    rho[1] = odd = 1.0 - (mean_var - acov[:, 1].mean()) / var_plus
    t = 1
    while t < n - 3 and even + odd > 0.0:
        even = 1.0 - (mean_var - acov[:, t + 1].mean()) / var_plus
        odd = 1.0 - (mean_var - acov[:, t + 2].mean()) / var_plus
        if even + odd >= 0.0:
            rho[t + 1], rho[t + 2] = even, odd
        t += 2
    max_t = t - 2
    if even > 0.0:
        rho[max_t + 1] = even
    t = 1
    while t <= max_t - 2:  # make the sums of adjacent pairs non-increasing
        if rho[t + 1] + rho[t + 2] > rho[t - 1] + rho[t]:
            rho[t + 1] = rho[t + 2] = (rho[t - 1] + rho[t]) / 2.0
        t += 2
    tau = -1.0 + 2.0 * rho[: max_t + 1].sum() + rho[max_t + 1 : max_t + 2].sum()
    return m * n / max(tau, 1.0 / np.log10(m * n))


def bulk_ess(draws):
    """Bulk ESS of (chains, n) draws, or of each coordinate of (chains, n, ...) draws."""
    draws = np.asarray(draws, dtype=float)
    if draws.ndim > 2:
        flat = draws.reshape(draws.shape[:2] + (-1,))
        out = [bulk_ess(flat[..., k]) for k in range(flat.shape[-1])]
        return np.reshape(out, draws.shape[2:])
    half = draws.shape[1] // 2
    split = np.concatenate([draws[:, :half], draws[:, draws.shape[1] - half :]])
    ranks = rankdata(split, method="average").reshape(split.shape)
    return _ess(ndtri((ranks - 0.375) / (split.size + 0.25)))
