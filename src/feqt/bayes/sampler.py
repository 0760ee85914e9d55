"""Metropolis-within-Gibbs sampler for the hierarchical heteroscedastic model.

The pointwise-factorized correlation makes the mean curves, random effects,
hyper-means, and mixture indicators conjugate; only the log-variance curves
(blocked random-walk Metropolis with prior-correlation-shaped proposals) and
the cross-correlations (per-point Metropolis on the Fisher-z scale) need
Metropolis steps. The two variance levels, error and random effect, share one
update: each is a pair of log-variance curves under a band-centred mixture
GP prior plus a pointwise cross-correlation.

Adaptation is per chain: each chain starts from the same initial proposal
scales, moves its own copy toward 30% acceptance during its burn-in, and
freezes them afterwards, preserving detailed balance for every retained draw.
Chain c also draws only from a substream keyed by (seed, c), so its draws are
independent of how many chains run and in which order.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from ..fdata import GroupedPairedSample
from .kernels import matern_corr, corr_cholesky
from .model import GPBandPrior, PriorSpec, paired_block_loglik
from .posterior import PosteriorDraws

_TARGET_ACCEPT = 0.3
_INITIAL_STEPS = {
    "leps_1": 0.1, "leps_2": 0.1, "lalp_1": 0.3, "lalp_2": 0.3, "rho_e": 0.5, "rho_a": 0.8,
}


class SamplerDivergenceError(RuntimeError):
    """Non-finite log-posterior; carries a dump of the offending state."""

    def __init__(self, message, state):
        super().__init__(message)
        self.state = state


class _Mixture(NamedTuple):
    """A pair of channel curves under a band-centred mixture GP prior."""

    curves: str  # state key of the (2, T) curves
    hyper: str  # state key of the flat-prior hyper-mean
    indicator: str  # state key of the mixture indicator
    lcorr: np.ndarray  # Cholesky factor of the prior correlation
    lcov: np.ndarray  # Cholesky factor of the prior covariance
    prec: np.ndarray  # prior precision
    offsets: tuple  # the two mixture offsets on the working scale


class _Level(NamedTuple):
    """One variance level: its log-variance mixture plus the cross-correlation."""

    mix: _Mixture
    rho: str  # state key of the cross-correlation
    steps: tuple  # proposal-scale keys of channel 1 and channel 2
    count: float  # observations per grid point
    residuals: Callable  # state -> (count, 2, T) residuals


def _chain_rng(seed: int, chain: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, 0x6D77670000 + chain], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _inv2x2(a, b, c):
    """Inverse entries of symmetric 2x2 [[a, b], [b, c]] (elementwise arrays)."""
    det = a * c - b * b
    return c / det, -b / det, a / det


def _chol2x2(a, b, c):
    """Cholesky entries (l11, l21, l22) of symmetric 2x2 covariance arrays."""
    l11 = np.sqrt(a)
    l21 = b / l11
    l22 = np.sqrt(np.maximum(c - l21 * l21, 1e-300))
    return l11, l21, l22


def _cross_sums(dev):
    """Per-gridpoint sums (s11, s22, s12) of squares and cross-products of
    (n, 2, T) residuals."""
    s11 = (dev[:, 0, :] ** 2).sum(axis=0)
    s22 = (dev[:, 1, :] ** 2).sum(axis=0)
    s12 = (dev[:, 0, :] * dev[:, 1, :]).sum(axis=0)
    return s11, s22, s12


def _precision(state, level):
    """Per-gridpoint 2x2 precision entries of one variance level."""
    v1, v2 = np.exp(state[level.mix.curves])
    return _inv2x2(v1, state[level.rho] * np.sqrt(v1 * v2), v2)


class MwgSampler:
    """One-chain sampler core; :func:`run_mwg` orchestrates multiple chains.

    The class also exposes prior simulation and data regeneration so the
    Geweke-style successive-conditional check can reuse the exact conditional
    updates it validates.
    """

    def __init__(self, data: GroupedPairedSample, prior: PriorSpec):
        self.grid = data.grid
        self.T = len(data.grid)
        self.A = data.n_groups
        self.sizes = data.group_sizes
        self.N = data.n_total
        self.labels = data.group_labels()
        self._set_data(data.stacked())
        self.prior = prior

        eye = np.eye(self.T)

        def mixture(curves, hyper, indicator, p: GPBandPrior):
            corr = matern_corr(p.kernel(), self.grid)
            lcorr = corr_cholesky(corr)
            cov = p.scale_s2 * corr
            lcov = np.sqrt(p.scale_s2) * lcorr
            prec = cho_solve((np.linalg.cholesky(cov + 1e-10 * eye), True), eye)
            return _Mixture(curves, hyper, indicator, lcorr, lcov, prec, p.offsets())

        self.mu_mix = mixture("mu", "mu0", "d_mu", prior.mean_prior)
        self.levels = (
            _Level(
                mixture("leps", "tau_e", "d_e", prior.error_var_prior), "rho_e",
                ("leps_1", "leps_2"), float(self.N),
                lambda s: self.y - s["alpha"][self.labels],
            ),
            _Level(
                mixture("lalp", "tau_a", "d_a", prior.reffect_var_prior), "rho_a",
                ("lalp_1", "lalp_2"), float(self.A),
                lambda s: s["alpha"] - s["mu"],
            ),
        )

        # Metropolis proposal scales; each chain adapts its own copy during
        # burn-in only (see :func:`_run_chain`)
        self.steps = dict(_INITIAL_STEPS)
        self.accept_counts = {k: 0 for k in self.steps}
        self.proposal_counts = {k: 0 for k in self.steps}
        self.inner_repeats = 5
        self.fixed_hypers = False  # Geweke mode: skip improper-prior updates

    def _set_data(self, y):
        self.y = y  # (N, 2, T)
        self.ybar_group = np.stack(
            [y[self.labels == i].mean(axis=0) for i in range(self.A)]
        )  # (A, 2, T)

    # ----- initialization -------------------------------------------------

    def init_from_data(self, rng: np.random.Generator, spread: float = 0.0) -> dict:
        """Moment-based initial state; ``spread`` adds overdispersion for
        distinct chain starting points."""
        within = self.y - self.ybar_group[self.labels]
        v_eps = np.maximum((within**2).sum(axis=0) / max(self.N - self.A, 1), 1e-8)
        mu = self.ybar_group.mean(axis=0)
        dev_a = self.ybar_group - mu
        v_alp = np.maximum(dev_a.var(axis=0, ddof=1), 1e-8)

        def corr(dev):
            s11, s22, s12 = _cross_sums(dev)
            with np.errstate(invalid="ignore", divide="ignore"):
                r = s12 / np.sqrt(s11 * s22)
            return np.clip(np.nan_to_num(r), -0.9, 0.9)

        jit = lambda shape: spread * rng.standard_normal(shape)
        state = {
            "mu": mu + jit((2, self.T)) * 0.05,
            "alpha": self.ybar_group.copy(),
            "leps": np.log(v_eps) + jit((2, self.T)) * 0.3,
            "lalp": np.log(v_alp) + jit((2, self.T)) * 0.3,
            "rho_e": corr(within),
            "rho_a": corr(dev_a),
            "mu0": mu.mean(axis=0),
            "tau_e": np.log(v_eps).mean(axis=0),
            "tau_a": np.log(v_alp).mean(axis=0),
            "d_mu": int(rng.integers(2)),
            "d_e": int(rng.integers(2)),
            "d_a": int(rng.integers(2)),
        }
        return state

    def init_from_prior(self, rng: np.random.Generator, mu0, tau_e, tau_a) -> dict:
        """Draw every parameter from its prior with the hyper-means fixed.

        The flat hyper-mean priors are improper, so prior simulation (needed by
        the Geweke check) conditions on supplied values and the corresponding
        Gibbs updates are skipped while ``fixed_hypers`` is set.
        """
        mixes = (self.mu_mix,) + tuple(lv.mix for lv in self.levels)
        state = {m.hyper: np.asarray(h, float) for m, h in zip(mixes, (mu0, tau_e, tau_a))}
        state.update({m.indicator: int(rng.integers(2)) for m in mixes})
        for m in mixes:
            hyper = state[m.hyper]
            c1 = hyper + m.lcov @ rng.standard_normal(self.T)
            c2 = hyper - m.offsets[state[m.indicator]] + m.lcov @ rng.standard_normal(self.T)
            state[m.curves] = np.stack([c1, c2])
        for lv in self.levels:
            state[lv.rho] = rng.uniform(-1.0, 1.0, self.T)
        state["alpha"] = self._draw_pairs(state["mu"], state["lalp"], state["rho_a"], self.A, rng)
        return state

    def _draw_pairs(self, mean, logvar, rho, n, rng):
        """``n`` bivariate-normal curve pairs around ``mean`` (broadcast to
        (n, 2, T)) with channel log-variances ``logvar`` and correlation ``rho``."""
        s1, s2 = np.exp(0.5 * logvar)
        l11, l21, l22 = _chol2x2(s1**2, rho * s1 * s2, s2**2)
        z = rng.standard_normal((n, 2, self.T))
        out = np.empty((n, 2, self.T))
        out[:, 0, :] = mean[..., 0, :] + l11 * z[:, 0, :]
        out[:, 1, :] = mean[..., 1, :] + l21 * z[:, 0, :] + l22 * z[:, 1, :]
        return out

    def simulate_data(self, state, rng) -> None:
        """Replace the observed curves by draws from the likelihood at
        ``state`` (used by the successive-conditional Geweke check)."""
        mean = state["alpha"][self.labels]
        self._set_data(self._draw_pairs(mean, state["leps"], state["rho_e"], self.N, rng))

    # ----- conjugate updates ---------------------------------------------

    def _update_alpha(self, state, rng):
        pe11, pe12, pe22 = _precision(state, self.levels[0])  # (T,)
        pa11, pa12, pa22 = _precision(state, self.levels[1])
        n = self.sizes[:, None].astype(float)  # (A, 1)
        q11 = n * pe11 + pa11  # (A, T)
        q12 = n * pe12 + pa12
        q22 = n * pe22 + pa22
        yb1 = self.ybar_group[:, 0, :]
        yb2 = self.ybar_group[:, 1, :]
        mu1, mu2 = state["mu"]
        h1 = n * (pe11 * yb1 + pe12 * yb2) + pa11 * mu1 + pa12 * mu2
        h2 = n * (pe12 * yb1 + pe22 * yb2) + pa12 * mu1 + pa22 * mu2
        c11, c12, c22 = _inv2x2(q11, q12, q22)  # posterior covariance entries
        m1 = c11 * h1 + c12 * h2
        m2 = c12 * h1 + c22 * h2
        l11, l21, l22 = _chol2x2(c11, c12, c22)
        z = rng.standard_normal((self.A, 2, self.T))
        state["alpha"][:, 0, :] = m1 + l11 * z[:, 0, :]
        state["alpha"][:, 1, :] = m2 + l21 * z[:, 0, :] + l22 * z[:, 1, :]

    def _update_mu(self, state, rng):
        T = self.T
        pmu = self.mu_mix.prec
        pa11, pa12, pa22 = _precision(state, self.levels[1])
        abar = state["alpha"].mean(axis=0)  # (2, T)
        P = np.zeros((2 * T, 2 * T))
        P[:T, :T] = pmu + np.diag(self.A * pa11)
        P[T:, T:] = pmu + np.diag(self.A * pa22)
        od = np.diag(self.A * pa12)
        P[:T, T:] = od
        P[T:, :T] = od
        h = np.empty(2 * T)
        prior2 = state["mu0"] - self.mu_mix.offsets[state["d_mu"]]
        h[:T] = pmu @ state["mu0"] + self.A * (pa11 * abar[0] + pa12 * abar[1])
        h[T:] = pmu @ prior2 + self.A * (pa12 * abar[0] + pa22 * abar[1])
        L = np.linalg.cholesky(P)
        mean = cho_solve((L, True), h)
        draw = mean + solve_triangular(L.T, rng.standard_normal(2 * T), lower=False)
        state["mu"] = draw.reshape(2, T)

    def _update_mixture(self, state, m: _Mixture, rng):
        """Flat-prior hyper-mean draw (skipped in Geweke mode), then the
        mixture indicator, given the two channel curves."""
        x = state[m.curves]
        if not self.fixed_hypers:
            mean = 0.5 * (x[0] + x[1] + m.offsets[state[m.indicator]])
            state[m.hyper] = mean + (m.lcov / np.sqrt(2.0)) @ rng.standard_normal(self.T)
        logw = []
        for o in m.offsets:
            dev = x[1] - (state[m.hyper] - o)
            logw.append(-0.5 * dev @ m.prec @ dev)
        logw = np.array(logw)
        p1 = 1.0 / (1.0 + np.exp(logw[0] - logw[1]))
        state[m.indicator] = int(rng.random() < p1)

    # ----- Metropolis updates --------------------------------------------

    def _adapt(self, key, accepted, proposed, cycle, adapting):
        """Count ``accepted`` of ``proposed`` proposals; during burn-in, move
        the block's scale toward the target rate (one scale per block)."""
        self.proposal_counts[key] += proposed
        self.accept_counts[key] += accepted
        if adapting:
            gain = 2.0 / (10.0 + cycle) ** 0.6
            self.steps[key] = float(
                np.exp(np.log(self.steps[key]) + gain * (accepted / proposed - _TARGET_ACCEPT))
            )

    def _update_logvar_channel(self, state, lv: _Level, j, sums, rng, cycle, adapting):
        m = lv.mix
        l = state[m.curves]
        s11, s22, s12 = sums
        rho = state[lv.rho]
        hyper = state[m.hyper]
        offset = 0.0 if j == 0 else m.offsets[state[m.indicator]]
        cur = paired_block_loglik(l[0], l[1], rho, s11, s22, s12, lv.count).sum()
        dev = l[j] - (hyper - offset)
        cur += -0.5 * dev @ m.prec @ dev
        key = lv.steps[j]
        prop_j = l[j] + self.steps[key] * (m.lcorr @ rng.standard_normal(self.T))
        lp = l.copy()
        lp[j] = prop_j
        new = paired_block_loglik(lp[0], lp[1], rho, s11, s22, s12, lv.count).sum()
        devp = prop_j - (hyper - offset)
        new += -0.5 * devp @ m.prec @ devp
        if not np.isfinite(cur):
            raise SamplerDivergenceError("non-finite log-posterior", dict(state))
        accepted = np.log(rng.random()) < new - cur
        if accepted:
            state[m.curves] = lp
        self._adapt(key, int(accepted), 1, cycle, adapting)

    def _update_rho(self, state, lv: _Level, sums, rng, cycle, adapting):
        rho = state[lv.rho]
        l = state[lv.mix.curves]
        s11, s22, s12 = sums
        z = np.arctanh(rho)
        zp = z + self.steps[lv.rho] * rng.standard_normal(self.T)
        rp = np.tanh(zp)
        cur = paired_block_loglik(l[0], l[1], rho, s11, s22, s12, lv.count)
        cur = cur + np.log1p(-rho * rho)  # Fisher-z Jacobian of the flat prior
        new = paired_block_loglik(l[0], l[1], rp, s11, s22, s12, lv.count)
        new = new + np.log1p(-rp * rp)
        acc = np.log(rng.random(self.T)) < new - cur
        state[lv.rho] = np.where(acc, rp, rho)
        # per-point proposals share one scale, adapted on the mean rate
        self._adapt(lv.rho, int(acc.sum()), self.T, cycle, adapting)

    # ----- one sweep ------------------------------------------------------

    def sweep(self, state, rng, cycle=0, adapting=False):
        self._update_alpha(state, rng)
        self._update_mu(state, rng)
        self._update_mixture(state, self.mu_mix, rng)
        for lv in self.levels:
            # repeating the cheap Metropolis updates sharpens mixing of the
            # log-variance curves, the sampler's slowest block
            sums = _cross_sums(lv.residuals(state))
            for _ in range(self.inner_repeats):
                for j in (0, 1):
                    self._update_logvar_channel(state, lv, j, sums, rng, cycle, adapting)
            self._update_mixture(state, lv.mix, rng)
            for _ in range(self.inner_repeats):
                self._update_rho(state, lv, sums, rng, cycle, adapting)


def split_rhat(x: np.ndarray) -> np.ndarray:
    """Split-R-hat along axis 0 for draws of shape (chains, draws, ...)."""
    c, m = x.shape[:2]
    half = m // 2
    halves = np.concatenate([x[:, :half], x[:, half : 2 * half]], axis=0)
    means = halves.mean(axis=1)
    vars_ = halves.var(axis=1, ddof=1)
    w = vars_.mean(axis=0)
    b = half * means.var(axis=0, ddof=1)
    var_plus = (half - 1) / half * w + b / half
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.sqrt(var_plus / w)
    return np.nan_to_num(out, nan=1.0)


def _run_chain(sampler: MwgSampler, seed, chain, iters, burnin, thin):
    """Thinned post-burn-in draws of one chain: theta, log lambda, log psi
    (each (draws, T)) and the (draws, 3) mixture indicators.

    The chain starts from the initial proposal scales and adapts its own copy,
    so its draws do not depend on which chains ran before it.
    """
    rng = _chain_rng(seed, chain)
    sampler.steps = dict(_INITIAL_STEPS)
    state = sampler.init_from_data(rng, spread=0.5 * chain)
    kept = range(burnin, iters, thin)
    theta = np.empty((len(kept), sampler.T))
    llam = np.empty_like(theta)
    lpsi = np.empty_like(theta)
    indicators = np.empty((len(kept), 3), dtype=int)
    keep = 0
    for it in range(iters):
        sampler.sweep(state, rng, cycle=it, adapting=it < burnin)
        if it >= burnin and (it - burnin) % thin == 0:
            theta[keep] = state["mu"][0] - state["mu"][1]
            llam[keep] = state["leps"][0] - state["leps"][1]
            lpsi[keep] = state["lalp"][0] - state["lalp"][1]
            indicators[keep] = (state["d_mu"], state["d_e"], state["d_a"])
            keep += 1
    return theta, llam, lpsi, indicators


def run_mwg(
    data: GroupedPairedSample,
    prior: PriorSpec,
    chains: int = 3,
    iters: int = 10500,
    burnin: int = 500,
    thin: int = 10,
    seed: int = 0,
) -> PosteriorDraws:
    """Run the Metropolis-within-Gibbs sampler and emit thinned metric draws.

    Returns draws of the three metric curves (variance ratios exponentiated at
    emission), chain labels, acceptance rates, and split-R-hat diagnostics;
    ``rhat_warning`` is set when any coordinate exceeds 1.1.
    """
    if iters <= burnin:
        raise ValueError("iters must exceed burnin")
    sampler = MwgSampler(data, prior)
    T = sampler.T
    per_chain = len(range(burnin, iters, thin))
    runs = [_run_chain(sampler, seed, c, iters, burnin, thin) for c in range(chains)]
    theta, llam, lpsi, indicators = (np.stack(draws) for draws in zip(*runs))

    rhat = {
        "theta": split_rhat(theta),
        "lambda": split_rhat(llam),
        "psi": split_rhat(lpsi),
    }
    warn = bool(max(v.max() for v in rhat.values()) > 1.1)
    acc = {
        k: sampler.accept_counts[k] / max(sampler.proposal_counts[k], 1)
        for k in sampler.steps
    }
    chain_ids = np.repeat(np.arange(chains), per_chain)
    flat = lambda a: a.reshape(chains * per_chain, T)
    return PosteriorDraws(
        grid_points=data.grid.points,
        theta=flat(theta),
        lam=np.exp(flat(llam)),
        psi=np.exp(flat(lpsi)),
        chain=chain_ids,
        acceptance=acc,
        rhat=rhat,
        rhat_warning=warn,
        indicators=indicators.reshape(chains * per_chain, 3),
    )
