"""Metropolis-within-Gibbs sampler for the hierarchical heteroscedastic model.

The pointwise-factorized correlation makes the mean curves, random effects,
hyper-means, and mixture indicators conjugate; only the log-variance curves
(blocked random-walk Metropolis with prior-correlation-shaped proposals) and
the cross-correlations (per-point Metropolis on the Fisher-z scale) need
Metropolis steps.

The state is a dict of six arrays, each with a leading chain axis: ``mu``
(chains, 2, T), the channel mean curves; ``alpha`` (chains, A, 2, T), the
group random effects; ``logvars`` (chains, level, channel, T), the
log-variance curves of the error level (log lambda, read from y - alpha) and
of the random-effect level (log psi, read from alpha - mu); ``rho`` (chains,
level, T), their pointwise cross-correlations; ``hypers`` (chains, 3, T), the
hyper-means of the mu, log lambda and log psi mixture GP priors; and
``indicators`` (chains, 3), those mixtures' indicators. Given alpha and mu
the two levels are conditionally independent and share one GP, so every
Metropolis step moves both at once.

One sweep updates, in this order: the mean curves mu with the random effects
integrated out (given the variances, group g's mean curve is pointwise
N2(mu, Psi + Lambda / n_g), a blocked Gibbs step after Liu, Wong & Kong 1994),
the random effects alpha given mu, the log-variance curves of both levels
(``_INNER_REPEATS`` passes over channel 1 then channel 2), the hyper-means and
indicators of all three mixtures (mu, log lambda, log psi), and the
cross-correlations of both levels (``_INNER_REPEATS`` passes). The error
level's cross sums come from per-group sufficient statistics,
S = W + sum_g n_g d_g d_g' with d_g = ybar_g - alpha_g and W the fixed
within-group cross sums of y - ybar_g, so a sweep never revisits the N curve
pairs. Within the Metropolis loops the current log-posterior terms are
cached and overwritten in place only where a proposal is accepted. The block
log-likelihood comes from cached invariant terms through
:func:`~feqt.bayes.model.block_loglik`: a log-variance proposal recomputes
only its own channel's term, a cross-correlation proposal only the terms of
rho. Each term is computed as :func:`~feqt.bayes.model.paired_block_loglik`
computes it.

Chains run side by side: every state array has a leading chain axis, and one
:meth:`MwgSampler.sweep` advances all of them. Each chain keeps its own
random stream, keyed by (seed, c), and its own proposal scales: all start
from the same initial values, move toward 30% acceptance during burn-in and
freeze afterwards, preserving detailed balance for every retained draw.
A sweep first draws each chain's random tape from that chain's stream in two
calls, one for all its normals and one for all its uniforms, sliced into
fields by a fixed layout (see :meth:`MwgSampler._tape`); the updates then read
the tape by position, not in the order they run. Chain c's draws are therefore
independent of how many chains run and in which order. ``MwgSampler.scales``
and ``MwgSampler.accepted`` hold each chain's proposal scale and accepted
count, (chains, block, level) each. :func:`run_mwg` reports a block's
acceptance rate as its accepted count over the proposals the schedule implies
(chains x iters x ``_INNER_REPEATS``, times T for rho), pooled over chains,
burn-in included.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from typing import NamedTuple

import numpy as np

from .._scipyext import _load_scipy_ext
from ..fdata import GroupedPairedSample
from ..tost import Metric, replicate_rng
from .kernels import matern_corr, corr_cholesky
from .model import PriorSpec, block_loglik, channel_term, count_terms, rho_terms
from .posterior import PosteriorDraws

_TARGET_ACCEPT = 0.3
#: Metropolis passes per variance-level block in one sweep.
_INNER_REPEATS = 5
#: The proposal-scale keys of the three Metropolis blocks (channel 1's and
#: channel 2's log-variance curves, the cross-correlation), by variance level,
#: and each one's initial scale.
_BLOCKS = (("leps_1", "lalp_1"), ("leps_2", "lalp_2"), ("rho_e", "rho_a"))
_INITIAL_SCALES = ((0.1, 0.3), (0.1, 0.3), (0.5, 0.8))


class SamplerDivergenceError(RuntimeError):
    """Non-finite log-posterior; carries a dump of the offending state."""

    def __init__(self, message, state):
        super().__init__(message)
        self.state = state


class _Tape(NamedTuple):
    """One sweep's random numbers, each with a leading chain axis: the
    normals, then the uniforms, each in field order (see :func:`_tape_layout`)."""

    mu: np.ndarray  # (chains, 2T) normals of the mean curves
    alpha: np.ndarray  # (chains, A, 2, T) normals of the random effects
    logvars: np.ndarray  # (chains, level, repeat, channel, T) proposal normals
    rho: np.ndarray  # (chains, level, repeat, T) Fisher-z proposal normals
    hyper: np.ndarray  # (chains, 3, T) hyper-mean normals; (chains, 0, T) under fixed_hypers
    mix: np.ndarray  # (chains, 3) uniforms of the mixture indicators
    u_logvars: np.ndarray  # (chains, level, repeat, channel) acceptance uniforms
    u_rho: np.ndarray  # (chains, level, repeat, T) acceptance uniforms


@lru_cache
def _tape_layout(A: int, T: int, fixed_hypers: bool):
    """Each :class:`_Tape` field's (source, offset, size, shape) in one chain's
    tape, source 0 being its normals and 1 its uniforms, and the two sources'
    lengths. The hyper-mean normals come last, so a ``fixed_hypers`` tape,
    which holds none, keeps every other field at the same offset."""
    R = _INNER_REPEATS
    shapes = dict(
        mu=(0, (2 * T,)), alpha=(0, (A, 2, T)), logvars=(0, (2, R, 2, T)), rho=(0, (2, R, T)),
        hyper=(0, (0 if fixed_hypers else 3, T)),
        mix=(1, (3,)), u_logvars=(1, (2, R, 2)), u_rho=(1, (2, R, T)),
    )
    lengths, fields = [0, 0], []
    for name in _Tape._fields:
        source, shape = shapes[name]
        size = prod(shape)
        fields.append((source, lengths[source], size, shape))
        lengths[source] += size
    return tuple(fields), tuple(lengths)


def _chain_rng(seed: int, chain: int) -> np.random.Generator:
    return replicate_rng(seed, 0x6D77670000 + chain)


def _normals(rngs, shape):
    """Standard normals of ``shape`` for each chain, from that chain's stream."""
    z = np.empty((len(rngs),) + shape)
    for rng, out in zip(rngs, z):
        rng.standard_normal(out=out)
    return z


def _coin_flips(rngs):
    """One fair 0/1 draw for each chain, from that chain's stream."""
    return np.array([int(rng.integers(2)) for rng in rngs])


def _mv(m, x):
    """``m @ x`` for each vector in x (..., T): one gemv per vector, which
    rounds as the one-vector product does (one GEMM over all of them may
    not), so a chain's draws do not depend on the batch it runs in."""
    return np.matmul(m, x[..., None])[..., 0]


def _quad(prec, dev):
    """Prior log-density term ``-0.5 dev' prec dev`` of each vector in (..., T) ``dev``."""
    return np.matmul(np.matmul(-0.5 * dev[..., None, :], prec), dev[..., :, None])[..., 0, 0]


def _inv2x2(a, b, c):
    """Inverse entries of symmetric 2x2 [[a, b], [b, c]] (elementwise arrays)."""
    det = a * c - b * b
    return c / det, -b / det, a / det


def _bvn(m1, m2, c11, c12, c22, z):
    """Bivariate-normal draws from (..., 2, T) standard normals ``z``, with
    channel means ``m1``, ``m2`` and covariance entries ``c11``, ``c12``,
    ``c22``, through the 2x2 Cholesky factor."""
    l11 = np.sqrt(c11)
    l21 = c12 / l11
    l22 = np.sqrt(np.maximum(c22 - l21 * l21, 1e-300))
    out = np.empty(z.shape)
    out[..., 0, :] = m1 + l11 * z[..., 0, :]
    out[..., 1, :] = m2 + l21 * z[..., 0, :] + l22 * z[..., 1, :]
    return out


def _cross_sums(dev, weight=None):
    """Per-gridpoint sums (s11, s22, s12) of squares and cross-products of
    (..., n, 2, T) residuals over n, each pair times ``weight`` (..., n, 1, 1)
    if given."""
    wdev = dev if weight is None else weight * dev
    sq = (wdev * dev).sum(axis=-3)
    s12 = (wdev[..., 0, :] * dev[..., 1, :]).sum(axis=-2)
    return sq[..., 0, :], sq[..., 1, :], s12


def _variances(state):
    """Per-gridpoint channel variances v1 and v2, cross-correlation rho and
    sd = sqrt(v1 v2) of both variance levels, (chains, level, T) each."""
    v = np.exp(state["logvars"])
    v1, v2 = v[:, :, 0], v[:, :, 1]
    return v1, v2, state["rho"], np.sqrt(v1 * v2)


def _lapack(routine, *args, **kwargs):
    """Call a LAPACK wrapper of scipy's ``linalg/_flapack``; raise on nonzero ``info``."""
    x, info = routine(*args, **kwargs)
    if info != 0:
        raise np.linalg.LinAlgError(f"{routine.__name__} failed with info={info}")
    return x


def _batch(x, chains):
    """A writable copy of ``x`` with its leading axis broadcast to ``chains``."""
    return np.broadcast_to(x, (chains,) + x.shape[1:]).copy()


class MwgSampler:
    """Sampler core for a batch of chains; :func:`run_mwg` drives it.

    Every state array has a leading chain axis, and the update methods take
    one generator per chain. The three metric priors share one GP, factorized
    once: ``lcorr``, ``lcov`` and ``prec``.
    """

    def __init__(self, data: GroupedPairedSample, prior: PriorSpec):
        # loaded here, not at import, so no other feqt mode loads scipy's LAPACK
        flapack = _load_scipy_ext("linalg/_flapack")
        self._dpotrs, self._dtrtrs = flapack.dpotrs, flapack.dtrtrs
        self.grid = data.grid
        self.T = len(data.grid)
        self.A = data.n_groups
        self.sizes = data.group_sizes
        self._n = self.sizes[:, None].astype(float)  # (A, 1)
        self.N = data.n_total
        self.labels = data.group_labels()
        self._set_data(data.stacked()[None])

        corr = matern_corr(prior.range_a, self.grid)
        self.lcorr = corr_cholesky(corr)
        self.lcov = np.sqrt(prior.scale_s2) * self.lcorr
        self._lcov_hyper = self.lcov / np.sqrt(2.0)  # of a hyper-mean given both curves
        self.prec = _lapack(
            self._dpotrs, corr_cholesky(prior.scale_s2 * corr), np.eye(self.T), lower=1
        )

        # (3, 2, T) mixture offsets of mu, log lambda and log psi, on their working scales
        self.offsets = np.stack(
            [prior.offsets(m) for m in (Metric.THETA, Metric.LAMBDA, Metric.PSI)]
        )
        # the prior blocks of the mean update's precision; "+ 0.0" turns a
        # -0.0 into +0.0, as adding the likelihood's diagonal matrix did
        self._mu_prec_base = np.zeros((2 * self.T, 2 * self.T))
        self._mu_prec_base[: self.T, : self.T] = self.prec + 0.0
        self._mu_prec_base[self.T :, self.T :] = self.prec + 0.0
        # the pair counts' terms of the block log-likelihood, per level, (level, 1) each
        self._cterms = count_terms(np.array([[self.N], [self.A]], dtype=float))
        self.fixed_hypers = False  # Geweke mode: skip improper-prior updates

    def _set_data(self, y):
        self.y = y  # (1 or chains, N, 2, T)
        self.ybar_group = np.stack(
            [y[:, self.labels == i].mean(axis=1) for i in range(self.A)], axis=1
        )  # (1 or chains, A, 2, T)
        # the within-group cross sums (s11, s22, s12) of y - ybar_g, (1 or chains, T) each
        self.within = _cross_sums(y - self.ybar_group[:, self.labels])

    def _start(self, chains: int):
        """Initial proposal scales and zero acceptance counts, (chains, block,
        level) each; each chain adapts its own scales during burn-in only."""
        self.scales = np.tile(_INITIAL_SCALES, (chains, 1, 1))
        self.accepted = np.zeros(self.scales.shape, dtype=np.int64)
        # the mean update's (chains, 2T, 2T) precision: the prior blocks, whose
        # four diagonals each sweep rewrites (see :meth:`_update_mu`)
        self._mu_prec = np.tile(self._mu_prec_base, (chains, 1, 1))

    def _mixture_offsets(self, indicators):
        """The (chains, 3, T) offsets the (chains, 3) ``indicators`` select."""
        return self.offsets[np.arange(3), indicators]

    # ----- initialization -------------------------------------------------

    def init_from_data(self, rngs, spread=0.0) -> dict:
        """Moment-based initial state of one chain per generator in ``rngs``;
        ``spread`` (a scalar or one value per chain) adds overdispersion for
        distinct chain starting points."""
        chains = len(rngs)
        self._start(chains)
        w11, w22, _ = self.within
        v_eps = np.maximum(np.stack([w11, w22], axis=1) / max(self.N - self.A, 1), 1e-8)
        mu = self.ybar_group.mean(axis=1)
        dev_a = self.ybar_group - mu[:, None]
        v_alp = np.maximum(dev_a.var(axis=1, ddof=1), 1e-8)

        def corr(s11, s22, s12):
            with np.errstate(invalid="ignore", divide="ignore"):
                r = s12 / np.sqrt(s11 * s22)
            return _batch(np.clip(np.nan_to_num(r), -0.9, 0.9), chains)

        spread = np.broadcast_to(np.asarray(spread, float), (chains,))[:, None, None]
        jit = lambda: spread * _normals(rngs, (2, self.T))
        log_v = (np.log(v_eps), np.log(v_alp))
        hypers = np.stack([mu.mean(axis=1)] + [lv.mean(axis=1) for lv in log_v], axis=1)
        return {
            "mu": mu + jit() * 0.05,
            "alpha": _batch(self.ybar_group, chains),
            "logvars": np.stack([lv + jit() * 0.3 for lv in log_v], axis=1),
            "rho": np.stack([corr(*self.within), corr(*_cross_sums(dev_a))], axis=1),
            "hypers": _batch(hypers, chains),
            "indicators": np.stack([_coin_flips(rngs) for _ in range(3)], axis=1),
        }

    # ----- the random tape ------------------------------------------------

    def _tape(self, rngs) -> _Tape:
        """Draw one sweep's random numbers: chain c's normals in one
        ``rngs[c].standard_normal`` call, then its uniforms in one
        ``rngs[c].random`` call, sliced into fields by :func:`_tape_layout`.
        Under ``fixed_hypers`` the tape holds no hyper-mean normals."""
        fields, (n, m) = _tape_layout(self.A, self.T, self.fixed_hypers)
        c = len(rngs)
        z, u = np.empty((c, n)), np.empty((c, m))
        for rng, zc, uc in zip(rngs, z, u):
            rng.standard_normal(out=zc)
            rng.random(out=uc)
        sources = (z, u)
        return _Tape(*(
            sources[src][:, start : start + size].reshape((c,) + shape)
            for src, start, size, shape in fields
        ))

    # ----- conjugate updates ---------------------------------------------

    def _update_alpha(self, state, prec_e, prec_a, z):
        pe11, pe12, pe22 = (p[:, None] for p in prec_e)
        pa11, pa12, pa22 = (p[:, None] for p in prec_a)
        n = self._n
        yb1, yb2 = self.ybar_group[..., 0, :], self.ybar_group[..., 1, :]
        mu1, mu2 = state["mu"][:, 0, None], state["mu"][:, 1, None]
        h1 = n * (pe11 * yb1 + pe12 * yb2) + pa11 * mu1 + pa12 * mu2
        h2 = n * (pe12 * yb1 + pe22 * yb2) + pa12 * mu1 + pa22 * mu2
        # the posterior covariance entries, (chains, A, T) each
        c11, c12, c22 = _inv2x2(n * pe11 + pa11, n * pe12 + pa12, n * pe22 + pa22)
        state["alpha"] = _bvn(c11 * h1 + c12 * h2, c12 * h1 + c22 * h2, c11, c12, c22, z)

    def _update_mu(self, state, var, z):
        """Draw mu with alpha integrated out: given the variances ``var`` (as
        :func:`_variances` gives them), group g's mean curve is pointwise
        N2(mu, Psi + Lambda / n_g), so each point's likelihood precision is
        sum_g (Psi + Lambda / n_g)^-1."""
        T, chains = self.T, len(z)
        (e1, a1), (e2, a2), (re, ra), (se, sa) = ((x[:, None, 0], x[:, None, 1]) for x in var)
        inv_n = 1.0 / self._n
        # det(Psi + Lambda / n) summed from nonnegative parts, det Psi +
        # cross / n + det Lambda / n^2: unlike m11 m22 - m12^2 it keeps its
        # digits where a nearly singular Psi swamps Lambda / n
        cross = (np.sqrt(a1 * e2) - np.sqrt(e1 * a2)) ** 2 + 2.0 * sa * se * (1.0 - ra * re)
        det_e = se * se * ((1.0 - re) * (1.0 + re))
        det = sa * sa * ((1.0 - ra) * (1.0 + ra)) + inv_n * (cross + inv_n * det_e)
        # the precision entries of each group's mean curve, (chains, A, T) each
        k11 = (a2 + e2 * inv_n) / det
        k12 = -(ra * sa + re * se * inv_n) / det
        k22 = (a1 + e1 * inv_n) / det
        yb1, yb2 = self.ybar_group[..., 0, :], self.ybar_group[..., 1, :]
        # the four diagonals of the blocks, as strided views of each chain's
        # flat matrix: entry (i, j) is flat element 2T i + j
        P, base, step = self._mu_prec, self._mu_prec_base, 2 * T + 1
        flat = P.reshape(chains, -1)
        np.add(base.diagonal()[:T], k11.sum(axis=1), out=flat[:, : T * step : step])
        np.add(base.diagonal()[T:], k22.sum(axis=1), out=flat[:, T * step :: step])
        od = k12.sum(axis=1)
        flat[:, T : 2 * T * T : step] = od  # (d, d + T)
        flat[:, 2 * T * T :: step] = od  # (d + T, d)
        h = np.empty((chains, 2 * T))
        mu0 = state["hypers"][:, 0]
        prior2 = mu0 - self.offsets[0][state["indicators"][:, 0]]
        h[:, :T] = _mv(self.prec, mu0) + (k11 * yb1 + k12 * yb2).sum(axis=1)
        h[:, T:] = _mv(self.prec, prior2) + (k12 * yb1 + k22 * yb2).sum(axis=1)
        L = np.linalg.cholesky(P)
        # a non-finite chain passes through, to be reported by the
        # log-posterior check of the Metropolis updates
        draws = [
            _lapack(self._dpotrs, Lc, hc, lower=1) + _lapack(self._dtrtrs, Lc.T, zc, lower=0)
            for Lc, hc, zc in zip(L, h, z)
        ]
        state["mu"] = np.stack(draws).reshape(-1, 2, T)

    def _update_mixtures(self, state, tape):
        """Flat-prior hyper-mean draws (skipped in Geweke mode), then the
        indicators of the three mixtures, each given its two channel curves."""
        x = np.concatenate([state["mu"][:, None], state["logvars"]], axis=1)  # (chains, 3, 2, T)
        hyper, indicators = state["hypers"], state["indicators"]
        if not self.fixed_hypers:
            mean = 0.5 * (x[:, :, 0] + x[:, :, 1] + self._mixture_offsets(indicators))
            hyper[...] = mean + _mv(self._lcov_hyper, tape.hyper)
        logw = [_quad(self.prec, x[:, :, 1] - (hyper - o)) for o in self.offsets.swapaxes(0, 1)]
        with np.errstate(over="ignore"):  # exp overflows where p1 rounds to 0
            p1 = 1.0 / (1.0 + np.exp(logw[0] - logw[1]))
        indicators[...] = tape.mix < p1

    # ----- Metropolis updates --------------------------------------------

    def _adapt(self, block, accepted, proposed, cycle):
        """Move each chain's scale of ``block`` toward the target rate, given
        its ``accepted`` (chains, level) of ``proposed`` proposals; burn-in
        only (one scale per chain, block and level)."""
        gain = 2.0 / (10.0 + cycle) ** 0.6
        scales = self.scales[:, block]
        scales[...] = np.exp(np.log(scales) + gain * (accepted / proposed - _TARGET_ACCEPT))

    def _update_logvars(self, state, sums, tape, cycle, adapting):
        """Blocked random-walk Metropolis on each channel's log-variance
        curves of both levels, ``_INNER_REPEATS`` times. The block
        log-likelihood sum, each channel's likelihood and prior terms and the
        terms of the fixed rho are cached; accepted proposals are written in
        place."""
        rho = state["rho"]
        rterms = rho_terms(rho, rho * rho, sums[2])
        hyper = state["hypers"][:, 1:]
        centers = (hyper, hyper - self._mixture_offsets(state["indicators"])[:, 1:])

        def loglik(a, b, lsum):
            return block_loglik(a, b, lsum, np.exp(-0.5 * lsum), rterms, self._cterms).sum(axis=-1)

        l = state["logvars"]
        channels = (l[:, :, 0], l[:, :, 1])  # views, written in place
        terms = [channel_term(lc, sc) for lc, sc in zip(channels, sums)]
        ll = loglik(*terms, channels[0] + channels[1])
        prior = [_quad(self.prec, lc - center) for lc, center in zip(channels, centers)]
        moves = _mv(self.lcorr, tape.logvars)
        logu = np.log(tape.u_logvars)
        accepted = np.empty(logu.shape, dtype=bool)  # (chains, level, repeat, channel)
        for r in range(_INNER_REPEATS):
            for j in (0, 1):
                cur = ll + prior[j]
                lj = channels[j] + self.scales[:, j, :, None] * moves[:, :, r, j]
                tj = channel_term(lj, sums[j])
                if j == 0:
                    ll_new = loglik(tj, terms[1], lj + channels[1])
                else:
                    ll_new = loglik(terms[0], tj, channels[0] + lj)
                prior_new = _quad(self.prec, lj - centers[j])
                if not np.isfinite(cur).all():
                    raise SamplerDivergenceError("non-finite log-posterior", dict(state))
                acc = np.less(logu[:, :, r, j], ll_new + prior_new - cur, out=accepted[:, :, r, j])
                rows = acc[..., None]
                np.copyto(channels[j], lj, where=rows)
                np.copyto(terms[j], tj, where=rows)
                np.copyto(ll, ll_new, where=acc)
                np.copyto(prior[j], prior_new, where=acc)
                if adapting:
                    self._adapt(j, acc, 1, cycle)
        self.accepted[:, :2] += accepted.sum(axis=2).swapaxes(1, 2)

    def _update_rho(self, state, sums, tape, cycle, adapting):
        """Per-point Fisher-z random-walk Metropolis on the cross-correlations
        of both levels, ``_INNER_REPEATS`` times, with each point's
        log-posterior and the terms of the fixed curves cached. A proposal
        that ``tanh`` rounds to +-1 has log-posterior -inf and is rejected."""
        l = state["logvars"]
        s11, s22, s12 = sums
        lsum = l[:, :, 0] + l[:, :, 1]
        fixed = (channel_term(l[:, :, 0], s11), channel_term(l[:, :, 1], s22), lsum,
                 np.exp(-0.5 * lsum))

        def logpost(rho):  # the Fisher-z Jacobian of the flat prior included
            rr = rho * rho
            rterms = rho_terms(rho, rr, s12)
            out = block_loglik(*fixed, rterms, self._cterms) + np.log1p(-rr)
            np.copyto(out, -np.inf, where=rterms[0] == 0.0)
            return out

        rho = state["rho"]
        with np.errstate(divide="ignore", invalid="ignore"):
            cur = logpost(rho)
            logu = np.log(tape.u_rho)
            accepted = np.empty(logu.shape, dtype=bool)  # (chains, level, repeat, T)
            for r in range(_INNER_REPEATS):
                rp = np.tanh(np.arctanh(rho) + self.scales[:, 2, :, None] * tape.rho[:, :, r])
                new = logpost(rp)
                acc = np.less(logu[:, :, r], new - cur, out=accepted[:, :, r])
                np.copyto(rho, rp, where=acc)
                np.copyto(cur, new, where=acc)
                if adapting:  # per-point proposals share one scale, adapted on the mean rate
                    self._adapt(2, acc.sum(axis=-1), self.T, cycle)
        self.accepted[:, 2] += accepted.sum(axis=(2, 3))

    # ----- one sweep ------------------------------------------------------

    def _level_sums(self, state):
        """The cross sums (s11, s22, s12) of both variance levels, (chains,
        level, T) each: the error level's residuals y - alpha through the
        fixed within-group sums plus each group's n_g d d' with
        d = ybar_g - alpha_g, the random-effect level's from alpha - mu."""
        alpha = state["alpha"]
        err = _cross_sums(self.ybar_group - alpha, self._n[:, None])
        ran = _cross_sums(alpha - state["mu"][:, None])
        return tuple(np.stack((w + e, a), axis=1) for w, e, a in zip(self.within, err, ran))

    def sweep(self, state, rngs, cycle=0, adapting=False):
        """Advance every chain by one Gibbs sweep; chain c draws only from
        ``rngs[c]``."""
        tape = self._tape(rngs)
        # neither update moves a variance level, so one set of variances serves both
        var = _variances(state)
        self._update_mu(state, var, tape.mu)
        v1, v2, rho, sd = var
        prec = _inv2x2(v1, rho * sd, v2)
        self._update_alpha(state, *(tuple(p[:, lev] for p in prec) for lev in (0, 1)), tape.alpha)
        sums = self._level_sums(state)
        # repeating the cheap Metropolis updates sharpens mixing of the
        # log-variance curves, the sampler's slowest block
        self._update_logvars(state, sums, tape, cycle, adapting)
        self._update_mixtures(state, tape)
        self._update_rho(state, sums, tape, cycle, adapting)


#: Kept draws per chain that :func:`split_rhat` needs: two in each half.
MIN_CHAIN_DRAWS = 4


def split_rhat(x: np.ndarray) -> np.ndarray:
    """Split-R-hat along axis 0 for draws of shape (chains, draws, ...)."""
    half = x.shape[1] // 2
    halves = np.concatenate([x[:, :half], x[:, half : 2 * half]], axis=0)
    w = halves.var(axis=1, ddof=1).mean(axis=0)
    b = half * halves.mean(axis=1).var(axis=0, ddof=1)
    var_plus = (half - 1) / half * w + b / half
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.sqrt(var_plus / w)
    return np.nan_to_num(out, nan=1.0)


def _run_chains(sampler: MwgSampler, seed, chains, iters, burnin, thin):
    """Thinned post-burn-in draws of the chains numbered in ``chains``, all
    advanced together: theta, log lambda, log psi (each (chains, draws, T))
    and the (chains, draws, 3) mixture indicators.

    Chain c draws from its own stream and adapts its own proposal scales, so
    its draws do not depend on which other chains run beside it.
    """
    rngs = [_chain_rng(seed, c) for c in chains]
    state = sampler.init_from_data(rngs, spread=[0.5 * c for c in chains])
    metrics = np.empty((len(rngs), kept_draws(iters, burnin, thin), 3, sampler.T))
    indicators = np.empty(metrics.shape[:2] + (3,), dtype=int)
    keep = 0
    for it in range(iters):
        sampler.sweep(state, rngs, cycle=it, adapting=it < burnin)
        if it >= burnin and (it - burnin) % thin == 0:
            x = np.concatenate([state["mu"][:, None], state["logvars"]], axis=1)
            metrics[:, keep] = x[:, :, 0] - x[:, :, 1]
            indicators[:, keep] = state["indicators"]
            keep += 1
    return metrics[:, :, 0], metrics[:, :, 1], metrics[:, :, 2], indicators


def kept_draws(iters: int, burnin: int, thin: int) -> int:
    """Draws one chain keeps: every ``thin``-th sweep from ``burnin`` on."""
    return len(range(burnin, iters, thin))


def check_chain_draws(per_chain: int) -> None:
    """Refuse chains that keep fewer draws each than :func:`split_rhat` needs."""
    if per_chain < MIN_CHAIN_DRAWS:
        raise ValueError(f"each chain keeps {per_chain} draws; "
                         f"split R-hat needs at least {MIN_CHAIN_DRAWS}")


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

    One sweep advances all ``chains`` chains together; each chain has its own
    random stream and its own adapted proposal scales. Returns draws of the
    three metric curves (variance ratios exponentiated at emission), chain
    labels, acceptance rates pooled over chains, and split-R-hat diagnostics;
    ``rhat_warning`` is set when any coordinate exceeds 1.1.
    """
    if chains < 1:
        raise ValueError(f"chains must be at least 1, got {chains}")
    if burnin < 0:
        raise ValueError(f"burnin must be at least 0, got {burnin}")
    if thin < 1:
        raise ValueError(f"thin must be at least 1, got {thin}")
    if iters <= burnin:
        raise ValueError("iters must exceed burnin")
    per_chain = kept_draws(iters, burnin, thin)
    check_chain_draws(per_chain)
    sampler = MwgSampler(data, prior)
    theta, llam, lpsi, indicators = _run_chains(
        sampler, seed, range(chains), iters, burnin, thin
    )
    rhat = dict(zip(("theta", "lambda", "psi"), map(split_rhat, (theta, llam, lpsi))))
    # each sweep proposes every log-variance curve _INNER_REPEATS times per
    # chain, and every grid point's correlation as often
    per_curve = chains * iters * _INNER_REPEATS
    proposed = (per_curve, per_curve, per_curve * sampler.T)  # per block
    accepted = sampler.accepted.sum(axis=0)  # (block, level), pooled over chains
    acc = {
        key: int(accepted[j, i]) / proposed[j]
        for j, keys in enumerate(_BLOCKS) for i, key in enumerate(keys)
    }
    flat = lambda a: a.reshape(chains * per_chain, -1)
    return PosteriorDraws(
        grid_points=data.grid.points,
        theta=flat(theta),
        lam=np.exp(flat(llam)),
        psi=np.exp(flat(lpsi)),
        chain=np.repeat(np.arange(chains), per_chain),
        acceptance=acc,
        rhat=rhat,
        rhat_warning=bool(max(v.max() for v in rhat.values()) > 1.1),
        indicators=flat(indicators),
    )
