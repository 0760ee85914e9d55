import hashlib
import warnings

import numpy as np
import pytest

from feqt.bayes import PriorSpec, run_mwg
from feqt.bayes.kernels import corr_cholesky, matern_corr
from feqt.bayes.sampler import (
    MwgSampler,
    SamplerDivergenceError,
    _chain_rng,
    _cross_sums,
    _run_chains,
    _tape_layout,
    split_rhat,
)
from feqt.fdata import BandKind, equispaced_grid, make_cosine_bands
from feqt.tost import Metric

from conftest import make_grouped
from geweke import init_from_prior, simulate_data


def small_prior(grid):
    add = make_cosine_bands(grid, BandKind.ADDITIVE)
    mult = make_cosine_bands(grid, BandKind.MULTIPLICATIVE)
    return PriorSpec(0.3, 0.1, {Metric.THETA: add, Metric.LAMBDA: mult, Metric.PSI: mult})


class TestSplitRhat:
    def test_well_mixed_chains_near_one(self, rng):
        x = rng.normal(size=(4, 400, 3))
        r = split_rhat(x)
        assert r.shape == (3,)
        assert np.all(r < 1.05)

    def test_separated_chains_flagged(self, rng):
        x = rng.normal(size=(2, 200, 2))
        x[1] += 5.0
        assert np.all(split_rhat(x) > 1.5)

    def test_within_chain_drift_flagged(self, rng):
        # split halves catch a trend inside a single chain
        x = rng.normal(size=(2, 400, 1)) + np.linspace(0, 5, 400)[None, :, None]
        assert split_rhat(x)[0] > 1.5


class TestRunMwg:
    def _run(self, seed=3):
        rng = np.random.default_rng(0)
        data = make_grouped(rng, n_groups=4, group_size=4, n_points=5)
        prior = small_prior(data.grid)
        return run_mwg(data, prior, chains=2, iters=240, burnin=40, thin=10, seed=seed)

    def test_shapes_and_labels(self):
        d = self._run()
        assert d.theta.shape == (40, 5)
        assert d.lam.shape == (40, 5) and np.all(d.lam > 0.0)
        assert d.psi.shape == (40, 5) and np.all(d.psi > 0.0)
        np.testing.assert_array_equal(np.unique(d.chain), [0, 1])
        assert d.indicators.shape == (40, 3)
        assert set(np.unique(d.indicators)) <= {0, 1}
        assert set(d.rhat) == {"theta", "lambda", "psi"}
        assert set(d.acceptance) == {
            "leps_1", "leps_2", "lalp_1", "lalp_2", "rho_e", "rho_a",
        }

    def test_deterministic_in_seed(self):
        a = self._run(seed=3)
        b = self._run(seed=3)
        np.testing.assert_array_equal(a.theta, b.theta)
        np.testing.assert_array_equal(a.lam, b.lam)
        c = self._run(seed=4)
        assert not np.array_equal(a.theta, c.theta)

    def test_draws_pinned(self):
        """A sha256 over the draws, indicators and pooled acceptance rates of
        ``_run(seed=3)``. It guards bit-identity under performance edits of
        the sampler: a change that alters the draws by design re-records it.
        The bits are those of numpy 2.4's float kernels on x86-64; another
        numpy or CPU may round ``exp``/``log`` differently."""
        d = self._run(seed=3)
        h = hashlib.sha256()
        for a in (d.theta, d.lam, d.psi, d.indicators.astype(np.int64)):
            h.update(np.ascontiguousarray(a).tobytes())
        h.update(np.array([d.acceptance[k] for k in sorted(d.acceptance)]).tobytes())
        assert h.hexdigest() == (
            "30536109fb4c071697cc25d0103a40f51da3007fa8b9eeb38ce3237d9c56eefc"
        )

    def test_unbalanced_draws_pinned(self):
        """``test_draws_pinned``'s digest on unbalanced groups (sizes 2, 3,
        5, 4, 6), T=12 and 3 chains, over adapting and frozen sweeps: it
        guards the sweep's buffers and strided writes at a shape other
        than T=5, with the same numpy and CPU caveat."""
        rng = np.random.default_rng(0)
        data = make_grouped(rng, group_sizes=[2, 3, 5, 4, 6], n_points=12)
        d = run_mwg(data, small_prior(data.grid), chains=3, iters=300, burnin=100, thin=5,
                    seed=3)
        h = hashlib.sha256()
        for a in (d.theta, d.lam, d.psi, d.indicators.astype(np.int64)):
            h.update(np.ascontiguousarray(a).tobytes())
        h.update(np.array([d.acceptance[k] for k in sorted(d.acceptance)]).tobytes())
        assert h.hexdigest() == (
            "abca53e73218566a774ddcec7fee84100e59de6f93cbab069feea9c17a52c2ab"
        )

    def test_chain_draws_independent_of_execution_order(self):
        """Chain c adapts its own proposal scales and draws from its own
        stream, so its draws, acceptance counts and final scales are the same
        whether it runs alone, first or last in a batch."""
        rng = np.random.default_rng(0)
        data = make_grouped(rng, n_groups=4, group_size=4, n_points=5)
        prior = small_prior(data.grid)
        schedule = dict(iters=240, burnin=40, thin=10)

        def chain_draws(order, chain):
            sampler = MwgSampler(data, prior)
            runs = _run_chains(sampler, 3, order, **schedule)
            return [a[order.index(chain)] for a in (*runs, sampler.accepted, sampler.scales)]

        for chain in (0, 1, 2):
            alone = chain_draws([chain], chain)
            others = [c for c in (0, 1, 2) if c != chain]
            for order in ([chain] + others, others + [chain]):
                for a, b in zip(alone, chain_draws(order, chain)):
                    np.testing.assert_array_equal(a, b)
        d = run_mwg(data, prior, chains=3, seed=3, **schedule)
        alone = chain_draws([2], 2)
        np.testing.assert_array_equal(d.theta[d.chain == 2], alone[0])
        np.testing.assert_array_equal(d.indicators[d.chain == 2], alone[3])

    @pytest.mark.parametrize("schedule, message", [
        (dict(burnin=-5), "burnin must be at least 0, got -5"),
        (dict(thin=0), "thin must be at least 1, got 0"),
        (dict(burnin=9, thin=1), "each chain keeps 1 draws; split R-hat needs at least 4"),
        (dict(burnin=8, thin=1), "each chain keeps 2 draws; split R-hat needs at least 4"),
        (dict(burnin=7, thin=1), "each chain keeps 3 draws; split R-hat needs at least 4"),
    ])
    def test_burnin_and_thin_refused(self, schedule, message):
        """A negative burn-in would emit rows the chains never write, and
        split R-hat needs two kept draws in each half of every chain."""
        rng = np.random.default_rng(0)
        data = make_grouped(rng, n_points=5)
        with pytest.raises(ValueError, match=message):
            run_mwg(data, small_prior(data.grid), chains=1, iters=10, **schedule)

    @pytest.mark.parametrize("chains", [0, -1])
    def test_chains_refused(self, chains):
        rng = np.random.default_rng(0)
        data = make_grouped(rng, n_points=5)
        with pytest.raises(ValueError, match=f"chains must be at least 1, got {chains}"):
            run_mwg(data, small_prior(data.grid), chains=chains, iters=20, burnin=4, thin=1)

    def test_iters_must_exceed_burnin(self):
        rng = np.random.default_rng(0)
        data = make_grouped(rng, n_points=5)
        with pytest.raises(ValueError, match="exceed burnin"):
            run_mwg(data, small_prior(data.grid), chains=1, iters=10, burnin=10)


class TestSamplerCore:
    def test_prior_init_and_data_simulation(self, rng):
        data = make_grouped(rng, n_groups=3, group_size=4, n_points=6)
        sampler = MwgSampler(data, small_prior(data.grid))
        sampler.fixed_hypers = True
        r = _chain_rng(9, 0)
        T = 6
        state = init_from_prior(sampler, [r], np.zeros(T), np.full(T, -1.0), np.full(T, -2.0))
        assert state["alpha"][0].shape == (3, 2, T)
        assert np.all(np.abs(state["rho"][:, 0]) < 1.0)
        before = sampler.y.copy()
        simulate_data(sampler, state, [r])
        assert sampler.y.shape == before.shape
        assert not np.array_equal(sampler.y, before)
        # a sweep on simulated data keeps the state finite
        sampler.sweep(state, [r])
        for key in ("mu", "logvars", "rho"):
            assert np.all(np.isfinite(state[key]))
        # fixed hyper-means must not move
        np.testing.assert_array_equal(state["hypers"][0, 0], np.zeros(T))
        np.testing.assert_array_equal(state["hypers"][0, 1], np.full(T, -1.0))

    def test_fixed_hyper_draws_pinned(self):
        """A sha256 over the states of successive-conditional cycles with the
        hyper-means fixed, the path of the Geweke check (criterion 8), whose
        sweeps draw no hyper-mean normals. Like ``test_draws_pinned`` it
        guards bit-identity under performance edits of the sampler, with the
        same numpy and CPU caveat."""
        rng = np.random.default_rng(0)
        data = make_grouped(rng, n_groups=3, group_size=4, n_points=5)
        sampler = MwgSampler(data, small_prior(data.grid))
        sampler.fixed_hypers = True
        rngs = [_chain_rng(4, c) for c in range(2)]
        state = init_from_prior(sampler, rngs, np.zeros(5), np.full(5, -1.0), np.full(5, -1.5))
        h = hashlib.sha256()
        for cycle in range(20):
            simulate_data(sampler, state, rngs)
            sampler.sweep(state, rngs, cycle=cycle, adapting=cycle < 10)
            lv, rho, d = state["logvars"], state["rho"], state["indicators"]
            for a in (state["mu"], state["alpha"], lv[:, 0], lv[:, 1], rho[:, 0], rho[:, 1], *d.T):
                h.update(np.ascontiguousarray(a).tobytes())
        assert h.hexdigest() == (
            "ff8473d46786933c87aa7c069f72c4b3553368a95a53543f7dd300b05a97cb78"
        )

    @pytest.mark.parametrize("sizes", [[4, 4, 4], [2, 7, 3, 5]])
    def test_level_sums_equal_direct_sums(self, rng, sizes):
        """The error level's cross sums, from the fixed within-group sums
        plus each group's n_g d d', equal the sums over every residual
        y - alpha, with balanced and unbalanced groups, on the observed data
        and on data ``simulate_data`` drew."""
        data = make_grouped(rng, group_sizes=sizes, n_points=5)
        sampler = MwgSampler(data, small_prior(data.grid))
        rngs = [_chain_rng(6, c) for c in range(2)]
        state = sampler.init_from_data(rngs, spread=0.5)

        def check():
            alpha = state["alpha"]
            direct = (_cross_sums(sampler.y - alpha[:, sampler.labels]),
                      _cross_sums(alpha - state["mu"][:, None]))
            for level, want in enumerate(direct):
                for got, w in zip(sampler._level_sums(state), want):
                    np.testing.assert_allclose(got[:, level], w, rtol=1e-12)

        sampler.sweep(state, rngs)
        check()
        simulate_data(sampler, state, rngs)
        check()
        sampler.sweep(state, rngs)
        check()

    def test_tape_is_two_draws_per_chain(self):
        """Chain c's tape is one ``standard_normal`` call for all its normals
        and then one ``random`` call for all its uniforms, laid out in field
        order. A ``fixed_hypers`` tape holds 3T fewer normals, the
        hyper-means' that come last, so its other normals are the full
        tape's and every field keeps its offset."""
        T = 5
        data = make_grouped(np.random.default_rng(0), n_groups=3, group_size=4, n_points=T)
        sampler = MwgSampler(data, small_prior(data.grid))
        tapes = {}
        for fixed in (False, True):
            sampler.fixed_hypers = fixed
            tapes[fixed] = tape = sampler._tape([_chain_rng(7, c) for c in range(2)])
            for c in range(2):
                rng = _chain_rng(7, c)
                z = [tape.mu, tape.alpha, tape.logvars, tape.rho, tape.hyper]
                u = [tape.mix, tape.u_logvars, tape.u_rho]
                for fields, draw in ((z, rng.standard_normal), (u, rng.random)):
                    drawn = np.concatenate([f[c].ravel() for f in fields])
                    np.testing.assert_array_equal(drawn, draw(drawn.size))
        full, fixed = tapes[False], tapes[True]
        assert full.hyper.shape == (2, 3, T) and fixed.hyper.shape == (2, 0, T)
        for name in ("mu", "alpha", "logvars", "rho"):
            np.testing.assert_array_equal(getattr(full, name), getattr(fixed, name))
        (full_fields, (n_full, m_full)), (fixed_fields, (n_fixed, m_fixed)) = (
            _tape_layout(3, T, f) for f in (False, True)
        )
        assert n_full - n_fixed == 3 * T and m_full == m_fixed
        offsets = lambda fields: [start for _, start, _, _ in fields]
        assert offsets(full_fields) == offsets(fixed_fields)

    def test_lapack_routines_equal_scipy(self, rng):
        """The sampler's ``dpotrs`` and ``dtrtrs``, loaded from scipy's
        ``linalg/_flapack`` file, solve as ``scipy.linalg``'s do, and the
        prior precision is ``cho_solve``'s, bit for bit."""
        from scipy.linalg import cho_solve
        from scipy.linalg.lapack import dpotrs, dtrtrs

        data = make_grouped(rng, n_groups=3, group_size=4, n_points=6)
        prior = small_prior(data.grid)
        sampler = MwgSampler(data, prior)
        a = rng.normal(size=(6, 6))
        L = np.linalg.cholesky(a @ a.T + 6.0 * np.eye(6))
        b = rng.normal(size=(6, 2))
        for ours, theirs, lower in ((sampler._dpotrs, dpotrs, 1), (sampler._dtrtrs, dtrtrs, 0)):
            c = L if lower else L.T
            got, want = ours(c, b, lower=lower), theirs(c, b, lower=lower)
            assert np.array_equal(got[0], want[0]) and got[1] == want[1] == 0
        corr = matern_corr(prior.range_a, data.grid)
        prec = cho_solve((corr_cholesky(prior.scale_s2 * corr), True), np.eye(6))
        assert np.array_equal(sampler.prec, prec)

    def test_zero_variance_data_simulation(self, rng):
        data = make_grouped(rng, n_groups=3, group_size=4, n_points=4)
        sampler = MwgSampler(data, small_prior(data.grid))
        r = _chain_rng(2, 0)
        state = sampler.init_from_data([r])
        state["logvars"][0, 0] = np.full((2, 4), -60.0)  # essentially noiseless
        simulate_data(sampler, state, [r])
        np.testing.assert_allclose(
            sampler.y[0], state["alpha"][0][data.group_labels()], atol=1e-10
        )

    def test_non_finite_logvar_in_one_chain_diverges(self, rng):
        data = make_grouped(rng, n_groups=3, group_size=4, n_points=4)
        sampler = MwgSampler(data, small_prior(data.grid))
        rngs = [_chain_rng(2, c) for c in range(3)]
        state = sampler.init_from_data(rngs, spread=0.5)
        sampler.sweep(state, rngs)  # finite chains sweep cleanly
        state["logvars"][1, 0, 0, 2] = np.nan
        with pytest.raises(SamplerDivergenceError, match="non-finite log-posterior") as info:
            sampler.sweep(state, rngs)
        dumped = info.value.state["logvars"][:, 0]
        assert np.isnan(dumped[1, 0, 2])
        assert np.all(np.isfinite(np.delete(dumped, 1, axis=0)))

    def test_rho_proposal_rounding_to_one_is_rejected_quietly(self, rng):
        """With a huge Fisher-z step, ``tanh`` rounds most proposals to +-1;
        they are rejected without floating-point warnings."""
        data = make_grouped(rng, n_groups=3, group_size=4, n_points=4)
        sampler = MwgSampler(data, small_prior(data.grid))
        rngs = [_chain_rng(5, c) for c in range(2)]
        state = sampler.init_from_data(rngs, spread=0.5)
        sampler.scales[:, 2] = 1e3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(5):
                sampler.sweep(state, rngs)
        assert np.all(np.abs(state["rho"]) < 1.0)
