import numpy as np
import pytest

from feqt.estimators import (
    DegenerateSpreadError,
    DegenerateVarianceError,
    VARIANCE_FLOOR,
    adjusted_random_effects,
    anova_decompose,
    estimate_metrics_grouped,
    estimate_metrics_paired,
)
from feqt.fdata import FunctionalSample, PairedFunctionalSample, equispaced_grid

from conftest import make_grouped


def anova_oracle(sample):
    """Brute-force double-loop ANOVA quantities, one grid point at a time."""
    y = sample.stacked()
    labels = sample.group_labels()
    A = sample.n_groups
    N = sample.n_total
    sizes = sample.group_sizes
    T = y.shape[2]
    sse = np.zeros((2, T))
    ssa = np.zeros((2, T))
    for j in range(2):
        for t in range(T):
            vals = y[:, j, t]
            ybar = sum(vals) / N
            sse[j, t] = sum((v - ybar) ** 2 for v in vals)
            for i in range(A):
                gv = [vals[k] for k in range(N) if labels[k] == i]
                gbar = sum(gv) / len(gv)
                ssa[j, t] += len(gv) * (gbar - ybar) ** 2
    n_star = (N - sum(n**2 for n in sizes) / N) / (A - 1)
    s2a = (ssa / (A - 1) - sse / (N - 1)) / n_star
    return sse, ssa, n_star, np.maximum(s2a, VARIANCE_FLOOR)


class TestAnova:
    def test_matches_brute_force(self, rng):
        for _ in range(5):
            sizes = rng.integers(2, 7, size=rng.integers(2, 5)).tolist()
            s = make_grouped(rng, group_sizes=sizes, n_points=4)
            d = anova_decompose(s)
            sse, ssa, n_star, s2a = anova_oracle(s)
            np.testing.assert_allclose(d.sse, sse, rtol=1e-9)
            np.testing.assert_allclose(d.ssa, ssa, rtol=1e-9)
            assert d.n_star == pytest.approx(n_star, rel=1e-12)
            np.testing.assert_allclose(d.s2_alpha, s2a, rtol=1e-9)

    def test_balanced_n_star_is_group_size(self, rng):
        s = make_grouped(rng, n_groups=3, group_size=4)
        assert anova_decompose(s).n_star == pytest.approx(4.0)

    def test_floor_applied(self, rng):
        # tiny between-group spread drives the estimate negative; it must clip
        grid = equispaced_grid(3)
        groups = []
        for i in range(3):
            base = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]) + i * 1e-9
            y = base[None] + rng.normal(0.0, 1.0, (5, 2, 3))
            groups.append(PairedFunctionalSample(grid, y[:, 0], y[:, 1]))
        from feqt.fdata import GroupedPairedSample

        d = anova_decompose(GroupedPairedSample(grid, tuple(groups)))
        assert np.all(d.s2_alpha >= VARIANCE_FLOOR)

    def test_too_few_pairs(self, rng):
        s = make_grouped(rng, group_sizes=[1, 1])
        with pytest.raises(ValueError, match="A\\+1"):
            anova_decompose(s)


class TestMetricEstimates:
    def test_paired_against_numpy(self, rng, grid25):
        c1 = rng.normal(size=(8, 25))
        c2 = rng.normal(size=(8, 25))
        est = estimate_metrics_paired(PairedFunctionalSample(grid25, c1, c2))
        np.testing.assert_allclose(est.theta_hat, c1.mean(0) - c2.mean(0))
        np.testing.assert_allclose(
            est.lambda_hat, c1.var(0, ddof=1) / c2.var(0, ddof=1)
        )
        assert est.psi_hat is None

    def test_two_independent_samples(self, rng, grid25):
        c1 = rng.normal(size=(6, 25))
        c2 = rng.normal(size=(9, 25))
        est = estimate_metrics_paired(
            (FunctionalSample(grid25, c1), FunctionalSample(grid25, c2))
        )
        np.testing.assert_allclose(est.theta_hat, c1.mean(0) - c2.mean(0))
        np.testing.assert_allclose(
            est.lambda_hat, c1.var(0, ddof=1) / c2.var(0, ddof=1)
        )
        with pytest.raises(ValueError, match="at least 2 curves"):
            estimate_metrics_paired(
                (FunctionalSample(grid25, c1[:1]), FunctionalSample(grid25, c2))
            )

    def test_paired_zero_denominator_names_index(self, grid25):
        c1 = np.random.default_rng(0).normal(size=(3, 25))
        c2 = c1.copy()
        c2[:, 5] = 7.0  # constant column in channel 2
        with pytest.raises(DegenerateVarianceError, match="grid index 5"):
            estimate_metrics_paired(PairedFunctionalSample(grid25, c1, c2))

    def test_grouped_theta_is_mean_of_group_differences(self, rng):
        s = make_grouped(rng, group_sizes=[2, 5, 3])
        est = estimate_metrics_grouped(s)
        diffs = [g.curves_1.mean(0) - g.curves_2.mean(0) for g in s.groups]
        np.testing.assert_allclose(est.theta_hat, np.mean(diffs, axis=0))
        assert est.psi_hat is not None and np.all(est.psi_hat > 0.0)

    def test_grouped_lambda_is_sse_ratio(self, rng):
        s = make_grouped(rng)
        d = anova_decompose(s)
        est = estimate_metrics_grouped(s)
        np.testing.assert_allclose(est.lambda_hat, d.sse[0] / d.sse[1])

    def test_channel_swap_duality(self, rng):
        s = make_grouped(rng)
        swapped = type(s)(
            s.grid,
            tuple(
                PairedFunctionalSample(g.grid, g.curves_2, g.curves_1) for g in s.groups
            ),
        )
        a = estimate_metrics_grouped(s)
        b = estimate_metrics_grouped(swapped)
        np.testing.assert_allclose(a.theta_hat, -b.theta_hat)
        np.testing.assert_allclose(a.lambda_hat, 1.0 / b.lambda_hat)
        np.testing.assert_allclose(a.psi_hat, 1.0 / b.psi_hat, rtol=1e-9)


class TestAdjustedRandomEffects:
    def test_spread_matches_s2_alpha(self, rng):
        s = make_grouped(rng, n_groups=6, group_size=4)
        d = anova_decompose(s)
        a_hat = adjusted_random_effects(d)
        np.testing.assert_allclose(
            a_hat.std(axis=0, ddof=1), np.sqrt(d.s2_alpha), rtol=1e-10
        )

    def test_zero_spread_raises(self, rng, grid25):
        from feqt.fdata import GroupedPairedSample

        # identical groups: group means coincide, spread is zero
        y = rng.normal(size=(4, 2, 25))
        g = PairedFunctionalSample(grid25, y[:, 0], y[:, 1])
        s = GroupedPairedSample(grid25, (g, g))
        with pytest.raises(DegenerateSpreadError, match="zero spread"):
            adjusted_random_effects(anova_decompose(s))
