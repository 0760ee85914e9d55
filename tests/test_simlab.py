import hashlib

import numpy as np
import pytest

from feqt.fdata import (
    BandKind,
    BandPair,
    band_contains,
    equispaced_grid,
    make_cosine_bands,
)
from feqt.simlab import (
    ScenarioSequence,
    StudyResult,
    boundary_violation_scenarios,
    default_truth,
    generate_dataset,
    interior_scenarios,
    run_study,
)
import feqt.simlab as simlab_mod
from feqt.tost import BootstrapConfig, Design, Metric
from dataclasses import replace


@pytest.fixture
def grid10():
    return equispaced_grid(10)


class TestTruthSpec:
    def test_default_profile_valid(self, grid10):
        t = default_truth(grid10, 5, 6)
        assert t.group_sizes.size == 5
        np.testing.assert_allclose(t.mu[0] - t.mu[1], 0.0)
        np.testing.assert_allclose(t.s2_eps[0] / t.s2_eps[1], 1.0)
        np.testing.assert_allclose(t.s2_alpha[0] / t.s2_alpha[1], 1.0)

    def test_validation(self, grid10):
        t = default_truth(grid10)
        with pytest.raises(ValueError, match="shape"):
            replace(t, mu=np.zeros((2, 3)))
        with pytest.raises(ValueError, match="rho_eps"):
            replace(t, rho_eps=np.ones(10))
        with pytest.raises(ValueError, match="positive semidefinite"):
            replace(t, within_corr=-np.eye(10))
        with pytest.raises(ValueError, match="2 groups"):
            replace(t, group_sizes=np.array([5]))

    @pytest.mark.parametrize("sizes", [[2.7, 3.9], [4.0, 2.5], [3, np.nan], [3, np.inf]])
    def test_fractional_group_sizes_refused(self, grid10, sizes):
        # a cast to int first would run [2.7, 3.9] as groups of 2 and 3
        with pytest.raises(ValueError, match="group_sizes must be whole numbers"):
            replace(default_truth(grid10), group_sizes=np.array(sizes))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", [
        "mu", "s2_eps", "s2_alpha", "rho_eps", "rho_alpha", "within_corr",
    ])
    def test_non_finite_refused(self, grid10, name, value):
        t = default_truth(grid10)
        arr = getattr(t, name).copy()
        arr.flat[0] = value
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            replace(t, **{name: arr})

    @pytest.mark.parametrize("name", ["s2_eps", "s2_alpha"])
    def test_negative_variance_refused(self, grid10, name):
        t = default_truth(grid10)
        arr = getattr(t, name).copy()
        arr[1, 3] = -1e-3
        with pytest.raises(ValueError, match="variance curves must be nonnegative"):
            replace(t, **{name: arr})

    def test_arrays_copied_and_frozen(self, grid10):
        base = default_truth(grid10, 3, 4)
        fields = ("mu", "s2_eps", "s2_alpha", "rho_eps", "rho_alpha", "within_corr",
                  "group_sizes")
        given = {name: getattr(base, name).copy() for name in fields}
        truth = replace(base, **given)
        drawn = generate_dataset(truth, 5).stacked().copy()
        kept = {name: getattr(truth, name).copy() for name in fields}
        for arr in given.values():
            arr[...] = np.eye(10) if arr.shape == (10, 10) else 0.5
        for name in fields:
            np.testing.assert_array_equal(getattr(truth, name), kept[name])
            with pytest.raises(ValueError, match="read-only"):
                getattr(truth, name)[...] = 0
        np.testing.assert_array_equal(generate_dataset(truth, 5).stacked(), drawn)


class TestGenerateDataset:
    def test_zero_variances_reproduce_mu(self, grid10):
        t = default_truth(grid10, 3, 4)
        t = replace(t, s2_eps=np.zeros((2, 10)), s2_alpha=np.zeros((2, 10)))
        d = generate_dataset(t, 0)
        for g in d.groups:
            assert np.abs(g.curves_1 - t.mu[0][None]).max() < 1e-12
            assert np.abs(g.curves_2 - t.mu[1][None]).max() < 1e-12

    def test_deterministic_in_seed(self, grid10):
        t = default_truth(grid10, 3, 4)
        a = generate_dataset(t, 7).stacked()
        b = generate_dataset(t, 7).stacked()
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, generate_dataset(t, 8).stacked())

    @pytest.mark.parametrize("T, sizes, seed, digest", [
        (25, [10] * 10, (3, 1, 0), "658e7dee4a830df02ed154ea6bd8e84d9971e41b4913694b302236e37bf9dedd"),
        (8, [3] * 4, (3, 1, 0), "7d0390b8b4f39a4c9afb61a86045099bc6a73c3b60250b6780ce795c7d991b2c"),
        (25, [50, 1], 5, "3d2c09d019d4d8cc134513149697723f75b75d0b693ca93f293ddfe3004fe1df"),
        # one-pair groups between larger ones, and a grid wide enough that a
        # product's rounding depends on its row count
        (8, [1, 4, 1, 7], (3, 1, 0), "7dd513f7666db2dec7b424c7c15fff9e13d8785d0d06cc05a0e366be20ecc177"),
        (37, [2, 40, 1, 3], 11, "cd80123d30ee4129ae6cc85965d33c88c1c6eafdda635029897a88fe0ff44696"),
    ])
    def test_bits_pinned(self, T, sizes, seed, digest):
        # a study's data must not move by one bit: its tallies are pinned
        if isinstance(seed, tuple):
            seed = np.random.SeedSequence(entropy=seed[0], spawn_key=seed[1:])
        t = replace(default_truth(equispaced_grid(T), 2, 1), group_sizes=np.array(sizes))
        y = generate_dataset(t, seed).stacked()
        assert hashlib.sha256(y.tobytes()).hexdigest() == digest

    def test_large_sample_moments(self, grid10):
        t = default_truth(grid10, 200, 200)
        y = generate_dataset(t, 1).stacked()
        total_var = t.s2_eps + t.s2_alpha
        # group effects are shared within a group, so the mean's sampling
        # variance is s2_alpha / A + s2_eps / N
        se = np.sqrt(t.s2_alpha / t.group_sizes.size + t.s2_eps / y.shape[0])
        assert np.all(np.abs(y.mean(axis=0) - t.mu) < 3.5 * se)
        np.testing.assert_allclose(y.var(axis=0, ddof=1), total_var, rtol=0.10)

    def test_cross_channel_correlation_matches(self, grid10):
        t = default_truth(grid10, 2, 5000)
        t = replace(t, s2_alpha=np.zeros((2, 10)))
        y = generate_dataset(t, 3).stacked()
        dev = y - y.mean(axis=0)
        corr = (dev[:, 0] * dev[:, 1]).mean(axis=0) / np.sqrt(
            (dev[:, 0] ** 2).mean(axis=0) * (dev[:, 1] ** 2).mean(axis=0)
        )
        np.testing.assert_allclose(corr, t.rho_eps, atol=0.03)


class TestScenarios:
    def test_boundary_theta_geometry(self, grid10):
        base = default_truth(grid10)
        bands = make_cosine_bands(grid10, BandKind.ADDITIVE)
        seq = boundary_violation_scenarios(base, bands, Metric.THETA)
        assert len(seq.truths) == 9 and seq.boundary
        np.testing.assert_allclose(seq.target_curves[0], bands.upper)
        # scenario 9 touches the band only at the pin
        last = seq.target_curves[8]
        assert last[0] == pytest.approx(bands.upper[0])
        np.testing.assert_allclose(last[1:], bands.midline[1:], atol=1e-12)
        for k, truth in enumerate(seq.truths):
            assert not band_contains(bands, seq.target_curves[k])
            np.testing.assert_allclose(truth.mu[0] - truth.mu[1], seq.target_curves[k])

    def test_boundary_lambda_log_scale(self, grid10):
        base = default_truth(grid10)
        bands = make_cosine_bands(grid10, BandKind.MULTIPLICATIVE)
        seq = boundary_violation_scenarios(base, bands, Metric.LAMBDA)
        mid_idx = 5
        # halfway scenario sits at the geometric midpoint of midline and band
        k = 5  # weight 1 - 4/8 = 0.5 away from midline
        expected = np.exp(
            np.log(bands.midline[mid_idx])
            + 0.5 * (np.log(bands.upper[mid_idx]) - np.log(bands.midline[mid_idx]))
        )
        assert seq.target_curves[k - 1][mid_idx] == pytest.approx(expected)
        for k, truth in enumerate(seq.truths):
            np.testing.assert_allclose(truth.s2_eps[0] / truth.s2_eps[1], seq.target_curves[k])

    def test_interior_scenarios_inside(self, grid10):
        base = default_truth(grid10)
        bands = make_cosine_bands(grid10, BandKind.ADDITIVE)
        seq = interior_scenarios(base, bands, Metric.THETA)
        assert not seq.boundary
        for c in seq.target_curves:
            assert band_contains(bands, c)
        np.testing.assert_allclose(seq.target_curves[8], bands.midline, atol=1e-12)

    @pytest.mark.parametrize("build", [boundary_violation_scenarios, interior_scenarios])
    @pytest.mark.parametrize("metric", list(Metric))
    def test_bands_of_another_kind_refused(self, grid10, build, metric):
        wrong = next(k for k in BandKind if k is not metric.band_kind)
        bands = make_cosine_bands(grid10, wrong)
        with pytest.raises(ValueError, match=f"{metric.value} requires "
                           f"{metric.band_kind.value} bands"):
            build(default_truth(grid10), bands, metric)

    def test_empty_sequence_refused(self, grid10):
        with pytest.raises(ValueError, match="at least one scenario"):
            ScenarioSequence(Metric.THETA, (), np.empty((0, 10)), False)

    def test_sequences_pinned(self):
        # every target and truth of the six sequences, to the bit: a
        # re-associated weight or a reordered scenario moves this digest
        h = hashlib.sha256()
        for T in (5, 25):
            grid = equispaced_grid(T)
            base = default_truth(grid, 10, 10)
            for metric in Metric:
                bands = make_cosine_bands(grid, metric.band_kind)
                for build in (boundary_violation_scenarios, interior_scenarios):
                    seq = build(base, bands, metric)
                    h.update(seq.target_curves.tobytes())
                    for t in seq.truths:
                        for a in (t.mu, t.s2_eps, t.s2_alpha, t.rho_eps, t.rho_alpha,
                                  t.within_corr, t.group_sizes):
                            h.update(np.ascontiguousarray(a).tobytes())
        assert h.hexdigest() == (
            "8f54afc5841ed045c814afac86d95c81f4972f5214efe99f2e719d20e8d9ea65"
        )


def tiny_sequence(grid, metric, target_curves, base):
    truths = []
    from feqt.simlab import _apply_metric_curve

    for c in target_curves:
        truths.append(_apply_metric_curve(base, metric, np.asarray(c, dtype=float)))
    return ScenarioSequence(
        metric=metric,
        truths=tuple(truths),
        target_curves=np.asarray(target_curves, dtype=float),
        boundary=False,
    )


class TestRunStudy:
    def test_wide_bands_always_reject(self, grid10):
        base = default_truth(grid10, 4, 4)
        wide = BandPair(grid10, np.full(10, -50.0), np.full(10, 50.0), BandKind.ADDITIVE)
        seq = tiny_sequence(grid10, Metric.THETA, [np.zeros(10)], base)
        cfg = BootstrapConfig(150, 0.05, 0, Design.RANDOM_EFFECTS_MATCHED)
        res = run_study(seq, 50, cfg, {Metric.THETA: wide}, seed=1)
        assert res.rates[0] == 1.0

    def test_truth_far_outside_never_rejects(self, grid10):
        base = default_truth(grid10, 4, 4)
        bands = make_cosine_bands(grid10, BandKind.ADDITIVE)
        seq = tiny_sequence(grid10, Metric.THETA, [np.full(10, 5.0)], base)
        cfg = BootstrapConfig(150, 0.05, 0, Design.RANDOM_EFFECTS_MATCHED)
        res = run_study(seq, 50, cfg, {Metric.THETA: bands}, seed=1)
        assert res.rates[0] == 0.0

    def test_reproducible(self, grid10):
        base = default_truth(grid10, 4, 4)
        bands = make_cosine_bands(grid10, BandKind.ADDITIVE)
        seq = tiny_sequence(grid10, Metric.THETA, [np.zeros(10)], base)
        cfg = BootstrapConfig(150, 0.05, 0, Design.RANDOM_EFFECTS_MATCHED)
        a = run_study(seq, 50, cfg, {Metric.THETA: bands}, seed=9)
        b = run_study(seq, 50, cfg, {Metric.THETA: bands}, seed=9)
        np.testing.assert_array_equal(a.rejections, b.rejections)

    def test_engine_errors_recorded_not_fatal(self, grid10):
        base = default_truth(grid10, 4, 4)
        # all-zero variances make every curve identical, so each replicate
        # hits a degenerate-spread error inside the engine
        base = replace(base, s2_eps=np.zeros((2, 10)), s2_alpha=np.zeros((2, 10)))
        bands = make_cosine_bands(grid10, BandKind.ADDITIVE)
        seq = tiny_sequence(grid10, Metric.THETA, [np.zeros(10)], base)
        cfg = BootstrapConfig(150, 0.05, 0, Design.RANDOM_EFFECTS_MATCHED)
        res = run_study(seq, 50, cfg, {Metric.THETA: bands}, seed=2)
        assert res.replicates[0] == 0
        assert len(res.errors) == 50

    def test_validation(self, grid10):
        base = default_truth(grid10, 4, 4)
        bands = make_cosine_bands(grid10, BandKind.ADDITIVE)
        seq = tiny_sequence(grid10, Metric.THETA, [np.zeros(10)], base)
        cfg = BootstrapConfig(150, 0.05, 0, Design.RANDOM_EFFECTS_MATCHED)
        with pytest.raises(ValueError, match="50 replicates"):
            run_study(seq, 10, cfg, {Metric.THETA: bands})

    def test_runner_bug_propagates(self, grid10, monkeypatch):
        base = default_truth(grid10, 4, 4)
        bands = make_cosine_bands(grid10, BandKind.ADDITIVE)
        seq = tiny_sequence(grid10, Metric.THETA, [np.zeros(10)], base)
        cfg = BootstrapConfig(150, 0.05, 0, Design.RANDOM_EFFECTS_MATCHED)

        def runner(data, cfg, eq_bands, metric):
            raise TypeError("unsupported operand type(s)")

        monkeypatch.setattr(simlab_mod, "_frequentist_reject", runner)
        with pytest.raises(TypeError, match="unsupported operand"):
            run_study(seq, 50, cfg, {Metric.THETA: bands}, seed=1)


class TestStudyResult:
    def test_serialization(self):
        res = StudyResult(
            method="frequentist",
            metric="theta",
            scenarios=np.array([1, 2]),
            replicates=np.array([100, 100]),
            rejections=np.array([5, 50]),
        )
        csv = res.to_csv_text()
        assert csv.splitlines()[0] == "scenario,replicates,rejections,rate,se"
        assert "0.05" in csv
        import json

        payload = json.loads(res.to_json_text())
        assert payload["rates"] == [0.05, 0.5]

    def test_arrays_are_read_only(self):
        rejections = np.array([5, 50])
        res = StudyResult(
            method="frequentist", metric="theta", scenarios=np.array([1, 2]),
            replicates=np.array([100, 100]), rejections=rejections,
        )
        assert not any(a.flags.writeable for a in (res.scenarios, res.replicates,
                                                    res.rejections))
        with pytest.raises(ValueError, match="read-only"):
            res.rejections[0] = 100
        assert rejections.flags.writeable  # the caller's array keeps its flags

    def test_invariant(self):
        with pytest.raises(ValueError, match="more rejections"):
            StudyResult(
                method="frequentist", metric="theta",
                scenarios=np.array([1]), replicates=np.array([10]),
                rejections=np.array([11]),
            )
