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
from feqt.tost import BootstrapConfig, Design, Metric, run_tost
from dataclasses import replace

from reference_study import reference_study


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
        # the batch's runner for a theta sequence, run_tost's for a lambda one
        base = default_truth(grid10, 4, 4)
        cfg = BootstrapConfig(150, 0.05, 0, Design.RANDOM_EFFECTS_MATCHED)

        def runner(*args):
            raise TypeError("unsupported operand type(s)")

        for name, metric, target in (("_theta_rejects", Metric.THETA, np.zeros(10)),
                                     ("_frequentist_reject", Metric.LAMBDA, np.ones(10))):
            bands = make_cosine_bands(grid10, metric.band_kind)
            seq = tiny_sequence(grid10, metric, [target], base)
            with monkeypatch.context() as m:
                m.setattr(simlab_mod, name, runner)
                with pytest.raises(TypeError, match="unsupported operand"):
                    run_study(seq, 50, cfg, {metric: bands}, seed=1)

    @pytest.mark.parametrize("metric", [Metric.THETA, Metric.LAMBDA], ids=lambda m: m.value)
    def test_band_map_without_the_metric_refused_before_any_draw(self, grid10, monkeypatch,
                                                                 metric):
        other = next(m for m in Metric if m.band_kind is not metric.band_kind)
        right = make_cosine_bands(grid10, metric.band_kind)
        wrong = make_cosine_bands(grid10, other.band_kind)
        seq = tiny_sequence(grid10, metric, [right.midline], default_truth(grid10, 4, 4))
        cfg = BootstrapConfig(150, 0.05, 0, Design.RANDOM_EFFECTS_MATCHED)

        def no_draw(*args):
            raise AssertionError("drew a dataset before checking eq_bands")

        monkeypatch.setattr(simlab_mod, "_draw_values", no_draw)
        with pytest.raises(ValueError, match=f"no bands of the sequence's metric {metric.value}"):
            run_study(seq, 50, cfg, {other: wrong})
        with pytest.raises(ValueError, match=f"no bands of the sequence's metric {metric.value}"):
            run_study(seq, 50, cfg, {other: right})
        with pytest.raises(ValueError, match=f"{metric.value} requires "
                           f"{metric.band_kind.value} bands"):
            run_study(seq, 50, cfg, {metric: wrong})


def degenerate_draws(kinds):
    """``simlab._draw_values``, but the dataset keyed (scenario, replicate)
    ``key`` made degenerate as ``kinds[key]`` names: "sse" zeroes channel 2,
    so its SSE is 0; "spread" zeroes channel 1 but for a +1 and a -1 in
    each group, so every group mean is 0."""
    real = simlab_mod._draw_values

    def draw(truth, seeds):
        y = real(truth, seeds)
        for j, ss in enumerate(seeds):
            kind = kinds.get(tuple(getattr(ss, "spawn_key", ())))
            if kind == "sse":
                y[j, :, 1] = 0.0
            elif kind == "spread":
                first = np.cumsum(truth.group_sizes) - truth.group_sizes
                y[j, :, 0] = 0.0
                y[j, first, 0] = 1.0
                y[j, first + 1, 0] = -1.0
        return y

    return draw


def assert_same_study(got, want):
    for name in ("scenarios", "replicates", "rejections"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    assert got.errors == want.errors
    assert got.to_json_text() == want.to_json_text()


class TestBatchedStudy:
    """``run_study`` against the per-replicate loop it replaced
    (``tests/reference_study.py``), to the decision and the error text."""

    @pytest.fixture
    def unequal(self):
        grid = equispaced_grid(13)
        base = replace(default_truth(grid, 6, 2), group_sizes=np.array([2, 5, 3, 5, 2, 7]),
                       s2_eps=np.full((2, 13), 0.01), s2_alpha=np.full((2, 13), 0.0005))
        return base, grid

    def test_theta_batches_equal_the_loop(self, unequal, monkeypatch):
        base, grid = unequal
        bands = make_cosine_bands(grid, BandKind.ADDITIVE)
        full = interior_scenarios(base, bands, Metric.THETA)
        seq = ScenarioSequence(Metric.THETA, full.truths[3::4], full.target_curves[3::4], False)
        cfg = BootstrapConfig(257, 0.05, 0, Design.RANDOM_EFFECTS_MATCHED)
        kinds = {(1, 1): "sse", (1, 2): "spread", (2, 52): "sse"}
        monkeypatch.setattr(simlab_mod, "_draw_values", degenerate_draws(kinds))
        batches, real = [], simlab_mod._theta_rejects

        def spy(y, *args):
            batches.append(len(y))
            return real(y, *args)

        monkeypatch.setattr(simlab_mod, "_theta_rejects", spy)
        got = run_study(seq, 53, cfg, {Metric.THETA: bands}, seed=4)
        assert sum(batches) == 2 * 53
        # degenerate datasets inside the first batch, and a last batch cut short
        assert batches[0] > 3 and 53 % batches[0] != 0
        assert [e[:2] for e in got.errors] == list(kinds)
        assert [e[2].split(":")[0] for e in got.errors] == [
            "DegenerateVarianceError", "DegenerateSpreadError", "DegenerateVarianceError"]
        assert 0 < got.rejections.min() and got.rejections.max() < got.replicates.min()
        assert_same_study(got, reference_study(seq, 53, cfg, {Metric.THETA: bands}, seed=4))

    def test_batch_bits_equal_run_tost(self, unequal, monkeypatch):
        # each dataset, both one-sided bands and the decision, replicate by
        # replicate, at a B of no round size
        base, grid = unequal
        band = make_cosine_bands(grid, BandKind.ADDITIVE)
        keys = [np.random.SeedSequence(entropy=5, spawn_key=(2, r)) for r in range(7)]
        cfgs = [BootstrapConfig(257, 0.05, int(ss.generate_state(1)[0] >> 1),
                                Design.RANDOM_EFFECTS_MATCHED) for ss in keys]
        batch_bands, real = [], simlab_mod.theta_bands
        monkeypatch.setattr(simlab_mod, "theta_bands",
                            lambda *args: batch_bands.append(real(*args)) or batch_bands[-1])
        y = simlab_mod._draw_values(base, keys)
        rejects, decided = simlab_mod._theta_rejects(y, base.group_sizes, cfgs, band)
        assert decided.all() and len(batch_bands) == 1
        for j, (ss, cfg) in enumerate(zip(keys, cfgs)):
            data = generate_dataset(base, ss)
            assert data.stacked().tobytes() == y[j].tobytes()
            want = run_tost(data, cfg, {Metric.THETA: band}).results[Metric.THETA]
            for end in ("lower_of_upper_ci", "upper_of_lower_ci"):
                got = getattr(batch_bands[0], end)[j]
                assert getattr(want.bands, end).tobytes() == got.tobytes()
            assert want.reject == rejects[j]

    @pytest.mark.parametrize("metric, others", [(Metric.LAMBDA, ()), (Metric.THETA, (Metric.PSI,))],
                             ids=["lambda", "theta and psi"])
    def test_other_band_maps_equal_the_loop(self, unequal, monkeypatch, metric, others):
        base, grid = unequal
        eq_bands = {m: make_cosine_bands(grid, m.band_kind) for m in (metric, *others)}
        full = interior_scenarios(base, eq_bands[metric], metric)
        seq = ScenarioSequence(metric, full.truths[4:5], full.target_curves[4:5], False)
        cfg = BootstrapConfig(100, 0.05, 0, Design.RANDOM_EFFECTS_MATCHED)
        monkeypatch.setattr(simlab_mod, "_draw_values", degenerate_draws({(1, 7): "sse"}))
        monkeypatch.setattr(simlab_mod, "_theta_rejects", None)  # not called
        got = run_study(seq, 50, cfg, eq_bands, seed=6)
        assert [e[:2] for e in got.errors] == [(1, 7)]
        assert_same_study(got, reference_study(seq, 50, cfg, eq_bands, seed=6))


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
