"""End-to-end acceptance gates for the package.

Each test exercises one contract at its stated design and tolerance and
records a one-line pass/fail verdict (printed in the terminal summary) before
asserting. The heavier Monte Carlo gates are marked ``slow``.
"""

import itertools

import numpy as np
import pytest

from feqt.bayes import (
    PriorSpec,
    calibrate_prior_scale,
    posterior_equivalence_prob,
    prior_equivalence_prob,
    run_mwg,
    simultaneous_bands,
)
from feqt.bayes.sampler import MwgSampler, _chain_rng
from feqt.cli import run_cli
from feqt.curvefile import write_curves
from feqt.estimators import VARIANCE_FLOOR, anova_decompose
from feqt.fdata import (
    BandKind,
    Grid,
    GroupedPairedSample,
    PairedFunctionalSample,
    equispaced_grid,
    make_cosine_bands,
)
from feqt.simlab import (
    ScenarioSequence,
    boundary_violation_scenarios,
    default_truth,
    generate_dataset,
)
from feqt.simlab import run_study
from feqt.tost import (
    BootstrapConfig,
    Design,
    Metric,
    bootstrap_matched,
    ratio_bands,
    theta_bands,
)

from conftest import band_coverage, make_grouped, record_criterion
from geweke import init_from_prior, simulate_data


@pytest.mark.slow
def test_criterion_1_size_bound_on_the_band():
    """Boundary truth at every grid point keeps empirical size within the
    binomial allowance of the nominal level."""
    grid = equispaced_grid(25)
    truth = default_truth(grid, 10, 10)
    kb = make_cosine_bands(grid, BandKind.ADDITIVE)
    seq = boundary_violation_scenarios(truth, kb, Metric.THETA)
    on_band = ScenarioSequence(
        metric=seq.metric,
        truths=(seq.truths[0],),
        target_curves=seq.target_curves[[0]],
        boundary=True,
    )
    cfg = BootstrapConfig(500, 0.05, 0, Design.RANDOM_EFFECTS_MATCHED)
    res = run_study(on_band, 300, cfg, {Metric.THETA: kb}, seed=1)
    size = float(res.rates[0])
    bound = 0.05 + 3.0 * np.sqrt(0.05 * 0.95 / 300)
    ok = size <= bound and len(res.errors) == 0
    record_criterion(1, ok, f"size {size:.4f} <= bound {bound:.4f} (A=10, n=10, B=500, 300 reps)")
    assert ok


@pytest.mark.slow
def test_criterion_2_size_grows_toward_single_point_violation():
    """Size at the single-point boundary scenario is near the nominal level
    and strictly above the everywhere-on-the-band scenario."""
    grid = equispaced_grid(25)
    truth = default_truth(grid, 20, 20)
    kb = make_cosine_bands(grid, BandKind.ADDITIVE)
    seq = boundary_violation_scenarios(truth, kb, Metric.THETA)
    sub = ScenarioSequence(
        metric=seq.metric,
        truths=(seq.truths[0], seq.truths[8]),
        target_curves=seq.target_curves[[0, 8]],
        boundary=True,
    )
    cfg = BootstrapConfig(1000, 0.05, 0, Design.RANDOM_EFFECTS_MATCHED)
    res = run_study(sub, 200, cfg, {Metric.THETA: kb}, seed=5)
    scn1, scn9 = (float(r) for r in res.rates)
    ok = 0.02 <= scn9 <= 0.10 and scn9 > scn1 and len(res.errors) == 0
    record_criterion(
        2, ok, f"scenario-9 size {scn9:.3f} in [0.02, 0.10], scenario-1 size {scn1:.3f} below it"
    )
    assert ok


def test_criterion_3_prior_scale_calibration():
    """Calibrated prior scale lands near 0.1 and reproduces the target
    band-containment probability."""
    grid = equispaced_grid(25)
    kb = make_cosine_bands(grid, BandKind.ADDITIVE)
    s2 = calibrate_prior_scale(0.3, kb, 0.01, seed=2)
    prob = prior_equivalence_prob(0.3, 0.1, kb, accuracy=5e-4, seed=3).estimate
    ok = 0.08 <= s2 <= 0.12 and abs(prob - 0.01) <= 0.003
    record_criterion(3, ok, f"calibrated s2 {s2:.4f} in [0.08, 0.12]; prob at 0.1 = {prob:.5f}")
    assert ok


def test_criterion_4_extreme_tail_prior_probability():
    """Diffuse log-scale prior has vanishing band-containment mass."""
    grid = equispaced_grid(25)
    zb = make_cosine_bands(grid, BandKind.MULTIPLICATIVE)
    r = prior_equivalence_prob(0.1, 5.0, zb, accuracy=1.0, rel_accuracy=0.1, seed=4)
    p = r.estimate
    ok = 1e-8 <= p <= 2.5e-7 and p < 1e-6
    record_criterion(4, ok, f"tail probability {p:.3e} within factor 5 of 5e-8")
    assert ok


def test_criterion_5_bootstrap_matches_enumeration():
    """Matched-pairs endpoints at n=3, T=1 agree with the exhaustive
    enumeration of all 27 resamples."""
    grid = Grid([0.5])
    x1 = np.array([1.1, 2.3, 0.4])
    x2 = np.array([0.9, 2.0, 1.0])
    s = PairedFunctionalSample(grid, x1[:, None], x2[:, None])
    cfg = BootstrapConfig(100_000, alpha=0.05, seed=3)
    draws = bootstrap_matched(s, cfg)
    theta_hat = x1.mean() - x2.mean()
    lam_hat = np.var(x1, ddof=1) / np.var(x2, ddof=1)
    tb = theta_bands(draws.theta, theta_hat, 0.05)
    lb = ratio_bands(draws.lam, lam_hat, 0.05, Metric.LAMBDA)

    thetas, lams = [], []
    for idx in itertools.product(range(3), repeat=3):
        r1, r2 = x1[list(idx)], x2[list(idx)]
        v1, v2 = np.var(r1, ddof=1), np.var(r2, ddof=1)
        if v1 <= 0.0 or v2 <= 0.0:
            continue
        thetas.append(r1.mean() - r2.mean())
        lams.append(v1 / v2)
    thetas = np.array(thetas)
    inv = 1.0 / np.array(lams)

    def q(arr, p):
        k = min(max(int(np.ceil(p * arr.size)), 1), arr.size) - 1
        return np.sort(arr)[k]

    gaps = [
        abs(tb.upper_of_lower_ci[0] - (2 * theta_hat - q(thetas, 0.95))),
        abs(tb.lower_of_upper_ci[0] - (2 * theta_hat - q(thetas, 0.05))),
        abs(lb.upper_of_lower_ci[0] - lam_hat**2 * q(inv, 0.05)),
        abs(lb.lower_of_upper_ci[0] - lam_hat**2 * q(inv, 0.95)),
    ]
    ok = max(gaps) <= 0.01
    record_criterion(5, ok, f"max endpoint gap vs enumeration {max(gaps):.5f} <= 0.01 (B=1e5)")
    assert ok


def test_criterion_6_anova_matches_brute_force():
    """Variance decomposition on random unbalanced designs matches a
    double-loop oracle to 1e-9 relative."""
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(20):
        sizes = rng.integers(2, 8, size=rng.integers(2, 6)).tolist()
        s = make_grouped(rng, group_sizes=sizes, n_points=4)
        d = anova_decompose(s)
        y = s.stacked()
        labels = s.group_labels()
        A, N = s.n_groups, s.n_total
        sse = np.zeros_like(d.sse)
        ssa = np.zeros_like(d.ssa)
        for j in range(2):
            for t in range(y.shape[2]):
                vals = y[:, j, t]
                ybar = sum(vals) / N
                sse[j, t] = sum((v - ybar) ** 2 for v in vals)
                for i in range(A):
                    gv = [vals[k] for k in range(N) if labels[k] == i]
                    gbar = sum(gv) / len(gv)
                    ssa[j, t] += len(gv) * (gbar - ybar) ** 2
        n_star = (N - sum(n**2 for n in sizes) / N) / (A - 1)
        s2a = np.maximum((ssa / (A - 1) - sse / (N - 1)) / n_star, VARIANCE_FLOOR)
        for got, want in ((d.sse, sse), (d.ssa, ssa), (d.s2_alpha, s2a)):
            worst = max(worst, float(np.max(np.abs(got - want) / np.abs(want))))
        worst = max(worst, abs(d.n_star - n_star) / n_star)
    ok = worst <= 1e-9
    record_criterion(6, ok, f"worst relative error over 20 unbalanced designs {worst:.2e}")
    assert ok


@pytest.mark.slow
def test_criterion_7_mcmc_recovers_unit_ratios():
    """On data whose channels genuinely agree, the sampler converges and
    concentrates the ratio metrics around one."""
    rng = np.random.default_rng(7)
    grid = equispaced_grid(25)
    groups = []
    for _ in range(16):
        base = rng.normal(0, 0.3)
        alpha = base + rng.normal(0, 0.05, (2, 25))
        n = int(rng.integers(24, 33))
        y = alpha[None] + rng.normal(0, 0.5, (n, 2, 25))
        groups.append(PairedFunctionalSample(grid, y[:, 0], y[:, 1]))
    data = GroupedPairedSample(grid, tuple(groups))
    kb = make_cosine_bands(grid, BandKind.ADDITIVE)
    zb = make_cosine_bands(grid, BandKind.MULTIPLICATIVE)
    prior = PriorSpec(0.3, 0.0955, {Metric.THETA: kb, Metric.LAMBDA: zb, Metric.PSI: zb})
    d = run_mwg(data, prior, chains=3, iters=3000, burnin=500, thin=5, seed=11)
    rhat_max = max(float(v.max()) for v in d.rhat.values())
    lam_med = np.median(d.lam, axis=0)
    psi_med = np.median(d.psi, axis=0)
    medians_ok = bool(
        np.all((lam_med >= 0.8) & (lam_med <= 1.25))
        and np.all((psi_med >= 0.8) & (psi_med <= 1.25))
    )
    p_theta = posterior_equivalence_prob(d, {Metric.THETA: kb})["theta"]
    ok = rhat_max < 1.1 and medians_ok and p_theta >= 0.95
    record_criterion(
        7,
        ok,
        f"max R-hat {rhat_max:.3f} < 1.1; ratio medians in "
        f"[{min(lam_med.min(), psi_med.min()):.3f}, {max(lam_med.max(), psi_med.max()):.3f}]; "
        f"P[theta band] {p_theta:.3f}",
    )
    assert ok


@pytest.fixture(scope="module")
def prior_and_cycles():
    """Successive-conditional simulation (Geweke 2004): the monitored scalars
    of 2000 independent prior draws and of 2000 cycles that each draw data
    from the state and then run one posterior sweep, (cycles, scalar) each.
    The first 10 scalars are criterion 8's; the other eight are the lambda and
    psi indicators, each variance level's channel difference, the square of
    log psi_2, the spread of alpha - mu, the square of log lambda_2 and the
    square of log lambda_1 - log lambda_2."""
    grid = equispaced_grid(4)
    T, A, n = 4, 3, 4
    rng0 = np.random.default_rng(0)
    groups = [
        PairedFunctionalSample(grid, rng0.normal(size=(n, T)), rng0.normal(size=(n, T)))
        for _ in range(A)
    ]
    data = GroupedPairedSample(grid, tuple(groups))
    kb = make_cosine_bands(grid, BandKind.ADDITIVE)
    zb = make_cosine_bands(grid, BandKind.MULTIPLICATIVE)
    prior = PriorSpec(0.3, 0.1, {Metric.THETA: kb, Metric.LAMBDA: zb, Metric.PSI: zb})
    mu0 = np.zeros(T)
    tau_e = np.full(T, -1.0)
    tau_a = np.full(T, -1.5)

    def scalars(s):
        lv = s["logvars"]
        return np.array([
            s["mu"][0].mean(), s["mu"][1].mean(),
            lv[0].mean(), lv[1].mean(),
            s["rho"][0].mean(), s["rho"][1].mean(),
            (s["mu"][0] ** 2).mean(), s["alpha"].mean(),
            float(s["indicators"][0]), (lv[0, 0] ** 2).mean(),
            float(s["indicators"][1]), float(s["indicators"][2]),
            (lv[1, 0] - lv[1, 1]).mean(), (lv[0, 0] - lv[0, 1]).mean(),
            (lv[1, 1] ** 2).mean(), ((s["alpha"] - s["mu"]) ** 2).mean(),
            (lv[0, 1] ** 2).mean(), ((lv[0, 0] - lv[0, 1]) ** 2).mean(),
        ])

    chain0 = lambda s: {k: v[0] for k, v in s.items()}
    cycles = 2000
    marginal_sampler = MwgSampler(data, prior)
    marginal_sampler.fixed_hypers = True
    r1 = _chain_rng(1, 0)
    marginal = np.array(
        [scalars(chain0(init_from_prior(marginal_sampler, [r1], mu0, tau_e, tau_a)))
         for _ in range(cycles)]
    )

    cyc_sampler = MwgSampler(data, prior)
    cyc_sampler.fixed_hypers = True
    r2 = _chain_rng(2, 0)
    state = init_from_prior(cyc_sampler, [r2], mu0, tau_e, tau_a)
    successive = np.empty_like(marginal)
    for c in range(cycles):
        simulate_data(cyc_sampler, state, [r2])
        cyc_sampler.sweep(state, [r2])
        successive[c] = scalars(chain0(state))
    return marginal, successive


def _geweke_z(marginal, successive, n_batches=40):
    """Each scalar's z for equal means of the prior draws and the cycles,
    with a batch-means standard error for the autocorrelated cycles."""
    cycles = len(successive)
    b = cycles // n_batches
    means = successive[: n_batches * b].reshape(n_batches, b, -1).mean(axis=1)
    se2 = means.var(axis=0, ddof=1) / n_batches + marginal.var(axis=0, ddof=1) / cycles
    return (successive.mean(axis=0) - marginal.mean(axis=0)) / np.sqrt(se2)


@pytest.mark.slow
def test_criterion_8_prior_recovery_cycling(prior_and_cycles):
    """Successive-conditional simulation must leave the prior invariant:
    monitored scalar moments match independent prior draws."""
    marginal, successive = (x[:, :10] for x in prior_and_cycles)
    z = _geweke_z(marginal, successive)
    worst = float(np.abs(z).max())
    ok = worst < 4.0
    record_criterion(8, ok, f"max |z| over {marginal.shape[1]} monitored scalars = {worst:.2f} < 4")
    assert ok


@pytest.mark.slow
def test_prior_recovery_watches_every_move(prior_and_cycles):
    """Criterion 8's check over all 18 scalars, so that a psi- or
    lambda-indicator move made without its likelihood ratio, which criterion
    8 passes, fails."""
    z = _geweke_z(*prior_and_cycles)
    assert float(np.abs(z).max()) < 4.0, np.round(z, 2)


def test_criterion_9_simultaneous_band_coverage():
    """On their own input draws, simultaneous bands reach at least the
    nominal coverage for both levels by construction."""
    rng = np.random.default_rng(9)
    x = rng.normal(size=(500, 25)) * rng.uniform(0.5, 2.0, 25)
    achieved = {}
    for coverage in (0.90, 0.95):
        band = simultaneous_bands(x, coverage)
        achieved[coverage] = band_coverage(band, x)
    ok = all(achieved[c] >= c for c in achieved)
    record_criterion(
        9,
        ok,
        "coverage " + ", ".join(f"{a:.3f} >= {c:.2f}" for c, a in sorted(achieved.items())),
    )
    assert ok


@pytest.mark.slow
def test_criterion_10_cli_byte_determinism(tmp_path):
    """Every CLI mode, run twice with the same seed, emits identical bytes."""
    grid = equispaced_grid(5)
    truth = default_truth(grid, 4, 4)
    curve_path = tmp_path / "data.csv"
    write_curves(generate_dataset(truth, 3), curve_path)

    def tost_out(out):
        return ["tost", "--input", str(curve_path), "--seed", "2",
                "--replicates", "200", "--out", out]

    def bayes_out(out):
        return ["bayes", "--input", str(curve_path), "--seed", "2", "--scale", "0.1",
                "--chains", "2", "--iters", "1040", "--burnin", "40", "--thin", "10",
                "--out", out]

    def sim_out(out):
        return ["simulate", "--scenarios", "size-theta", "--replicates", "50",
                "--replicates-bootstrap", "150", "--groups", "3", "--group-size", "3",
                "--grid-size", "5", "--seed", "2", "--out", out]

    def bands_out(out):
        return ["bands", "--grid-size", "10", "--out", out]

    modes = {
        "tost": (tost_out, ("tost_report.json", "tost_report.csv", "tost_report.svg")),
        "bayes": (bayes_out, ("posterior_summary.json", "posterior_bands.svg")),
        "simulate": (sim_out, ("study_result.csv", "study_result.json")),
        "bands": (bands_out, ("bands.csv", "bands.json")),
    }
    identical = {}
    for name, (argv, files) in modes.items():
        outs = []
        for rep in ("a", "b"):
            out = tmp_path / name / rep
            code = run_cli(argv(str(out)))
            assert code in (0, 2), f"{name} exited {code}"
            outs.append(out)
        identical[name] = all(
            (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes() for f in files
        )

    # report mode re-renders the tost JSON; compare its two runs too
    report_src = tmp_path / "tost" / "a" / "tost_report.json"
    outs = []
    for rep in ("a", "b"):
        out = tmp_path / "report" / rep
        assert run_cli(["report", "--input", str(report_src), "--out", str(out)]) == 0
        outs.append(out)
    identical["report"] = all(
        (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
        for f in ("tost_report.csv", "tost_report.svg")
    )
    ok = all(identical.values())
    record_criterion(
        10, ok, "byte-identical reruns for modes: " + ", ".join(sorted(identical))
    )
    assert ok
