"""Synthetic data generation and the size/power simulation harness.

Data are drawn from the two-level hierarchy the estimators target: per-group
matched random-effect curve pairs around the channel means, then per-curve
error pairs. Along-domain correlation is deliberately present (the analysis
model factorizes over grid points), so studies run here also probe robustness
to that simplification.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .fdata import (
    BandKind,
    BandPair,
    Grid,
    GroupedPairedSample,
    PairedFunctionalSample,
    band_contains,
    freeze_arrays,
)
from .estimators import (
    DegenerateSpreadError,
    DegenerateVarianceError,
    _adjust,
    _decompose,
    _group_spread,
    _theta_hat,
)
from .tost import (
    BootstrapConfig,
    DegenerateReplicateError,
    Design,
    Metric,
    _scratch,
    _strictly_inside,
    _theta_draws,
    run_tost,
    theta_bands,
)
from .bayes.kernels import matern_corr, corr_cholesky

#: Failures on data too degenerate for the engine. A study records these per
#: replicate; any other exception is a bug and propagates.
_REPLICATE_ERRORS = (DegenerateVarianceError, DegenerateSpreadError, DegenerateReplicateError)

#: Scenarios per sequence.
_SCENARIOS = 9

#: Fewest replicates per scenario a study accepts.
MIN_STUDY_REPLICATES = 50


@dataclass(frozen=True, eq=False)
class TruthSpec:
    """Ground truth for one simulated population.

    ``mu``, ``s2_eps``, ``s2_alpha`` are (2, T) channel curves; ``rho_eps``
    and ``rho_alpha`` are the pointwise cross-channel correlations; the
    along-domain correlation of both levels is ``within_corr`` (T x T). Each
    array is a frozen copy of the one given.
    """

    grid: Grid
    mu: np.ndarray
    s2_eps: np.ndarray
    s2_alpha: np.ndarray
    rho_eps: np.ndarray
    rho_alpha: np.ndarray
    within_corr: np.ndarray
    group_sizes: np.ndarray
    _chol: np.ndarray = field(init=False, repr=False)  # of within_corr

    def __post_init__(self):
        T = len(self.grid)
        shapes = {"mu": (2, T), "s2_eps": (2, T), "s2_alpha": (2, T),
                  "rho_eps": (T,), "rho_alpha": (T,), "within_corr": (T, T)}
        for name, shape in shapes.items():
            arr = np.array(getattr(self, name), dtype=float)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            if name.startswith("rho_") and np.any(np.abs(arr) >= 1.0):
                raise ValueError(f"{name} must lie strictly inside (-1, 1)")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if np.any(self.s2_eps < 0.0) or np.any(self.s2_alpha < 0.0):
            raise ValueError("variance curves must be nonnegative")
        try:
            object.__setattr__(self, "_chol", corr_cholesky(self.within_corr))
        except np.linalg.LinAlgError:
            raise ValueError("within_corr is not positive semidefinite") from None
        sizes = np.asarray(self.group_sizes, dtype=float)
        if not np.all(np.isfinite(sizes) & (sizes == np.round(sizes))):
            raise ValueError(f"group_sizes must be whole numbers, got {sizes.tolist()}")
        if sizes.ndim != 1 or sizes.size < 2 or np.any(sizes < 1):
            raise ValueError("need at least 2 groups with positive sizes")
        sizes = sizes.astype(int)
        sizes.setflags(write=False)
        object.__setattr__(self, "group_sizes", sizes)


@dataclass(frozen=True, eq=False)
class ScenarioSequence:
    """Ordered truth variants moving one metric along a placement sequence."""

    metric: Metric
    truths: tuple
    target_curves: np.ndarray  # (count, T) true metric curves, scenario order
    boundary: bool

    def __post_init__(self):
        if len(self.truths) < 1:
            raise ValueError("sequence must contain at least one scenario")


@dataclass(frozen=True, eq=False)
class StudyResult:
    """Per-scenario rejection tallies for one method."""

    method: str
    metric: str
    scenarios: np.ndarray  # 1-based indices
    replicates: np.ndarray
    rejections: np.ndarray
    errors: tuple = ()

    def __post_init__(self):
        if np.any(self.rejections > self.replicates):
            raise ValueError("more rejections than replicates")
        freeze_arrays(self)

    @property
    def rates(self) -> np.ndarray:
        return self.rejections / np.maximum(self.replicates, 1)

    @property
    def standard_errors(self) -> np.ndarray:
        r = self.rates
        return np.sqrt(r * (1.0 - r) / np.maximum(self.replicates, 1))

    def to_csv_text(self) -> str:
        lines = ["scenario,replicates,rejections,rate,se"]
        rows = zip(self.scenarios, self.replicates, self.rejections, self.rates,
                   self.standard_errors)
        lines += [f"{s},{n},{k},{float(r)!r},{float(e)!r}" for s, n, k, r, e in rows]
        return "\n".join(lines) + "\n"

    def to_json_text(self) -> str:
        payload = {
            "method": self.method,
            "metric": self.metric,
            "scenarios": self.scenarios.tolist(),
            "replicates": self.replicates.tolist(),
            "rejections": self.rejections.tolist(),
            "rates": [float(x) for x in self.rates],
            "standard_errors": [float(x) for x in self.standard_errors],
            "errors": list(self.errors),
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def default_truth(grid: Grid, n_groups: int = 20, group_size: int = 20) -> TruthSpec:
    """Versioned default truth profile ("v1"): smooth common mean, equal
    channel variances, moderate cross-channel correlation, Matern along-domain
    correlation with range 0.1."""
    t = grid.points
    mu = 1.5 + 0.4 * np.sin(2.0 * np.pi * t) + 0.2 * t
    T = len(grid)
    return TruthSpec(
        grid=grid,
        mu=np.stack([mu, mu]),
        # levels chosen so the pointwise sampling sd of the mean difference is
        # small against the band half-width at the reference designs
        s2_eps=np.full((2, T), 0.05),
        s2_alpha=np.full((2, T), 0.004),
        rho_eps=np.full(T, 0.3),
        rho_alpha=np.full(T, 0.5),
        within_corr=matern_corr(0.1, grid),
        group_sizes=np.full(n_groups, group_size, dtype=int),
    )


def _correlated_pair(blocks, rho):
    """Zero-mean unit-variance curve pairs, ``shape + (2, T)``, from ``blocks``,
    three ``shape + (T,)`` arrays of along-domain-correlated standard normals.

    Each pair shares the first block, a common along-domain process weighted
    by sqrt(|rho(t)|), so the pointwise cross-channel correlation is exactly
    rho(t) and the construction stays positive semidefinite for any rho curve.
    """
    w, u1, u2 = blocks
    sr = np.sqrt(np.abs(rho))
    si = np.sqrt(1.0 - np.abs(rho))
    sign = np.where(rho >= 0.0, 1.0, -1.0)
    out = np.empty(w.shape[:-1] + (2, w.shape[-1]))
    for c, (weight, u) in enumerate(((sr, u1), (sign * sr, u2))):
        np.multiply(weight, w, out=out[..., c, :])
        out[..., c, :] += si * u
    return out


def generate_dataset(truth: TruthSpec, seed) -> GroupedPairedSample:
    """Simulate a grouped matched-pair dataset from ``truth``.

    ``seed`` may be an int or a ``numpy.random.SeedSequence``; the draw is
    deterministic in it (see :func:`_draw_values`).
    """
    return _dataset(truth, _draw_values(truth, [seed])[0])


def _dataset(truth: TruthSpec, y: np.ndarray) -> GroupedPairedSample:
    """The grouped sample of the (N, 2, T) pairs ``y``, in ``truth``'s groups."""
    ends = np.cumsum(truth.group_sizes).tolist()
    groups = tuple(
        PairedFunctionalSample(truth.grid, y[e - n : e, 0], y[e - n : e, 1])
        for n, e in zip(truth.group_sizes.tolist(), ends)
    )
    return GroupedPairedSample(truth.grid, groups)


def _draw_values(truth: TruthSpec, seeds) -> np.ndarray:
    """The pairs of one dataset per seed: (len(seeds), N, 2, T), each
    group's rows contiguous.

    Each dataset draws from its own ``default_rng(seed)``, and the draws of
    one do not depend on the others in the batch. One ``standard_normal``
    call draws every value of a dataset; group by group it holds the
    effect's three (T,) blocks, then the residuals' three (n, T) blocks.
    Each block is correlated along the domain by its own product with the
    Cholesky factor, the effects' products in one call and each group's
    residual products in one, over the batch: a product's rounding can
    depend on its row count, so one big product over all the rows would not
    give the same bits.
    """
    chol_t = truth._chol.T
    T = len(truth.grid)
    sizes = truth.group_sizes
    ends = np.cumsum(sizes)
    k, N = len(seeds), int(ends[-1])
    # the normals and their correlated blocks, in this thread's buffers
    z = _scratch("normals", (k, 3 * T * (sizes.size + N)))
    for row, seed in zip(z, seeds):
        np.random.default_rng(seed).standard_normal(out=row)
    start = 3 * T * (np.cumsum(sizes + 1) - (sizes + 1))  # of each group's values in z
    effect = z[:, start[:, None] + np.arange(3 * T)].reshape(k, -1, 3, 1, T)
    w = np.matmul(effect, chol_t)[..., 0, :]  # (k, A, 3, T)
    u = _scratch("blocks", (3, k, N, T))
    for a, n, e in zip((start + 3 * T).tolist(), sizes.tolist(), ends.tolist()):
        resid = z[:, a : a + 3 * n * T].reshape(k, 3, n, T)
        np.matmul(resid, chol_t, out=u[:, :, e - n : e].swapaxes(0, 1))
    alpha = truth.mu + np.sqrt(truth.s2_alpha) * _correlated_pair(np.moveaxis(w, -2, 0),
                                                                 truth.rho_alpha)
    y = _correlated_pair(u, truth.rho_eps)
    y *= np.sqrt(truth.s2_eps)
    for i, (n, e) in enumerate(zip(sizes.tolist(), ends.tolist())):
        y[:, e - n : e] += alpha[:, i, None]
    return y


#: The truth field each metric reads, channel 1 against channel 2.
_METRIC_FIELDS = {Metric.THETA: "mu", Metric.LAMBDA: "s2_eps", Metric.PSI: "s2_alpha"}


def _apply_metric_curve(base: TruthSpec, metric: Metric, target: np.ndarray) -> TruthSpec:
    """Return a copy of ``base`` whose ``metric`` curve equals ``target``,
    adjusting only channel 2: channel 1 minus the target for an additive
    metric, channel 1 divided by it for a multiplicative one."""
    name = _METRIC_FIELDS[metric]
    curves = getattr(base, name).copy()
    if metric.band_kind is BandKind.ADDITIVE:
        curves[1] = curves[0] - target
    else:
        curves[1] = curves[0] / target
    return replace(base, **{name: curves})


def _scenarios(
    base: TruthSpec, bands: BandPair, metric: Metric, weights, boundary: bool
) -> ScenarioSequence:
    """The sequence whose scenario k has the target curve at fraction
    ``weights[k - 1]`` of the way from the band midline to the upper band, on
    the band's working scale."""
    metric.check_bands(bands)
    mid = bands.to_working(bands.midline)
    targets = bands.from_working(mid + weights * (bands.to_working(bands.upper) - mid))
    for c in targets:
        assert band_contains(bands, c) is not boundary
    truths = tuple(_apply_metric_curve(base, metric, c) for c in targets)
    return ScenarioSequence(metric=metric, truths=truths, target_curves=targets, boundary=boundary)


#: Scenario numbers 1..9 as a column, one weight row each.
_K = np.arange(1, _SCENARIOS + 1)[:, None]


def boundary_violation_scenarios(
    base: TruthSpec, bands: BandPair, metric: Metric
) -> ScenarioSequence:
    """Scenarios violating equivalence at exactly one grid point.

    Scenario 1 sits on the upper band everywhere; scenario k of 9 contracts
    the rest of the curve toward the band midline by (k - 1) / 8 while the
    value at the first grid point stays pinned to the band. Every scenario
    fails the (strict) band containment, so rejection rates estimate test size.
    """
    weights = np.repeat(1.0 - (_K - 1) / (_SCENARIOS - 1), len(base.grid), axis=1)
    weights[:, 0] = 1.0
    return _scenarios(base, bands, metric, weights, boundary=True)


def interior_scenarios(base: TruthSpec, bands: BandPair, metric: Metric) -> ScenarioSequence:
    """Scenarios strictly inside the bands, approaching the midline.

    Scenario 1 runs at 0.95 of the half-width from the midline; scenario 9 is
    the midline itself. Rejection rates estimate power.
    """
    weights = 0.95 * (_SCENARIOS - _K) / (_SCENARIOS - 1)
    return _scenarios(base, bands, metric, weights, boundary=False)


def _frequentist_reject(data, cfg: BootstrapConfig, eq_bands: dict, metric: Metric) -> bool:
    report = run_tost(data, cfg, eq_bands)
    return report.results[metric].reject


#: Elements in the largest array a batch of a theta study allocates afresh
#: (:func:`run_study`): 128 KiB of float64, glibc's default mmap threshold.
#: Freed arrays under it stay on the heap for the next batch; larger ones
#: can go back to the OS and be faulted in again, batch after batch.
_BATCH_ELEMS = 16_384


def _theta_rejects(y: np.ndarray, sizes: np.ndarray, cfgs: list, eq_band: BandPair):
    """The theta TOSTs of the datasets ``y``, (k, N, 2, T) in groups of
    ``sizes``, each bootstrapped by its config of ``cfgs``, against the
    additive band ``eq_band``: per dataset, whether it rejects and whether
    it was decided.

    Every step is :func:`run_tost`'s on one dataset, with the same bits,
    taken over the batch axis: the ANOVA, theta_hat and the adjusted random
    effects; then each dataset's theta draws; then the bands and the
    decisions. A dataset whose channel-2 SSE or group-mean spread is zero
    somewhere is left undecided, for :func:`run_tost` to refuse alone.
    """
    d = _decompose(y, sizes)
    sd = _group_spread(d)
    decided = ~(np.any(d.sse[:, 1] <= 0.0, axis=-1) | np.any(sd <= 0.0, axis=(-2, -1)))
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero spread: undecided datasets only
        a_hat = _adjust(d, sd)
        effects = a_hat[..., 0, :] - a_hat[..., 1, :]
    # the residuals' channel differences, group by group
    resid = np.empty(y.shape[:2] + y.shape[3:])
    for i, (n, e) in enumerate(zip(sizes.tolist(), np.cumsum(sizes).tolist())):
        dev = y[:, e - n : e] - d.mean_by_group[:, i, None]
        np.subtract(dev[..., 0, :], dev[..., 1, :], out=resid[:, e - n : e])
    weights = 1.0 / sizes.astype(float).repeat(sizes)
    draws = np.zeros((y.shape[0], cfgs[0].replicates, y.shape[-1]))
    for j in np.flatnonzero(decided):
        draws[j] = _theta_draws(cfgs[j], effects[j], resid[j], weights)
    bands = theta_bands(draws, _theta_hat(d), cfgs[0].alpha)
    return np.all(_strictly_inside(bands, eq_band), axis=-1), decided


def run_study(
    seq: ScenarioSequence,
    replicates: int,
    cfg: BootstrapConfig,
    eq_bands: dict,
    seed: int = 0,
) -> StudyResult:
    """Monte Carlo rejection-rate study over a scenario sequence.

    Only the varied metric's rejection is tallied: the other metrics sit at
    their null values and would dilute size/power estimates. Per-replicate
    randomness is keyed by (seed, scenario, replicate), so any subset of the
    study can be reproduced in isolation. Replicates whose data are too
    degenerate for the engine (a zero variance or spread estimate, the redraw
    cap) are recorded and excluded from the denominator rather than aborting
    the study; any other exception is a bug and propagates. ``eq_bands``
    without bands of the sequence's metric, or with bands of the wrong kind
    for it, is refused before any draw.

    A scenario's replicates are drawn and decided in batches, a number fixed
    by the dataset and bootstrap sizes, under the same keys and with the same
    bits as one :func:`run_tost` per replicate. With the random-effects
    design and a band map of theta alone, the one the CLI passes for a theta
    sequence, a batch's datasets are decomposed, bootstrapped and decided
    together (:func:`_theta_rejects`). Every other replicate, those of a
    lambda or psi sequence or a band map of more metrics, and a degenerate
    one, is decided alone by :func:`run_tost`.
    """
    if replicates < MIN_STUDY_REPLICATES:
        raise ValueError(f"need at least {MIN_STUDY_REPLICATES} replicates")
    metric = seq.metric
    if metric not in eq_bands:
        raise ValueError(f"eq_bands holds no bands of the sequence's metric {metric.value}")
    metric.check_bands(eq_bands[metric])
    batched = eq_bands.keys() == {Metric.THETA} and cfg.design is Design.RANDOM_EFFECTS_MATCHED
    n = len(seq.truths)
    counts = np.zeros(n, dtype=int)
    done = np.zeros(n, dtype=int)
    errors = []
    for s, truth in enumerate(seq.truths, start=1):
        sizes, T = truth.group_sizes, len(truth.grid)
        N = int(sizes.sum())
        # the largest array a dataset adds to a batch: its pairs or its theta
        # draws (the normals and their blocks are in this thread's buffers)
        step = max(1, _BATCH_ELEMS // max(2 * N * T, cfg.replicates * T))
        for lo in range(0, replicates, step):
            keys = [np.random.SeedSequence(entropy=seed, spawn_key=(s, r))
                    for r in range(lo, min(lo + step, replicates))]
            y = _draw_values(truth, keys)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # cfg warned of a low B when it was built
                cfgs = [BootstrapConfig(cfg.replicates, cfg.alpha,
                                        int(ss.generate_state(1)[0] >> 1), cfg.design)
                        for ss in keys]
            rejects = decided = np.zeros(len(keys), dtype=bool)
            if batched and sizes.min() >= 2:  # else run_tost refuses the groups of one pair
                rejects, decided = _theta_rejects(y, sizes, cfgs, eq_bands[Metric.THETA])
            for r, values, rep_cfg, reject, known in zip(
                range(lo, lo + len(keys)), y, cfgs, rejects.tolist(), decided.tolist()
            ):
                if not known:
                    try:
                        reject = _frequentist_reject(_dataset(truth, values), rep_cfg,
                                                     eq_bands, metric)
                    except _REPLICATE_ERRORS as exc:
                        errors.append((s, r, f"{type(exc).__name__}: {exc}"))
                        continue
                done[s - 1] += 1
                counts[s - 1] += int(reject)
    return StudyResult(
        method="frequentist",
        metric=metric.value,
        scenarios=np.arange(1, n + 1),
        replicates=done,
        rejections=counts,
        errors=tuple(errors),
    )
