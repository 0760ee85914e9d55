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
from .estimators import DegenerateSpreadError, DegenerateVarianceError
from .tost import BootstrapConfig, DegenerateReplicateError, Metric, run_tost
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
    out[..., 0, :] = sr * w + si * u1
    out[..., 1, :] = sign * sr * w + si * u2
    return out


def generate_dataset(truth: TruthSpec, seed) -> GroupedPairedSample:
    """Simulate a grouped matched-pair dataset from ``truth``.

    ``seed`` may be an int or a ``numpy.random.SeedSequence``; the draw is
    deterministic in it. One ``standard_normal`` call draws every value;
    group by group it holds the effect's three (T,) blocks, then the
    residuals' three (n, T) blocks. Each block is correlated along the domain
    by its own product with the Cholesky factor, the products of one shape
    stacked into one call: a product's rounding can depend on its row count,
    so one big product over all the rows would not give the same bits.
    """
    rng = np.random.default_rng(seed)
    chol_t = truth._chol.T
    sd_alpha = np.sqrt(truth.s2_alpha)
    sd_eps = np.sqrt(truth.s2_eps)
    T = len(truth.grid)
    sizes = truth.group_sizes
    ends = np.cumsum(sizes)
    N = int(ends[-1])
    z = rng.standard_normal(3 * T * (sizes.size + N))
    start = 3 * T * (np.cumsum(sizes + 1) - (sizes + 1))  # of each group's values in z
    effect = z[start[:, None] + np.arange(3 * T)].reshape(-1, 3, 1, T)
    w = np.matmul(effect, chol_t)[..., 0, :]  # (A, 3, T)
    u = np.empty((3, N, T))
    for n in np.unique(sizes).tolist():
        g = np.flatnonzero(sizes == n)
        resid = z[(start[g] + 3 * T)[:, None] + np.arange(3 * n * T)].reshape(-1, 3, n, T)
        rows = ((ends[g] - n)[:, None] + np.arange(n)).ravel()
        u[:, rows] = np.matmul(resid, chol_t).transpose(1, 0, 2, 3).reshape(3, -1, T)
    alpha = truth.mu + sd_alpha * _correlated_pair(np.moveaxis(w, 1, 0), truth.rho_alpha)
    y = alpha.repeat(sizes, axis=0) + sd_eps * _correlated_pair(u, truth.rho_eps)
    groups = tuple(
        PairedFunctionalSample(truth.grid, y[e - n : e, 0], y[e - n : e, 1])
        for n, e in zip(sizes.tolist(), ends.tolist())
    )
    return GroupedPairedSample(truth.grid, groups)


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
    the study; any other exception is a bug and propagates.
    """
    if replicates < MIN_STUDY_REPLICATES:
        raise ValueError(f"need at least {MIN_STUDY_REPLICATES} replicates")
    metric = seq.metric
    n = len(seq.truths)
    counts = np.zeros(n, dtype=int)
    done = np.zeros(n, dtype=int)
    errors = []
    for s, truth in enumerate(seq.truths, start=1):
        for r in range(replicates):
            ss = np.random.SeedSequence(entropy=seed, spawn_key=(s, r))
            data = generate_dataset(truth, ss)
            rep_seed = int(ss.generate_state(1)[0] >> 1)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # cfg warned of a low B when it was built
                rep_cfg = BootstrapConfig(cfg.replicates, cfg.alpha, rep_seed, cfg.design)
            try:
                reject = _frequentist_reject(data, rep_cfg, eq_bands, metric)
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
