"""Frequentist engine: bootstrap resampling under three sampling designs,
one-sided pointwise confidence bands, and the Two One-Sided Test decision.

The overall test is an Intersection-Union Test: each pointwise one-sided test
runs at level alpha, and nonequivalence is rejected only if every one of them
rejects, which bounds the overall size by alpha.

Randomness contract: replicate r draws only from a counter-based substream
keyed by (seed, r), so results do not depend on execution order and replicates
can run concurrently.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .estimators import (
    VARIANCE_FLOOR,
    adjusted_random_effects,
    anova_decompose,
    estimate_metrics_grouped,
    estimate_metrics_paired,
    MetricEstimates,
)
from .fdata import (
    BandKind,
    BandPair,
    FunctionalSample,
    Grid,
    GroupedPairedSample,
    PairedFunctionalSample,
)

_SEED_MASK = 0xFFFFFFFFFFFFFFFF

#: Maximum redraw attempts for a degenerate bootstrap replicate.
REDRAW_CAP = 100

#: Elements per computation chunk when vectorizing over replicates.
_CHUNK_ELEMS = 8_000_000


class Design(enum.Enum):
    INDEPENDENT_IID = "independent_iid"
    MATCHED_PAIRS = "matched_pairs"
    RANDOM_EFFECTS_MATCHED = "random_effects_matched"


class Metric(enum.Enum):
    THETA = "theta"
    LAMBDA = "lambda"
    PSI = "psi"


class DegenerateReplicateError(RuntimeError):
    """A replicate stayed degenerate after the redraw cap was exhausted."""


@dataclass(frozen=True)
class BootstrapConfig:
    replicates: int
    alpha: float = 0.05
    seed: int = 0
    design: Design = Design.MATCHED_PAIRS

    def __post_init__(self):
        if self.replicates < 100:
            raise ValueError("at least 100 bootstrap replicates are required")
        if self.replicates < 1000:
            warnings.warn(
                f"B={self.replicates} bootstrap replicates is low; "
                "1000 or more is recommended",
                stacklevel=2,
            )
        if not 0.0 < self.alpha < 0.5:
            raise ValueError("alpha must lie in (0, 0.5)")


@dataclass(frozen=True)
class ReplicateDraws:
    """Bootstrap draws of the metric estimates, one row per replicate."""

    theta: np.ndarray  # (B, T)
    lam: np.ndarray  # (B, T), strictly positive
    psi: Optional[np.ndarray] = None  # (B, T), hierarchical design only


@dataclass(frozen=True)
class OneSidedBands:
    """Finite endpoints of the two one-sided pointwise confidence regions.

    ``lower_of_upper_ci`` is the finite (lower) endpoint of the region
    ``C^u = [2*est - q_alpha, inf)`` and ``upper_of_lower_ci`` the finite
    (upper) endpoint of ``C^l = (-inf, 2*est - q_{1-alpha}]``.  Their overlap
    ``[upper_of_lower_ci, lower_of_upper_ci]`` is the shaded region of the
    graphical test: nonequivalence is rejected iff that region lies strictly
    inside the equivalence bands at every grid point.
    """

    metric: Metric
    lower_of_upper_ci: np.ndarray
    upper_of_lower_ci: np.ndarray


@dataclass(frozen=True)
class MetricResult:
    metric: Metric
    estimate: np.ndarray
    bands: OneSidedBands
    eq_band: BandPair
    violations: np.ndarray  # grid indices where a one-sided test fails
    reject: bool


class TostDecision(enum.Enum):
    REJECT_NONEQUIVALENCE = "reject_nonequivalence"
    FAIL_TO_REJECT = "fail_to_reject"


@dataclass(frozen=True)
class TostReport:
    grid: Grid
    results: dict  # Metric -> MetricResult
    decision: TostDecision
    lambda_noninferiority: Optional[TostDecision] = None
    alpha: float = 0.05
    replicates: int = 0


def empirical_quantile(x: np.ndarray, p: float) -> np.ndarray:
    """Inverse-CDF empirical quantile with index ceil(p*B), no interpolation.

    Operates along axis 0; reproducible across implementations because no
    interpolation scheme is involved.
    """
    x = np.asarray(x)
    b = x.shape[0]
    k = min(max(int(np.ceil(p * b)), 1), b) - 1
    return np.sort(x, axis=0)[k]


def replicate_rng(seed: int, r: int) -> np.random.Generator:
    """Counter-based generator for replicate ``r`` of a run keyed by ``seed``."""
    key = np.array([seed & _SEED_MASK, r], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _chunks(total: int, per_replicate_elems: int):
    step = max(1, _CHUNK_ELEMS // max(per_replicate_elems, 1))
    for start in range(0, total, step):
        yield start, min(start + step, total)


def _resolve_replicates(cfg: BootstrapConfig, draw_one, compute_batch, per_rep_elems):
    """Run B replicates with per-replicate redraw of degenerate draws.

    ``draw_one(rng)`` returns a tuple of index arrays for one replicate;
    ``compute_batch(idx_tuple)`` maps stacked index arrays to a tuple of
    (stats..., ok) where ok flags replicates whose statistics are usable.
    """
    B = cfg.replicates
    rngs = [replicate_rng(cfg.seed, r) for r in range(B)]
    drawn = [draw_one(rng) for rng in rngs]
    n_idx = len(drawn[0])
    stats_out = None
    active = np.arange(B)
    attempts = np.zeros(B, dtype=int)

    while active.size:
        ok = np.empty(active.size, dtype=bool)
        for lo, hi in _chunks(active.size, per_rep_elems):
            idx = tuple(
                np.stack([drawn[r][k] for r in active[lo:hi]]) for k in range(n_idx)
            )
            *stats, good = compute_batch(idx)
            if stats_out is None:
                stats_out = tuple(
                    np.empty((B,) + s.shape[1:], dtype=float) for s in stats
                )
            for out, s in zip(stats_out, stats):
                out[active[lo:hi]] = s
            ok[lo:hi] = good
        bad = active[~ok]
        attempts[bad] += 1
        if np.any(attempts[bad] > REDRAW_CAP):
            r = int(bad[np.argmax(attempts[bad] > REDRAW_CAP)])
            raise DegenerateReplicateError(
                f"replicate {r} stayed degenerate after {REDRAW_CAP} redraws"
            )
        for r in bad:
            drawn[r] = draw_one(rngs[r])
        active = bad
    return stats_out


def bootstrap_independent(
    s1: FunctionalSample, s2: FunctionalSample, cfg: BootstrapConfig
) -> ReplicateDraws:
    """Two-sample bootstrap: resample curves with replacement within each group."""
    if s1.n < 2 or s2.n < 2:
        raise ValueError("both groups need at least 2 curves")
    if s1.grid != s2.grid:
        raise ValueError("groups must share a grid")
    n1, n2, T = s1.n, s2.n, len(s1.grid)
    c1, c2 = s1.curves, s2.curves

    def draw_one(rng):
        return rng.integers(0, n1, n1), rng.integers(0, n2, n2)

    def compute(idx):
        i1, i2 = idx  # (m, n1), (m, n2)
        g1 = c1[i1]  # (m, n1, T)
        g2 = c2[i2]
        theta = g1.mean(axis=1) - g2.mean(axis=1)
        v1 = g1.var(axis=1, ddof=1)
        v2 = g2.var(axis=1, ddof=1)
        ok = np.all(v1 > 0.0, axis=1) & np.all(v2 > 0.0, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            lam = np.where(v2 > 0.0, v1 / np.where(v2 > 0.0, v2, 1.0), np.nan)
        return theta, lam, ok

    theta, lam = _resolve_replicates(cfg, draw_one, compute, (n1 + n2) * T)
    return ReplicateDraws(theta=theta, lam=lam)


def bootstrap_matched(s: PairedFunctionalSample, cfg: BootstrapConfig) -> ReplicateDraws:
    """Matched-pairs bootstrap: resample pair rows jointly, preserving
    within-pair dependence."""
    if s.n < 2:
        raise ValueError("need at least 2 pairs")
    n, T = s.n, len(s.grid)
    pairs = s.stacked()  # (n, 2, T)

    def draw_one(rng):
        return (rng.integers(0, n, n),)

    def compute(idx):
        (i,) = idx
        g = pairs[i]  # (m, n, 2, T)
        theta = g[:, :, 0, :].mean(axis=1) - g[:, :, 1, :].mean(axis=1)
        v1 = g[:, :, 0, :].var(axis=1, ddof=1)
        v2 = g[:, :, 1, :].var(axis=1, ddof=1)
        ok = np.all(v1 > 0.0, axis=1) & np.all(v2 > 0.0, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            lam = np.where(v2 > 0.0, v1 / np.where(v2 > 0.0, v2, 1.0), np.nan)
        return theta, lam, ok

    theta, lam = _resolve_replicates(cfg, draw_one, compute, n * 2 * T)
    return ReplicateDraws(theta=theta, lam=lam)


def bootstrap_random_effects(
    g: GroupedPairedSample, cfg: BootstrapConfig
) -> ReplicateDraws:
    """Hierarchical bootstrap for paired random effects.

    Per replicate: resample A adjusted random-effect pairs (the first draw is
    assigned n_1 curves, the second n_2, ...), draw residual pairs from the
    pooled N-pair reservoir, reconstruct curves, and recompute the three
    metric estimates from the ANOVA quantities. Pooling the reservoir ignores
    the within-group residual covariance, as in the source procedure.
    """
    if np.any(g.group_sizes < 2):
        raise ValueError("every group needs at least 2 pairs")
    A, N, T = g.n_groups, g.n_total, len(g.grid)
    sizes = g.group_sizes
    decomp = anova_decompose(g)
    a_hat = adjusted_random_effects(decomp)  # (A, 2, T)
    reservoir = g.stacked() - decomp.mean_by_group[g.group_labels()]  # (N, 2, T)
    slot_group = g.group_labels()  # group index of each curve slot
    sizes_f = sizes.astype(float)
    n_star = decomp.n_star
    # reduceat boundaries for per-group means over the slot axis
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])

    def draw_one(rng):
        return rng.integers(0, A, A), rng.integers(0, N, N)

    def compute(idx):
        ai, ri = idx  # (m, A), (m, N)
        effects = a_hat[ai]  # (m, A, 2, T)
        y = effects[:, slot_group] + reservoir[ri]  # (m, N, 2, T)
        ybar = y.mean(axis=1)  # (m, 2, T)
        group_means = np.add.reduceat(y, offsets, axis=1) / sizes_f[:, None, None]
        sse = ((y - ybar[:, None]) ** 2).sum(axis=1)  # (m, 2, T)
        dev = group_means - ybar[:, None]  # (m, A, 2, T)
        ssa = (sizes_f[:, None, None] * dev**2).sum(axis=1)
        s2a = (ssa / (A - 1) - sse / (N - 1)) / n_star
        s2a = np.maximum(s2a, VARIANCE_FLOOR)
        theta = (group_means[:, :, 0, :] - group_means[:, :, 1, :]).mean(axis=1)
        ok = np.all(sse[:, 0] > 0.0, axis=1) & np.all(sse[:, 1] > 0.0, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            lam = np.where(sse[:, 1] > 0.0, sse[:, 0] / np.where(sse[:, 1] > 0.0, sse[:, 1], 1.0), np.nan)
        psi = s2a[:, 0] / s2a[:, 1]
        return theta, lam, psi, ok

    theta, lam, psi = _resolve_replicates(cfg, draw_one, compute, 2 * N * 2 * T)
    return ReplicateDraws(theta=theta, lam=lam, psi=psi)


def theta_bands(draws: np.ndarray, theta_hat: np.ndarray, alpha: float) -> OneSidedBands:
    """Basic (bias-correcting percentile) one-sided intervals for the mean
    difference: endpoints ``2*est - q_alpha`` and ``2*est - q_{1-alpha}``."""
    draws = np.atleast_2d(np.asarray(draws, dtype=float))
    theta_hat = np.asarray(theta_hat, dtype=float)
    return OneSidedBands(
        metric=Metric.THETA,
        lower_of_upper_ci=2.0 * theta_hat - empirical_quantile(draws, alpha),
        upper_of_lower_ci=2.0 * theta_hat - empirical_quantile(draws, 1.0 - alpha),
    )


def ratio_bands(
    draws: np.ndarray, ratio_hat: np.ndarray, alpha: float, metric: Metric
) -> OneSidedBands:
    """Log-stabilized one-sided intervals for a variance-ratio metric:
    endpoints ``est^2 * q_{1-alpha}[1/draws]`` and ``est^2 * q_alpha[1/draws]``."""
    draws = np.atleast_2d(np.asarray(draws, dtype=float))
    ratio_hat = np.asarray(ratio_hat, dtype=float)
    if np.any(draws <= 0.0) or np.any(ratio_hat <= 0.0):
        raise ValueError("ratio draws and estimates must be strictly positive")
    inv = 1.0 / draws
    sq = ratio_hat**2
    return OneSidedBands(
        metric=metric,
        lower_of_upper_ci=sq * empirical_quantile(inv, 1.0 - alpha),
        upper_of_lower_ci=sq * empirical_quantile(inv, alpha),
    )


_RATIO_METRICS = (Metric.LAMBDA, Metric.PSI)


def _decide_metric(
    bands: OneSidedBands, eq_band: BandPair, estimate: np.ndarray
) -> MetricResult:
    if bands.metric in _RATIO_METRICS:
        if eq_band.kind is not BandKind.MULTIPLICATIVE:
            raise ValueError(f"{bands.metric.value} requires multiplicative bands")
    elif eq_band.kind is not BandKind.ADDITIVE:
        raise ValueError("theta requires additive bands")
    # The shaded region [upper_of_lower_ci, lower_of_upper_ci] must lie
    # strictly inside the open band interval at every grid point.
    reject_lower = eq_band.lower < bands.upper_of_lower_ci
    reject_upper = eq_band.upper > bands.lower_of_upper_ci
    violations = np.flatnonzero(~(reject_lower & reject_upper))
    return MetricResult(
        metric=bands.metric,
        estimate=estimate,
        bands=bands,
        eq_band=eq_band,
        violations=violations,
        reject=violations.size == 0,
    )


def tost_decide(
    bands: dict,
    eq_bands: dict,
    estimates: dict,
    *,
    alpha: float = 0.05,
    replicates: int = 0,
) -> TostReport:
    """Combine per-metric one-sided bands into the IUT decision.

    ``bands``/``eq_bands``/``estimates`` map :class:`Metric` to
    :class:`OneSidedBands`, :class:`BandPair`, and estimate vectors. Also
    reports a noninferiority decision for the error-variance ratio (upper
    band only), which is the relevant one-sided test when lower variance is
    strictly preferred.
    """
    grid = next(iter(eq_bands.values())).grid
    results = {}
    for metric, osb in bands.items():
        eq = eq_bands[metric]
        if eq.grid != grid:
            raise ValueError("equivalence bands must share one grid")
        results[metric] = _decide_metric(osb, eq, estimates[metric])
    overall = all(r.reject for r in results.values())
    noninf = None
    if Metric.LAMBDA in results:
        r = results[Metric.LAMBDA]
        ok = np.all(r.eq_band.upper > r.bands.lower_of_upper_ci)
        noninf = TostDecision.REJECT_NONEQUIVALENCE if ok else TostDecision.FAIL_TO_REJECT
    return TostReport(
        grid=grid,
        results=results,
        decision=(
            TostDecision.REJECT_NONEQUIVALENCE if overall else TostDecision.FAIL_TO_REJECT
        ),
        lambda_noninferiority=noninf,
        alpha=alpha,
        replicates=replicates,
    )


def run_tost(data, cfg: BootstrapConfig, eq_bands: dict) -> TostReport:
    """End-to-end TOST: estimate, bootstrap per the configured design, decide.

    ``data`` is a ``(FunctionalSample, FunctionalSample)`` tuple for the
    independent design, a :class:`PairedFunctionalSample` for matched pairs,
    or a :class:`GroupedPairedSample` for the hierarchical design.
    """
    if cfg.design is Design.INDEPENDENT_IID:
        s1, s2 = data
        v2 = s1.curves.var(axis=0, ddof=1), s2.curves.var(axis=0, ddof=1)
        if np.any(v2[1] <= 0.0):
            raise ValueError("degenerate variance in group 2")
        est = MetricEstimates(
            theta_hat=s1.curves.mean(axis=0) - s2.curves.mean(axis=0),
            lambda_hat=v2[0] / v2[1],
        )
        draws = bootstrap_independent(s1, s2, cfg)
    elif cfg.design is Design.MATCHED_PAIRS:
        est = estimate_metrics_paired(data)
        draws = bootstrap_matched(data, cfg)
    elif cfg.design is Design.RANDOM_EFFECTS_MATCHED:
        est = estimate_metrics_grouped(data)
        draws = bootstrap_random_effects(data, cfg)
    else:
        raise ValueError(f"unknown design {cfg.design}")

    bands = {}
    estimates = {}
    if Metric.THETA in eq_bands:
        bands[Metric.THETA] = theta_bands(draws.theta, est.theta_hat, cfg.alpha)
        estimates[Metric.THETA] = est.theta_hat
    if Metric.LAMBDA in eq_bands:
        bands[Metric.LAMBDA] = ratio_bands(
            draws.lam, est.lambda_hat, cfg.alpha, Metric.LAMBDA
        )
        estimates[Metric.LAMBDA] = est.lambda_hat
    if Metric.PSI in eq_bands:
        if draws.psi is None:
            raise ValueError("psi requires the random-effects design")
        bands[Metric.PSI] = ratio_bands(draws.psi, est.psi_hat, cfg.alpha, Metric.PSI)
        estimates[Metric.PSI] = est.psi_hat
    return tost_decide(
        bands, eq_bands, estimates, alpha=cfg.alpha, replicates=cfg.replicates
    )


def tost_scalar(x1, x2, bounds, cfg: BootstrapConfig) -> TostReport:
    """Scalar TOST as a grid-of-size-1 instance of the functional pipeline.

    ``bounds`` is the (lower, upper) additive equivalence interval for the
    difference of means.
    """
    x1 = np.asarray(x1, dtype=float).reshape(-1, 1)
    x2 = np.asarray(x2, dtype=float).reshape(-1, 1)
    grid = Grid([0.0])
    lo, hi = bounds
    band = BandPair(grid, [lo], [hi], BandKind.ADDITIVE)
    if cfg.design is Design.MATCHED_PAIRS:
        data = PairedFunctionalSample(grid, x1, x2)
    else:
        cfg = BootstrapConfig(cfg.replicates, cfg.alpha, cfg.seed, Design.INDEPENDENT_IID)
        data = (FunctionalSample(grid, x1), FunctionalSample(grid, x2))
    return run_tost(data, cfg, {Metric.THETA: band})
