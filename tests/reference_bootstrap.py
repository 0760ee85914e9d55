"""Gather-based bootstrap kernels kept as a reference for the count kernel in
``feqt.tost``.

Each replicate's rows are gathered into a (replicates, rows, ...) array and
the statistics are recomputed from it directly. The draws come from the same
per-replicate generators in the same order, and a replicate is redrawn when
a floating-point variance (or SSE) is not strictly positive. The count
kernel's rule is that a replicate is degenerate iff, in some denominator
channel, all its drawn values are equal at some grid point. This reference
applies the same rule exactly where its variances are exact: on few-bit
dyadic values, whose sums round not at all, a variance is 0 iff the values
are equal. There the two kernels must redraw the same replicates; elsewhere
equal values can leave a variance a few ulps above 0, and this reference
then keeps a replicate the count kernel redraws.
"""

import numpy as np

from feqt.estimators import VARIANCE_FLOOR, adjusted_random_effects, anova_decompose
from feqt.tost import REDRAW_CAP, DegenerateReplicateError, replicate_rng

CHUNK_ELEMS = 8_000_000


def _chunks(total, per_replicate_elems):
    step = max(1, CHUNK_ELEMS // max(per_replicate_elems, 1))
    for start in range(0, total, step):
        yield start, min(start + step, total)


def _resolve(cfg, draw_one, compute_batch, per_rep_elems):
    """Stats of every replicate and the number of redraws each one took."""
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
            raise DegenerateReplicateError("replicate stayed degenerate")
        for r in bad:
            drawn[r] = draw_one(rngs[r])
        active = bad
    return stats_out, attempts


def _two_channel_stats(g1, g2):
    theta = g1.mean(axis=1) - g2.mean(axis=1)
    v1 = g1.var(axis=1, ddof=1)
    v2 = g2.var(axis=1, ddof=1)
    ok = np.all(v1 > 0.0, axis=1) & np.all(v2 > 0.0, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.where(v2 > 0.0, v1 / np.where(v2 > 0.0, v2, 1.0), np.nan)
    return theta, lam, ok


def independent(s1, s2, cfg):
    """(theta, lam), redraws"""
    n1, n2, T = s1.n, s2.n, len(s1.grid)
    c1, c2 = s1.curves, s2.curves

    def draw_one(rng):
        return rng.integers(0, n1, n1), rng.integers(0, n2, n2)

    def compute(idx):
        i1, i2 = idx
        return _two_channel_stats(c1[i1], c2[i2])

    return _resolve(cfg, draw_one, compute, (n1 + n2) * T)


def matched(s, cfg):
    """(theta, lam), redraws"""
    n, T = s.n, len(s.grid)
    pairs = s.stacked()

    def draw_one(rng):
        return (rng.integers(0, n, n),)

    def compute(idx):
        g = pairs[idx[0]]  # (m, n, 2, T)
        return _two_channel_stats(g[:, :, 0, :], g[:, :, 1, :])

    return _resolve(cfg, draw_one, compute, n * 2 * T)


def random_effects(g, cfg):
    """(theta, lam, psi), redraws"""
    A, N, T = g.n_groups, g.n_total, len(g.grid)
    sizes = g.group_sizes
    decomp = anova_decompose(g)
    a_hat = adjusted_random_effects(decomp)
    reservoir = g.stacked() - decomp.mean_by_group[g.group_labels()]
    slot_group = g.group_labels()
    sizes_f = sizes.astype(float)
    n_star = decomp.n_star
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])

    def draw_one(rng):
        return rng.integers(0, A, A), rng.integers(0, N, N)

    def compute(idx):
        ai, ri = idx
        y = a_hat[ai][:, slot_group] + reservoir[ri]  # (m, N, 2, T)
        ybar = y.mean(axis=1)
        group_means = np.add.reduceat(y, offsets, axis=1) / sizes_f[:, None, None]
        sse = ((y - ybar[:, None]) ** 2).sum(axis=1)
        dev = group_means - ybar[:, None]
        ssa = (sizes_f[:, None, None] * dev**2).sum(axis=1)
        s2a = np.maximum((ssa / (A - 1) - sse / (N - 1)) / n_star, VARIANCE_FLOOR)
        theta = (group_means[:, :, 0, :] - group_means[:, :, 1, :]).mean(axis=1)
        ok = np.all(sse[:, 0] > 0.0, axis=1) & np.all(sse[:, 1] > 0.0, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            lam = np.where(sse[:, 1] > 0.0, sse[:, 0] / np.where(sse[:, 1] > 0.0, sse[:, 1], 1.0), np.nan)
        return theta, lam, s2a[:, 0] / s2a[:, 1], ok

    return _resolve(cfg, draw_one, compute, 2 * N * 2 * T)
