"""Frequentist engine: bootstrap resampling under three sampling designs,
one-sided pointwise confidence bands, and the Two One-Sided Test decision.

The overall test is an Intersection-Union Test: nonequivalence is rejected
only if every pointwise one-sided test rejects, so its size is at most the
largest size of those tests. That bounds it by alpha only if each of them has
level alpha, and the basic bootstrap interval has level alpha only as n grows
(its one-sided coverage error is O(n^-1/2); Hall 1988, Ann. Statist. 16(3)).
Measured at one grid point with the truth on the band, the matched-pairs
theta test rejects at 0.081, 0.074 and 0.0605 for n = 5, 10 and 30 pairs
(alpha 0.05, 2 000 replicates, B=1 000, se about 0.006).

Randomness contract: replicate r draws only from the Philox substream keyed by
(seed, r) with its counter starting at 0, exactly the stream of
``replicate_rng(seed, r)``, so results do not depend on execution order,
chunking or the number of threads that run the chunks. The draws of a chunk
come from one bit generator re-keyed per replicate and are mapped to indices
in bulk, bit for bit as ``Generator.integers`` maps them.

Threads: a call of more than one chunk, in a process that may use two or
more cores, splits its chunks between the calling thread and one helper
thread that it starts and joins (:func:`_run_chunks`). Each chunk writes only
its own rows of the outputs, and a failing call raises the error of its
lowest-numbered failing chunk, the one a serial run raises.

Memory: a chunk's working arrays (the drawn words and indices, the count
matrix and its product, the grouped kernel's temporaries) live in buffers
each thread allocates once and reuses, the caller's across calls and a
helper's across its call's chunks (see :func:`_scratch`), so the kernel does
not fault fresh pages in per chunk. Two threads each take half a serial
chunk, so together they hold one chunk's buffers.
"""

from __future__ import annotations

import enum
import math
import os
import threading
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np
from numpy.random import Generator, Philox

from ._scipyext import _load_scipy_ext
from .estimators import (
    AnovaDecomposition,
    adjusted_random_effects,
    anova_decompose,
    estimate_metrics_grouped,
    estimate_metrics_paired,
    random_effect_variance,
)
from .fdata import (
    BandKind,
    BandPair,
    FunctionalSample,
    Grid,
    GroupedPairedSample,
    PairedFunctionalSample,
    freeze_arrays,
)

_SEED_MASK = 0xFFFFFFFFFFFFFFFF

#: Maximum redraw attempts for a degenerate bootstrap replicate.
REDRAW_CAP = 100

#: Elements per computation chunk when vectorizing over replicates.
_CHUNK_ELEMS = 2_000_000

#: Machine epsilon, twice the unit roundoff u of the rounding bounds below.
_EPS = np.finfo(float).eps

#: This thread's working buffers, one per name (:func:`_scratch`).
_buffers = threading.local()

#: This thread's bit generator, re-keyed per replicate (:func:`_draw_chunk`).
_bitgens = threading.local()


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


#: Threads that run the chunks of a call: the caller, and one helper where
#: the process may use two or more cores.
_WORKERS = 2 if _usable_cores() >= 2 else 1


class Design(enum.Enum):
    INDEPENDENT_IID = "independent_iid"
    MATCHED_PAIRS = "matched_pairs"
    RANDOM_EFFECTS_MATCHED = "random_effects_matched"


class Metric(enum.Enum):
    THETA = "theta"
    LAMBDA = "lambda"
    PSI = "psi"

    @property
    def band_kind(self) -> BandKind:
        """The kind of the metric's equivalence bands: additive for the mean
        difference, multiplicative for the variance ratios."""
        return BandKind.ADDITIVE if self is Metric.THETA else BandKind.MULTIPLICATIVE

    def check_bands(self, bands: BandPair) -> None:
        """Refuse equivalence ``bands`` of another kind than :attr:`band_kind`."""
        if bands.kind is not self.band_kind:
            raise ValueError(f"{self.value} requires {self.band_kind.value} bands")


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
            msg = f"B={self.replicates} bootstrap replicates is low; 1000 or more is recommended"
            warnings.warn(msg, stacklevel=3)  # past the generated __init__, at its caller
        if not 0.0 < self.alpha < 0.5:
            raise ValueError("alpha must lie in (0, 0.5)")
        if not isinstance(self.design, Design):
            raise ValueError(f"unknown design {self.design}")


@dataclass(frozen=True, eq=False)
class ReplicateDraws:
    """Bootstrap draws of the metric estimates, one row per replicate."""

    theta: np.ndarray  # (B, T)
    lam: Optional[np.ndarray] = None  # (B, T), strictly positive; None if theta only
    psi: Optional[np.ndarray] = None  # (B, T), hierarchical design; None if theta only
    redraws: Optional[np.ndarray] = None  # (B,), degenerate draws replaced

    def __post_init__(self):
        freeze_arrays(self)


@dataclass(frozen=True, eq=False)
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

    def __post_init__(self):
        freeze_arrays(self)


@dataclass(frozen=True, eq=False)
class MetricResult:
    metric: Metric
    estimate: np.ndarray
    bands: OneSidedBands
    eq_band: BandPair
    violations: np.ndarray  # grid indices where a one-sided test fails
    reject: bool

    def __post_init__(self):
        freeze_arrays(self)


class TostDecision(enum.Enum):
    REJECT_NONEQUIVALENCE = "reject_nonequivalence"
    FAIL_TO_REJECT = "fail_to_reject"


@dataclass(frozen=True, eq=False)
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


def replicate_rng(seed: int, r: int) -> Generator:
    """Counter-based generator for replicate ``r`` of a run keyed by ``seed``."""
    key = np.array([seed & _SEED_MASK, r], dtype=np.uint64)
    return Generator(Philox(key=key))


def _chunks(total: int, per_replicate_elems: int, workers: int = 1) -> list:
    """(lo, hi) bounds of the chunks of ``total`` replicates: each holds at
    most ``_CHUNK_ELEMS / workers`` elements, or one replicate."""
    step = max(1, _CHUNK_ELEMS // workers // max(per_replicate_elems, 1))
    return [(start, min(start + step, total)) for start in range(0, total, step)]


def _scratch(name: str, shape, dtype=np.float64) -> np.ndarray:
    """An uninitialised C-contiguous ``shape`` array over this thread's
    buffer ``name``.

    Each name keeps one buffer per thread, replaced only when a request
    outgrows it, so a thread holds at most one chunk's working arrays and
    reuses them across chunks and calls. Freed multi-MB temporaries would go
    back to the OS and fault in again on the next chunk. Arrays requested
    under one name share its memory: take another only once the last is
    spent.
    """
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    buf = getattr(_buffers, name, None)
    if buf is None or buf.size < nbytes:
        buf = np.empty(nbytes, dtype=np.uint8)
        setattr(_buffers, name, buf)
    return buf[:nbytes].view(dtype).reshape(shape)


def _draw(rng: Generator, segments) -> np.ndarray:
    """One draw of ``segments`` from ``rng``, one ``integers`` call each."""
    return np.concatenate([off + rng.integers(0, n, size) for size, n, off in segments])


def _draw_chunk(seed: int, lo: int, hi: int, segments):
    """The first draws of replicates lo..hi-1, as :func:`_draw` makes them
    from ``replicate_rng(seed, r)``.

    Philox makes each 64-bit word from (key, counter) alone, so one bit
    generator re-keyed per replicate yields every replicate's words. numpy's
    ``integers`` takes 32-bit halves, low half first, carrying a half into
    the next call, and maps a half u to ``(u * n) >> 32``; it rejects u and
    takes the next half when ``(u * n) mod 2**32 < 2**32 mod n`` (Lemire's
    method). Returns the (m, slots) indices, in this thread's ``idx``
    buffer, and per replicate whether a half was rejected: that replicate's
    row is not its draw.
    """
    if any(not 2 <= n <= 2**32 for _, n, _ in segments):
        # integers(0, 1, k) consumes no bits; wider ranges take 64-bit words
        raise ValueError("bulk draws need ranges in [2, 2**32]")
    total = sum(size for size, _, _ in segments)
    words = (total + 1) // 2
    bitgen = getattr(_bitgens, "philox", None)
    if bitgen is None:  # seeding a SeedSequence costs more than a chunk's keys
        bitgen = _bitgens.philox = Philox(0)
    # counter 0, an empty buffer and no carried half; the setter reads
    # Python ints faster than the numpy arrays of ``bitgen.state``
    key = [seed & _SEED_MASK, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    # the words are spent once cast: the count product's column indices, at
    # most (m, total), take their buffer next
    raw = _scratch("indices", (hi - lo, total), "<u8")[:, :words]
    for i, r in enumerate(range(lo, hi)):
        key[1] = r
        bitgen.state = state
        raw[i] = bitgen.random_raw(words)
    # one buffer, worked in place: each row's halves, their products, then
    # the indices
    idx = _scratch("idx", (hi - lo, total), "<u8")
    idx[...] = raw.view("<u4")[:, :total]
    low = idx.view("<u4")[:, ::2]
    rejected = np.zeros(hi - lo, dtype=bool)
    a = 0
    for size, n, off in segments:
        seg = idx[:, a : a + size]
        np.multiply(seg, np.uint64(n), out=seg)
        rejected |= np.any(low[:, a : a + size] < np.uint32(2**32 % n), axis=1)
        np.right_shift(seg, np.uint64(32), out=seg)
        np.add(seg, np.uint64(off), out=seg)
        a += size
    return idx.view("<i8"), rejected


def _run_chunks(bounds, run, workers: int) -> None:
    """``run(lo, hi)`` for each (lo, hi) of ``bounds``: in order on this
    thread, or with ``workers`` > 1 also on a helper thread that the call
    starts and joins. Chunks are claimed in order until none is left or one
    has failed, so the call raises the error of the lowest-numbered failing
    chunk, as a serial run does.
    """
    if workers == 1:
        for lo, hi in bounds:
            run(lo, hi)
        return
    claim, unclaimed, errors = threading.Lock(), iter(range(len(bounds))), {}

    def claimed():
        with claim:
            return None if errors else next(unclaimed, None)

    def work(k):
        while k is not None:
            try:
                run(*bounds[k])
            except BaseException as exc:  # raised by the caller, after the join
                errors[k] = exc
            k = claimed()

    # the caller claims first: a helper that starts first can keep the
    # interpreter lock until every chunk has run. A daemon: no exit waits on it.
    k = claimed()
    helper = threading.Thread(target=lambda: work(claimed()), name="feqt-bootstrap", daemon=True)
    try:
        helper.start()
        work(k)
    except BaseException as exc:  # an interrupt between chunks: the helper stops claiming
        errors[len(bounds)] = exc
        raise
    helper.join()
    if errors:
        raise errors[min(errors)]


def _resolve_replicates(cfg: BootstrapConfig, segments, stats_of, per_rep_elems):
    """Run B replicates chunk by chunk, redrawing degenerate ones.

    A replicate draws ``segments``, a tuple of (size, n, offset): ``size``
    indices uniform on ``offset + [0, n)``, segment after segment, into one
    1-D row. ``stats_of(idx)`` maps an (m, slots) array of rows to
    (stats..., ok), where ok flags replicates whose statistics are usable.
    First draws come in bulk from :func:`_draw_chunk`; a replicate whose
    bulk draw hit a rejection, or that needs a redraw, continues from its
    own ``replicate_rng``, replaying the first draw. Every draw of replicate
    r is thus the one ``replicate_rng(seed, r)`` makes, whatever the
    chunking. A call of more than one chunk runs on :data:`_WORKERS`
    threads, each chunk half as large on two. Returns the statistics, each
    (B, ...), and the redraw count of each replicate.
    """
    B = cfg.replicates
    stats_out = []  # allocated by the first chunk to compute its statistics
    allocate = threading.Lock()
    redraws = np.zeros(B, dtype=int)

    def run(lo, hi):
        idx, rejected = _draw_chunk(cfg.seed, lo, hi, segments)
        rngs = {}
        for i in np.flatnonzero(rejected):
            rngs[i] = replicate_rng(cfg.seed, lo + i)
            idx[i] = _draw(rngs[i], segments)
        active = np.arange(hi - lo)
        while True:
            # no copy while every replicate of the chunk is active
            *stats, ok = stats_of(idx if active.size == hi - lo else idx[active])
            with allocate:
                if not stats_out:
                    stats_out.extend(np.empty((B,) + s.shape[1:]) for s in stats)
            for out, s in zip(stats_out, stats):
                out[lo + active] = s
            active = active[~ok]
            if not active.size:
                break
            # replicates still active have failed equally often
            redraws[lo + active] += 1
            if redraws[lo + active[0]] > REDRAW_CAP:
                raise DegenerateReplicateError(
                    f"replicate {lo + active[0]} stayed degenerate after {REDRAW_CAP} redraws"
                )
            for i in active:
                if i not in rngs:
                    rngs[i] = replicate_rng(cfg.seed, lo + i)
                    _draw(rngs[i], segments)  # replay the bulk first draw
                idx[i] = _draw(rngs[i], segments)

    workers = _WORKERS if len(_chunks(B, per_rep_elems)) > 1 else 1
    _run_chunks(_chunks(B, per_rep_elems, workers), run, workers)
    return tuple(stats_out), redraws


#: scipy's count product loop ``csr_matvecs``, without importing ``scipy.sparse``
_sparsetools = _load_scipy_ext("sparse/_sparsetools")


def _count_sums(idx: np.ndarray, sizes: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Per-(replicate, group) sums of the drawn rows of ``columns``: (m, G, K).

    Row r of ``idx`` lists replicate r's drawn reservoir rows, ``sizes[g]`` of
    them for group g, group after group. They form a sparse count matrix with
    one row per (replicate, group) and one column per reservoir row; repeated
    draws of a row add up in the product with ``columns`` (R, K).

    The product is the loop ``csr_matrix @ columns`` runs, over this thread's
    buffers: each output row starts at +0.0, as in the fresh ``np.zeros``
    result scipy allocates, and adds its rows in the same order, so the sums
    are the same bits.
    """
    (m, slots), G, K = idx.shape, sizes.size, columns.shape[1]
    indptr = _scratch("indptr", (m * G + 1,), np.int64)
    indptr[0] = 0
    np.cumsum(np.tile(sizes, m), out=indptr[1:])
    ones = _scratch("ones", (m * slots,))
    ones.fill(1.0)
    indices = _scratch("indices", (m, slots), np.int64)
    np.copyto(indices, idx)
    sums = _scratch("sums", (m * G, K))
    sums.fill(0.0)
    _sparsetools.csr_matvecs(
        m * G, columns.shape[0], K, indptr, indices.ravel(), ones, columns.ravel(), sums.ravel()
    )
    return sums.reshape(m, G, K)


def _theta(idx: np.ndarray, effects: np.ndarray, resid: np.ndarray, weights: np.ndarray):
    """Theta of the grouped replicates drawn as the rows of ``idx``: (m, T).

    A row draws A random effects, then N residual pairs from the pooled
    reservoir, and theta is linear in them: A theta = sum_g effects[d_g] +
    sum_s weights[s] resid[idx_s], where ``effects`` (A, T) and ``resid``
    (N, T) hold the channel differences and ``weights[s]`` is 1/n of slot
    s's group, not of the drawn row's. The effects are summed first; then
    ``csr_matvecs``, one row per replicate over the count product's buffers,
    adds the weighted residuals slot by slot. So a replicate's theta does not
    depend on the chunk it is in, and no BLAS call is made.
    """
    m, (A, T), N = idx.shape[0], effects.shape, weights.size
    drawn = np.take(effects, idx[:, :A], axis=0, out=_scratch("tmp", (m, A, T)), mode="clip")
    theta = drawn.sum(axis=1)
    indptr = _scratch("indptr", (m + 1,), np.int64)
    np.multiply(np.arange(m + 1), N, out=indptr)
    data = _scratch("ones", (m, N))
    data[:] = weights
    indices = _scratch("indices", (m, N), np.int64)
    np.copyto(indices, idx[:, A:])
    _sparsetools.csr_matvecs(
        m, N, T, indptr, indices.ravel(), data.ravel(), resid.ravel(), theta.ravel()
    )
    theta /= A
    return theta


def _settle(ss: np.ndarray, tol: np.ndarray, idx: np.ndarray, values_of) -> np.ndarray:
    """The degeneracy rule of every design: a replicate is degenerate iff, in
    some denominator channel, all its drawn values are equal at some grid
    point, that is iff its sum of squared deviations there is exactly 0.

    ``ss`` (m, ...) holds count-form sums of the replicates drawn as the rows
    of ``idx``, and ``tol`` bounds their rounding error where the exact sum is
    0. A replicate with an entry at or below its bound has every entry
    recomputed in place from its drawn values: the (k, n, C) arrays that
    ``values_of(idx[rows])`` lists, their columns side by side those of
    ``ss``. The rest keep their bits. Returns ok, every entry positive."""
    axes = tuple(range(1, ss.ndim))
    redo = np.flatnonzero(np.any(ss <= tol, axis=axes))
    for lo, hi in _chunks(redo.size, idx[0].size * ss[0].size):
        exact = []
        for v in values_of(idx[redo[lo:hi]]):
            d = v - v[:, :1]  # exact zeros iff the values are equal
            d -= d.mean(axis=1, keepdims=True)
            exact.append((d * d).sum(axis=1))
        ss[redo[lo:hi]] = np.concatenate(exact, axis=1).reshape(-1, *ss.shape[1:])
    return np.all(ss > 0.0, axis=axes)


def _bootstrap_two_channel(channels, sizes, cfg) -> ReplicateDraws:
    """Mean difference and variance ratio of two channels, from counts.

    ``channels`` holds the two channels' (n, T) curve matrices. The
    reservoir holds one group of pairs (``sizes`` [n], a row of K = 2T
    columns, channel 1 then channel 2) or two groups of curves (``sizes``
    [n1, n2], channel 1's rows then channel 2's, K = T), and a replicate
    draws ``sizes[g]`` rows within each group g. The reservoir's columns are
    the centered values and, K columns on, their squares, written in place
    from the channels. A replicate is redrawn iff a channel's drawn values
    are all equal at some grid point (:func:`_settle`).
    """
    G, T = sizes.size, channels[0].shape[1]
    K = 2 * T // G
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    # each channel with its reservoir rows, which are also its draw
    # columns: the one group of pairs for both, or a group each
    spans = list(zip(bounds[:-1], bounds[1:]))
    drawn = list(zip(channels, spans * (2 // G)))
    mean = np.stack([c.mean(axis=0) for c in channels])  # (2, T)
    columns = np.empty((bounds[-1], 2 * K))
    for i, (c, (a, b)) in enumerate(drawn):
        k = i * T if G == 1 else 0  # the channel's first column in a row
        centered = np.subtract(c, mean[i], out=columns[a:b, k : k + T])
        np.square(centered, out=columns[a:b, K + k : K + k + T])
    n = np.repeat(sizes, 2 // G).astype(float)[:, None]  # rows per channel, (2, 1)

    def stats_of(idx):
        m = idx.shape[0]
        sq = _count_sums(idx, sizes, columns)
        s = sq[..., :K].reshape(m, 2, T)
        q = sq[..., K:].reshape(m, 2, T)
        ss = q - s * s / n
        # from n-term sums of the centered values and their squares, the
        # count form Q - S^2/n errs below (3n + 4) u Q
        tol = 2.0 * (n + 4.0) * _EPS * q
        ok = _settle(ss, tol, idx, lambda d: [c[d[:, a:b] - a] for c, (a, b) in drawn])
        var = ss / (n - 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            lam = var[:, 0] / var[:, 1]
        means = mean + s / n
        return means[:, 0] - means[:, 1], lam, ok

    # per drawn slot: its index and its count-matrix entry; per replicate:
    # the sums and their temporaries, a few (2, T) arrays
    per_rep = int(sizes.sum()) * 3 + 8 * T
    segments = tuple((n, n, a) for n, a in zip(sizes, bounds[:-1]))
    (theta, lam), redraws = _resolve_replicates(cfg, segments, stats_of, per_rep)
    return ReplicateDraws(theta=theta, lam=lam, redraws=redraws)


def bootstrap_independent(
    s1: FunctionalSample, s2: FunctionalSample, cfg: BootstrapConfig
) -> ReplicateDraws:
    """Two-sample bootstrap: resample curves with replacement within each group."""
    if s1.n < 2 or s2.n < 2:
        raise ValueError("both groups need at least 2 curves")
    if s1.grid != s2.grid:
        raise ValueError("groups must share a grid")
    return _bootstrap_two_channel((s1.curves, s2.curves), np.array([s1.n, s2.n]), cfg)


def bootstrap_matched(s: PairedFunctionalSample, cfg: BootstrapConfig) -> ReplicateDraws:
    """Matched-pairs bootstrap: resample pair rows jointly, preserving
    within-pair dependence."""
    if s.n < 2:
        raise ValueError("need at least 2 pairs")
    return _bootstrap_two_channel((s.curves_1, s.curves_2), np.array([s.n]), cfg)


def bootstrap_random_effects(
    g: GroupedPairedSample,
    cfg: BootstrapConfig,
    decomp: Optional[AnovaDecomposition] = None,
    *,
    theta_only: bool = False,
) -> ReplicateDraws:
    """Hierarchical bootstrap for paired random effects.

    Per replicate: resample A adjusted random-effect pairs (the first draw is
    assigned n_1 curves, the second n_2, ...), draw residual pairs from the
    pooled N-pair reservoir, reconstruct curves, and recompute the three
    metric estimates from the ANOVA quantities. Pooling the reservoir ignores
    the within-group residual covariance, as in the source procedure.
    ``decomp`` is ``anova_decompose(g)``, computed here if not given.

    The curves are never built: a group's mean is its drawn effect plus the
    mean of its drawn residuals, and with the residuals' per-group sums S and
    sums of squares Q, SSE is the within-group part sum(Q - S^2/n_i) plus SSA.
    Theta is the mean of the effects' and the residuals' channel differences,
    each residual weighted by 1/n of its slot's group, from one weighted
    product per replicate (:func:`_theta`). A replicate is redrawn iff a
    channel's reconstructed values are all equal at some grid point, where
    its SSE is 0 (:func:`_settle`).

    With ``theta_only`` a replicate computes theta alone, by the same
    product, without S, Q or the group means, and returns ``lam`` and
    ``psi`` as None. Theta is defined for every draw, so no replicate is
    redrawn; wherever the full bootstrap redraws nothing, the theta draws
    are the same bits.
    """
    if np.any(g.group_sizes < 2):
        raise ValueError("every group needs at least 2 pairs")
    A, N, T = g.n_groups, g.n_total, len(g.grid)
    sizes = g.group_sizes
    if decomp is None:
        decomp = anova_decompose(g)
    a_hat = adjusted_random_effects(decomp).reshape(A, 2 * T)
    slot_group = g.group_labels()
    resid = (g.stacked() - decomp.mean_by_group[slot_group]).reshape(N, 2 * T)
    n_i, n_max, n_star = sizes.astype(float), sizes.max(), decomp.n_star
    # theta's terms: the channel differences and each residual slot's weight
    terms = a_hat[:, :T] - a_hat[:, T:], resid[:, :T] - resid[:, T:], 1.0 / n_i[slot_group]
    columns = None if theta_only else np.concatenate([resid, resid**2], axis=1)

    def stats_of(idx):
        m = idx.shape[0]
        if theta_only:
            return _theta(idx, *terms), np.ones(m, dtype=bool)
        sq = _count_sums(idx[:, A:], sizes, columns)  # (m, A, 4T)
        s = sq[..., : 2 * T]
        # the group means a_hat + S/n and their temporaries, in this thread's
        # buffers; "clip" (the indices are in range) keeps take from
        # buffering its output
        tmp = np.divide(s, n_i[:, None], out=_scratch("tmp", (m, A, 2 * T)))
        means = _scratch("means", (m, A, 2 * T))
        np.take(a_hat, idx[:, :A], axis=0, out=means, mode="clip")
        means += tmp
        q = sq[..., 2 * T :].sum(axis=1)
        grand = (n_i @ means) / N
        dev = np.subtract(means, grand[:, None], out=tmp)
        ssa = n_i @ np.multiply(dev, dev, out=dev)  # (m, 2T)
        sse = q - (1.0 / n_i) @ np.multiply(s, s, out=tmp) + ssa
        # where the exact SSE is 0, every group mean is the grand mean g and
        # |S_i|^2 <= n_i Q_i: the within-group part errs below (3n + 2A + 4) u Q
        # and SSA, rounding alone, below N ((A + 3) u g)^2 + O(u^2 n N Q), a
        # last term inside the slack of the first bound
        tol = 2.0 * (n_max + A + 4) * _EPS * q + N * ((A + 3) * _EPS * grand) ** 2
        ok = _settle(sse, tol, idx, lambda d: [a_hat[d[:, :A]][:, slot_group] + resid[d[:, A:]]])
        s2a = random_effect_variance(ssa, sse, A, N, n_star)
        with np.errstate(divide="ignore", invalid="ignore"):
            lam = sse[:, :T] / sse[:, T:]
        # last, in the spent buffers of the sums, which outsize its own
        return _theta(idx, *terms), lam, s2a[:, :T] / s2a[:, T:], ok

    if theta_only:
        # the drawn indices and their words, an entry and a column index per
        # residual slot, then the (A, T) drawn effects and theta
        per_rep = 4 * N + 2 * A + (A + 1) * T
    else:
        # the drawn indices and count-matrix entries, then the (A, 4T) sums
        # and the (A, 2T) group means and temporaries
        per_rep = 3 * N + A + 12 * A * T
    segments = ((A, A, 0), (N, N, 0))
    stats, redraws = _resolve_replicates(cfg, segments, stats_of, per_rep)
    return ReplicateDraws(*stats, redraws=redraws)


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


def _decide_metric(bands: OneSidedBands, eq_band: BandPair, estimate: np.ndarray) -> MetricResult:
    metric = bands.metric
    metric.check_bands(eq_band)
    # The shaded region [upper_of_lower_ci, lower_of_upper_ci] must lie
    # strictly inside the open band interval at every grid point.
    reject_lower = eq_band.lower < bands.upper_of_lower_ci
    reject_upper = eq_band.upper > bands.lower_of_upper_ci
    violations = np.flatnonzero(~(reject_lower & reject_upper))
    return MetricResult(metric, estimate, bands, eq_band, violations, violations.size == 0)


def tost_decide(
    bands: dict, eq_bands: dict, estimates: dict, *, alpha: float = 0.05, replicates: int = 0
) -> TostReport:
    """Combine per-metric one-sided bands into the IUT decision.

    ``bands``/``eq_bands``/``estimates`` map :class:`Metric` to
    :class:`OneSidedBands`, :class:`BandPair`, and estimate vectors. Also
    reports a noninferiority decision for the error-variance ratio (upper
    band only), which is the relevant one-sided test when lower variance is
    strictly preferred. Refuses ``bands`` of no metric.
    """
    if not bands:
        raise ValueError("a TOST needs the bands of at least one metric")
    grid = next(iter(eq_bands.values())).grid
    results = {}
    for metric, osb in bands.items():
        eq = eq_bands[metric]
        if eq.grid != grid:
            raise ValueError("equivalence bands must share one grid")
        results[metric] = _decide_metric(osb, eq, estimates[metric])
    overall = all(r.reject for r in results.values())
    decision = TostDecision.REJECT_NONEQUIVALENCE if overall else TostDecision.FAIL_TO_REJECT
    noninf = None
    if Metric.LAMBDA in results:
        r = results[Metric.LAMBDA]
        ok = np.all(r.eq_band.upper > r.bands.lower_of_upper_ci)
        noninf = TostDecision.REJECT_NONEQUIVALENCE if ok else TostDecision.FAIL_TO_REJECT
    return TostReport(grid, results, decision, noninf, alpha, replicates)


#: The sample each design takes, as :func:`run_tost` names it when refusing another.
_SAMPLES = {
    Design.INDEPENDENT_IID: "a (FunctionalSample, FunctionalSample) tuple",
    Design.MATCHED_PAIRS: "a PairedFunctionalSample",
    Design.RANDOM_EFFECTS_MATCHED: "a GroupedPairedSample",
}


def run_tost(data, cfg: BootstrapConfig, eq_bands: dict) -> TostReport:
    """End-to-end TOST: estimate, bootstrap per the configured design, decide.

    ``data`` is a ``(FunctionalSample, FunctionalSample)`` tuple for the
    independent design, a :class:`PairedFunctionalSample` for matched pairs,
    or a :class:`GroupedPairedSample` for the hierarchical design. The
    hierarchical design decomposes the data once, for the estimates and the
    bootstrap, and bootstraps theta alone when it is the only metric in
    ``eq_bands``. Data of another type, ``eq_bands`` that is empty or has a
    key that is not a :class:`Metric`, or psi asked of a design without
    random effects raises ``ValueError``, before any draw.
    """
    if not eq_bands or not all(isinstance(m, Metric) for m in eq_bands):
        raise ValueError("eq_bands must map one or more Metrics to their bands")
    if cfg.design is Design.RANDOM_EFFECTS_MATCHED and isinstance(data, GroupedPairedSample):
        decomp = anova_decompose(data)
        est = estimate_metrics_grouped(data, decomp)
        theta_only = eq_bands.keys() == {Metric.THETA}
        bootstrap = partial(bootstrap_random_effects, data, cfg, decomp, theta_only=theta_only)
    elif cfg.design is Design.MATCHED_PAIRS and isinstance(data, PairedFunctionalSample):
        est, bootstrap = estimate_metrics_paired(data), partial(bootstrap_matched, data, cfg)
    elif (cfg.design is Design.INDEPENDENT_IID and isinstance(data, tuple) and len(data) == 2
          and all(isinstance(s, FunctionalSample) for s in data)):
        est, bootstrap = estimate_metrics_paired(data), partial(bootstrap_independent, *data, cfg)
    else:
        raise ValueError(f"design {cfg.design.value} needs {_SAMPLES[cfg.design]}, "
                         f"got {type(data).__name__}")
    if Metric.PSI in eq_bands and est.psi_hat is None:  # before any draw
        raise ValueError("psi requires the random-effects design")
    draws = bootstrap()

    pairs = {
        Metric.THETA: (draws.theta, est.theta_hat),
        Metric.LAMBDA: (draws.lam, est.lambda_hat),
        Metric.PSI: (draws.psi, est.psi_hat),
    }
    bands, estimates = {}, {}
    for metric in Metric:
        if metric not in eq_bands:
            continue
        d, estimates[metric] = pairs[metric]
        if metric.band_kind is BandKind.ADDITIVE:
            bands[metric] = theta_bands(d, estimates[metric], cfg.alpha)
        else:
            bands[metric] = ratio_bands(d, estimates[metric], cfg.alpha, metric)
    return tost_decide(bands, eq_bands, estimates, alpha=cfg.alpha, replicates=cfg.replicates)
