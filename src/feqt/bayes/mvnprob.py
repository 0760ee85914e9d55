"""Multivariate normal rectangle probabilities and prior-scale calibration.

The rectangle probability uses randomized quasi-Monte Carlo with the
sequential-conditioning (separation-of-variables) reparameterization: the
integrand is a product of conditional one-dimensional normal probabilities
driven by a scrambled Sobol sequence (Genz 1992, *JCGS* 1(2)). Because the
estimate is a product of conditional probabilities, tiny probabilities retain
good relative accuracy.

The band-centred prior's equivalence probability is a 50/50 mixture of two
rectangle probabilities of one centred Gaussian X: P(0 < X < w) at the lower
band's centre and P(-w < X < 0) at the upper's, with w = upper - lower. X and
-X have the same law, so the two are equal, and
:func:`prior_equivalence_prob` computes the first alone; its ``error`` is
that one rectangle's standard error.

Scrambling is the costly part of building a Sobol engine, so the engines of
one (seed, dimension) are built once and reset before each use; a reset
engine yields the same points as a fresh one.

No ``feqt`` run loads a scipy package: the first scipy import costs more
than a whole ``tost`` pass, and ``scipy.stats`` alone about 40 MB. So the
compiled routines this module calls are loaded from their extensions
(:mod:`feqt._scipyext`): ``ndtr`` from ``special/_special_ufuncs``, the
Sobol loops from ``stats/_sobol`` (driven by :class:`_Sobol`) and Brent's
root finder from ``optimize/_zeros`` (behind :func:`_brentq`), each from its
file; ``ndtri`` from ``special/_ufuncs``, imported as
``scipy.special._ufuncs`` without running ``scipy.special``.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np

from .._scipyext import _import_scipy_ext, _load_scipy_ext
from ..fdata import BandPair
from .kernels import matern_corr, prior_corr, JITTER

_PHI_EPS = 1e-15
#: Independently scrambled Sobol streams per rectangle probability.
_RANDOMIZATIONS = 12
#: Cap on the QMC points of one stream.
_MAX_POINTS = 1 << 17
#: Relative accuracy of the calibration's probabilities, and the bracket of
#: its root search on log(s2).
_CALIBRATION_REL_TOL = 1e-3
_LOG_S2_BRACKET = (-12.0, 8.0)
#: Bits of the Sobol points, scipy's default.
_SOBOL_BITS = 30


class AccuracyError(RuntimeError):
    """Requested accuracy was not reached within the iteration cap."""


@dataclass(frozen=True)
class RectangleProb:
    estimate: float
    error: float  # estimated standard error


def _ordered_cholesky(cov: np.ndarray, lower: np.ndarray, upper: np.ndarray):
    """Variable-reordered Cholesky factorization (Genz ordering).

    At each stage the variable with the smallest conditional rectangle
    probability is pivoted to the front, which concentrates the product's
    variation in the early (well-sampled) QMC coordinates.
    """
    ndtri = _import_scipy_ext("special/_ufuncs").ndtri
    ndtr = _load_scipy_ext("special/_special_ufuncs").ndtr
    d = cov.shape[0]
    c = cov.copy() + JITTER * np.eye(d)
    a = lower.copy()
    b = upper.copy()
    L = np.zeros((d, d))
    y = np.zeros(d)
    order = np.arange(d)
    for i in range(d):
        denom = np.sqrt(np.maximum(np.diag(c)[i:] - np.sum(L[i:, :i] ** 2, axis=1), 1e-300))
        ta = (a[i:] - L[i:, :i] @ y[:i]) / denom
        tb = (b[i:] - L[i:, :i] @ y[:i]) / denom
        p = ndtr(tb) - ndtr(ta)
        k = i + int(np.argmin(p))
        if k != i:
            for arr in (a, b, y):
                arr[[i, k]] = arr[[k, i]]
            order[[i, k]] = order[[k, i]]
            c[[i, k], :] = c[[k, i], :]
            c[:, [i, k]] = c[:, [k, i]]
            L[[i, k], :] = L[[k, i], :]
        L[i, i] = np.sqrt(max(c[i, i] - np.sum(L[i, :i] ** 2), 1e-300))
        if i + 1 < d:
            L[i + 1 :, i] = (c[i + 1 :, i] - L[i + 1 :, :i] @ L[i, :i]) / L[i, i]
        # midpoint surrogate for the conditional expectation used in ordering
        ai = (a[i] - L[i, :i] @ y[:i]) / L[i, i]
        bi = (b[i] - L[i, :i] @ y[:i]) / L[i, i]
        pa, pb = ndtr(ai), ndtr(bi)
        y[i] = ndtri(np.clip(0.5 * (pa + pb), _PHI_EPS, 1.0 - _PHI_EPS))
    return L, a, b


def _genz_batch(L, a, b, u):
    """Evaluate the sequential-conditioning integrand at QMC points ``u``.

    ``u`` has shape (n, d-1); returns n probability estimates.
    """
    ndtri = _import_scipy_ext("special/_ufuncs").ndtri
    ndtr = _load_scipy_ext("special/_special_ufuncs").ndtr
    n = u.shape[0]
    d = a.size
    y = np.zeros((n, d))
    lo = ndtr(a[0] / L[0, 0])
    hi = ndtr(b[0] / L[0, 0])
    p = np.full(n, hi - lo)
    lo_i = np.full(n, lo)
    hi_i = np.full(n, hi)
    for i in range(1, d):
        z = lo_i + u[:, i - 1] * (hi_i - lo_i)
        y[:, i - 1] = ndtri(np.clip(z, _PHI_EPS, 1.0 - _PHI_EPS))
        partial = y[:, :i] @ L[i, :i]
        lo_i = ndtr((a[i] - partial) / L[i, i])
        hi_i = ndtr((b[i] - partial) / L[i, i])
        p *= np.maximum(hi_i - lo_i, 0.0)
    return p


def _sobol_ext():
    """scipy's ``stats/_sobol`` extension, with its direction-number table
    loaded.

    The extension reads the table through
    ``importlib.resources.files("scipy.stats")``, which imports all of
    ``scipy.stats``, unless its per-dtype cache already holds it. So the
    cache is filled first, from the same file. The stored arrays are
    Fortran-ordered and the extension reads C-contiguous ones.
    """
    sobol = _load_scipy_ext("stats/_sobol")
    if np.uint32 not in sobol._vinit_dict:
        path = os.path.join(os.path.dirname(sobol.__file__), "_sobol_direction_numbers.npz")
        with np.load(path) as table:
            sobol._poly_dict[np.uint32] = np.ascontiguousarray(table["poly"], np.uint32)
            sobol._vinit_dict[np.uint32] = np.ascontiguousarray(table["vinit"], np.uint32)
    return sobol


class _Sobol:
    """The points of ``scipy.stats.qmc.Sobol(dim, scramble=True, seed=seed)``,
    bit for bit: ``random(n)`` draws the next ``n`` and ``reset()`` restarts
    the sequence."""

    def __init__(self, dim: int, seed):
        self._ext = _sobol_ext()
        self._dim = dim
        rng = np.random.default_rng(seed)
        self._sv = np.zeros((dim, _SOBOL_BITS), dtype=np.uint32)
        self._ext._initialize_v(self._sv, dim=dim, bits=_SOBOL_BITS)
        # scrambling: a random digital shift, then a random lower-triangular
        # bit matrix per dimension applied to the direction numbers
        self._shift = np.dot(
            rng.integers(2, size=(dim, _SOBOL_BITS), dtype=np.uint32),
            2 ** np.arange(_SOBOL_BITS, dtype=np.uint32),
        )
        ltm = np.tril(rng.integers(2, size=(dim, _SOBOL_BITS, _SOBOL_BITS), dtype=np.uint32))
        self._ext._cscramble(dim=dim, bits=_SOBOL_BITS, ltm=ltm, sv=self._sv)
        self.reset()

    def reset(self) -> None:
        self._quasi = self._shift.copy()
        self._drawn = 0

    def random(self, n: int) -> np.ndarray:
        scale = 2.0**-_SOBOL_BITS
        sample = np.empty((n, self._dim))
        if self._drawn == 0:  # the first point is the shift itself
            sample[0] = self._quasi * scale
            self._ext._draw(n - 1, 0, self._dim, scale, self._sv, self._quasi, sample[1:])
        else:
            self._ext._draw(n, self._drawn - 1, self._dim, scale, self._sv, self._quasi, sample)
        self._drawn += n
        return sample


@functools.lru_cache(maxsize=8)
def _sobol_engines(seed: int, dim: int) -> tuple:
    """The scrambled Sobol engines of ``seed`` in ``dim`` dimensions, built
    once per process. Every call shares them, so a caller ``reset()``s each
    before drawing, and calls must not overlap (feqt makes them one at a time)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return tuple(_Sobol(dim, rng.integers(2**63)) for _ in range(_RANDOMIZATIONS))


def mvn_rectangle_prob(
    mean,
    cov,
    lower,
    upper,
    accuracy: float = 1e-3,
    *,
    rel_accuracy: float = None,
    seed: int = 0,
) -> RectangleProb:
    """P{lower < X < upper} for X ~ MVN(mean, cov), with a standard error.

    Runs 12 independently scrambled Sobol streams and doubles the per-stream
    sample until the standard error of the stream means falls below
    ``accuracy``. When ``rel_accuracy`` is given, a standard error below
    ``rel_accuracy * estimate`` also stops; use that form for tail
    probabilities where an absolute tolerance is meaningless. An ``accuracy``
    that is not positive and finite, or a ``rel_accuracy`` that is neither
    None nor positive and finite, is refused before any work.
    """
    if not 0.0 < accuracy < np.inf:  # NaN fails both comparisons
        raise ValueError(f"accuracy must be positive and finite, got {accuracy}")
    if rel_accuracy is not None and not 0.0 < rel_accuracy < np.inf:
        raise ValueError(f"rel_accuracy must be None or positive and finite, got {rel_accuracy}")
    ndtr = _load_scipy_ext("special/_special_ufuncs").ndtr
    mean = np.asarray(mean, dtype=float)
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    a = np.asarray(lower, dtype=float) - mean
    b = np.asarray(upper, dtype=float) - mean
    if np.isnan(cov).any() or np.isnan(a).any() or np.isnan(b).any():
        raise ValueError("mean, cov, lower and upper must not be NaN")
    if np.any(a >= b):
        raise ValueError("lower must be strictly below upper")
    d = a.size
    if d == 1:
        s = np.sqrt(cov[0, 0])
        return RectangleProb(float(ndtr(b[0] / s) - ndtr(a[0] / s)), 0.0)

    L, a, b = _ordered_cholesky(cov, a, b)
    engines = _sobol_engines(seed, d - 1)
    for eng in engines:
        eng.reset()
    sums = np.zeros(_RANDOMIZATIONS)
    counts = 0
    n = 1 << 10
    while True:
        for k, eng in enumerate(engines):
            u = eng.random(n)
            sums[k] += _genz_batch(L, a, b, u).sum()
        counts += n
        means = sums / counts
        est = float(means.mean())
        se = float(means.std(ddof=1) / np.sqrt(_RANDOMIZATIONS))
        tol = accuracy
        if rel_accuracy is not None:
            tol = max(tol, abs(est) * rel_accuracy)
        if se <= tol:
            return RectangleProb(est, se)
        if counts >= _MAX_POINTS:
            raise AccuracyError(
                f"standard error {se:.3g} above requested accuracy {accuracy:.3g} "
                f"after {counts} points per randomization"
            )
        n = counts  # double the total


def prior_equivalence_prob(
    range_a: float,
    s2: float,
    bands: BandPair,
    accuracy: float = 1e-3,
    *,
    rel_accuracy: float = None,
    seed: int = 0,
) -> RectangleProb:
    """Prior probability that the metric curve falls entirely inside the bands.

    The difference-of-curves prior implied by the band-centred construction is
    a 50/50 mixture of GPs with means at the lower and upper band and
    covariance ``2 * s2 * Matern(range_a)`` on the bands' grid; multiplicative
    metrics are handled on the log scale. With X the centred GP and
    w = upper - lower, the two components' probabilities are P(0 < X < w) and
    P(-w < X < 0), equal because -X has the law of X. So the result is the
    lower-centred rectangle probability at ``seed`` alone, and ``error`` is
    its standard error.
    """
    lo, hi = bands.to_working(bands.lower), bands.to_working(bands.upper)
    cov = 2.0 * s2 * matern_corr(range_a, bands.grid)
    return mvn_rectangle_prob(lo, cov, lo, hi, accuracy, rel_accuracy=rel_accuracy, seed=seed)


def _brentq(f, a: float, b: float, xtol: float) -> float:
    """``scipy.optimize.brentq(f, a, b, xtol=xtol)``: scipy's compiled Brent
    loop, with the public function's default ``rtol`` and iteration cap,
    behind the same guard against a NaN value of ``f``."""

    def guarded(x):
        fx = f(x)
        if np.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    zeros = _load_scipy_ext("optimize/_zeros")
    return zeros._brentq(guarded, a, b, xtol, 4 * np.finfo(float).eps, 100, (), False, True)


def calibrate_prior_scale(
    range_a: float,
    bands: BandPair,
    target: float,
    *,
    seed: int = 0,
) -> float:
    """Solve for the prior scale s2 placing ``target`` mass in the band region.

    Root-finds on log(s2): larger scales push the mixture mass away from the
    rectangle, so the probability is monotone decreasing in s2.
    """
    if not 0.0 < target < 1.0:
        raise ValueError("target probability must lie in (0, 1)")
    prior_corr(range_a, bands.grid)  # refuse a singular prior before any work

    def f(log_s2):
        p = prior_equivalence_prob(
            range_a, float(np.exp(log_s2)), bands, _CALIBRATION_REL_TOL * target,
            rel_accuracy=_CALIBRATION_REL_TOL, seed=seed,
        )
        return np.log(p.estimate) - np.log(target)

    try:
        root = _brentq(f, *_LOG_S2_BRACKET, xtol=1e-4)
    except ValueError as exc:  # brentq evaluates the bracket ends, once each
        if "different signs" not in str(exc):
            raise
        raise ValueError("target probability not attainable on the bracket") from None
    return float(np.exp(root))
