"""Core data model: grids, curve samples, paired/hierarchical samples, equivalence bands.

All containers are immutable after construction (arrays are frozen), so they can
be shared freely across worker processes or threads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np


class ValidationError(ValueError):
    """Raised when a sample or band violates a structural invariant."""


def _frozen_array(values, name: str, ndim: int) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != ndim:
        raise ValidationError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        idx = tuple(int(i) for i in np.argwhere(~np.isfinite(arr))[0])
        raise ValidationError(f"non-finite value in {name} at index {idx}")
    arr.setflags(write=False)
    return arr


def freeze_arrays(obj) -> None:
    """Make every array field of the frozen dataclass ``obj`` read-only.

    For result types, whose builders own their arrays: a writable array is
    replaced by a read-only view of itself, so no data is copied and an
    array a caller passed in keeps its own flags.
    """
    for name, value in list(vars(obj).items()):
        if isinstance(value, np.ndarray) and value.flags.writeable:
            view = value.view()
            view.setflags(write=False)
            object.__setattr__(obj, name, view)


class BandKind(enum.Enum):
    ADDITIVE = "additive"
    MULTIPLICATIVE = "multiplicative"


@dataclass(frozen=True)
class Grid:
    """Ordered observation points on the unit interval."""

    points: np.ndarray

    def __post_init__(self):
        pts = _frozen_array(self.points, "grid points", 1)
        if pts.size == 0:
            raise ValidationError("grid must be nonempty")
        if np.any(pts < 0.0) or np.any(pts > 1.0):
            raise ValidationError("grid points must lie in [0, 1]")
        if np.any(np.diff(pts) <= 0.0):
            raise ValidationError("grid points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.size

    def __eq__(self, other) -> bool:
        return other is self or (
            isinstance(other, Grid) and np.array_equal(self.points, other.points)
        )

    def __hash__(self):
        return hash(self.points.tobytes())


def equispaced_grid(n_points: int = 25) -> Grid:
    """The default observation grid: ``n_points`` equispaced values on [0, 1]."""
    if n_points < 1:
        raise ValidationError(f"grid must be nonempty, got {n_points} points")
    return Grid(np.linspace(0.0, 1.0, n_points))


def _curve_matrix(values, name: str, grid: Grid, row: str) -> np.ndarray:
    """``values`` as a frozen matrix of at least one ``row``, one column per grid point."""
    curves = _frozen_array(values, name, 2)
    if curves.shape[0] < 1:
        raise ValidationError(f"sample must contain at least one {row}")
    if curves.shape[1] != len(grid):
        raise ValidationError(
            f"curves have {curves.shape[1]} columns but grid has {len(grid)} points"
        )
    return curves


@dataclass(frozen=True, eq=False)
class FunctionalSample:
    """A set of curves observed on a common grid, stored as an n-by-T matrix."""

    grid: Grid
    curves: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "curves", _curve_matrix(self.curves, "curves", self.grid, "curve"))

    @property
    def n(self) -> int:
        return self.curves.shape[0]


@dataclass(frozen=True, eq=False)
class PairedFunctionalSample:
    """Matched pairs of curves: row k of each channel matrix is the k-th pair."""

    grid: Grid
    curves_1: np.ndarray
    curves_2: np.ndarray

    def __post_init__(self):
        c1 = _curve_matrix(self.curves_1, "curves_1", self.grid, "pair")
        c2 = _curve_matrix(self.curves_2, "curves_2", self.grid, "pair")
        if c1.shape != c2.shape:
            raise ValidationError(f"curves_1 shape {c1.shape} != curves_2 shape {c2.shape}")
        object.__setattr__(self, "curves_1", c1)
        object.__setattr__(self, "curves_2", c2)

    @property
    def n(self) -> int:
        return self.curves_1.shape[0]

    def stacked(self) -> np.ndarray:
        """Pairs as an (n, 2, T) array."""
        return np.stack([self.curves_1, self.curves_2], axis=1)


@dataclass(frozen=True, eq=False)
class GroupedPairedSample:
    """A groups of matched pairs (group i holding n_i pairs), all on one grid.

    The stacked pairs, the group sizes and the group labels are computed once,
    on construction, and are read-only.
    """

    grid: Grid
    groups: tuple
    _sizes: np.ndarray = field(init=False, repr=False)
    _stacked: np.ndarray = field(init=False, repr=False)
    _labels: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        groups = tuple(self.groups)
        if len(groups) < 2:
            raise ValidationError("grouped sample requires at least 2 groups")
        for i, g in enumerate(groups):
            if not isinstance(g, PairedFunctionalSample):
                raise ValidationError(f"group {i} is not a PairedFunctionalSample")
            if g.grid != self.grid:
                raise ValidationError(f"group {i} is observed on a different grid")
        object.__setattr__(self, "groups", groups)
        sizes = np.array([g.n for g in groups], dtype=int)
        stacked = np.empty((sizes.sum(), 2, len(self.grid)))
        np.concatenate([g.curves_1 for g in groups], out=stacked[:, 0])
        np.concatenate([g.curves_2 for g in groups], out=stacked[:, 1])
        derived = {
            "_sizes": sizes,
            "_stacked": stacked,
            "_labels": np.repeat(np.arange(len(groups)), sizes),
        }
        for name, arr in derived.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def group_sizes(self) -> np.ndarray:
        return self._sizes

    @property
    def n_total(self) -> int:
        return self._labels.size

    def stacked(self) -> np.ndarray:
        """All pairs as an (N, 2, T) array, groups concatenated in order."""
        return self._stacked

    def group_labels(self) -> np.ndarray:
        """Group index of each row of :meth:`stacked`."""
        return self._labels


@dataclass(frozen=True, eq=False)
class BandPair:
    """Lower/upper equivalence band functions evaluated on the grid.

    ``kind`` distinguishes additive bands (for mean differences) from
    multiplicative bands (for variance ratios); ratio metrics can never be
    tested against additive bands because the kind travels with the object.
    """

    grid: Grid
    lower: np.ndarray
    upper: np.ndarray
    kind: BandKind

    def __post_init__(self):
        lo = _frozen_array(self.lower, "lower band", 1)
        hi = _frozen_array(self.upper, "upper band", 1)
        if lo.size != len(self.grid) or hi.size != len(self.grid):
            raise ValidationError("band length does not match grid")
        if np.any(lo >= hi):
            raise ValidationError("lower band must be strictly below upper band")
        if self.kind is BandKind.MULTIPLICATIVE and np.any(lo <= 0.0):
            raise ValidationError("multiplicative bands must be strictly positive")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    def to_working(self, curve) -> np.ndarray:
        """``curve`` on the scale where the band is additive: multiplicative
        bands live on the log scale, additive bands as they are."""
        if self.kind is BandKind.MULTIPLICATIVE:
            return np.log(curve)
        return np.asarray(curve)

    def from_working(self, curve) -> np.ndarray:
        """Inverse of :meth:`to_working`."""
        if self.kind is BandKind.MULTIPLICATIVE:
            return np.exp(curve)
        return np.asarray(curve)

    @property
    def midline(self) -> np.ndarray:
        """Band center: arithmetic for additive, geometric for multiplicative."""
        return self.from_working(
            0.5 * (self.to_working(self.lower) + self.to_working(self.upper))
        )


def make_cosine_bands(grid: Grid, kind: BandKind) -> BandPair:
    """The cosine-shaped default equivalence bands.

    Additive: lower(t) = -0.05 cos(2 pi t) - 0.15, upper(t) = 0.05 cos(2 pi t) + 0.15.
    Multiplicative: upper(t) = 0.1 cos(2 pi t) + 1.8, lower(t) = 1 / upper(t).
    """
    c = np.cos(2.0 * np.pi * grid.points)
    if kind is BandKind.ADDITIVE:
        return BandPair(grid, -0.05 * c - 0.15, 0.05 * c + 0.15, kind)
    upper = 0.1 * c + 1.8
    return BandPair(grid, 1.0 / upper, upper, kind)


def band_contains(band: BandPair, curve) -> bool:
    """True iff ``lower(t) < curve(t) < upper(t)`` at every grid point (open intervals)."""
    curve = np.asarray(curve, dtype=float)
    if curve.shape != (len(band.grid),):
        raise ValidationError(
            f"curve has shape {curve.shape}, expected ({len(band.grid)},)"
        )
    return bool(np.all(band.lower < curve) and np.all(curve < band.upper))

