import threading

import numpy as np
import pytest
from hypothesis import settings

from feqt.fdata import (
    Grid,
    GroupedPairedSample,
    PairedFunctionalSample,
    equispaced_grid,
)

# the same examples on every run, with no example database and no timing
# deadline, so a Tier-1 run is deterministic
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")

#: (criterion number, passed, detail) records printed after the run so the
#: acceptance outcomes stay visible even with captured stdout.
ACCEPTANCE_LINES = []


def record_criterion(number, passed, detail):
    line = f"criterion {number:2d}: {'PASS' if passed else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append((number, line))
    print(line, flush=True)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)


def make_grouped(rng, n_groups=4, group_size=5, n_points=6, group_sizes=None):
    """Random well-conditioned grouped paired sample for tests."""
    grid = equispaced_grid(n_points)
    sizes = group_sizes if group_sizes is not None else [group_size] * n_groups
    groups = []
    for n in sizes:
        alpha = rng.normal(0.0, 0.4, (2, n_points))
        y = alpha[None] + rng.normal(0.0, 0.5, (n, 2, n_points))
        groups.append(PairedFunctionalSample(grid, y[:, 0], y[:, 1]))
    return GroupedPairedSample(grid, tuple(groups))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def grid25():
    return equispaced_grid(25)


def band_coverage(band, draws):
    """Fraction of draws lying entirely inside ``band`` (closed, with a small
    tolerance for draws sitting exactly on the defining quantile)."""
    x = np.atleast_2d(np.asarray(draws, dtype=float))
    tol = 1e-12 * (1.0 + np.abs(band.upper) + np.abs(band.lower))
    inside = np.all((x >= band.lower - tol) & (x <= band.upper + tol), axis=1)
    return float(inside.mean())


class ChunkThreads:
    """Wraps ``feqt.tost._run_chunks`` so that a call of several chunks on two
    workers surely runs chunks on both threads: the caller's first chunk
    waits (at most 30 s) until the helper has begun one. ``calls`` lists, per
    call, the workers, the chunk bounds and the thread of each chunk run."""

    def __init__(self, run_chunks):
        self.run_chunks = run_chunks
        self.calls = []

    def __call__(self, bounds, run, workers):
        caller, helper_began = threading.get_ident(), threading.Event()
        ran_on = []
        self.calls.append((workers, bounds, ran_on))

        def traced(lo, hi):
            me = threading.get_ident()
            ran_on.append(me)
            if me != caller:
                helper_began.set()
            elif workers > 1 and len(bounds) > 1:
                helper_began.wait(timeout=30)
            run(lo, hi)

        return self.run_chunks(bounds, traced, workers)


@pytest.fixture
def two_threads(monkeypatch):
    """Two workers, each surely running chunks (:class:`ChunkThreads`)."""
    import feqt.tost as tost_mod

    threads = ChunkThreads(tost_mod._run_chunks)
    monkeypatch.setattr(tost_mod, "_WORKERS", 2)
    monkeypatch.setattr(tost_mod, "_run_chunks", threads)
    return threads
