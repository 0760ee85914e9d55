import ast
import hashlib
import importlib.machinery
import itertools
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import sparse

import feqt._scipyext as scipyext
import feqt.tost as tost_mod
from feqt.estimators import (
    DegenerateSpreadError,
    DegenerateVarianceError,
    adjusted_random_effects,
    anova_decompose,
    estimate_metrics_grouped,
)
from feqt.fdata import (
    BandKind,
    BandPair,
    FunctionalSample,
    Grid,
    GroupedPairedSample,
    PairedFunctionalSample,
    equispaced_grid,
    make_cosine_bands,
)
from feqt.tost import (
    BootstrapConfig,
    DegenerateReplicateError,
    Design,
    Metric,
    OneSidedBands,
    TostDecision,
    bootstrap_independent,
    bootstrap_matched,
    bootstrap_random_effects,
    empirical_quantile,
    ratio_bands,
    replicate_rng,
    run_tost,
    theta_bands,
    tost_decide,
)

from feqt.report import tost_report_csv
from feqt.simlab import default_truth, generate_dataset
from conftest import make_grouped
import reference_bootstrap


def dyadic_rows(rng, n, T):
    """n rows of quarter-integers in [-5, 5], tie-free in every column. Sums
    of a few such values are exact, so a floating-point variance of equal
    values is exactly zero and the gather reference's redraw rule is exact."""
    return np.stack([rng.permutation(np.arange(-20, 21))[:n] / 4 for _ in range(T)], axis=1)


def _matched_run(rng):
    grid = equispaced_grid(5)
    s = PairedFunctionalSample(grid, dyadic_rows(rng, 3, 5), dyadic_rows(rng, 3, 5))
    return lambda cfg: bootstrap_matched(s, cfg)


def _independent_run(rng):
    grid = equispaced_grid(5)
    s1 = FunctionalSample(grid, dyadic_rows(rng, 3, 5))
    s2 = FunctionalSample(grid, dyadic_rows(rng, 4, 5))
    return lambda cfg: bootstrap_independent(s1, s2, cfg)


def _grouped_run(rng):
    g = make_grouped(rng, group_sizes=[3, 4, 5], n_points=4)
    return lambda cfg: bootstrap_random_effects(g, cfg)


_DESIGNS = {"matched": _matched_run, "independent": _independent_run, "grouped": _grouped_run}


def replayed_redraws(cfg, segments, channels_of):
    """Each replicate's redraw count under the degeneracy rule, replayed from
    ``replicate_rng``: a draw (one ``integers`` call per segment) is redrawn
    iff one of the channels ``channels_of(idx)`` gives, each (n, T), holds
    equal values down some column. None if a replicate exceeds the cap."""
    out = np.zeros(cfg.replicates, dtype=int)
    for r in range(cfg.replicates):
        rng = replicate_rng(cfg.seed, r)
        while any(
            np.any(np.all(c == c[:1], axis=0))
            for c in channels_of(
                np.concatenate([off + rng.integers(0, n, size) for size, n, off in segments])
            )
        ):
            out[r] += 1
            if out[r] > tost_mod.REDRAW_CAP:
                return None
    return out


class TestEmpiricalQuantile:
    def test_hand_cases(self):
        x = np.arange(1.0, 11.0)
        assert empirical_quantile(x, 0.05) == 1.0  # ceil(0.5) -> 1st order stat
        assert empirical_quantile(x, 0.10) == 1.0
        assert empirical_quantile(x, 0.101) == 2.0
        assert empirical_quantile(x, 0.50) == 5.0
        assert empirical_quantile(x, 0.95) == 10.0

    def test_columnwise(self):
        x = np.array([[3.0, 1.0], [1.0, 2.0], [2.0, 3.0]])
        np.testing.assert_array_equal(empirical_quantile(x, 0.5), [2.0, 2.0])

    @given(st.floats(min_value=0.001, max_value=0.999), st.integers(2, 40))
    @settings(max_examples=80)
    def test_always_an_order_statistic(self, p, b):
        x = np.random.default_rng(0).normal(size=b)
        assert empirical_quantile(x, p) in x


class TestReplicateRng:
    def test_keyed_streams_are_reproducible(self):
        a = replicate_rng(7, 3).random(4)
        b = replicate_rng(7, 3).random(4)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ_across_replicates_and_seeds(self):
        assert not np.array_equal(replicate_rng(7, 3).random(4), replicate_rng(7, 4).random(4))
        assert not np.array_equal(replicate_rng(7, 3).random(4), replicate_rng(8, 3).random(4))


def scalar_draw(seed, r, segments):
    """Replicate r's draw of ``segments``, one ``integers`` call per segment."""
    rng = replicate_rng(seed, r)
    return np.concatenate([off + rng.integers(0, n, size) for size, n, off in segments])


def bulk_draws(seed, segments, B=300):
    """Every replicate's first draw through the chunked bulk path."""
    def keep(idx):  # every draw usable, returned as its own statistic
        return idx.astype(float), np.ones(len(idx), dtype=bool)

    slots = sum(size for size, _, _ in segments)
    (idx,), redraws = tost_mod._resolve_replicates(
        BootstrapConfig(B, seed=seed), segments, keep, slots
    )
    assert not redraws.any()
    return idx


class TestBulkDraws:
    """The bulk draws against ``replicate_rng``, index for index.

    The bulk path reproduces numpy's Philox state layout and the 32-bit
    Lemire path of ``Generator.integers``; this pins both across numpy
    versions. If it fails, fix the bulk path or fall back to the scalar one;
    never loosen it."""

    LAYOUTS = {
        "grouped": ((20, 20, 0), (400, 400, 0)),
        "matched": ((12, 12, 0),),
        "independent": ((9, 9, 0), (13, 13, 9)),
        "odd lengths": ((9, 9, 0), (45, 45, 0)),
        "full 32-bit range": ((3, 2**32, 0), (5, 7, 3)),
        # a half is rejected with probability 1/4, so about two thirds of
        # the replicates fall back, mid-row, and the next segment continues
        # their streams
        "forced rejections": ((4, 3 * 2**30, 0), (3, 5, 2)),
    }

    @pytest.mark.parametrize("chunk_elems", [1, 600, tost_mod._CHUNK_ELEMS])
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_matches_replicate_rng(self, layout, chunk_elems, monkeypatch):
        segments = self.LAYOUTS[layout]
        monkeypatch.setattr(tost_mod, "_CHUNK_ELEMS", chunk_elems)
        idx = bulk_draws(17, segments)
        for r in range(idx.shape[0]):
            np.testing.assert_array_equal(idx[r], scalar_draw(17, r, segments), err_msg=str(r))

    def test_rejections_are_flagged(self):
        _, rejected = tost_mod._draw_chunk(17, 0, 300, self.LAYOUTS["forced rejections"])
        assert 0.55 < rejected.mean() < 0.8  # 1 - (3/4)**4 = 0.68
        _, rejected = tost_mod._draw_chunk(17, 0, 300, self.LAYOUTS["odd lengths"])
        assert not rejected.any()

    @pytest.mark.parametrize("n", [0, 1, 2**32 + 1])
    def test_range_outside_the_32_bit_path_is_refused(self, n):
        # integers(0, 1, k) consumes no bits; wider ranges take 64-bit words
        with pytest.raises(ValueError, match="ranges"):
            tost_mod._draw_chunk(0, 0, 3, ((4, n, 0),))

    def test_scalar_path_is_only_a_fallback(self, rng, grid25, monkeypatch):
        calls = []

        def counted(seed, r):
            calls.append(r)
            return replicate_rng(seed, r)

        monkeypatch.setattr(tost_mod, "replicate_rng", counted)
        g = make_grouped(rng, n_groups=6, group_size=5, n_points=len(grid25))
        bootstrap_random_effects(g, BootstrapConfig(1000, seed=6))
        assert calls == []
        s = PairedFunctionalSample(
            equispaced_grid(5), dyadic_rows(rng, 3, 5), dyadic_rows(rng, 3, 5)
        )
        draws = bootstrap_matched(s, BootstrapConfig(1000, seed=8))
        assert draws.redraws.sum() > 0
        assert calls == list(np.flatnonzero(draws.redraws))


def _bits(draws):
    return [None if a is None else a.tobytes() for a in draws.__dict__.values()]


#: Prints the minor page faults of ``call()`` once ``warm()`` has run the same
#: kernel shapes, in a fresh interpreter: how freed memory goes back to the OS
#: depends on the allocations a process made before, so the test process
#: itself cannot measure it.
_WARM_FAULTS = """
import resource, warnings
from feqt.fdata import BandKind, equispaced_grid, make_cosine_bands
from feqt.simlab import boundary_violation_scenarios, default_truth, generate_dataset, run_study
from feqt.tost import BootstrapConfig, Design, Metric, bootstrap_random_effects, run_tost

warnings.simplefilter("ignore")  # the study's low B
{setup}
warm()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
call()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def warm_faults(setup):
    import feqt

    src = str(Path(feqt.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _WARM_FAULTS.format(setup=setup)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True,
    )
    return int(proc.stdout.split()[-1])


#: The scipy extensions feqt loads from their files (``feqt._scipyext``).
LOADED_EXTENSIONS = (
    "sparse/_sparsetools",
    "special/_special_ufuncs",
    "linalg/_flapack",
    "optimize/_zeros",
    "stats/_sobol",
)


class TestChunkBuffers:
    """The kernel's per-thread working buffers: the same bits as fresh
    arrays, private to each thread, bounded, and actually reused."""

    @pytest.mark.parametrize("design", ["grouped", "matched"])
    def test_count_sums_equal_scipy_product(self, design):
        rng = np.random.default_rng(4)
        if design == "grouped":  # the residual slots after A = 3 effect slots
            sizes, K = np.array([4, 2, 5]), 10
            idx = rng.integers(0, 11, size=(6, 3 + 11))[:, 3:]
        else:
            sizes, K = np.array([7]), 8
            idx = rng.integers(0, 7, size=(5, 7))
        R = idx.max() + 1
        # a smaller call first leaves negative sums in the reused output
        tost_mod._count_sums(idx[:2], sizes, -np.ones((R, K)))
        columns = rng.normal(size=(R, K))
        columns[:, 1] = -0.0  # the product starts from +0.0, so it sums to +0.0
        m, G = idx.shape[0], sizes.size
        indptr = np.concatenate([[0], np.cumsum(np.tile(sizes, m))])
        counts = sparse.csr_matrix((np.ones(idx.size), idx.ravel(), indptr), shape=(m * G, R))
        assert len(set(idx[0])) < idx.shape[1]  # rows repeat within a replicate
        want = (counts @ columns).reshape(m, G, K)
        got = tost_mod._count_sums(idx, sizes, columns)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert not np.signbit(got[..., 1]).any()

    def test_threads_keep_their_own_buffers(self):
        datasets = [
            generate_dataset(default_truth(equispaced_grid(25), A, n), A)
            for A, n in ((20, 20), (10, 10))
        ]
        cfg = BootstrapConfig(1000, seed=2)
        want = [_bits(bootstrap_random_effects(g, cfg)) for g in datasets]
        results, pools = [[], []], [None, None]

        def work(k):
            for r in range(4):  # each thread alternates the two shapes
                j = (k + r) % 2
                results[k].append((j, _bits(bootstrap_random_effects(datasets[j], cfg))))
            pools[k] = sum(b.nbytes for b in vars(tost_mod._buffers).values())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for k in range(2):
            assert len(results[k]) == 4
            for j, bits in results[k]:
                assert bits == want[j]
            # one chunk's working arrays, at 8 bytes an element
            assert 0 < pools[k] <= 8 * tost_mod._CHUNK_ELEMS

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads Linux ru_minflt")
    def test_warm_grouped_bootstrap_faults_few_pages(self):
        faults = warm_faults(
            "g = generate_dataset(default_truth(equispaced_grid(25), 20, 20), 0)\n"
            "warm = call = lambda: bootstrap_random_effects(g, BootstrapConfig(2000, seed=0))"
        )
        assert faults < 5000  # about 16 000 when each chunk allocates afresh

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads Linux ru_minflt")
    def test_warm_size_study_faults_few_pages(self):
        faults = warm_faults(
            "grid = equispaced_grid(25)\n"
            "bands = make_cosine_bands(grid, BandKind.ADDITIVE)\n"
            "seq = boundary_violation_scenarios(default_truth(grid, 10, 10), bands, Metric.THETA)\n"
            "cfg = BootstrapConfig(100, 0.05, 0, Design.RANDOM_EFFECTS_MATCHED)\n"
            "warm = lambda: run_tost(generate_dataset(seq.truths[0], 0), cfg, {Metric.THETA: bands})\n"
            "call = lambda: run_study(seq, 50, cfg, {Metric.THETA: bands})"
        )
        assert faults < 5000  # about 150 000 when each chunk allocates afresh

    def test_count_product_loop_loaded_without_scipy_sparse(self):
        assert sys.modules["feqt._sparsetools"] is tost_mod._sparsetools
        assert tost_mod._sparsetools is not sparse._sparsetools  # scipy.sparse loads its own

    def test_missing_count_product_loop_names_the_search(self, tmp_path, monkeypatch):
        """So does every other extension the loader serves."""
        scipy_spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        scipy_spec.submodule_search_locations = [str(tmp_path)]
        monkeypatch.setattr(scipyext.importlib.util, "find_spec", lambda name: scipy_spec)
        for path in LOADED_EXTENSIONS:
            monkeypatch.delitem(sys.modules, "feqt." + path.split("/")[1], raising=False)
            want = str(tmp_path.joinpath(*path.split("/")))
            want += importlib.machinery.EXTENSION_SUFFIXES[0]
            with pytest.raises(ImportError, match=re.escape(want)):
                scipyext._load_scipy_ext(path)

    def test_every_extension_fed_to_the_loader_is_listed_and_kept(self):
        called = {
            node.args[0].value
            for path in Path(tost_mod.__file__).parent.rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_load_scipy_ext"
        }
        assert sorted(called) == sorted(LOADED_EXTENSIONS)
        for path in LOADED_EXTENSIONS:
            module = scipyext._load_scipy_ext(path)
            assert sys.modules["feqt." + path.split("/")[1]] is module
            assert scipyext._load_scipy_ext(path) is module


def _lemire_run(rng):
    # 2**32 mod 1179 = 1178, so a drawn half is rejected with probability
    # 2.7e-7; with seed 4 four of the first 1000 replicates hit a rejection
    grid = equispaced_grid(2)
    y = rng.normal(size=(1179, 2, 2))
    s = PairedFunctionalSample(grid, y[:, 0], y[:, 1])
    assert tost_mod._draw_chunk(4, 0, 1000, ((1179, 1179, 0),))[1].sum() == 4
    return lambda cfg: bootstrap_matched(s, cfg)


def _spread_below_rounding_run(rng):
    x1, x2 = np.array([0.0, 1e-9, 1e9]), np.array([1.0, 2.0, 4.0])
    s = PairedFunctionalSample(Grid([0.5]), x1[:, None], x2[:, None])
    return lambda cfg: bootstrap_matched(s, cfg)


def _grouped_redrawn_run(rng):
    g = generate_dataset(default_truth(equispaced_grid(8), 3, 2), 0)
    return lambda cfg: bootstrap_random_effects(g, cfg)


def _grouped_theta_run(rng):
    g = make_grouped(rng, group_sizes=[3, 4, 5, 2, 6], n_points=7)
    return lambda cfg: bootstrap_random_effects(g, cfg, theta_only=True)


class TestTwoWorkers:
    """Chunks split between the caller and the helper thread give the bits,
    the redraws and the errors of one thread."""

    #: name -> (run maker, seed, total redraws at B=1000)
    CASES = {
        "grouped": (_grouped_run, 10, 0),
        "grouped theta only": (_grouped_theta_run, 10, 0),
        "grouped redrawn": (_grouped_redrawn_run, 6, None),
        "matched": (_matched_run, 4, None),
        "independent": (_independent_run, 4, None),
        "spread below rounding": (_spread_below_rounding_run, 1, 112),
        "Lemire rejections": (_lemire_run, 4, 0),
    }

    @pytest.mark.parametrize("chunk_elems", [600, 20_000, tost_mod._CHUNK_ELEMS])
    @pytest.mark.parametrize("case", list(CASES))
    def test_bits_do_not_depend_on_the_worker_count(
        self, case, chunk_elems, monkeypatch, two_threads
    ):
        make_run, seed, total_redraws = self.CASES[case]
        run, cfg = make_run(np.random.default_rng(7)), BootstrapConfig(1000, seed=seed)
        monkeypatch.setattr(tost_mod, "_CHUNK_ELEMS", chunk_elems)
        monkeypatch.setattr(tost_mod, "_WORKERS", 1)
        one = run(cfg)
        monkeypatch.setattr(tost_mod, "_WORKERS", 2)
        two = run(cfg)
        assert _bits(two) == _bits(one)
        if total_redraws is not None:
            assert two.redraws.sum() == total_redraws
        else:
            assert two.redraws.sum() > 0
        (_, serial, _), (workers, bounds, ran_on) = two_threads.calls
        if len(serial) > 1:  # half chunks, some run by the helper
            assert workers == 2 and len(set(ran_on)) == 2
            assert 2 * (bounds[0][1] - bounds[0][0]) <= serial[0][1] - serial[0][0] + 1
        else:
            assert workers == 1 and bounds == serial

    def test_a_failing_later_chunk_raises_the_serial_error(self, monkeypatch, two_threads):
        # with one redraw allowed, a replicate fails when drawn degenerate
        # twice running (1 in 81 on three distinct pairs): about a dozen of
        # 1000 fail, spread over the chunks of both threads
        monkeypatch.setattr(tost_mod, "REDRAW_CAP", 1)
        monkeypatch.setattr(tost_mod, "_CHUNK_ELEMS", 600)
        x = np.array([[1.1, 0.9], [2.3, 2.0], [0.4, 0.7]])
        s = PairedFunctionalSample(Grid([0.5]), x[:, :1], x[:, 1:])
        cfg = BootstrapConfig(1000, seed=3)
        messages = []
        for workers in (1, 2):
            monkeypatch.setattr(tost_mod, "_WORKERS", workers)
            with pytest.raises(DegenerateReplicateError) as err:
                bootstrap_matched(s, cfg)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        first = int(re.search(r"replicate (\d+)", messages[0]).group(1))
        workers, bounds, ran_on = two_threads.calls[-1]
        assert first >= bounds[0][1] and len(set(ran_on)) == 2  # a later chunk, both threads

    def test_the_lowest_failing_chunk_raises(self):
        # chunk 2 fails first; chunk 1, claimed before it, fails after it
        chunk_2_failed, done = threading.Event(), []

        def run(lo, hi):
            if lo == 1:
                chunk_2_failed.wait(timeout=30)
                raise ValueError("chunk 1")
            if lo == 2:
                chunk_2_failed.set()
                raise ValueError("chunk 2")
            done.append(lo)

        with pytest.raises(ValueError, match="chunk 1"):
            tost_mod._run_chunks([(0, 1), (1, 2), (2, 3), (3, 4)], run, 2)
        assert chunk_2_failed.is_set() and done == [0]  # no chunk claimed after a failure

    def test_an_interrupt_stops_the_helper_claiming(self):
        caller, ran = threading.get_ident(), []

        def run(lo, hi):
            ran.append(lo)
            if threading.get_ident() == caller:
                raise KeyboardInterrupt
            time.sleep(0.01)

        with pytest.raises(KeyboardInterrupt):
            tost_mod._run_chunks([(k, k + 1) for k in range(100)], run, 2)
        assert len(ran) < 100  # the helper stopped claiming, and is joined
        assert "feqt-bootstrap" not in [t.name for t in threading.enumerate()]

    def test_one_chunk_calls_start_no_thread(self, monkeypatch):
        # the size study's shape: 10 groups of 10 pairs, T=25, B=100
        def no_thread(*args, **kwargs):
            raise AssertionError("a one-chunk call started a thread")

        monkeypatch.setattr(tost_mod, "_WORKERS", 2)
        monkeypatch.setattr(tost_mod.threading, "Thread", no_thread)
        g = generate_dataset(default_truth(equispaced_grid(25), 10, 10), 0)
        before = threading.active_count()
        for theta_only in (True, False):
            bootstrap_random_effects(g, BootstrapConfig(100, seed=1), theta_only=theta_only)
        assert threading.active_count() == before

    def test_the_helper_is_joined_before_the_call_returns(self, two_threads):
        g = make_grouped(np.random.default_rng(2), n_groups=20, group_size=20, n_points=25)
        before = threading.active_count()
        for seed in (0, 1):
            bootstrap_random_effects(g, BootstrapConfig(2000, seed=seed))
            assert threading.active_count() == before
            assert "feqt-bootstrap" not in [t.name for t in threading.enumerate()]
        helpers = [set(ran_on) - {threading.get_ident()} for _, _, ran_on in two_threads.calls]
        assert [len(h) for h in helpers] == [1, 1]

    def test_callers_sharing_the_helper_under_rapid_switching(self, monkeypatch):
        # three callers and the helper on many small chunks, switching
        # threads every microsecond: a lost update of a chunk's rows or
        # redraw counts would change the bits
        monkeypatch.setattr(tost_mod, "_CHUNK_ELEMS", 600)
        runs = [make_run(np.random.default_rng(k)) for k, make_run in enumerate(
            (_matched_run, _independent_run, _grouped_redrawn_run))]
        cfg = BootstrapConfig(1000, seed=4)
        monkeypatch.setattr(tost_mod, "_WORKERS", 1)
        want = [_bits(run(cfg)) for run in runs]
        monkeypatch.setattr(tost_mod, "_WORKERS", 2)
        got = [[] for _ in runs]

        def work(k):
            for _ in range(3):
                got[k].append(_bits(runs[k](cfg)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(len(runs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [[w] * 3 for w in want]

    def test_a_late_helper_claims_no_chunk(self, monkeypatch):
        monkeypatch.setattr(tost_mod, "_WORKERS", 2)
        monkeypatch.setattr(tost_mod, "_CHUNK_ELEMS", 600)
        g = make_grouped(np.random.default_rng(3), group_sizes=[3, 4, 5, 2, 6], n_points=7)
        cfg = BootstrapConfig(1000, seed=10)
        joined, ran_on, run_chunks = threading.Event(), [], tost_mod._run_chunks

        class LateThread(threading.Thread):
            """Begins its work only once the caller, out of chunks, joins it."""

            def run(self):
                joined.wait(timeout=30)
                super().run()

            def join(self, timeout=None):
                joined.set()
                super().join(timeout)

        def noting_threads(bounds, run, workers):
            def noted(lo, hi):
                ran_on.append(threading.get_ident())
                run(lo, hi)

            run_chunks(bounds, noted, workers)

        monkeypatch.setattr(tost_mod.threading, "Thread", LateThread)
        monkeypatch.setattr(tost_mod, "_run_chunks", noting_threads)
        got = _bits(bootstrap_random_effects(g, cfg))
        assert joined.is_set() and len(ran_on) > 1 and set(ran_on) == {threading.get_ident()}
        monkeypatch.setattr(tost_mod, "_WORKERS", 1)
        assert got == _bits(bootstrap_random_effects(g, cfg))


class TestReadOnlyResults:
    """Result arrays are read-only views: no copy, the caller's flags kept."""

    def test_report_arrays_cannot_be_written(self):
        g = generate_dataset(default_truth(equispaced_grid(8), 8, 5), 0)
        bands = {m: make_cosine_bands(g.grid, m.band_kind) for m in Metric}
        cfg = BootstrapConfig(200, seed=1, design=Design.RANDOM_EFFECTS_MATCHED)
        rep = run_tost(g, cfg, bands)
        csv = tost_report_csv(rep)
        with pytest.raises(ValueError, match="read-only"):
            rep.results[Metric.THETA].bands.lower_of_upper_ci[0] = 99.0
        for r in rep.results.values():
            for a in (r.estimate, r.violations, r.bands.lower_of_upper_ci,
                      r.bands.upper_of_lower_ci):
                assert not a.flags.writeable
        assert tost_report_csv(rep) == csv

    def test_draws_and_estimates_are_read_only(self, rng):
        g = make_grouped(rng, n_groups=5, group_size=4, n_points=6)
        draws = bootstrap_random_effects(g, BootstrapConfig(200, seed=3))
        decomp = anova_decompose(g)
        est = estimate_metrics_grouped(g, decomp)
        arrays = [draws.theta, draws.lam, draws.psi, draws.redraws,
                  est.theta_hat, est.lambda_hat, est.psi_hat,
                  decomp.mean_overall, decomp.mean_by_group, decomp.sse, decomp.ssa,
                  decomp.s2_alpha]
        assert not any(a.flags.writeable for a in arrays)

    def test_the_callers_array_is_shared_and_keeps_its_flags(self):
        lo, hi = np.array([0.3, 0.4]), np.array([-0.2, -0.1])
        osb = OneSidedBands(Metric.THETA, lo, hi)
        assert np.shares_memory(osb.lower_of_upper_ci, lo) and lo.flags.writeable
        assert not osb.lower_of_upper_ci.flags.writeable


class TestBootstrapConfig:
    def test_bounds(self):
        with pytest.raises(ValueError, match="at least 100"):
            BootstrapConfig(50)
        with pytest.raises(ValueError, match="alpha"):
            BootstrapConfig(1000, alpha=0.6)

    def test_low_b_warns(self):
        with pytest.warns(UserWarning, match="low") as record:
            BootstrapConfig(200)
        assert record[0].filename == __file__  # the caller, not the generated __init__


def enumeration_endpoints(x1, x2, alpha, B=100_000, seed=0):
    """Exhaustive-enumeration endpoints for the matched-pairs design, T=1.

    Enumerates all n^n equally likely resamples, keeps the nondegenerate ones
    (the engine redraws degenerate replicates, which conditions its draws on
    nondegeneracy), and applies the same quantile and endpoint rules.
    """
    n = len(x1)
    theta_hat = np.mean(x1) - np.mean(x2)
    lam_hat = np.var(x1, ddof=1) / np.var(x2, ddof=1)
    thetas, lams = [], []
    for idx in itertools.product(range(n), repeat=n):
        r1 = np.array([x1[i] for i in idx])
        r2 = np.array([x2[i] for i in idx])
        v1, v2 = np.var(r1, ddof=1), np.var(r2, ddof=1)
        if v1 <= 0.0 or v2 <= 0.0:
            continue
        thetas.append(np.mean(r1) - np.mean(r2))
        lams.append(v1 / v2)
    thetas = np.array(thetas)
    inv = 1.0 / np.array(lams)

    def q(arr, p):
        k = min(max(int(np.ceil(p * arr.size)), 1), arr.size) - 1
        return np.sort(arr)[k]

    return {
        "theta_upper_of_lower": 2 * theta_hat - q(thetas, 1 - alpha),
        "theta_lower_of_upper": 2 * theta_hat - q(thetas, alpha),
        "lam_upper_of_lower": lam_hat**2 * q(inv, alpha),
        "lam_lower_of_upper": lam_hat**2 * q(inv, 1 - alpha),
    }


class TestEnumerationOracle:
    def test_matched_pairs_n3(self):
        grid = Grid([0.5])
        x1 = np.array([1.1, 2.3, 0.4])
        x2 = np.array([0.9, 2.0, 1.0])
        s = PairedFunctionalSample(grid, x1[:, None], x2[:, None])
        cfg = BootstrapConfig(20_000, alpha=0.05, seed=3)
        draws = bootstrap_matched(s, cfg)
        tb = theta_bands(draws.theta, x1.mean() - x2.mean(), 0.05)
        lb = ratio_bands(
            draws.lam, np.var(x1, ddof=1) / np.var(x2, ddof=1), 0.05, Metric.LAMBDA
        )
        ref = enumeration_endpoints(x1, x2, 0.05)
        # finite-B quantile noise only; 2e4 draws over 27 atoms is tight
        assert tb.upper_of_lower_ci[0] == pytest.approx(ref["theta_upper_of_lower"], abs=0.02)
        assert tb.lower_of_upper_ci[0] == pytest.approx(ref["theta_lower_of_upper"], abs=0.02)
        assert lb.upper_of_lower_ci[0] == pytest.approx(ref["lam_upper_of_lower"], abs=0.05)
        assert lb.lower_of_upper_ci[0] == pytest.approx(ref["lam_lower_of_upper"], abs=0.05)


class TestBootstrapMechanics:
    def test_deterministic_in_seed(self, rng, grid25):
        y = rng.normal(size=(6, 2, 25))
        s = PairedFunctionalSample(grid25, y[:, 0], y[:, 1])
        cfg = BootstrapConfig(300, seed=11)
        d1 = bootstrap_matched(s, cfg)
        d2 = bootstrap_matched(s, cfg)
        np.testing.assert_array_equal(d1.theta, d2.theta)
        np.testing.assert_array_equal(d1.lam, d2.lam)
        d3 = bootstrap_matched(s, BootstrapConfig(300, seed=12))
        assert not np.array_equal(d1.theta, d3.theta)

    def test_chunking_invariant(self, rng, monkeypatch):
        # one replicate per chunk, or a few: chunks then end between the
        # replicates that need a redraw (the two-channel designs redraw
        # often on three or four dyadic rows)
        cfg = BootstrapConfig(200, seed=4)
        default = tost_mod._CHUNK_ELEMS
        for design, make_run in _DESIGNS.items():
            run = make_run(rng)
            monkeypatch.setattr(tost_mod, "_CHUNK_ELEMS", default)
            full = run(cfg)
            if design != "grouped":
                assert np.count_nonzero(full.redraws[100:]) > 0, design
            for chunk_elems in (1, 600):
                monkeypatch.setattr(tost_mod, "_CHUNK_ELEMS", chunk_elems)
                chunked = run(cfg)
                for name in ("theta", "lam", "psi", "redraws"):
                    np.testing.assert_array_equal(
                        getattr(chunked, name), getattr(full, name), err_msg=design
                    )

    def test_single_row_resamples_are_redrawn(self):
        # pair 3 has equal channels; drawn three times it gives theta == 0
        # and a 0/0 variance ratio. Floating-point variances of three equal
        # values are often a few ulps above zero, so a variance test lets
        # such replicates through; the draw itself shows they are degenerate.
        x1 = np.array([1.1, 2.3, 0.4])
        x2 = np.array([0.9, 2.0, 0.4])
        s = PairedFunctionalSample(Grid([0.5]), x1[:, None], x2[:, None])
        cfg = BootstrapConfig(9000, seed=3)
        (theta, _), _ = reference_bootstrap.matched(s, cfg)
        assert np.count_nonzero(theta == 0.0) > 0  # the variance test's escapes
        draws = bootstrap_matched(s, cfg)
        assert not np.any(draws.theta == 0.0)
        assert np.all(np.isfinite(draws.lam)) and np.all(draws.lam > 0.0)
        assert draws.redraws.sum() > 0

    def test_redraw_cap_error(self, grid25):
        # every resample of identical pairs is degenerate
        c = np.ones((3, 25))
        s = PairedFunctionalSample(grid25, c, 2.0 * c)
        with pytest.raises(DegenerateReplicateError, match="redraws"):
            bootstrap_matched(s, BootstrapConfig(100, seed=0))

    def test_redraws_follow_the_drawn_values(self):
        # a replicate is redrawn iff a channel drew one value only, whether
        # from one row or from tied rows; on these rows the count-form
        # variance of such draws often lands a few ulps above zero, so only
        # the draw itself can tell
        x1 = np.array([1.1, 1.1, 0.1])  # rows 0 and 1 tie
        x2 = np.array([-1.3, -0.6, 0.0])
        s = PairedFunctionalSample(Grid([0.5]), x1[:, None], x2[:, None])
        cfg = BootstrapConfig(2000, seed=5)
        expected = replayed_redraws(cfg, ((3, 3, 0),), lambda i: (x1[i][:, None], x2[i][:, None]))
        np.testing.assert_array_equal(bootstrap_matched(s, cfg).redraws, expected)

    def test_spread_below_rounding_is_kept(self):
        # drawing only the first two rows, channel 1's variance (~1e-19) is
        # far below the rounding of sums over the 1e9 row, so the count form
        # may put it at or below 0; the draw holds two values, so the
        # replicate is kept with its exact variance, never redrawn
        x1 = np.array([0.0, 1e-9, 1e9])
        x2 = np.array([1.0, 2.0, 4.0])
        s = PairedFunctionalSample(Grid([0.5]), x1[:, None], x2[:, None])
        cfg = BootstrapConfig(1000, seed=1)
        draws = bootstrap_matched(s, cfg)
        assert np.all(np.isfinite(draws.lam)) and np.all(draws.lam > 0.0)
        expected = replayed_redraws(cfg, ((3, 3, 0),), lambda i: (x1[i][:, None], x2[i][:, None]))
        np.testing.assert_array_equal(draws.redraws, expected)
        assert draws.redraws.sum() == 112

    @pytest.mark.parametrize("case, message", [
        ("one curve", "both groups need at least 2 curves"),
        ("two grids", "groups must share a grid"),
        ("one pair", "need at least 2 pairs"),
        ("one-pair group", "every group needs at least 2 pairs"),
    ])
    def test_samples_the_kernels_cannot_resample_refused(self, rng, case, message):
        grid, cfg = equispaced_grid(4), BootstrapConfig(1000, seed=2)
        curves = lambda n, g=grid: FunctionalSample(g, rng.normal(size=(n, len(g))))
        run = {
            "one curve": lambda: bootstrap_independent(curves(1), curves(3), cfg),
            "two grids": lambda: bootstrap_independent(
                curves(3), curves(3, equispaced_grid(5)), cfg),
            "one pair": lambda: bootstrap_matched(
                PairedFunctionalSample(grid, curves(1).curves, curves(1).curves), cfg),
            "one-pair group": lambda: bootstrap_random_effects(
                make_grouped(rng, group_sizes=[3, 1, 3], n_points=4), cfg),
        }[case]
        with pytest.raises(ValueError, match=message):
            run()

    def test_random_effects_draw_shapes(self, rng):
        s = make_grouped(rng, group_sizes=[3, 4, 5], n_points=4)
        d = bootstrap_random_effects(s, BootstrapConfig(150, seed=2))
        assert d.theta.shape == (150, 4)
        assert d.lam.shape == (150, 4)
        assert d.psi.shape == (150, 4)
        assert np.all(d.lam > 0.0) and np.all(d.psi > 0.0)


#: tied values of mixed magnitude: the count form's rounding at 1e9 hides a
#: spread at 1e-9, and equal values must still be told apart from near ones
_MIXED = (0.0, 1e-9, 3e-9, -1e-3, 1.0, 1.0 + 2**-40, -7.0, 1e3, 1e9, -1e9, 3e9)


@st.composite
def tied_columns(draw, n, T):
    """(n, T) values from a palette of 2 or 3 mixed-magnitude values, every
    column holding at least two of them."""
    palette = draw(st.lists(st.sampled_from(_MIXED), min_size=2, max_size=3, unique=True))
    x = np.array(draw(st.lists(st.sampled_from(palette), min_size=n * T, max_size=n * T)))
    x = x.reshape(n, T)
    assume(np.all(np.any(x != x[:1], axis=0)))
    return x


class TestDegeneracyRule:
    """Every design redraws a replicate iff a denominator channel's drawn (or
    reconstructed) values are all equal at a grid point, as a replay of
    ``replicate_rng`` decides it, and keeps every other ratio finite and
    positive, however the count form rounds."""

    CFG = BootstrapConfig(200, seed=2)

    @staticmethod
    def check(run, expected):
        if expected is None:
            with pytest.raises(DegenerateReplicateError):
                run()
            return
        draws = run()
        np.testing.assert_array_equal(draws.redraws, expected)
        assert np.all(np.isfinite(draws.lam)) and np.all(draws.lam > 0.0)

    @given(st.data(), st.integers(2, 4), st.integers(1, 2))
    @settings(max_examples=40)
    def test_matched(self, data, n, T):
        c1, c2 = data.draw(tied_columns(n, T)), data.draw(tied_columns(n, T))
        s = PairedFunctionalSample(equispaced_grid(T), c1, c2)
        expected = replayed_redraws(self.CFG, ((n, n, 0),), lambda i: (c1[i], c2[i]))
        self.check(lambda: bootstrap_matched(s, self.CFG), expected)

    @given(st.data(), st.integers(2, 4), st.integers(2, 4), st.integers(1, 2))
    @settings(max_examples=40)
    def test_independent(self, data, n1, n2, T):
        c1, c2 = data.draw(tied_columns(n1, T)), data.draw(tied_columns(n2, T))
        s1, s2 = FunctionalSample(equispaced_grid(T), c1), FunctionalSample(equispaced_grid(T), c2)
        segments = ((n1, n1, 0), (n2, n2, n1))
        expected = replayed_redraws(self.CFG, segments, lambda i: (c1[i[:n1]], c2[i[n1:] - n1]))
        self.check(lambda: bootstrap_independent(s1, s2, self.CFG), expected)

    @given(st.data(), st.lists(st.integers(2, 3), min_size=2, max_size=3), st.integers(1, 2))
    @settings(max_examples=40)
    def test_grouped(self, data, sizes, T):
        N, A = sum(sizes), len(sizes)
        y1, y2 = data.draw(tied_columns(N, T)), data.draw(tied_columns(N, T))
        bounds = np.cumsum([0] + sizes)
        grid = equispaced_grid(T)
        g = GroupedPairedSample(grid, tuple(
            PairedFunctionalSample(grid, y1[a:b], y2[a:b]) for a, b in zip(bounds[:-1], bounds[1:])
        ))
        d = anova_decompose(g)
        try:
            a_hat = adjusted_random_effects(d)
        except DegenerateSpreadError:
            assume(False)
        labels = g.group_labels()
        resid = g.stacked() - d.mean_by_group[labels]

        def channels(i):  # the reconstructed curves, as the kernel makes them
            y = a_hat[i[:A]][labels] + resid[i[A:]]
            return y[:, 0], y[:, 1]

        expected = replayed_redraws(self.CFG, ((A, A, 0), (N, N, 0)), channels)
        self.check(lambda: bootstrap_random_effects(g, self.CFG, d), expected)


class TestThetaOnly:
    """The theta-only kernel: the full kernel's theta bits, no redraws."""

    def test_theta_bits_equal_the_full_kernel(self, rng):
        g = make_grouped(rng, group_sizes=[3, 4, 5, 2, 6], n_points=7)
        cfg = BootstrapConfig(1000, seed=10)
        full = bootstrap_random_effects(g, cfg)
        assert not full.redraws.any()
        draws = bootstrap_random_effects(g, cfg, theta_only=True)
        np.testing.assert_array_equal(draws.theta, full.theta)
        assert draws.lam is None and draws.psi is None

    def test_theta_only_never_redraws(self):
        # on 3 groups of 2 pairs, one replicate of seed 6 draws an SSE of 0,
        # whatever the data; theta is defined there and is kept
        g = generate_dataset(default_truth(equispaced_grid(8), 3, 2), 0)
        cfg = BootstrapConfig(1000, seed=6)
        full = bootstrap_random_effects(g, cfg)
        assert full.redraws.sum() > 0
        draws = bootstrap_random_effects(g, cfg, theta_only=True)
        assert draws.redraws.sum() == 0
        kept = full.redraws == 0
        np.testing.assert_array_equal(draws.theta[kept], full.theta[kept])

    @pytest.mark.parametrize("metrics", [[Metric.THETA], list(Metric)])
    def test_run_tost_decomposes_once(self, rng, monkeypatch, metrics):
        import feqt.estimators as est_mod

        calls = []
        decompose = est_mod.anova_decompose

        def counted(g):
            calls.append(g)
            return decompose(g)

        monkeypatch.setattr(tost_mod, "anova_decompose", counted)
        monkeypatch.setattr(est_mod, "anova_decompose", counted)
        g = make_grouped(rng, n_groups=5, group_size=4, n_points=6)
        bands = {m: make_cosine_bands(g.grid, m.band_kind) for m in metrics}
        cfg = BootstrapConfig(200, seed=3, design=Design.RANDOM_EFFECTS_MATCHED)
        rep = run_tost(g, cfg, bands)
        assert len(calls) == 1
        full = bootstrap_random_effects(g, cfg)
        assert not full.redraws.any()
        expected = theta_bands(full.theta, rep.results[Metric.THETA].estimate, cfg.alpha)
        got = rep.results[Metric.THETA].bands
        np.testing.assert_array_equal(got.lower_of_upper_ci, expected.lower_of_upper_ci)
        np.testing.assert_array_equal(got.upper_of_lower_ci, expected.upper_of_lower_ci)


class TestTheta:
    """Theta from one weighted product per replicate (``tost._theta``): the
    brute-force theta, the same bits however the replicates are chunked or
    threaded, and no per-group sums."""

    SIZES = [2, 3, 7, 4]

    @staticmethod
    def recorded(monkeypatch):
        """Patch ``_theta`` to note each call's rows and terms; returns the notes."""
        calls, theta = [], tost_mod._theta

        def noted(idx, *terms):
            calls.append((idx.copy(), terms))
            return theta(idx, *terms)

        monkeypatch.setattr(tost_mod, "_theta", noted)
        return calls

    def test_equals_brute_force_on_unbalanced_groups(self, rng):
        g = make_grouped(rng, group_sizes=self.SIZES, n_points=6)
        A, N = g.n_groups, g.n_total
        cfg = BootstrapConfig(300, seed=5)
        draws = bootstrap_random_effects(g, cfg, theta_only=True)
        d = anova_decompose(g)
        a_hat, labels = adjusted_random_effects(d), g.group_labels()
        resid = g.stacked() - d.mean_by_group[labels]
        for r in range(cfg.replicates):
            rng_r = replicate_rng(cfg.seed, r)
            effects, rows = rng_r.integers(0, A, A), rng_r.integers(0, N, N)
            y = a_hat[effects][labels] + resid[rows]  # the reconstructed curves, (N, 2, T)
            means = np.stack([y[labels == k].mean(axis=0) for k in range(A)])
            want = (means[:, 0] - means[:, 1]).mean(axis=0)
            np.testing.assert_allclose(draws.theta[r], want, rtol=0.0, atol=1e-12, err_msg=str(r))

    @pytest.mark.parametrize("sizes", [SIZES, [5, 5, 5, 5]], ids=["unbalanced", "balanced"])
    def test_bits_do_not_depend_on_the_chunk_size(self, rng, monkeypatch, sizes):
        g = make_grouped(rng, group_sizes=sizes, n_points=6)
        calls = self.recorded(monkeypatch)
        want = bootstrap_random_effects(g, BootstrapConfig(250, seed=3), theta_only=True).theta
        [(idx, terms)] = calls
        for step in (1, 7, 125, 250):
            got = np.concatenate(
                [tost_mod._theta(idx[lo:lo + step], *terms) for lo in range(0, 250, step)]
            )
            assert got.tobytes() == want.tobytes(), step

    @pytest.mark.parametrize("theta_only", [True, False], ids=["theta only", "full"])
    def test_bits_do_not_depend_on_the_worker_count(self, rng, monkeypatch, theta_only):
        g = make_grouped(rng, group_sizes=self.SIZES, n_points=6)
        cfg = BootstrapConfig(1000, seed=8)
        monkeypatch.setattr(tost_mod, "_CHUNK_ELEMS", 2000)
        calls, bits = self.recorded(monkeypatch), []
        for workers in (1, 2):
            monkeypatch.setattr(tost_mod, "_WORKERS", workers)
            draws = bootstrap_random_effects(g, cfg, theta_only=theta_only)
            bits.append(draws.theta.tobytes())
        assert bits[0] == bits[1]
        assert len(calls) > 4  # several chunks on each worker count

    def test_theta_only_takes_no_count_sums(self, rng, monkeypatch):
        def no_sums(*args):
            raise AssertionError("a theta-only replicate built per-group sums")

        g = make_grouped(rng, group_sizes=self.SIZES, n_points=6)
        want = bootstrap_random_effects(g, BootstrapConfig(200, seed=4)).theta
        monkeypatch.setattr(tost_mod, "_count_sums", no_sums)
        cfg = BootstrapConfig(200, seed=4, design=Design.RANDOM_EFFECTS_MATCHED)
        draws = bootstrap_random_effects(g, cfg, theta_only=True)
        assert draws.theta.tobytes() == want.tobytes()
        run_tost(g, cfg, {Metric.THETA: make_cosine_bands(g.grid, BandKind.ADDITIVE)})


class TestAgainstGatherReference:
    """The count kernel against the gather kernels it replaced
    (``reference_bootstrap``), at tolerances fixed when it came in: theta
    within 1e-10 of the data's scale (a difference of means has no relative
    accuracy at its zero), lambda within rel 1e-10, psi within rel 1e-6 (its
    floored difference of mean squares amplifies rounding), and the same
    redrawn replicates wherever the reference's rule is exact."""

    @staticmethod
    def check(draws, reference, scale):
        (theta, lam, *psi), redraws = reference
        np.testing.assert_allclose(draws.theta, theta, rtol=0.0, atol=1e-10 * scale)
        np.testing.assert_allclose(draws.lam, lam, rtol=1e-10)
        if psi:
            np.testing.assert_allclose(draws.psi, psi[0], rtol=1e-6)
        np.testing.assert_array_equal(draws.redraws, redraws)

    def test_matched(self, rng):
        cfg = BootstrapConfig(1000, seed=8)
        for c1, c2 in [
            (dyadic_rows(rng, 3, 5), dyadic_rows(rng, 3, 5)),
            (rng.normal(size=(12, 25)), rng.normal(size=(12, 25))),
        ]:
            s = PairedFunctionalSample(equispaced_grid(c1.shape[1]), c1, c2)
            scale = max(np.abs(c1).max(), np.abs(c2).max())
            self.check(bootstrap_matched(s, cfg), reference_bootstrap.matched(s, cfg), scale)

    def test_independent(self, rng):
        cfg = BootstrapConfig(1000, seed=9)
        for c1, c2 in [
            (dyadic_rows(rng, 3, 5), dyadic_rows(rng, 4, 5)),
            (rng.normal(size=(9, 25)), rng.normal(size=(13, 25))),
        ]:
            grid = equispaced_grid(c1.shape[1])
            s1, s2 = FunctionalSample(grid, c1), FunctionalSample(grid, c2)
            scale = max(np.abs(c1).max(), np.abs(c2).max())
            self.check(
                bootstrap_independent(s1, s2, cfg),
                reference_bootstrap.independent(s1, s2, cfg),
                scale,
            )

    def test_redraws_happen_on_dyadic_rows(self, rng):
        s = PairedFunctionalSample(
            equispaced_grid(5), dyadic_rows(rng, 3, 5), dyadic_rows(rng, 3, 5)
        )
        assert bootstrap_matched(s, BootstrapConfig(1000, seed=8)).redraws.sum() > 0

    @pytest.mark.parametrize("sizes", [[3, 4, 5, 2, 6], [5, 5, 5, 5]])
    def test_grouped(self, rng, sizes):
        g = make_grouped(rng, group_sizes=sizes, n_points=7)
        cfg = BootstrapConfig(1000, seed=10)
        scale = np.abs(g.stacked()).max()
        self.check(
            bootstrap_random_effects(g, cfg), reference_bootstrap.random_effects(g, cfg), scale
        )


class TestTwoChannelBitsPinned:
    """A sha256 over the theta, lambda and redraw arrays of the two-channel
    designs, on data rounded to one decimal so that tied values force
    redraws: a change to how the kernel centres or gathers its columns must
    not move one bit."""

    @staticmethod
    def rounded(rng, n, T):
        return np.round(rng.normal(size=(n, T)), 1)

    @staticmethod
    def digest(draws):
        assert draws.redraws.sum() > 0
        h = hashlib.sha256()
        for a in (draws.theta, draws.lam, draws.redraws.astype(np.int64)):
            h.update(np.ascontiguousarray(a).tobytes())
        return h.hexdigest()

    @pytest.mark.parametrize("B, digest", [
        (1000, "050e05ba8ecf59f7669aceaf451fe92933baf814a1da311c31de8ecd11b1bd10"),
        (4000, "2b267e9a1afc388a260e87c693e873d10931aa7f638691e70164cf38077a64ff"),
    ])
    def test_matched(self, B, digest):
        rng = np.random.default_rng(29)
        s = PairedFunctionalSample(equispaced_grid(6), self.rounded(rng, 4, 6),
                                   self.rounded(rng, 4, 6))
        assert self.digest(bootstrap_matched(s, BootstrapConfig(B, seed=7))) == digest

    @pytest.mark.parametrize("B, digest", [
        (1000, "ec81523057f3474aeccb94a12fd24f64f8b496d3697205deff62fdf08dea91a0"),
        (4000, "ee3805991d367781acf6636985c4f784f4760a41c44986001776625dd8f7c497"),
    ])
    def test_independent(self, B, digest):
        rng = np.random.default_rng(31)
        grid = equispaced_grid(6)
        s1 = FunctionalSample(grid, self.rounded(rng, 3, 6))
        s2 = FunctionalSample(grid, self.rounded(rng, 5, 6))
        draws = bootstrap_independent(s1, s2, BootstrapConfig(B, seed=7))
        assert self.digest(draws) == digest


class TestBandsAndDecision:
    def test_theta_band_formula(self):
        draws = np.arange(1.0, 101.0)[:, None]
        b = theta_bands(draws, np.array([50.0]), 0.05)
        # q_0.05 = 5, q_0.95 = 95
        assert b.lower_of_upper_ci[0] == 95.0
        assert b.upper_of_lower_ci[0] == 5.0

    def test_ratio_band_formula(self):
        draws = np.linspace(0.5, 2.0, 100)[:, None]
        est = np.array([1.2])
        b = ratio_bands(draws, est, 0.05, Metric.LAMBDA)
        inv = np.sort(1.0 / draws[:, 0])
        assert b.upper_of_lower_ci[0] == pytest.approx(est[0] ** 2 * inv[4])
        assert b.lower_of_upper_ci[0] == pytest.approx(est[0] ** 2 * inv[94])

    def test_ratio_band_requires_positive(self):
        with pytest.raises(ValueError, match="positive"):
            ratio_bands(np.array([[1.0], [-1.0]]), np.array([1.0]), 0.05, Metric.LAMBDA)

    def _decision(self, lo, hi, band_lo=-1.0, band_hi=1.0):
        grid = Grid([0.0])
        band = BandPair(grid, [band_lo], [band_hi], BandKind.ADDITIVE)
        osb = OneSidedBands(
            metric=Metric.THETA,
            lower_of_upper_ci=np.array([hi]),
            upper_of_lower_ci=np.array([lo]),
        )
        return tost_decide(
            {Metric.THETA: osb}, {Metric.THETA: band}, {Metric.THETA: np.array([0.0])}
        )

    def test_overlap_inside_rejects(self):
        rep = self._decision(-0.5, 0.5)
        assert rep.decision is TostDecision.REJECT_NONEQUIVALENCE
        assert rep.results[Metric.THETA].violations.size == 0

    def test_overlap_touching_band_fails(self):
        # overlap endpoint equal to the band is not strictly inside
        rep = self._decision(-1.0, 0.5)
        assert rep.decision is TostDecision.FAIL_TO_REJECT
        np.testing.assert_array_equal(rep.results[Metric.THETA].violations, [0])

    def test_overlap_beyond_band_fails(self):
        assert self._decision(-0.5, 1.2).decision is TostDecision.FAIL_TO_REJECT

    def test_split_decision_pattern(self):
        """Location rejects; the error-variance ratio's overlap crosses only
        the lower band, so its two-sided test fails while noninferiority
        (upper band only) rejects; the overall IUT decision fails."""
        grid = Grid([0.0, 0.5])
        add = BandPair(grid, [-1.0, -1.0], [1.0, 1.0], BandKind.ADDITIVE)
        mult = BandPair(grid, [0.5, 0.5], [2.0, 2.0], BandKind.MULTIPLICATIVE)
        bands = {
            Metric.THETA: OneSidedBands(Metric.THETA, np.array([0.3, 0.4]), np.array([-0.2, -0.1])),
            Metric.LAMBDA: OneSidedBands(Metric.LAMBDA, np.array([0.9, 1.2]), np.array([0.7, 0.4])),
        }
        rep = tost_decide(
            bands,
            {Metric.THETA: add, Metric.LAMBDA: mult},
            {Metric.THETA: np.zeros(2), Metric.LAMBDA: np.array([0.8, 0.7])},
        )
        assert rep.results[Metric.THETA].reject
        assert not rep.results[Metric.LAMBDA].reject
        np.testing.assert_array_equal(rep.results[Metric.LAMBDA].violations, [1])
        assert rep.lambda_noninferiority is TostDecision.REJECT_NONEQUIVALENCE
        assert rep.decision is TostDecision.FAIL_TO_REJECT

    def test_kind_mismatch_rejected(self):
        grid = Grid([0.0])
        band = BandPair(grid, [0.5], [2.0], BandKind.MULTIPLICATIVE)
        osb = OneSidedBands(
            metric=Metric.THETA,
            lower_of_upper_ci=np.array([1.0]),
            upper_of_lower_ci=np.array([1.0]),
        )
        with pytest.raises(ValueError, match="additive"):
            tost_decide(
                {Metric.THETA: osb}, {Metric.THETA: band}, {Metric.THETA: np.array([1.0])}
            )

    @pytest.mark.parametrize("with_eq_band", [False, True])
    def test_no_metric_refused(self, with_eq_band):
        band = make_cosine_bands(Grid([0.0]), BandKind.ADDITIVE)
        eq_bands = {Metric.THETA: band} if with_eq_band else {}
        with pytest.raises(ValueError, match="at least one metric"):
            tost_decide({}, eq_bands, {})

    def test_bands_on_two_grids_rejected(self):
        g1, g2 = Grid([0.0, 1.0]), Grid([0.0, 0.5])
        osb = OneSidedBands(Metric.THETA, np.zeros(2), np.zeros(2))
        bands = {Metric.THETA: make_cosine_bands(g1, BandKind.ADDITIVE),
                 Metric.LAMBDA: make_cosine_bands(g2, BandKind.MULTIPLICATIVE)}
        with pytest.raises(ValueError, match="equivalence bands must share one grid"):
            tost_decide({Metric.THETA: osb, Metric.LAMBDA: osb}, bands,
                        {Metric.THETA: np.zeros(2), Metric.LAMBDA: np.ones(2)})


class TestRunTost:
    def test_grouped_end_to_end_equivalent_data(self, grid25):
        rng = np.random.default_rng(5)
        from feqt.fdata import GroupedPairedSample

        groups = []
        for _ in range(16):
            alpha = rng.normal(0.0, 0.05, 25)
            y = alpha + rng.normal(0.0, 0.2, (25, 2, 25))
            groups.append(PairedFunctionalSample(grid25, y[:, 0], y[:, 1]))
        data = GroupedPairedSample(grid25, tuple(groups))
        bands = {
            Metric.THETA: make_cosine_bands(grid25, BandKind.ADDITIVE),
            Metric.LAMBDA: make_cosine_bands(grid25, BandKind.MULTIPLICATIVE),
            Metric.PSI: make_cosine_bands(grid25, BandKind.MULTIPLICATIVE),
        }
        cfg = BootstrapConfig(1000, seed=1, design=Design.RANDOM_EFFECTS_MATCHED)
        rep = run_tost(data, cfg, bands)
        assert rep.results[Metric.THETA].reject
        assert rep.results[Metric.LAMBDA].reject
        assert rep.lambda_noninferiority is TostDecision.REJECT_NONEQUIVALENCE

    def test_independent_design(self, rng, grid25):
        s1 = FunctionalSample(grid25, rng.normal(0.0, 0.1, (40, 25)))
        s2 = FunctionalSample(grid25, rng.normal(0.0, 0.1, (35, 25)))
        bands = {Metric.THETA: make_cosine_bands(grid25, BandKind.ADDITIVE)}
        cfg = BootstrapConfig(800, seed=6, design=Design.INDEPENDENT_IID)
        rep = run_tost((s1, s2), cfg, bands)
        assert rep.decision is TostDecision.REJECT_NONEQUIVALENCE

    def test_independent_zero_variance_is_degenerate(self, rng, grid25):
        c2 = rng.normal(0.0, 0.1, (10, 25))
        c2[:, 3] = 0.5
        data = (FunctionalSample(grid25, rng.normal(0.0, 0.1, (10, 25))), FunctionalSample(grid25, c2))
        bands = {Metric.THETA: make_cosine_bands(grid25, BandKind.ADDITIVE)}
        cfg = BootstrapConfig(200, seed=6, design=Design.INDEPENDENT_IID)
        with pytest.raises(DegenerateVarianceError, match="grid index 3"):
            run_tost(data, cfg, bands)

    @pytest.mark.parametrize("design, kind, needs", [
        (Design.MATCHED_PAIRS, "grouped", "a PairedFunctionalSample, got GroupedPairedSample"),
        (Design.RANDOM_EFFECTS_MATCHED, "paired",
         "a GroupedPairedSample, got PairedFunctionalSample"),
        (Design.INDEPENDENT_IID, "paired",
         r"a \(FunctionalSample, FunctionalSample\) tuple, got PairedFunctionalSample"),
        (Design.INDEPENDENT_IID, "two paired",
         r"a \(FunctionalSample, FunctionalSample\) tuple, got tuple"),
    ], ids=["grouped-as-matched", "paired-as-grouped", "paired-as-independent",
            "two-paired-as-independent"])
    def test_data_of_another_design_refused(self, rng, design, kind, needs):
        grouped = make_grouped(rng, n_points=5)
        data = {"grouped": grouped, "paired": grouped.groups[0],
                "two paired": grouped.groups[:2]}[kind]
        bands = {Metric.THETA: make_cosine_bands(grouped.grid, BandKind.ADDITIVE)}
        with pytest.raises(ValueError, match=f"design {design.value} needs {needs}"):
            run_tost(data, BootstrapConfig(1000, seed=6, design=design), bands)

    def test_unknown_design_refused(self, rng):
        grouped = make_grouped(rng, n_points=5)
        bands = {Metric.THETA: make_cosine_bands(grouped.grid, BandKind.ADDITIVE)}
        with pytest.raises(ValueError, match="unknown design bogus"):
            run_tost(grouped, BootstrapConfig(1000, design="bogus"), bands)

    @pytest.mark.parametrize("keys", [(), ("theta",), (Metric.THETA, "lambda")],
                             ids=["empty", "a name", "a metric and a name"])
    def test_band_maps_without_metrics_refused_before_bootstrapping(self, rng, monkeypatch, keys):
        grouped = make_grouped(rng, n_points=5)
        band = make_cosine_bands(grouped.grid, BandKind.ADDITIVE)

        def no_bootstrap(*args):
            raise AssertionError("bootstrapped before checking eq_bands")

        monkeypatch.setattr(tost_mod, "_resolve_replicates", no_bootstrap)
        cfg = BootstrapConfig(1000, seed=6, design=Design.RANDOM_EFFECTS_MATCHED)
        with pytest.raises(ValueError, match="eq_bands must map one or more Metrics"):
            run_tost(grouped, cfg, dict.fromkeys(keys, band))

    def test_psi_needs_the_random_effects_design(self, rng):
        pair = make_grouped(rng, n_points=5).groups[0]
        bands = {m: make_cosine_bands(pair.grid, m.band_kind) for m in (Metric.THETA, Metric.PSI)}
        cfg = BootstrapConfig(1000, seed=6, design=Design.MATCHED_PAIRS)
        with pytest.raises(ValueError, match="psi requires the random-effects design"):
            run_tost(pair, cfg, bands)

    @pytest.mark.parametrize("design", [Design.MATCHED_PAIRS, Design.INDEPENDENT_IID])
    def test_psi_refused_before_bootstrapping(self, rng, monkeypatch, design):
        def no_bootstrap(*args):
            raise AssertionError("bootstrapped before refusing psi")

        monkeypatch.setattr(tost_mod, "_resolve_replicates", no_bootstrap)
        pair = make_grouped(rng, n_points=5).groups[0]
        data = pair if design is Design.MATCHED_PAIRS else (
            FunctionalSample(pair.grid, pair.curves_1), FunctionalSample(pair.grid, pair.curves_2)
        )
        bands = {m: make_cosine_bands(pair.grid, m.band_kind) for m in (Metric.THETA, Metric.PSI)}
        cfg = BootstrapConfig(1000, seed=6, design=design)
        with pytest.raises(ValueError, match="psi requires the random-effects design"):
            run_tost(data, cfg, bands)

    def test_separated_means_fail(self, rng, grid25):
        s1 = FunctionalSample(grid25, rng.normal(1.0, 0.1, (30, 25)))
        s2 = FunctionalSample(grid25, rng.normal(0.0, 0.1, (30, 25)))
        bands = {Metric.THETA: make_cosine_bands(grid25, BandKind.ADDITIVE)}
        cfg = BootstrapConfig(500, seed=6, design=Design.INDEPENDENT_IID)
        rep = run_tost((s1, s2), cfg, bands)
        assert rep.decision is TostDecision.FAIL_TO_REJECT

