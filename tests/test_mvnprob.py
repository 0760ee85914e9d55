import importlib.machinery
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from scipy.optimize import brentq
from scipy.stats import multivariate_normal, norm, qmc

import feqt
import feqt._scipyext as scipyext
import feqt.bayes.mvnprob as mvnprob_mod
from feqt._scipyext import _import_scipy_ext, _load_scipy_ext
from feqt.bayes.kernels import matern_corr
from feqt.bayes.mvnprob import (
    AccuracyError,
    calibrate_prior_scale,
    mvn_rectangle_prob,
    prior_equivalence_prob,
)
from feqt.cli import EXIT_FAIL_TO_REJECT, EXIT_OK
from feqt.fdata import BandKind, equispaced_grid, make_cosine_bands


def scipy_rectangle(mean, cov, lower, upper):
    """Inclusion-exclusion rectangle probability from scipy's MVN CDF."""
    d = len(mean)
    total = 0.0
    for mask in range(1 << d):
        point = np.array(
            [upper[i] if not (mask >> i) & 1 else lower[i] for i in range(d)]
        )
        sign = (-1) ** bin(mask).count("1")
        total += sign * multivariate_normal(mean=mean, cov=cov).cdf(point)
    return total


class TestRectangleProb:
    def test_one_dimensional_exact(self):
        z = norm.ppf(0.975)
        r = mvn_rectangle_prob([0.0], [[1.0]], [-z], [z])
        assert r.estimate == pytest.approx(0.95, abs=1e-12)
        assert r.error == 0.0

    def test_independent_product(self):
        r = mvn_rectangle_prob(
            np.zeros(3), np.eye(3), -np.ones(3), np.ones(3), accuracy=1e-4
        )
        expected = (norm.cdf(1.0) - norm.cdf(-1.0)) ** 3
        assert r.estimate == pytest.approx(expected, abs=5e-4)

    def test_correlated_2d_vs_scipy(self):
        cov = np.array([[1.0, 0.6], [0.6, 2.0]])
        lower = np.array([-1.0, -0.5])
        upper = np.array([0.8, 1.5])
        mean = np.array([0.1, -0.2])
        r = mvn_rectangle_prob(mean, cov, lower, upper, accuracy=2e-4)
        assert r.estimate == pytest.approx(scipy_rectangle(mean, cov, lower, upper), abs=1e-3)

    def test_correlated_3d_matern_vs_scipy(self):
        grid = equispaced_grid(3)
        cov = 0.5 * matern_corr(0.4, grid)
        lower = np.array([-0.5, -0.6, -0.4])
        upper = np.array([0.7, 0.5, 0.9])
        r = mvn_rectangle_prob(np.zeros(3), cov, lower, upper, accuracy=2e-4)
        expected = scipy_rectangle(np.zeros(3), cov, lower, upper)
        assert r.estimate == pytest.approx(expected, abs=2e-3)

    def test_deterministic_in_seed(self):
        args = (np.zeros(4), np.eye(4) + 0.3, -np.ones(4), np.ones(4))
        a = mvn_rectangle_prob(*args, seed=5)
        b = mvn_rectangle_prob(*args, seed=5)
        assert a.estimate == b.estimate and a.error == b.error
        c = mvn_rectangle_prob(*args, seed=6)
        assert c.estimate != a.estimate

    def test_seed_reproduced_after_other_seed(self):
        """Engines are built once per (seed, dimension) and reset per call:
        a seed's result does not depend on the calls made before it."""
        args = (np.zeros(4), np.eye(4) + 0.3, -np.ones(4), np.ones(4))
        a = mvn_rectangle_prob(*args, seed=8)
        mvn_rectangle_prob(*args, seed=9)
        b = mvn_rectangle_prob(*args, seed=8)
        mvnprob_mod._sobol_engines.cache_clear()
        fresh = mvn_rectangle_prob(*args, seed=8)
        assert (a.estimate, a.error) == (b.estimate, b.error) == (fresh.estimate, fresh.error)

    def test_invalid_rectangle(self):
        with pytest.raises(ValueError, match="strictly below"):
            mvn_rectangle_prob([0.0, 0.0], np.eye(2), [0.0, 0.0], [1.0, 0.0])

    @pytest.mark.parametrize("where", ["mean", "cov", "lower", "upper"])
    def test_nan_input_refused(self, where):
        """A NaN passes the ``lower < upper`` check, and the QMC loop then
        doubled its points to the cap on a NaN standard error."""
        args = {"mean": np.zeros(3), "cov": np.eye(3) + 0.2,
                "lower": -np.ones(3), "upper": np.ones(3)}
        args[where] = args[where].copy()
        args[where].flat[1] = np.nan
        with pytest.raises(ValueError, match="must not be NaN"):
            mvn_rectangle_prob(**args)

    def test_infinite_limit_allowed(self):
        r = mvn_rectangle_prob(np.zeros(2), np.eye(2), [-1.0, -1.0], [1.0, np.inf])
        expected = (norm.cdf(1.0) - norm.cdf(-1.0)) * norm.cdf(1.0)
        assert r.estimate == pytest.approx(expected, abs=1e-3)

    def test_accuracy_cap_raises(self, monkeypatch):
        monkeypatch.setattr(mvnprob_mod, "_MAX_POINTS", 2048)
        with pytest.raises(AccuracyError, match="after 2048 points"):
            mvn_rectangle_prob(
                np.zeros(5), np.eye(5) + 0.5, -np.ones(5), np.ones(5), accuracy=1e-12,
            )

    @pytest.mark.parametrize("accuracy", [0.0, -1.0, np.nan, np.inf])
    def test_bad_accuracy_refused_before_work(self, monkeypatch, accuracy):
        """A zero, negative or NaN accuracy used to double the QMC points to
        the cap before raising ``AccuracyError``; an infinite one stopped at
        the first batch whatever its error."""
        monkeypatch.setattr(mvnprob_mod, "_MAX_POINTS", 2048)
        monkeypatch.setattr(mvnprob_mod, "_ordered_cholesky", None)  # any call fails
        with pytest.raises(ValueError, match="accuracy must be positive and finite"):
            mvn_rectangle_prob(np.zeros(3), np.eye(3), -np.ones(3), np.ones(3), accuracy)

    @pytest.mark.parametrize("rel_accuracy", [0.0, -0.5, np.nan, np.inf])
    def test_bad_rel_accuracy_refused_before_work(self, monkeypatch, rel_accuracy):
        """A negative ``rel_accuracy`` used to be ignored silently."""
        monkeypatch.setattr(mvnprob_mod, "_MAX_POINTS", 2048)
        monkeypatch.setattr(mvnprob_mod, "_ordered_cholesky", None)
        with pytest.raises(ValueError, match="rel_accuracy must be None or positive and finite"):
            mvn_rectangle_prob(np.zeros(3), np.eye(3), -np.ones(3), np.ones(3),
                               rel_accuracy=rel_accuracy)

    def test_relative_accuracy_for_tails(self):
        # far-tail rectangle: absolute tolerance 1.0 never binds, the relative
        # tolerance drives the stopping rule
        cov = np.eye(3) * 0.01
        r = mvn_rectangle_prob(
            np.zeros(3), cov, np.full(3, 0.5), np.full(3, 1.0),
            accuracy=1.0, rel_accuracy=0.05,
        )
        assert 0.0 < r.estimate < 1e-6
        assert r.error <= 0.05 * r.estimate


class TestPriorEquivalence:
    def test_mixture_components_symmetric(self, grid25):
        # additive cosine bands are symmetric about zero, so the two mixture
        # centers give equal mass and the mixture equals either component
        bands = make_cosine_bands(grid25, BandKind.ADDITIVE)
        p = prior_equivalence_prob(0.3, 0.1, bands, accuracy=5e-4, seed=1)
        lo, hi = bands.lower, bands.upper
        cov = 2.0 * 0.1 * matern_corr(0.3, grid25)
        single = mvn_rectangle_prob(hi, cov, lo, hi, accuracy=5e-4, seed=11)
        assert p.estimate == pytest.approx(single.estimate, abs=6e-3)

    @pytest.mark.parametrize("kind", list(BandKind))
    def test_one_rectangle_at_the_lower_band(self, grid25, kind):
        """P(0 < X < w) and P(-w < X < 0) are equal for a centred Gaussian X,
        so the mixture's probability is the lower-centred rectangle's, at the
        same seed, in estimate and error alike."""
        bands = make_cosine_bands(grid25, kind)
        lo, hi = bands.to_working(bands.lower), bands.to_working(bands.upper)
        cov = 2.0 * 0.1 * matern_corr(0.3, grid25)
        p = prior_equivalence_prob(0.3, 0.1, bands, 1e-3, rel_accuracy=1e-2, seed=7)
        single = mvn_rectangle_prob(lo, cov, lo, hi, 1e-3, rel_accuracy=1e-2, seed=7)
        assert (p.estimate, p.error) == (single.estimate, single.error)

    def test_monotone_in_scale(self, grid25):
        bands = make_cosine_bands(grid25, BandKind.ADDITIVE)
        probs = [
            prior_equivalence_prob(0.3, s2, bands, accuracy=5e-4, seed=2).estimate
            for s2 in (0.05, 0.1, 0.4)
        ]
        assert probs[0] > probs[1] > probs[2]


class TestCalibrationSearch:
    def test_no_point_evaluated_twice(self, grid25, monkeypatch):
        """Brent's search evaluates each log(s2) once, the bracket ends
        first. The scale was re-recorded (from 0.09549981016408426; the
        evaluation count stayed 10) when the equivalence probability became
        one rectangle probability in place of the mean of two equal ones."""
        real = mvnprob_mod.prior_equivalence_prob
        scales = []

        def counting(range_a, s2, *args, **kwargs):
            scales.append(s2)
            return real(range_a, s2, *args, **kwargs)

        monkeypatch.setattr(mvnprob_mod, "prior_equivalence_prob", counting)
        kb = make_cosine_bands(grid25, BandKind.ADDITIVE)
        s2 = calibrate_prior_scale(0.3, kb, 0.01, seed=5)
        assert repr(s2) == "0.09547651638836385"
        assert scales[:2] == [np.exp(-12.0), np.exp(8.0)]
        assert len(scales) == len(set(scales)) == 10

    def test_one_rectangle_per_evaluation(self, grid25, monkeypatch):
        calls = {"prior": 0, "rect": 0}

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(mvnprob_mod, "prior_equivalence_prob",
                            counted("prior", mvnprob_mod.prior_equivalence_prob))
        monkeypatch.setattr(mvnprob_mod, "mvn_rectangle_prob",
                            counted("rect", mvnprob_mod.mvn_rectangle_prob))
        kb = make_cosine_bands(grid25, BandKind.ADDITIVE)
        calibrate_prior_scale(0.3, kb, 0.01, seed=5)
        assert calls == {"prior": 10, "rect": 10}

    def test_unattainable_target_names_the_bracket(self, grid25):
        kb = make_cosine_bands(grid25, BandKind.ADDITIVE)
        with pytest.raises(ValueError, match="not attainable on the bracket"):
            calibrate_prior_scale(0.3, kb, 0.9, seed=1)


class TestCalibrationPinned:
    def test_criterion_3_scale_unchanged(self, grid25):
        """The QMC path at the criterion 3 arguments reproduces its recorded
        scale (the direct ``ndtr``/``ndtri`` calls are ``scipy.stats.norm``'s
        kernels). Re-recorded when the equivalence probability became one
        rectangle probability in place of the mean of two equal ones: the
        scale moved 0.0955874086715996 -> 0.09565245886125925 (+6.8e-4
        relative), within the calibration's 1e-3 accuracy."""
        kb = make_cosine_bands(grid25, BandKind.ADDITIVE)
        s2 = calibrate_prior_scale(0.3, kb, 0.01, seed=2)
        assert s2 == pytest.approx(0.09565245886125925, rel=1e-12)


class TestPrivateScipyRoutines:
    """The routines loaded from scipy's extension files act as their public
    scipy names."""

    @pytest.mark.parametrize("dim", [1, 2, 5, 24])
    @pytest.mark.parametrize("seed", [0, 3, 2**62 + 5, np.int64(987654321)])
    def test_sobol_points_equal_scipy(self, dim, seed):
        ours = mvnprob_mod._Sobol(dim, seed)
        theirs = qmc.Sobol(dim, scramble=True, seed=seed)
        # the first point alone, then on across several doublings
        for n in (1, 1, 2, 4, 8, 1024, 1040, 2048):
            assert np.array_equal(ours.random(n), theirs.random(n))
        ours.reset()
        theirs.reset()
        for n in (1024, 1024, 2048):
            assert np.array_equal(ours.random(n), theirs.random(n))

    def test_sobol_table_loaded_c_contiguous(self, monkeypatch):
        """The engine fills the extension's empty table cache itself, and
        in C order: with the file's Fortran-ordered arrays the extension
        would skip every direction number and repeat one point."""
        sobol = mvnprob_mod._sobol_ext()
        monkeypatch.setattr(sobol, "_poly_dict", {})
        monkeypatch.setattr(sobol, "_vinit_dict", {})
        points = mvnprob_mod._Sobol(6, 11).random(1024)
        for cache in (sobol._poly_dict, sobol._vinit_dict):
            assert list(cache) == [np.uint32] and cache[np.uint32].flags.c_contiguous
        # the first 2**10 points of a scrambled Sobol sequence fill each
        # of the 2**10 equal bins of every coordinate once
        bins = np.sort(np.floor(points * 1024).astype(int), axis=0)
        assert np.array_equal(bins, np.tile(np.arange(1024)[:, None], (1, 6)))

    def test_brentq_root_equals_scipy(self):
        f = lambda x: np.log(np.exp(x) + 1.0) - 2.0
        for xtol in (1e-4, 1e-12, 1e-300):  # at 1e-300 the relative tolerance decides
            assert mvnprob_mod._brentq(f, -12.0, 8.0, xtol) == brentq(f, -12.0, 8.0, xtol=xtol)

    @pytest.mark.parametrize(
        "f",
        [lambda x: x * x + 1.0, lambda x: np.nan],
        ids=["same-signs", "nan"],
    )
    def test_brentq_errors_equal_scipy(self, f):
        with pytest.raises(ValueError) as want:
            brentq(f, -1.0, 2.0, xtol=1e-4)
        with pytest.raises(ValueError) as got:
            mvnprob_mod._brentq(f, -1.0, 2.0, 1e-4)
        assert str(got.value) == str(want.value)

    def test_ndtr_equals_scipy(self):
        x = np.concatenate([[-np.inf, -40.0, -1e-300, 0.0, 1e-300, 9.0, np.inf, np.nan],
                            np.linspace(-10.0, 10.0, 2001)])
        got = _load_scipy_ext("special/_special_ufuncs").ndtr(x)
        assert np.array_equal(got, scipy.special.ndtr(x), equal_nan=True)


#: Runs a calibrated tiny ``feqt bayes`` in a fresh interpreter, then imports
#: ``scipy.special`` and compares its ``ndtri`` with the one feqt loaded.
NDTRI_SCRIPT = """
import json, sys
from pathlib import Path

import numpy as np

import feqt.cli
from feqt._scipyext import _import_scipy_ext
from feqt.curvefile import write_curves
from feqt.fdata import equispaced_grid
from feqt.simlab import default_truth, generate_dataset

out = Path(sys.argv[1])
write_curves(generate_dataset(default_truth(equispaced_grid(5), 6, 3), 1), out / "data.csv")
code = feqt.cli.run_cli(["bayes", "--input", str(out / "data.csv"), "--chains", "1",
                         "--iters", "150", "--burnin", "50", "--thin", "1", "--emit", "json",
                         "--out", str(out / "bayes")])
seen = {"code": code, "special": "scipy.special" in sys.modules,
        "ufuncs": "scipy.special._ufuncs" in sys.modules}
ours = _import_scipy_ext("special/_ufuncs").ndtri
p = np.concatenate([[0.0, 1e-300, 1e-15, 0.5, 1 - 1e-15, 1.0, np.nan],
                    np.linspace(0.0, 1.0, 100001), np.logspace(-300, 0, 3001)])
got = ours(p).tobytes()
import scipy.special
seen["same_bits"] = got == scipy.special.ndtri(p).tobytes()
seen["same_ufunc"] = scipy.special.ndtri is ours
print(json.dumps(seen))
"""


class TestNdtriLoad:
    """``ndtri`` comes from ``special/_ufuncs``, imported under its own name
    without running ``scipy.special``."""

    def test_calibrated_bayes_leaves_scipy_special_unloaded(self, tmp_path):
        src = str(Path(feqt.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", NDTRI_SCRIPT, str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True,
        )
        seen = json.loads(proc.stdout.splitlines()[-1])
        assert seen["code"] in (EXIT_OK, EXIT_FAIL_TO_REJECT), proc.stderr
        assert not seen["special"] and seen["ufuncs"]
        # a later import of the package works and hands out the same ufunc
        assert seen["same_bits"] and seen["same_ufunc"]

    def test_same_ufunc_when_scipy_special_came_first(self):
        assert _import_scipy_ext("special/_ufuncs").ndtri is scipy.special.ndtri

    def test_stand_in_removed_when_the_import_raises(self, monkeypatch):
        monkeypatch.delitem(sys.modules, "scipy.special._ufuncs")
        monkeypatch.delitem(sys.modules, "scipy.special")
        parents = []

        def failing(name):
            parents.append((name, sys.modules["scipy.special"].__path__))
            raise ImportError("load failed")

        with monkeypatch.context() as m:
            m.setattr(scipyext.importlib, "import_module", failing)
            with pytest.raises(ImportError, match="load failed"):
                _import_scipy_ext("special/_ufuncs")
            assert "scipy.special" not in sys.modules
            # a package already imported is used, and kept
            sys.modules["scipy.special"] = scipy.special
            with pytest.raises(ImportError, match="load failed"):
                _import_scipy_ext("special/_ufuncs")
            assert sys.modules["scipy.special"] is scipy.special
        special_dir = os.path.dirname(scipy.special._ufuncs.__file__)
        assert parents == [("scipy.special._ufuncs", [special_dir]),
                           ("scipy.special._ufuncs", scipy.special.__path__)]

    def test_missing_ufuncs_names_the_search(self, tmp_path, monkeypatch):
        scipy_spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        scipy_spec.submodule_search_locations = [str(tmp_path)]
        monkeypatch.setattr(scipyext.importlib.util, "find_spec", lambda name: scipy_spec)
        monkeypatch.delitem(sys.modules, "scipy.special._ufuncs")
        want = str(tmp_path / "special" / "_ufuncs") + importlib.machinery.EXTENSION_SUFFIXES[0]
        with pytest.raises(ImportError, match=re.escape(want)):
            _import_scipy_ext("special/_ufuncs")
        assert sys.modules["scipy.special"] is scipy.special
