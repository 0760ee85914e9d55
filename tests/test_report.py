import json

import numpy as np
import pytest

from feqt.bayes.posterior import PosteriorDraws, simultaneous_bands
from feqt.fdata import BandKind, equispaced_grid, make_cosine_bands
from feqt.report import (
    bands_csv,
    bands_json,
    posterior_bands_svg,
    posterior_summary_json,
    tost_report_csv,
    tost_report_json,
    tost_report_svg,
)
from feqt.tost import BootstrapConfig, Design, Metric, run_tost

from conftest import make_grouped


@pytest.fixture(scope="module")
def tost_report():
    rng = np.random.default_rng(5)
    data = make_grouped(rng, n_groups=4, group_size=5, n_points=6)
    grid = data.grid
    bands = {
        Metric.THETA: make_cosine_bands(grid, BandKind.ADDITIVE),
        Metric.LAMBDA: make_cosine_bands(grid, BandKind.MULTIPLICATIVE),
        Metric.PSI: make_cosine_bands(grid, BandKind.MULTIPLICATIVE),
    }
    cfg = BootstrapConfig(200, 0.05, 11, Design.RANDOM_EFFECTS_MATCHED)
    return run_tost(data, cfg, bands), bands


def make_posterior(rng, m=200, T=8):
    grid = equispaced_grid(T)
    return PosteriorDraws(
        grid_points=grid.points,
        theta=rng.normal(0.0, 0.05, (m, T)),
        lam=np.exp(rng.normal(0.0, 0.1, (m, T))),
        psi=np.exp(rng.normal(0.0, 0.1, (m, T))),
        chain=np.zeros(m, dtype=int),
        acceptance={"leps_1": 0.3},
        rhat={"theta": np.full(T, 1.01)},
        rhat_warning=False,
    )


class TestTostEmitters:
    def test_json_schema_and_determinism(self, tost_report):
        report, _ = tost_report
        a = tost_report_json(report)
        b = tost_report_json(report)
        assert a == b
        payload = json.loads(a)
        assert set(payload["metrics"]) == {"theta", "lambda", "psi"}
        m = payload["metrics"]["theta"]
        assert set(m) == {
            "estimate", "overlap_lower", "overlap_upper",
            "band_lower", "band_upper", "violations", "reject",
        }
        assert len(m["estimate"]) == 6
        assert payload["decision"] in ("reject", "fail_to_reject")

    def test_csv_schema(self, tost_report):
        report, _ = tost_report
        lines = tost_report_csv(report).splitlines()
        assert lines[0] == (
            "metric,t,estimate,overlap_lower,overlap_upper,band_lower,band_upper,violation"
        )
        assert len(lines) == 1 + 3 * 6
        # rows are grouped by metric in sorted order
        assert lines[1].startswith("lambda,")
        assert lines[1 + 6].startswith("psi,")
        assert lines[1 + 12].startswith("theta,")
        # float fields parse back
        parts = lines[1].split(",")
        float(parts[2])
        assert parts[-1] in ("0", "1")

    def test_svg_structure_and_violation_markers(self, tost_report):
        report, _ = tost_report
        svg = tost_report_svg(report)
        assert svg == tost_report_svg(report)
        assert svg.startswith('<?xml version="1.0"')
        assert svg.count("<rect") == 3  # one frame per metric
        n_markers = sum(len(r.violations) for r in report.results.values())
        assert svg.count("<circle") == n_markers
        assert "stroke-dasharray" in svg

    def test_bands_csv(self, tost_report):
        _, bands = tost_report
        lines = bands_csv(bands).splitlines()
        assert lines[0] == "metric,t,band_lower,band_upper"
        assert len(lines) == 1 + 3 * 6
        row = lines[1].split(",")
        assert float(row[2]) < float(row[3])

    def test_bands_json_of_no_metric_refused(self):
        with pytest.raises(ValueError, match="no bands"):
            bands_json({})


class TestPosteriorEmitters:
    def test_summary_json(self, rng):
        draws = make_posterior(rng)
        probs = {"theta": 0.99, "lambda": 0.8, "psi": 0.7}
        text = posterior_summary_json(draws, probs, 0.95)
        assert text == posterior_summary_json(draws, probs, 0.95)
        payload = json.loads(text)
        assert payload["gamma"] == 0.95
        assert payload["n_draws"] == 200
        assert payload["equivalence_probabilities"]["theta"] == 0.99
        assert payload["rhat_max"]["theta"] == pytest.approx(1.01)
        assert len(payload["posterior_median"]["lambda"]) == 8

    def test_posterior_bands_svg(self, rng):
        draws = make_posterior(rng)
        grid = equispaced_grid(8)
        sim = {
            Metric.THETA: simultaneous_bands(draws.theta, 0.95),
            Metric.LAMBDA: simultaneous_bands(draws.lam, 0.95),
        }
        eq = {
            Metric.THETA: make_cosine_bands(grid, BandKind.ADDITIVE),
            Metric.LAMBDA: make_cosine_bands(grid, BandKind.MULTIPLICATIVE),
        }
        svg = posterior_bands_svg(draws, sim, eq)
        assert svg == posterior_bands_svg(draws, sim, eq)
        assert svg.count("<rect") == 2
        assert "95% band" in svg
        assert "<polygon" in svg
