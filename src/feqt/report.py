"""Deterministic report emission: JSON, CSV, and hand-rolled SVG.

All emitters are pure functions of their inputs (no timestamps, no
environment lookups), so identical runs produce identical bytes.
"""

from __future__ import annotations

import json

import numpy as np

from .fdata import BandKind
from .tost import Metric, TostReport

_METRIC_TITLES = {
    Metric.THETA: "mean difference",
    Metric.LAMBDA: "error variance ratio",
    Metric.PSI: "random effect variance ratio",
}


def _floats(a) -> list:
    return [float(x) for x in np.asarray(a, dtype=float)]


def tost_report_json(report: TostReport) -> str:
    payload = {
        "alpha": report.alpha,
        "bootstrap_replicates": report.replicates,
        "decision": report.decision.value,
        "lambda_noninferiority": (
            report.lambda_noninferiority.value if report.lambda_noninferiority else None
        ),
        "grid": _floats(report.grid.points),
        "metrics": {},
    }
    for metric, res in sorted(report.results.items(), key=lambda kv: kv[0].value):
        payload["metrics"][metric.value] = {
            "estimate": _floats(res.estimate),
            "overlap_lower": _floats(res.bands.upper_of_lower_ci),
            "overlap_upper": _floats(res.bands.lower_of_upper_ci),
            "band_lower": _floats(res.eq_band.lower),
            "band_upper": _floats(res.eq_band.upper),
            "violations": [int(i) for i in res.violations],
            "reject": bool(res.reject),
        }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def tost_report_csv(report: TostReport) -> str:
    """One row per (metric, grid point) with band and overlap endpoints."""
    lines = ["metric,t,estimate,overlap_lower,overlap_upper,band_lower,band_upper,violation"]
    for metric, res in sorted(report.results.items(), key=lambda kv: kv[0].value):
        viol = set(int(i) for i in res.violations)
        for i, t in enumerate(report.grid.points):
            lines.append(
                "%s,%s,%s,%s,%s,%s,%s,%d"
                % (
                    metric.value,
                    repr(float(t)),
                    repr(float(res.estimate[i])),
                    repr(float(res.bands.upper_of_lower_ci[i])),
                    repr(float(res.bands.lower_of_upper_ci[i])),
                    repr(float(res.eq_band.lower[i])),
                    repr(float(res.eq_band.upper[i])),
                    int(i in viol),
                )
            )
    return "\n".join(lines) + "\n"


def bands_csv(bands: dict) -> str:
    """CSV of equivalence band curves; ``bands`` maps Metric to BandPair."""
    lines = ["metric,t,band_lower,band_upper"]
    for metric, band in sorted(bands.items(), key=lambda kv: kv[0].value):
        for i, t in enumerate(band.grid.points):
            lines.append(
                "%s,%s,%s,%s"
                % (metric.value, repr(float(t)), repr(float(band.lower[i])), repr(float(band.upper[i])))
            )
    return "\n".join(lines) + "\n"


# ----- SVG ---------------------------------------------------------------

_PANEL_W = 360.0
_PANEL_H = 240.0
_MARGIN = 45.0


def _num(x) -> str:
    return f"{x:.2f}"


class _Panel:
    """Linear data-to-pixel mapping for one plot panel."""

    def __init__(self, x0, y0, tmin, tmax, vmin, vmax, log_scale=False):
        self.x0, self.y0 = x0, y0
        self.log = log_scale
        if log_scale:
            # ratio-scale panels are drawn on log axes; clip keeps a
            # nonpositive band edge from breaking the transform
            vmin = np.log(max(vmin, 1e-12))
            vmax = np.log(max(vmax, 1e-12))
        pad = 0.08 * (vmax - vmin) if vmax > vmin else 1.0
        self.vmin, self.vmax = vmin - pad, vmax + pad
        self.tmin, self.tmax = tmin, tmax

    def px(self, t):
        span = self.tmax - self.tmin or 1.0
        return self.x0 + _MARGIN + (t - self.tmin) / span * (_PANEL_W - 2 * _MARGIN)

    def py(self, v):
        if self.log:
            v = np.log(max(v, 1e-12))
        span = self.vmax - self.vmin
        return self.y0 + _PANEL_H - _MARGIN - (v - self.vmin) / span * (_PANEL_H - 2 * _MARGIN)

    def polyline(self, t, v, stroke, dash=None, width=1.5):
        pts = " ".join(f"{_num(self.px(a))},{_num(self.py(b))}" for a, b in zip(t, v))
        d = f' stroke-dasharray="{dash}"' if dash else ""
        return (
            f'<polyline points="{pts}" fill="none" stroke="{stroke}" '
            f'stroke-width="{width}"{d}/>'
        )

    def polygon(self, t, v_low, v_high, fill):
        fwd = [f"{_num(self.px(a))},{_num(self.py(b))}" for a, b in zip(t, v_low)]
        rev = [
            f"{_num(self.px(a))},{_num(self.py(b))}"
            for a, b in zip(t[::-1], np.asarray(v_high)[::-1])
        ]
        return f'<polygon points="{" ".join(fwd + rev)}" fill="{fill}" stroke="none"/>'

    def marker(self, t, v, fill):
        return (
            f'<circle cx="{_num(self.px(t))}" cy="{_num(self.py(v))}" r="3.5" '
            f'fill="{fill}" stroke="black" stroke-width="0.8"/>'
        )

    def frame(self, title):
        x = self.x0 + _MARGIN
        y = self.y0 + _MARGIN
        w = _PANEL_W - 2 * _MARGIN
        h = _PANEL_H - 2 * _MARGIN
        return (
            f'<rect x="{_num(x)}" y="{_num(y)}" width="{_num(w)}" height="{_num(h)}" '
            f'fill="none" stroke="black" stroke-width="1"/>'
            f'<text x="{_num(self.x0 + _PANEL_W / 2)}" y="{_num(self.y0 + _MARGIN - 10)}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="13">{title}</text>'
        )


def _svg_document(width, height, body) -> str:
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(width)}" '
        f'height="{int(height)}" viewBox="0 0 {int(width)} {int(height)}">\n'
        + "\n".join(body)
        + "\n</svg>\n"
    )


def tost_report_svg(report: TostReport) -> str:
    """Panels per metric: equivalence bands (dashed), shaded overlap of the two
    one-sided confidence regions, estimate curve, and violation markers."""
    t = report.grid.points
    metrics = sorted(report.results.keys(), key=lambda m: m.value)
    body = []
    for k, metric in enumerate(metrics):
        res = report.results[metric]
        log_scale = res.eq_band.kind is BandKind.MULTIPLICATIVE
        lo = res.bands.upper_of_lower_ci
        hi = res.bands.lower_of_upper_ci
        stack = [res.eq_band.lower, res.eq_band.upper, res.estimate, lo, hi]
        vmin = min(float(np.min(a)) for a in stack)
        vmax = max(float(np.max(a)) for a in stack)
        p = _Panel(k * _PANEL_W, 0.0, t[0], t[-1], vmin, vmax, log_scale)
        verdict = "reject" if res.reject else "fail to reject"
        body.append(p.frame(f"{_METRIC_TITLES[metric]} ({verdict})"))
        body.append(p.polygon(t, lo, hi, "#b9c8e8"))
        body.append(p.polyline(t, res.eq_band.lower, "black", dash="6,4"))
        body.append(p.polyline(t, res.eq_band.upper, "black", dash="6,4"))
        body.append(p.polyline(t, res.estimate, "#1f3d99"))
        for i in res.violations:
            i = int(i)
            body.append(p.marker(t[i], res.estimate[i], "#cc2222"))
    return _svg_document(_PANEL_W * len(metrics), _PANEL_H, body)


def posterior_summary_json(draws, probs: dict, gamma: float) -> str:
    """Posterior run summary: equivalence probabilities, diagnostics, medians."""
    payload = {
        "gamma": gamma,
        "n_draws": int(draws.n_draws),
        "equivalence_probabilities": {k: float(v) for k, v in sorted(probs.items())},
        "rhat_max": {k: float(np.max(v)) for k, v in sorted(draws.rhat.items())},
        "rhat_warning": bool(draws.rhat_warning),
        "acceptance": {k: float(v) for k, v in sorted(draws.acceptance.items())},
        "grid": _floats(draws.grid_points),
        "posterior_median": {
            "theta": _floats(np.median(draws.theta, axis=0)),
            "lambda": _floats(np.median(draws.lam, axis=0)),
            "psi": _floats(np.median(draws.psi, axis=0)),
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def posterior_bands_svg(draws, sim_bands: dict, eq_bands: dict) -> str:
    """Panels per metric: equivalence bands (dashed) plus the simultaneous
    posterior band (shaded) around its center curve.

    ``sim_bands`` maps Metric to SimultaneousBand (ratio metrics on the ratio
    scale); ``eq_bands`` maps Metric to BandPair.
    """
    t = np.asarray(draws.grid_points, dtype=float)
    metrics = sorted(sim_bands.keys(), key=lambda m: m.value)
    body = []
    for k, metric in enumerate(metrics):
        sb = sim_bands[metric]
        eq = eq_bands[metric]
        log_scale = eq.kind is BandKind.MULTIPLICATIVE
        stack = [eq.lower, eq.upper, sb.lower, sb.upper]
        vmin = min(float(np.min(a)) for a in stack)
        vmax = max(float(np.max(a)) for a in stack)
        p = _Panel(k * _PANEL_W, 0.0, t[0], t[-1], vmin, vmax, log_scale)
        body.append(p.frame(f"{_METRIC_TITLES[metric]} ({int(round(sb.coverage * 100))}% band)"))
        body.append(p.polygon(t, sb.lower, sb.upper, "#c5e0c5"))
        body.append(p.polyline(t, eq.lower, "black", dash="6,4"))
        body.append(p.polyline(t, eq.upper, "black", dash="6,4"))
        body.append(p.polyline(t, sb.center, "#1f7a33"))
    return _svg_document(_PANEL_W * len(metrics), _PANEL_H, body)
