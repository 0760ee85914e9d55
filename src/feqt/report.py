"""Deterministic report emission: JSON, CSV, and hand-rolled SVG.

All emitters are pure functions of their inputs (no timestamps, no
environment lookups), so identical runs produce identical bytes.
"""

from __future__ import annotations

import json

import numpy as np

from .fdata import BandKind, BandPair, Grid
from .tost import Metric, OneSidedBands, TostReport, tost_decide

_METRIC_TITLES = {
    Metric.THETA: "mean difference",
    Metric.LAMBDA: "error variance ratio",
    Metric.PSI: "random effect variance ratio",
}


def _floats(a) -> list:
    return [float(x) for x in np.asarray(a, dtype=float)]


#: Per-metric curves of a TOST report, one value per grid point, in CSV
#: column order: field name -> accessor on a ``MetricResult``.
_CURVE_FIELDS = {
    "estimate": lambda res: res.estimate,
    "overlap_lower": lambda res: res.bands.upper_of_lower_ci,
    "overlap_upper": lambda res: res.bands.lower_of_upper_ci,
    "band_lower": lambda res: res.eq_band.lower,
    "band_upper": lambda res: res.eq_band.upper,
}


def _by_metric(items):
    return sorted(items, key=lambda kv: kv[0].value)


def tost_report_json(report: TostReport) -> str:
    payload = {
        "alpha": report.alpha,
        "bootstrap_replicates": report.replicates,
        "decision": report.decision.value,
        "lambda_noninferiority": (
            report.lambda_noninferiority.value if report.lambda_noninferiority else None
        ),
        "grid": _floats(report.grid.points),
        "metrics": {
            metric.value: {
                **{name: _floats(curve(res)) for name, curve in _CURVE_FIELDS.items()},
                "violations": [int(i) for i in res.violations],
                "reject": bool(res.reject),
            }
            for metric, res in _by_metric(report.results.items())
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def tost_report_csv(report: TostReport) -> str:
    """One row per (metric, grid point) with band and overlap endpoints."""
    lines = [",".join(["metric", "t", *_CURVE_FIELDS, "violation"])]
    for metric, res in _by_metric(report.results.items()):
        viol = set(int(i) for i in res.violations)
        curves = [curve(res) for curve in _CURVE_FIELDS.values()]
        for i, row in enumerate(zip(report.grid.points, *curves)):
            cells = [repr(float(x)) for x in row]
            lines.append(",".join([metric.value, *cells, str(int(i in viol))]))
    return "\n".join(lines) + "\n"


def tost_report_from_json(payload) -> TostReport:
    """Rebuild a :class:`TostReport` from a parsed :func:`tost_report_json`
    payload; raises ``ValueError`` naming the first missing or bad field.

    The payload must be one :func:`tost_report_json` can write: every curve
    holds one finite number per grid point, ``alpha`` is a number in
    (0, 0.5), ``bootstrap_replicates`` is a non-negative integer, and each
    metric's ``violations`` and ``reject``, the ``decision`` and
    ``lambda_noninferiority`` are, as JSON, the ones
    :func:`~feqt.tost.tost_decide` derives from the curves.
    """
    try:
        grid = Grid(payload["grid"])
        T = len(grid)
        bands, eq_bands, estimates = {}, {}, {}
        for name, m in payload["metrics"].items():
            metric = Metric(name)
            c = {}
            for field in _CURVE_FIELDS:
                if np.shape(m[field]) != (T,):
                    raise ValueError(
                        f"{name}.{field} needs one value per grid point ({T}), "
                        f"got shape {np.shape(m[field])}"
                    )
                c[field] = np.asarray(m[field], dtype=float)
                if not np.all(np.isfinite(c[field])):
                    raise ValueError(f"{name}.{field} must hold finite numbers")
            estimates[metric] = c["estimate"]
            bands[metric] = OneSidedBands(metric, c["overlap_upper"], c["overlap_lower"])
            eq_bands[metric] = BandPair(grid, c["band_lower"], c["band_upper"], metric.band_kind)
        replicates = payload["bootstrap_replicates"]
        # bool subclasses int, but a JSON boolean is not an integer
        if isinstance(replicates, bool) or not isinstance(replicates, int) or replicates < 0:
            raise ValueError(
                f"bootstrap_replicates must be a non-negative integer, got {replicates!r}"
            )
        alpha = payload["alpha"]
        if not (isinstance(alpha, (int, float)) and not isinstance(alpha, bool)
                and 0.0 < alpha < 0.5):
            raise ValueError(f"alpha must be a number in (0, 0.5), got {alpha!r}")
        report = tost_decide(bands, eq_bands, estimates, alpha=float(alpha), replicates=replicates)
        derived = json.loads(tost_report_json(report))
        checks = [
            (f"{name}.{key}", m[key], derived["metrics"][name][key])
            for name, m in payload["metrics"].items()
            for key in ("violations", "reject")
        ]
        checks += [(k, payload[k], derived[k]) for k in ("decision", "lambda_noninferiority")]
        for field, *values in checks:
            given, want = map(json.dumps, values)
            if given != want:
                raise ValueError(f"{field} must be {want} (from the curves), got {given}")
        return report
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        # a JSON array or a metrics list fails here with a type error
        raise ValueError(f"report JSON missing or bad field: {exc}") from exc


def bands_csv(bands: dict) -> str:
    """CSV of equivalence band curves; ``bands`` maps Metric to BandPair."""
    if not bands:
        raise ValueError("no bands to write")
    lines = ["metric,t,band_lower,band_upper"]
    for metric, band in _by_metric(bands.items()):
        for row in zip(band.grid.points, band.lower, band.upper):
            lines.append(",".join([metric.value, *(repr(float(x)) for x in row)]))
    return "\n".join(lines) + "\n"


def bands_json(bands: dict) -> str:
    """JSON of equivalence band curves and their grid; ``bands`` maps Metric to BandPair."""
    if not bands:
        raise ValueError("no bands to write")
    payload = {
        m.value: {"lower": _floats(b.lower), "upper": _floats(b.upper)} for m, b in bands.items()
    }
    payload["grid"] = _floats(next(iter(bands.values())).grid.points)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ----- SVG ---------------------------------------------------------------

_PANEL_W = 360.0
_PANEL_H = 240.0
_MARGIN = 45.0
_LINE_WIDTH = 1.5


def _num(x) -> str:
    return f"{x:.2f}"


class _Panel:
    """Linear data-to-pixel mapping for one plot panel."""

    def __init__(self, x0, t, vmin, vmax, log_scale):
        self.x0 = x0
        self.tmin, self.tmax = t[0], t[-1]
        self.log = log_scale
        if log_scale:
            # ratio-scale panels are drawn on log axes; clip keeps a
            # nonpositive band edge from breaking the transform
            vmin = np.log(max(vmin, 1e-12))
            vmax = np.log(max(vmax, 1e-12))
        pad = 0.08 * (vmax - vmin) if vmax > vmin else 1.0
        self.vmin, self.vmax = vmin - pad, vmax + pad

    def px(self, t):
        span = self.tmax - self.tmin or 1.0
        return self.x0 + _MARGIN + (t - self.tmin) / span * (_PANEL_W - 2 * _MARGIN)

    def py(self, v):
        if self.log:
            v = np.log(max(v, 1e-12))
        span = self.vmax - self.vmin
        return _PANEL_H - _MARGIN - (v - self.vmin) / span * (_PANEL_H - 2 * _MARGIN)

    def _points(self, t, v):
        return [f"{_num(self.px(a))},{_num(self.py(b))}" for a, b in zip(t, v)]

    def polyline(self, t, v, stroke, dash=None):
        pts = " ".join(self._points(t, v))
        d = f' stroke-dasharray="{dash}"' if dash else ""
        return (
            f'<polyline points="{pts}" fill="none" stroke="{stroke}" '
            f'stroke-width="{_LINE_WIDTH}"{d}/>'
        )

    def polygon(self, t, v_low, v_high, fill):
        pts = " ".join(self._points(t, v_low) + self._points(t[::-1], np.asarray(v_high)[::-1]))
        return f'<polygon points="{pts}" fill="{fill}" stroke="none"/>'

    def marker(self, t, v, fill):
        return (
            f'<circle cx="{_num(self.px(t))}" cy="{_num(self.py(v))}" r="3.5" '
            f'fill="{fill}" stroke="black" stroke-width="0.8"/>'
        )

    def frame(self, title):
        x = self.x0 + _MARGIN
        y = _MARGIN
        w = _PANEL_W - 2 * _MARGIN
        h = _PANEL_H - 2 * _MARGIN
        return (
            f'<rect x="{_num(x)}" y="{_num(y)}" width="{_num(w)}" height="{_num(h)}" '
            f'fill="none" stroke="black" stroke-width="1"/>'
            f'<text x="{_num(self.x0 + _PANEL_W / 2)}" y="{_num(_MARGIN - 10)}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="13">{title}</text>'
        )


def _band_panels_svg(t, panels, shade, line) -> str:
    """Side-by-side panels on grid points ``t``. Each panel is a tuple
    (title, equivalence BandPair, shaded lower, shaded upper, center curve,
    marker grid indices): the dashed band, the region filled with ``shade``,
    the center curve stroked with ``line`` and a marker on it at each index."""
    body = []
    for k, (title, eq, lower, upper, center, markers) in enumerate(panels):
        stack = [eq.lower, eq.upper, center, lower, upper]
        vmin = min(float(np.min(a)) for a in stack)
        vmax = max(float(np.max(a)) for a in stack)
        p = _Panel(k * _PANEL_W, t, vmin, vmax, eq.kind is BandKind.MULTIPLICATIVE)
        body.append(p.frame(title))
        body.append(p.polygon(t, lower, upper, shade))
        body.append(p.polyline(t, eq.lower, "black", dash="6,4"))
        body.append(p.polyline(t, eq.upper, "black", dash="6,4"))
        body.append(p.polyline(t, center, line))
        body.extend(p.marker(t[int(i)], center[int(i)], "#cc2222") for i in markers)
    w, h = int(_PANEL_W * len(panels)), int(_PANEL_H)
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}">\n'
        + "\n".join(body) + "\n</svg>\n"
    )


def tost_report_svg(report: TostReport) -> str:
    """Panels per metric: equivalence bands (dashed), shaded overlap of the two
    one-sided confidence regions, estimate curve, and violation markers."""
    panels = [
        (
            f"{_METRIC_TITLES[metric]} ({'reject' if res.reject else 'fail to reject'})",
            res.eq_band, res.bands.upper_of_lower_ci, res.bands.lower_of_upper_ci,
            res.estimate, res.violations,
        )
        for metric, res in _by_metric(report.results.items())
    ]
    return _band_panels_svg(report.grid.points, panels, "#b9c8e8", "#1f3d99")


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
        "posterior_median": {m.value: _floats(np.median(draws.metric(m), axis=0)) for m in Metric},
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def posterior_bands_svg(draws, sim_bands: dict, eq_bands: dict) -> str:
    """Panels per metric: equivalence bands (dashed) plus the simultaneous
    posterior band (shaded) around its center curve.

    ``sim_bands`` maps Metric to SimultaneousBand (ratio metrics on the ratio
    scale); ``eq_bands`` maps Metric to BandPair.
    """
    panels = [
        (
            f"{_METRIC_TITLES[metric]} ({int(round(sb.coverage * 100))}% band)",
            eq_bands[metric], sb.lower, sb.upper, sb.center, (),
        )
        for metric, sb in _by_metric(sim_bands.items())
    ]
    return _band_panels_svg(np.asarray(draws.grid_points, dtype=float), panels,
                            "#c5e0c5", "#1f7a33")
