"""In-memory spans around calls into feqt's public functions.

A :class:`Tracer` replaces each function in :data:`TARGETS` with a wrapper
at the name its caller looks it up by, and records one span per call:
(name, start, end, parent). Counts that must repeat exactly (replicates,
rows, bytes, sweeps) come from argument shapes, file sizes and return
values, never from timers. Nothing under ``src/`` is modified; the wrappers
live only in the benchmark's worker process.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import Counter

#: (module, attribute at which the caller looks the function up, span name).
#: The layer of a span is its name up to the first dot.
TARGETS = (
    ("feqt.cli", "run_cli", "cli"),
    ("feqt.curvefile", "read_curves", "curvefile.read"),
    ("feqt.curvefile", "write_curves", "curvefile.write"),
    ("feqt.tost", "estimate_metrics_grouped", "estimators"),
    ("feqt.tost", "estimate_metrics_paired", "estimators"),
    ("feqt.tost", "anova_decompose", "estimators"),
    ("feqt.tost", "adjusted_random_effects", "estimators"),
    ("feqt.estimators", "anova_decompose", "estimators"),
    ("feqt.cli", "run_tost", "tost.run"),
    ("feqt.simlab", "run_tost", "tost.run"),
    ("feqt.tost", "bootstrap_random_effects", "tost.bootstrap"),
    ("feqt.tost", "bootstrap_matched", "tost.bootstrap"),
    ("feqt.tost", "bootstrap_independent", "tost.bootstrap"),
    ("feqt.tost", "theta_bands", "tost.bands"),
    ("feqt.tost", "ratio_bands", "tost.bands"),
    ("feqt.tost", "tost_decide", "tost.decide"),
    ("feqt.cli", "default_truth", "simlab.scenario"),
    ("feqt.cli", "boundary_violation_scenarios", "simlab.scenario"),
    ("feqt.cli", "interior_scenarios", "simlab.scenario"),
    ("feqt.cli", "run_study", "simlab.study"),
    ("feqt.simlab", "generate_dataset", "simlab.generate"),
    ("feqt.cli", "calibrate_prior_scale", "mvnprob.calibrate"),
    ("feqt.bayes.mvnprob", "prior_equivalence_prob", "mvnprob.prior_prob"),
    ("feqt.bayes.mvnprob", "mvn_rectangle_prob", "mvnprob.rect"),
    ("feqt.cli", "run_mwg", "sampler.run"),
    ("feqt.bayes.sampler", "MwgSampler.__init__", "sampler.init"),
    ("feqt.bayes.sampler", "MwgSampler.init_from_data", "sampler.init"),
    ("feqt.bayes.sampler", "MwgSampler.sweep", "sampler.sweep"),
    ("feqt.cli", "posterior_equivalence_prob", "posterior"),
    ("feqt.cli", "simultaneous_bands", "posterior"),
    ("feqt.report", "tost_report_json", "report"),
    ("feqt.report", "tost_report_csv", "report"),
    ("feqt.report", "tost_report_svg", "report"),
    ("feqt.report", "posterior_summary_json", "report"),
    ("feqt.report", "posterior_bands_svg", "report"),
    ("feqt.simlab", "StudyResult.to_csv_text", "report"),
    ("feqt.simlab", "StudyResult.to_json_text", "report"),
)

#: Metropolis blocks reported in ``PosteriorDraws.acceptance``.
ACCEPT_BLOCKS = ("leps_1", "leps_2", "lalp_1", "lalp_2", "rho_e", "rho_a")

#: Every per-layer metric with its unit. Byte counts derived from array
#: shapes are labelled ``bytes_computed``; ``bytes`` are sizes of real files
#: or emitted strings.
LAYER_METRICS = {
    "cli.self_s": "s",
    "curvefile.read_s": "s",
    "curvefile.write_s": "s",
    "curvefile.rows": "count",
    "curvefile.bytes": "bytes",
    "estimators.s": "s",
    "tost.run_s": "s",
    "tost.bootstrap_s": "s",
    "tost.bands_s": "s",
    "tost.decide_s": "s",
    "tost.calls": "count",
    "tost.replicates": "count",
    "tost.replicates_per_s": "1/s",
    "tost.gather_bytes": "bytes_computed",
    "simlab.generate_s": "s",
    "simlab.datasets": "count",
    "simlab.self_s": "s",
    "simlab.errors": "count",
    "mvnprob.calibrate_s": "s",
    "mvnprob.prior_prob_calls": "count",
    "mvnprob.rect_calls": "count",
    "mvnprob.rect_s": "s",
    "sampler.init_s": "s",
    "sampler.sweep_s": "s",
    "sampler.sweeps": "count",
    "sampler.sweeps_per_s": "1/s",
    **{f"sampler.accept.{b}": "ratio" for b in ACCEPT_BLOCKS},
    "sampler.rhat_max": "ratio",
    "posterior.s": "s",
    "report.emit_s": "s",
    "report.bytes": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
    "trace.missing": "count",
}


def _resolve(module, attr):
    """Return (owner, name) for a dotted attribute, or None if it is gone."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, name, None)):
        return None
    return owner, name


def _rows(sample):
    """Data rows a curve file holds for ``sample``: one per curve."""
    if hasattr(sample, "n_total"):
        return 2 * int(sample.n_total)
    if hasattr(sample, "curves_2"):
        return 2 * int(sample.n)
    return int(sample.curves.shape[0])


def _gather_elems(data, cfg):
    """Elements the stack-and-gather of one bootstrap replicate materializes,
    mirroring the per-design sizes ``feqt.tost`` chunks by."""
    design = cfg.design.value
    if design == "random_effects_matched":
        return 2 * int(data.n_total) * 2 * len(data.grid)
    if design == "matched_pairs":
        return int(data.n) * 2 * len(data.grid)
    s1, s2 = data
    return (int(s1.n) + int(s2.n)) * len(s1.grid)


class Tracer:
    """Records spans and exact counts for one benchmark pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.values = {}
        self.missing = []
        self._stack = []

    def install(self):
        for module, attr, name in TARGETS:
            found = _resolve(module, attr)
            if found is None:
                self.missing.append(f"{module}.{attr}")
                continue
            owner, fname = found
            setattr(owner, fname, self._wrap(getattr(owner, fname), name))

    def _wrap(self, fn, name):
        hook = getattr(self, "_on_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter(), None, parent])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    # ----- exact counts, taken from arguments and results -----------------

    def _on_curvefile_read(self, args, kwargs, result):
        self.counts["curvefile.rows"] += _rows(result)
        self.counts["curvefile.bytes"] += os.path.getsize(args[0])

    def _on_curvefile_write(self, args, kwargs, result):
        self.counts["curvefile.rows"] += _rows(args[0])
        self.counts["curvefile.bytes"] += os.path.getsize(args[1])

    def _on_tost_run(self, args, kwargs, result):
        data, cfg = args[0], args[1]
        self.counts["tost.replicates"] += cfg.replicates
        self.counts["tost.gather_bytes"] += cfg.replicates * _gather_elems(data, cfg) * 8

    def _on_simlab_study(self, args, kwargs, result):
        self.counts["simlab.errors"] += len(result.errors)

    def _on_sampler_run(self, args, kwargs, result):
        for block in ACCEPT_BLOCKS:
            self.values[f"sampler.accept.{block}"] = float(result.acceptance.get(block, 0.0))
        self.values["sampler.rhat_max"] = max(float(v.max()) for v in result.rhat.values())

    def _on_report(self, args, kwargs, result):
        self.counts["report.bytes"] += len(result.encode("utf-8"))

    # ----- summaries ------------------------------------------------------

    def metrics(self, wall_s):
        """Per-layer metrics of this pass, whose traced wall time is ``wall_s``."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = Counter()  # outermost spans of a name, children included
        own = Counter()  # span time not covered by child spans
        calls = Counter()
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            own[name] += end - start - child[i]
            if parent < 0 or self.spans[parent][0] != name:
                total[name] += end - start
        layer_own = Counter()
        for name, t in own.items():
            layer_own[name.split(".")[0]] += t

        out = dict.fromkeys(LAYER_METRICS, 0.0)
        out.update({k: float(v) for k, v in self.counts.items()})
        out.update(self.values)
        sweeps = total["sampler.sweep"]
        bootstrap = total["tost.bootstrap"]
        out.update({
            "cli.self_s": own["cli"],
            "curvefile.read_s": total["curvefile.read"],
            "curvefile.write_s": total["curvefile.write"],
            "estimators.s": layer_own["estimators"],
            "tost.run_s": total["tost.run"],
            "tost.bootstrap_s": own["tost.bootstrap"],
            "tost.bands_s": total["tost.bands"],
            "tost.decide_s": total["tost.decide"],
            "tost.calls": float(calls["tost.run"]),
            "tost.replicates_per_s": (
                self.counts["tost.replicates"] / bootstrap if bootstrap else 0.0
            ),
            "simlab.generate_s": total["simlab.generate"],
            "simlab.datasets": float(calls["simlab.generate"]),
            "simlab.self_s": layer_own["simlab"],
            "mvnprob.calibrate_s": total["mvnprob.calibrate"],
            "mvnprob.prior_prob_calls": float(calls["mvnprob.prior_prob"]),
            "mvnprob.rect_calls": float(calls["mvnprob.rect"]),
            "mvnprob.rect_s": total["mvnprob.rect"],
            "sampler.init_s": total["sampler.init"],
            "sampler.sweep_s": sweeps,
            "sampler.sweeps": float(calls["sampler.sweep"]),
            "sampler.sweeps_per_s": calls["sampler.sweep"] / sweeps if sweeps else 0.0,
            "posterior.s": layer_own["posterior"],
            "report.emit_s": total["report"],
            "trace.wall_s": wall_s,
            "trace.coverage": sum(layer_own.values()) / wall_s,
            "trace.missing": float(len(self.missing)),
        })
        return out

    def write(self, path):
        """Write the spans as JSON lines, then one line naming missing targets."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
            fh.write(json.dumps({"missing": self.missing}) + "\n")
