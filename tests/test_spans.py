"""The benchmark's span table must name functions that exist.

``perfbench/spans.py`` wraps each entry of ``TARGETS`` at the name its caller
looks it up by; an entry that no longer resolves is silently untraced. Its
tracer keeps one span stack without a lock, so every traced function must
run on the calling thread. The file is loaded by path and only read.
"""

import importlib.util
import threading
from pathlib import Path

import numpy as np
import pytest

from feqt.fdata import FunctionalSample
from feqt.tost import BootstrapConfig, Design

from conftest import make_grouped

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("perfbench_spans", _PATH)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


def test_target_count():
    assert len(spans.TARGETS) == 37


@pytest.mark.parametrize("module, attr, span", spans.TARGETS,
                         ids=[f"{m}.{a}" for m, a, _ in spans.TARGETS])
def test_target_resolves(module, attr, span):
    assert spans._resolve(module, attr) is not None, f"{module}.{attr} ({span}) is gone"


@pytest.mark.parametrize("design, kind, elems", [
    (Design.RANDOM_EFFECTS_MATCHED, "grouped", 2 * 12 * 2 * 5),
    (Design.MATCHED_PAIRS, "paired", 4 * 2 * 5),
    (Design.INDEPENDENT_IID, "two samples", (4 + 3) * 5),
])
def test_gather_elems_reads_each_design(design, kind, elems):
    # the benchmark branches on ``cfg.design.value``; a renamed enum value
    # would send a sample down another design's branch
    grouped = make_grouped(np.random.default_rng(0), n_groups=3, group_size=4, n_points=5)
    pair = grouped.groups[0]
    data = {
        "grouped": grouped,
        "paired": pair,
        "two samples": (FunctionalSample(pair.grid, pair.curves_1),
                        FunctionalSample(pair.grid, pair.curves_2[:3])),
    }[kind]
    assert spans._gather_elems(data, BootstrapConfig(1000, design=design)) == elems


def test_traced_bootstrap_spans_stay_on_the_calling_thread(monkeypatch, two_threads):
    # the tracer keeps one unlocked span stack, so no traced function may
    # run on the bootstrap's helper thread
    from feqt import simlab
    from feqt.fdata import make_cosine_bands
    from feqt.tost import Metric

    tracer = spans.Tracer()
    wrap, threads = tracer._wrap, []

    def wrap_noting_thread(fn, name):
        traced = wrap(fn, name)

        def call(*args, **kwargs):
            threads.append(threading.get_ident())
            return traced(*args, **kwargs)

        return call

    monkeypatch.setattr(tracer, "_wrap", wrap_noting_thread)
    for module, attr, _ in spans.TARGETS:  # put every function back afterwards
        found = spans._resolve(module, attr)
        if found is not None:
            monkeypatch.setattr(*found, getattr(*found))
    tracer.install()
    g = make_grouped(np.random.default_rng(0), n_groups=20, group_size=20, n_points=25)
    bands = {m: make_cosine_bands(g.grid, m.band_kind) for m in Metric}
    cfg = BootstrapConfig(2000, seed=0, design=Design.RANDOM_EFFECTS_MATCHED)
    simlab.run_tost(g, cfg, bands)  # the name the study's caller looks up

    (workers, bounds, ran_on), = two_threads.calls
    assert len(bounds) >= 2 and len(set(ran_on)) == 2
    names = [s[0] for s in tracer.spans]
    assert names.count("tost.run") == 1 and names.count("tost.bootstrap") == 1
    assert len(threads) == len(tracer.spans) and set(threads) == {threading.get_ident()}
    assert all(end is not None for _, _, end, _ in tracer.spans)
    assert tracer.metrics(1.0)["trace.missing"] == 0
    assert tracer.metrics(1.0)["tost.replicates"] == 2000
