"""The benchmark's span table must name functions that exist.

``perfbench/spans.py`` wraps each entry of ``TARGETS`` at the name its caller
looks it up by; an entry that no longer resolves is silently untraced. The
file is loaded by path and only read.
"""

import importlib.util
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
