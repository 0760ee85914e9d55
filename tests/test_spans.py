"""The benchmark's span table must name functions that exist.

``perfbench/spans.py`` wraps each entry of ``TARGETS`` at the name its caller
looks it up by; an entry that no longer resolves is silently untraced. The
file is loaded by path and only read.
"""

import importlib.util
from pathlib import Path

import pytest

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
