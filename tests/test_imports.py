"""Every import in ``src/feqt``, at module level or inside a function, is
used by the module itself.

No linter runs on this tree, so this stands in for pyflakes' unused-import
check. ``__init__.py`` files are exempt: their imports are re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "feqt"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by the imports of ``source``, at any depth, that no name
    lookup in the module reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(SRC).as_posix())
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_gate_flags_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy.linalg\n"
        "from .x import a, b as c\n"
        "def f():\n"
        "    import json\n"
        "    return numpy.linalg.norm(c)\n"
    )
    assert unused_imports(source) == ["a", "json", "os"]
