"""Two import gates on ``src/feqt``, standing in for a linter, which this tree
does not run.

- Every import, at module level or inside a function, is used by the module
  itself (pyflakes' unused-import check). ``__init__.py`` files are exempt:
  their imports are re-exports.
- No module imports ``scipy`` or a package inside it, at any depth.
  Importing any scipy package costs a ``feqt`` run more start-up than a
  whole ``tost`` pass, and ``scipy.special`` alone adds about 15 MB. Every
  scipy routine feqt calls comes from a compiled extension loaded without
  its package (``feqt._scipyext``). Likewise no module imports the
  thread-pool packages ``queue`` and ``concurrent`` (``concurrent.futures``
  alone takes 6-9 ms) when it is itself imported: the bootstrap's helper
  thread needs only ``threading``. Should one come back, it belongs inside
  the function that needs it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "feqt"
ALL_MODULES = sorted(SRC.rglob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]


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


def eager_imports(source: str, package: str) -> list:
    """Line numbers of the imports of ``package``, or of a module inside it,
    that run when ``source`` is imported: those outside every function body."""
    found = []
    todo = [ast.parse(source)]
    while todo:
        for node in ast.iter_child_nodes(todo.pop()):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                names = []
            if any(n == package or n.startswith(package + ".") for n in names):
                found.append(node.lineno)
            todo.append(node)
    return sorted(found)


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.relative_to(SRC).as_posix())
def test_no_module_level_scipy_import(path):
    assert eager_imports(path.read_text(encoding="utf-8"), "scipy") == []


def scipy_imports(source: str) -> list:
    """(innermost enclosing function, "" at module level; imported module) of
    every import of ``scipy`` or a module inside it in ``source``, at any depth."""
    found = []
    todo = [(ast.parse(source), "")]
    while todo:
        node, func = todo.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                found.extend((func, a.name) for a in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                found.append((func, child.module))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            todo.append((child, child.name if is_def else func))
    return sorted((f, m) for f, m in found if m == "scipy" or m.startswith("scipy."))


def test_no_module_imports_a_scipy_package():
    found = [
        (path.relative_to(SRC).as_posix(), func, module)
        for path in ALL_MODULES
        for func, module in scipy_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def test_gate_lists_every_scipy_import():
    source = (
        "import scipy.special, numpy as np\n"
        "from scipy import linalg\n"
        "import scipyx\n"
        "class C:\n"
        "    def f(self):\n"
        "        from scipy.stats import qmc\n"
        "def g():\n"
        "    def h():\n"
        "        import scipy.optimize as so\n"
        "    from scipy.special import ndtri\n"
        "from .scipy import x\n"
    )
    assert scipy_imports(source) == [
        ("", "scipy"),
        ("", "scipy.special"),
        ("f", "scipy.stats"),
        ("g", "scipy.special"),
        ("h", "scipy.optimize"),
    ]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.relative_to(SRC).as_posix())
def test_no_module_level_thread_pool_import(path):
    source = path.read_text(encoding="utf-8")
    assert eager_imports(source, "queue") == eager_imports(source, "concurrent") == []


def test_gate_flags_eager_scipy_imports():
    source = (
        "import scipy.special\n"
        "from scipy import linalg\n"
        "import scipyx, numpy as np\n"
        "try:\n"
        "    from scipy.sparse import csr_matrix\n"
        "except ImportError:\n"
        "    pass\n"
        "class C:\n"
        "    import scipy.stats\n"
        "    def f(self):\n"
        "        import scipy.optimize\n"
        "def g():\n"
        "    from scipy.special import kv\n"
        "from .scipy import x\n"
    )
    # a class body runs on import, a function body only when called
    assert eager_imports(source, "scipy") == [1, 2, 5, 9]


def test_gate_flags_eager_thread_pool_imports():
    source = (
        "import concurrent.futures\n"
        "from queue import SimpleQueue\n"
        "import queues, concurrently\n"
        "def helper():\n"
        "    from queue import SimpleQueue\n"
        "    from concurrent.futures import ThreadPoolExecutor\n"
    )
    assert eager_imports(source, "concurrent") == [1]
    assert eager_imports(source, "queue") == [2]
