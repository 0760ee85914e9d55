import ast
import importlib
import re
from pathlib import Path

import pytest


@pytest.mark.parametrize("module", ["feqt", "feqt.bayes"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)


ROOT = Path(__file__).resolve().parents[1]
#: Definitions that only tests call, each with the reason it is kept.
ONLY_TESTS_CALL = {
    "paired_block_loglik": "the reference the cached block log-likelihood is tested against",
}


def definitions():
    """(qualified name, file, line) of every function, method and class
    under ``src/feqt``, nested and private ones included, dunders excluded."""
    for path in sorted((ROOT / "src" / "feqt").rglob("*.py")):
        todo = [(ast.parse(path.read_text(encoding="utf-8")), "")]
        while todo:
            node, prefix = todo.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    if not (child.name.startswith("__") and child.name.endswith("__")):
                        yield prefix + child.name, path, child.lineno
                    todo.append((child, f"{prefix}{child.name}."))
                else:
                    todo.append((child, prefix))


def test_every_definition_has_a_caller_outside_the_tests():
    # a text search: a name any line of src/ or perfbench/ mentions, even in
    # a docstring, counts as referenced; each definition's own line does not
    lines = {
        path: path.read_text(encoding="utf-8").splitlines()
        for tree in ("src", "perfbench") for path in sorted((ROOT / tree).rglob("*.py"))
    }
    found = list(definitions())
    assert set(ONLY_TESTS_CALL) <= {qualname for qualname, _, _ in found}
    unreferenced = []
    for qualname, def_path, def_line in found:
        word = re.compile(rf"\b{qualname.rsplit('.', 1)[-1]}\b")
        if not any(
            word.search(line)
            for path, text in lines.items()
            for lineno, line in enumerate(text, 1)
            if (path, lineno) != (def_path, def_line)
        ):
            unreferenced.append(qualname)
    assert sorted(set(unreferenced) - set(ONLY_TESTS_CALL)) == []
