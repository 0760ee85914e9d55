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
#: Public definitions that only tests call, each with the reason it is kept.
ONLY_TESTS_CALL = {
    "MwgSampler.init_from_prior": "the Geweke checks draw the prior with the sampler's own draws",
    "MwgSampler.simulate_data": "the Geweke checks redraw the data with the sampler's own draws",
    "paired_block_loglik": "the reference the cached block log-likelihood is tested against",
}


def public_definitions():
    """(qualified name, file, line) of every public function of a module
    under ``src/feqt`` and every public method of its top-level classes."""
    for path in sorted((ROOT / "src" / "feqt").rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                funcs = [(f"{node.name}.", f) for f in node.body]
            else:
                funcs = [("", node)]
            for prefix, f in funcs:
                if isinstance(f, ast.FunctionDef) and not f.name.startswith("_"):
                    yield prefix + f.name, path, f.lineno


def test_every_public_function_has_a_caller_outside_the_tests():
    # a text search: a name any line of src/ or perfbench/ mentions, even in
    # a docstring, counts as referenced; each definition's own line does not
    lines = {
        path: path.read_text(encoding="utf-8").splitlines()
        for tree in ("src", "perfbench") for path in sorted((ROOT / tree).rglob("*.py"))
    }
    definitions = list(public_definitions())
    assert set(ONLY_TESTS_CALL) <= {qualname for qualname, _, _ in definitions}
    unreferenced = []
    for qualname, def_path, def_line in definitions:
        word = re.compile(rf"\b{qualname.rsplit('.', 1)[-1]}\b")
        if not any(
            word.search(line)
            for path, text in lines.items()
            for lineno, line in enumerate(text, 1)
            if (path, lineno) != (def_path, def_line)
        ):
            unreferenced.append(qualname)
    assert sorted(set(unreferenced) - set(ONLY_TESTS_CALL)) == []
