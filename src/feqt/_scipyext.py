"""Load scipy's compiled extensions from their files, without their packages.

Importing a scipy package runs its set-up: scipy's numpy compatibility layer
(``numpy.f2py``, ``numpy.testing``, ``numpy.ma``) and every module the
package's ``__init__`` names: ``scipy.stats`` alone adds about 40 MB to a
run that needs only its Sobol loop, ``scipy.special`` about 15 MB to one
that needs only ``ndtri``. So feqt loads each compiled extension it calls
and calls the routines in it directly. Most load from their files under a
``feqt`` name (:func:`_load_scipy_ext`); ``special/_ufuncs``, which imports
its sibling extensions by relative name, loads under its own name with its
package's ``__init__`` not run (:func:`_import_scipy_ext`).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import types


def _find_scipy_ext(path: str) -> str:
    """The file of scipy's compiled extension ``path`` (relative to the
    scipy package, as ``"sparse/_sparsetools"``); an ``ImportError`` naming
    every path searched if there is none."""
    spec = importlib.util.find_spec("scipy")
    roots = spec.submodule_search_locations if spec is not None else []
    tried = [
        os.path.join(root, *path.split("/")) + suffix
        for root in roots
        for suffix in importlib.machinery.EXTENSION_SUFFIXES
    ]
    for file in tried:
        if os.path.isfile(file):
            return file
    raise ImportError(
        f"scipy's {path} extension not found; searched: "
        + (", ".join(tried) or "no scipy package on sys.path")
    )


def _load_scipy_ext(path: str):
    """scipy's compiled extension ``path``, loaded from its file on first use
    and kept in ``sys.modules`` as ``feqt.<file name>``."""
    name = f"{__package__}.{path.rpartition('/')[2]}"
    if name in sys.modules:
        return sys.modules[name]
    ext = importlib.util.spec_from_file_location(name, _find_scipy_ext(path))
    module = importlib.util.module_from_spec(ext)
    ext.loader.exec_module(module)
    sys.modules[name] = module
    return module


def _import_scipy_ext(path: str):
    """scipy's compiled extension ``path``, imported under its own name
    (``"special/_ufuncs"`` as ``scipy.special._ufuncs``) without running its
    package's ``__init__``.

    While the import runs, ``sys.modules`` holds a stand-in for the package:
    an empty module whose ``__path__`` is the extension's directory, so the
    extension's relative imports of its siblings resolve there. The stand-in
    is removed once the import returns or raises. A later import of the
    package proper finds the extension in ``sys.modules`` and uses it, so
    both hand out the same objects."""
    name = "scipy." + path.replace("/", ".")
    if name in sys.modules:
        return sys.modules[name]
    package = name.rpartition(".")[0]
    stand_in = types.ModuleType(package)
    stand_in.__path__ = [os.path.dirname(_find_scipy_ext(path))]
    sys.modules.setdefault(package, stand_in)
    try:
        return importlib.import_module(name)
    finally:
        if sys.modules.get(package) is stand_in:
            del sys.modules[package]
