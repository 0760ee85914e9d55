"""Load scipy's compiled extensions from their files, without their packages.

Importing a scipy package runs its set-up: scipy's numpy compatibility layer
(``numpy.f2py``, ``numpy.testing``, ``numpy.ma``) and every module the
package's ``__init__`` names: ``scipy.stats`` alone adds about 40 MB to a
run that needs only its Sobol loop. So feqt loads each compiled extension
it calls from its file and calls the routines in it directly.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys


def _load_scipy_ext(path: str):
    """scipy's compiled extension ``path`` (relative to the scipy package,
    as ``"sparse/_sparsetools"``), loaded from its file on first use and
    kept in ``sys.modules`` as ``feqt.<file name>``."""
    name = f"{__package__}.{path.rpartition('/')[2]}"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec("scipy")
    roots = spec.submodule_search_locations if spec is not None else []
    tried = [
        os.path.join(root, *path.split("/")) + suffix
        for root in roots
        for suffix in importlib.machinery.EXTENSION_SUFFIXES
    ]
    for file in tried:
        if os.path.isfile(file):
            ext = importlib.util.spec_from_file_location(name, file)
            module = importlib.util.module_from_spec(ext)
            ext.loader.exec_module(module)
            sys.modules[name] = module
            return module
    raise ImportError(
        f"scipy's {path} extension not found; searched: "
        + (", ".join(tried) or "no scipy package on sys.path")
    )
