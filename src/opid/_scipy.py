"""The compiled scipy routines the library calls, loaded without their packages.

``import scipy.linalg`` and ``import scipy.special`` run each package's
``__init__``, which pulls in scipy's array-API layer and through it
``numpy.f2py``: about 0.2 s of every process's start-up, for none of the
routines below. They live in two extension files, ``scipy/linalg/_flapack``
(LAPACK, wrapped by f2py) and ``scipy/special/_special_ufuncs`` (``expit``),
which load on their own. Each is registered in ``sys.modules`` under its own
name, so a later package import reuses it and every routine here is the very
object the package exports. Those file names are private to scipy and may be
renamed or moved, and a file may need its package's ``__init__`` to load:
where the file is not found, fails to load with ``ImportError`` or lacks a
routine, the routines come from the public module (``scipy.linalg.lapack``,
``scipy.special``) instead.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from importlib.machinery import PathFinder
from pathlib import Path

_SCIPY = Path(importlib.util.find_spec("scipy").origin).parent


def _by_file(name: str):
    """The scipy extension module ``name`` loaded from its own file without
    its package (or as already loaded), or None where no such file is found
    or it does not load alone."""
    if name in sys.modules:
        return sys.modules[name]
    spec = PathFinder.find_spec(name, [str(_SCIPY.joinpath(*name.split(".")[1:-1]))])
    if spec is None:
        return None
    try:
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    except ImportError:
        sys.modules.pop(name, None)
        return None
    return module


def _routines(private: str, public: str, *names: str) -> list:
    """``names`` from the extension module ``private`` loaded by file, or
    from the module ``public`` where that file will not serve them all."""
    module = _by_file(private)
    if module is None or not all(hasattr(module, name) for name in names):
        module = importlib.import_module(public)
    return [getattr(module, name) for name in names]


dlange, dlantr, dpotrf, dpotrs, dtpqrt, dtrtrs = _routines(
    "scipy.linalg._flapack", "scipy.linalg.lapack",
    "dlange", "dlantr", "dpotrf", "dpotrs", "dtpqrt", "dtrtrs",
)
(expit,) = _routines("scipy.special._special_ufuncs", "scipy.special", "expit")
