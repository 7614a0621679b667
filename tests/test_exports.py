"""The top-level ``opid`` namespace exports exactly the documented API,
imports no scipy package, reaches compiled scipy code only through the
routines listed here, every library name the README cites exists, no
private module-level name of the package is left without a caller, and the
snapshot code imports no container format."""

from __future__ import annotations

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import opid
import opid._scipy
import opid.cstage

PUBLIC = {
    "FeatureSchema", "Hyperparams", "Batch", "SchemaError", "NumericError", "ManifestError",
    "SolverError",
    "parse_manifest", "stream_batches", "read_estage", "SynthConfig", "generate_synthetic",
    "write_stream",
    "DIRECT", "FACTOR", "init_stats", "absorb_batch", "solve_model", "compress", "save_stats",
    "load_stats",
    "build_stacked", "fit_unified", "predict_unified", "train_ensemble", "predict_ensemble",
    "ExperimentSpec", "run_experiment", "emit_report", "load_results",
}


def test_exports_are_the_public_api():
    assert len(PUBLIC) == 30
    assert sorted(opid.__all__) == sorted(PUBLIC)
    assert all(hasattr(opid, name) for name in PUBLIC)


def _python(code: str) -> str:
    """The stripped stdout of ``code`` run in a fresh interpreter that imports
    this checkout's opid."""
    src = str(Path(opid.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_import_leaves_scipy_packages_unloaded():
    # each package costs a fresh process 0.1-1 s to import (scipy.stats about
    # a second; scipy.linalg and scipy.special about 0.2 s, most of it the
    # array-API layer and numpy.f2py); the library needs none of them
    unwanted = ["scipy.linalg", "scipy.special", "scipy._lib._array_api", "numpy.f2py",
                "scipy.stats"]
    code = f"import sys, opid, opid.cli; print([m for m in {unwanted} if m in sys.modules])"
    assert _python(code) == "[]"


# each module that calls a compiled scipy routine and the routines it imports
# from opid._scipy: the one SPD solve in model, the QR kernel and its norms in
# cstage, the sigmoid in ensemble. Each routine a run calls first faults in
# more of the library's pages, which peak RSS counts. harness imports
# scipy.special, for stdtr, inside paired_t_test alone.
SCIPY_IMPORTS = {
    "model": {("._scipy", "dpotrf"), ("._scipy", "dpotrs")},
    "cstage": {("._scipy", n) for n in ("dlange", "dlantr", "dtpqrt", "dtrtrs")},
    "ensemble": {("._scipy", "expit")},
    "harness": {("scipy.special", None)},
}
ROUTINES = {name for pairs in SCIPY_IMPORTS.values() for source, name in pairs if name}


def test_lapack_surface_is_pinned():
    seen, top_level = {}, []
    for path in sorted(Path(opid.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                source = "." * node.level + (node.module or "")
                pairs = {(source, a.name) for a in node.names}
            elif isinstance(node, ast.Import):
                pairs = {(a.name, None) for a in node.names}
            else:
                continue
            pairs = {(s, n) for s, n in pairs
                     if s == "._scipy" or n == "_scipy" or s.startswith("scipy")}
            if pairs:
                seen.setdefault(path.stem, set()).update(pairs)
                top_level += [path.stem] * (node in tree.body)
    assert seen == SCIPY_IMPORTS
    assert top_level == ["cstage", "ensemble", "model"]  # harness's import waits for a report
    # opid._scipy exposes those routines and nothing else
    exposed = set()
    for statement in ast.parse(Path(opid._scipy.__file__).read_text()).body:
        if isinstance(statement, ast.Assign):
            for target in statement.targets:
                names = target.elts if isinstance(target, ast.Tuple) else [target]
                exposed.update(n.id for n in names if not n.id.startswith("_"))
    assert exposed == ROUTINES


def test_only_model_reads_the_type_test():
    # model's _check_* rules are the one place a setting's kind is tested; a
    # module that imports or names _is_a is writing a type check of its own
    readers = set()
    for path in sorted(Path(opid.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [a.name for a in node.names]
            elif isinstance(node, (ast.Name, ast.Attribute)):
                names = [getattr(node, "id", None) or node.attr]
            else:
                continue
            if "_is_a" in names:
                readers.add(path.stem)
    assert readers == {"model"}


def test_snapshot_code_imports_no_container():
    # a snapshot is one header, the packed triangles and a CRC; a zip archive
    # or npy headers parsed by hand would bring back the reader they replaced
    modules = set()
    for node in ast.walk(ast.parse(Path(opid.cstage.__file__).read_text())):
        if isinstance(node, ast.Import):
            modules.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add((node.module or "").split(".")[0])
    assert "numpy" in modules  # the walk found the imports
    assert not modules & {"zipfile", "tokenize"}


# the routines of opid._scipy that are not the objects their package exports
_NOT_THE_PACKAGES_OWN = (
    "import scipy.linalg.lapack as lapack, scipy.special as special\n"
    "from opid import _scipy\n"
    f"print(sorted(n for n in {sorted(ROUTINES)} "
    "if getattr(_scipy, n) is not getattr(special if n == 'expit' else lapack, n)))"
)


def test_routines_are_the_packages_own():
    # loaded by file before either package, each routine is still the
    # package's own object once the package is imported after all
    code = ("import sys, opid\n"
            "assert 'scipy.linalg' not in sys.modules and 'scipy.special' not in sys.modules\n")
    assert _python(code + _NOT_THE_PACKAGES_OWN) == "[]"


# what opid._scipy's file lookup finds in place of each extension file: no
# file (a finder pointed at an empty directory), or one whose load raises
# ImportError, as a file that needs its package's __init__ does. The import
# system's own finder, which the package imports use, is left as it is.
_LOOKUPS = {
    "no-file": "PathFinder.find_spec(name, [tempfile.mkdtemp()])",
    "load-fails": "importlib.util.spec_from_loader(name, Refuses())",
}


@pytest.mark.parametrize("lookup", _LOOKUPS.values(), ids=_LOOKUPS.keys())
def test_extension_file_that_does_not_serve_falls_back_to_the_package(lookup):
    # opid._scipy then takes each routine from scipy.linalg.lapack or
    # scipy.special, and leaves no half-loaded module behind
    code = ("import importlib.abc, importlib.machinery, importlib.util, sys, tempfile\n"
            "from importlib.machinery import PathFinder\n"
            "class Refuses(importlib.abc.Loader):\n"
            "    def exec_module(self, module):\n"
            "        raise ImportError(module.__name__ + ' needs its package')\n"
            "class Lookup:\n"
            "    @staticmethod\n"
            "    def find_spec(name, path):\n"
            f"        return {lookup}\n"
            "importlib.machinery.PathFinder = Lookup\n"
            "import opid\n"
            "importlib.machinery.PathFinder = PathFinder\n"
            "assert 'scipy.linalg' in sys.modules and 'scipy.special' in sys.modules\n"
            "assert not isinstance(sys.modules['scipy.linalg._flapack'].__spec__.loader, Refuses)\n")
    assert _python(code + _NOT_THE_PACKAGES_OWN) == "[]"


def test_private_name_that_does_not_serve_falls_back_to_the_public_module():
    # a private name no file answers to, scipy's own file that cannot load
    # without its package (_ufuncs imports names back from scipy.special),
    # and a file that loads but lacks the routine: each gives the public
    # module's object, and the file that failed is not left in sys.modules
    code = ("import sys\n"
            "from opid import _scipy\n"
            "assert _scipy._by_file('scipy.special._ufuncs') is None\n"
            "assert 'scipy.special._ufuncs' not in sys.modules\n"
            "got = [_scipy._routines(private, 'scipy.special', 'stdtr')[0] for private in\n"
            "       ['scipy.special._ufuncs', 'scipy.special._no_such_file',\n"
            "        'scipy.special._special_ufuncs']]\n"
            "import scipy.special\n"
            "print([g is scipy.special.stdtr for g in got])")
    assert _python(code) == "[True, True, True]"


def test_readme_names_resolve():
    # an inline `module.NAME` (or `module.NAME.attr`) naming an opid module
    # must resolve there; a deleted or renamed name left in the README fails
    text = (Path(__file__).parents[1] / "README.md").read_text()
    text = re.sub(r"^```.*?^```", "", text, flags=re.S | re.M)  # fenced blocks hold file names
    modules = "|".join(m.name for m in pkgutil.iter_modules(opid.__path__))
    cited = {
        (module, path)
        for span in re.findall(r"`([^`]+)`", text)
        for module, path in re.findall(rf"(?<![\w./])({modules})\.(\w+(?:\.\w+)*)", span)
    }
    assert ("harness", "SIGNIFICANCE_LEVEL") in cited
    missing = []
    for module, path in sorted(cited):
        owner = importlib.import_module(f"opid.{module}")
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
        if owner is None:
            missing.append(f"{module}.{path}")
    assert missing == []


def _private_bindings(statement) -> list[str]:
    """The ``_name``s (not dunders) a module-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [statement.name]
    elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        names = [t.id for t in targets if isinstance(t, ast.Name)]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def test_no_private_name_is_orphaned():
    # a helper whose last call site a deletion removed is dead code; every
    # module-level _name must be read somewhere in the package besides its
    # own definition (docstrings and imports do not count)
    defined, reads = [], []
    for path in sorted(Path(opid.__file__).parent.glob("*.py")):
        for statement in ast.parse(path.read_text()).body:
            names = _private_bindings(statement)
            defined += [(path.stem, n) for n in names]
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read = node.id
                elif isinstance(node, ast.Attribute):
                    read = node.attr
                else:
                    continue
                reads.append((path.stem, read, read in names))
    assert len(defined) >= 40  # the walk found the package's helpers
    orphans = [
        f"{module}.{name}" for module, name in defined
        if not any(r == name and not (m == module and own) for m, r, own in reads)
    ]
    assert orphans == []
