"""The top-level ``opid`` namespace exports exactly the documented API,
imports no more of scipy than it uses, reaches LAPACK only through the
routines listed here, every library name the README cites exists, and no
private module-level name of the package is left without a caller."""

from __future__ import annotations

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import opid

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


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about a second to import; the library needs none of it
    src = str(Path(opid.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, opid, opid.cli; print(sorted(m for m in sys.modules if 'scipy.stats' in m))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


# each module that calls LAPACK and the routines it imports: the one SPD
# solve in model, the QR kernel and its guards in cstage. Each routine a run
# calls first faults in more of the library's pages, which peak RSS counts.
LAPACK_IMPORTS = {
    "model": {"dpotrf", "dpotrs"},
    "cstage": {"dlange", "dtpqrt", "dtrtrs"},
}


def test_lapack_surface_is_pinned():
    seen = {}
    for path in sorted(Path(opid.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "scipy.linalg.lapack":
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module == "scipy.linalg":
                names = {alias.name for alias in node.names} & {"lapack", "get_lapack_funcs"}
            elif isinstance(node, ast.Import):
                names = {a.name for a in node.names if a.name.startswith("scipy.linalg.lapack")}
            else:
                continue
            if names:
                seen.setdefault(path.stem, set()).update(names)
    assert seen == LAPACK_IMPORTS


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
