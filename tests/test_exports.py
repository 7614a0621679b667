"""The top-level ``opid`` namespace exports exactly the documented API and
imports no more of scipy than it uses."""

from __future__ import annotations

import os
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
