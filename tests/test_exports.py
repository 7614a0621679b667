"""The top-level ``opid`` namespace exports exactly the documented API."""

from __future__ import annotations

import opid

PUBLIC = {
    "FeatureSchema", "Hyperparams", "Batch", "SchemaError", "NumericError", "ManifestError",
    "SolverError",
    "parse_manifest", "stream_batches", "read_estage", "SynthConfig", "generate_synthetic",
    "write_stream",
    "DIRECT", "INVERSE", "init_stats", "absorb_batch", "solve_model", "compress", "save_stats",
    "load_stats",
    "build_stacked", "fit_unified", "predict_unified", "train_ensemble", "predict_ensemble",
    "ExperimentSpec", "run_experiment", "emit_report", "load_results",
}


def test_exports_are_the_public_api():
    assert len(PUBLIC) == 30
    assert sorted(opid.__all__) == sorted(PUBLIC)
    assert all(hasattr(opid, name) for name in PUBLIC)
