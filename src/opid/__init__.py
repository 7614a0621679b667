"""One-pass learning over streams whose feature set shrinks and grows.

A compressing stage folds vanished-feature information into a
survived-feature classifier via streaming sufficient statistics; an
expanding stage stacks that classifier's predictions with augmented
features under automatically learned ensemble weights.

The names below are the public API; everything else stays importable from
its module.
"""

from .cstage import (
    DIRECT,
    INVERSE,
    absorb_batch,
    compress,
    init_stats,
    load_stats,
    save_stats,
    solve_model,
)
from .ensemble import SolverError, predict_ensemble, train_ensemble
from .estage import build_stacked, fit_unified, predict_unified
from .harness import ExperimentSpec, emit_report, load_results, run_experiment
from .ingest import (
    ManifestError,
    SynthConfig,
    generate_synthetic,
    parse_manifest,
    read_estage,
    stream_batches,
    write_stream,
)
from .model import Batch, FeatureSchema, Hyperparams, NumericError, SchemaError

__all__ = [
    "FeatureSchema", "Hyperparams", "Batch", "SchemaError", "NumericError", "ManifestError",
    "SolverError",
    "parse_manifest", "stream_batches", "read_estage", "SynthConfig", "generate_synthetic",
    "write_stream",
    "DIRECT", "INVERSE", "init_stats", "absorb_batch", "solve_model", "compress", "save_stats",
    "load_stats",
    "build_stacked", "fit_unified", "predict_unified", "train_ensemble", "predict_ensemble",
    "ExperimentSpec", "run_experiment", "emit_report", "load_results",
]

__version__ = "0.1.0"
