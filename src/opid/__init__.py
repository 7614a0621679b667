"""One-pass learning over streams whose feature set shrinks and grows.

A compressing stage folds vanished-feature information into a
survived-feature classifier via streaming sufficient statistics; an
expanding stage stacks that classifier's predictions with augmented
features under automatically learned ensemble weights.
"""

from .cstage import (
    DIRECT,
    INVERSE,
    CStageStats,
    absorb_batch,
    compress,
    init_stats,
    load_stats,
    save_stats,
    solve_model,
)
from .ensemble import (
    EnsembleModel,
    LogisticModel,
    SolverError,
    load_ensemble,
    predict_ensemble,
    save_ensemble,
    train_ensemble,
    train_logistic,
    train_ovr,
)
from .estage import (
    StackedTrainSet,
    UnifiedTrainerState,
    build_stacked,
    fit_unified,
    load_emodel,
    predict_unified,
    save_emodel,
)
from .harness import (
    ALL_METHODS,
    ExperimentSpec,
    ResultTable,
    emit_report,
    format_report,
    k_fold_cv,
    load_results,
    paired_t_test,
    run_cstage_pass,
    run_experiment,
)
from .ingest import (
    ManifestError,
    StreamManifest,
    SynthConfig,
    generate_synthetic,
    load_estage,
    parse_manifest,
    stream_batches,
    write_stream,
)
from .model import (
    Batch,
    CStageModel,
    EStageModel,
    FeatureSchema,
    Hyperparams,
    NumericError,
    SchemaError,
    argmax_decode,
    one_hot_encode,
    validate_batch,
)

__version__ = "0.1.0"
