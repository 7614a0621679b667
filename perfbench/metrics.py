"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root lists the same metrics; the
benchmark's tests check that the two agree. End-to-end times are scaled to
the reference speed of ``speed.py`` (seconds on a core that runs its
reference loop in ``speed.REF_S``); the raw times are in the result file.
"""

from __future__ import annotations

# name: (unit, better, bound, definition)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25,
                "process start to first timed operation: import opid, parse_manifest "
                "(+ init_stats on wide_stream); scaled; median over several processes"),
    "wall_s": ("s", "lower", 0.25,
               "input on disk to complete result (one opid run or pass), scaled; median"),
    "cpu_s": ("s", "lower", 0.25, "process CPU time over the wall_s region, scaled; median"),
    "peak_rss_mb": ("MiB", "lower", 0.05, "peak resident memory of a workload process, median"),
    "ok_frac": ("ratio", "higher", 0.001,
                "1 - failed/attempted; failures are aborted repeats, raised errors and "
                "failed output checks"),
    "op_p50_ms": ("ms", "lower", 0.25,
                  "median scaled latency of one operation (a repeat; a batch on wide_stream)"),
    "op_tail_ms": ("ms", "lower", 0.25,
                   "scaled latency at the highest percentile with >= 10 samples beyond it"),
    "ops_per_s": ("1/s", "higher", 0.25,
                  "operations (repeats or batches) per second of scaled wall time"),
    "rows_per_s": ("1/s", "higher", 0.25,
                   "compressing-stage stream instances per second of scaled wall time"),
    "acc_mean": ("ratio", "higher", 0.2,
                 "mean test accuracy over the methods a workload trains; "
                 "test-then-train accuracy on wide_stream"),
}

# name: (unit, better, definition). Totals are per traced operation.
PER_LAYER = {
    "ingest.read_s": ("s", "lower", "stream_batches next() plus load_estage time"),
    "ingest.mfloat_per_s": ("Mfloat/s", "higher", "CSV values parsed per second of read time"),
    "ingest.passes": ("count", "lower", "stream_batches passes started"),
    "ingest.rows_read_per_row": ("ratio", "lower", "stream rows read / distinct stream rows"),
    "ingest.manifest_s": ("s", "lower", "mean parse_manifest call"),
    "ingest.self_s": ("s", "lower", "ingest self time"),
    "model.batch_s": ("s", "lower", "Batch.cstage / Batch.estage / validate_batch time"),
    "cstage.init_s": ("s", "lower", "mean init_stats call"),
    "cstage.absorb_s": ("s", "lower", "absorb_batch time"),
    "cstage.absorb_calls": ("count", "lower", "absorb_batch calls"),
    "cstage.absorb_p50_ms": ("ms", "lower", "median absorb_batch call"),
    "cstage.solve_s": ("s", "lower", "solve_model time"),
    "cstage.solve_calls": ("count", "lower", "solve_model calls"),
    "cstage.state_mb": ("MiB", "lower", "computed mat + rhs bytes of the statistics"),
    "cstage.snapshot_s": ("s", "lower", "save_stats + load_stats time"),
    "cstage.snapshot_mb": ("MiB", "lower", "snapshot file size"),
    "cstage.self_s": ("s", "lower", "cstage self time"),
    "estage.fit_s": ("s", "lower", "train_unified / fit_unified time"),
    "estage.fit_calls": ("count", "lower", "train_unified / fit_unified calls"),
    "estage.coef_updates": ("count", "lower", "update_coefficients calls (alternating iterations)"),
    "estage.stack_s": ("s", "lower", "build_stacked time"),
    "estage.predict_s": ("s", "lower", "predict_unified time"),
    "estage.self_s": ("s", "lower", "estage self time"),
    "ensemble.ensemble_s": ("s", "lower", "train_ensemble time"),
    "ensemble.ovr_s": ("s", "lower", "train_ovr time"),
    "ensemble.logistic_s": ("s", "lower", "train_logistic time"),
    "ensemble.logistic_fits": ("count", "lower", "train_logistic calls"),
    "ensemble.objective_evals": ("count", "lower", "logistic_objective calls (Newton steps + line search)"),
    "ensemble.predict_s": ("s", "lower", "predict_ensemble / LogisticModel.predict / proba time"),
    "ensemble.self_s": ("s", "lower", "ensemble self time"),
    "harness.cstage_pass_s": ("s", "lower", "run_cstage_pass time"),
    "harness.cv_s": ("s", "lower", "k_fold_cv time"),
    "harness.cv_fits": ("count", "lower", "k_fold_cv scorer calls"),
    "harness.report_s": ("s", "lower", "emit_report / format_report time"),
    "harness.self_s": ("s", "lower", "harness self time"),
    "harness.aborted_repeats": ("count", "lower", "repeats run_experiment reported as aborted"),
    "cli.self_s": ("s", "lower", "cli self time"),
    "trace.overhead_frac": ("ratio", "lower", "traced wall_s / untraced wall_s - 1"),
}
