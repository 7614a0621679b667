"""End-to-end experiment harness.

Reproduces the two-stage protocol: one pass over the compressing-stage
stream, repeated random 50/50 splits of the pooled expanding-stage data,
training of the stacked methods (OPID, OPIDe) and the raw-feature logistic
baselines, and aggregation into a table of mean/std accuracies with paired
two-sided t-tests at confidence level 0.05. Identical specs (including the
seed) produce identical tables and identical report bytes.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from scipy import stats as scipy_stats

from .cstage import DIRECT, INVERSE, absorb_batch, init_stats, solve_model
from .ensemble import predict_ensemble, train_ensemble, train_ovr
from .estage import build_stacked, fit_unified, predict_unified
from .ingest import StreamManifest, SynthConfig, generate_synthetic, load_estage, stream_batches
from .model import Batch, CStageModel, FeatureSchema, Hyperparams, NumericError, SchemaError
from .model import _fold_splits

logger = logging.getLogger(__name__)

OPID = "OPID"
OPIDE = "OPIDe"
BASE_ALL = "BASE_ALL"
BASE_S = "BASE_S"
BASE_A = "BASE_A"
ALL_METHODS = (OPID, OPIDE, BASE_ALL, BASE_S, BASE_A)

SIGNIFICANT_BETTER = "significant_better"
TIE = "tie"
SIGNIFICANT_WORSE = "significant_worse"

# Direct accumulation is preferred until the block dimension makes the final
# factorization the bottleneck.
AUTO_DIRECT_LIMIT = 2048


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one experiment."""

    source: StreamManifest | SynthConfig
    methods: tuple[str, ...] = ALL_METHODS
    lam_grid: tuple[float, ...] = (1.0,)
    rho_grid: tuple[float, ...] = (0.1,)
    gamma_grid: tuple[float, ...] = (1.0,)
    alpha_grid: tuple[float, ...] = (1.0,)
    repeats: int = 20
    folds: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")
        unknown = set(self.methods) - set(ALL_METHODS)
        if unknown:
            raise ValueError(f"unknown methods {sorted(unknown)}")


@dataclass(frozen=True)
class ResultTable:
    """Per-method accuracies over repeats plus pairwise significance marks."""

    methods: tuple[str, ...]
    accuracies: dict[str, tuple[float, ...]] = field(default_factory=dict)
    marks: dict[tuple[str, str], str] = field(default_factory=dict)
    repeats: int = 0
    seed: int = 0
    failures: tuple[str, ...] = ()

    def mean(self, method: str) -> float:
        acc = self.accuracies[method]
        if not acc:
            return float("nan")
        return float(np.mean(acc))

    def std(self, method: str) -> float:
        acc = self.accuracies[method]
        if len(acc) < 2:
            return 0.0
        return float(np.std(acc, ddof=1))


def resolve_mode(mode: str, schema: FeatureSchema) -> str:
    if mode == "auto":
        return DIRECT if schema.stats_dim <= AUTO_DIRECT_LIMIT else INVERSE
    if mode not in (DIRECT, INVERSE):
        raise ValueError(f"unknown mode {mode!r}")
    return mode


def run_cstage_pass(stream, schema: FeatureSchema, grid) -> dict[tuple[float, float], CStageModel]:
    """Absorb every batch of the stream exactly once and solve at every (lam, rho)
    point of ``grid``: the direct-mode Gram statistics hold neither, so one pass
    serves the whole grid. An empty stream yields all-zero models."""
    points = [Hyperparams(lam=lam, rho=rho) for lam, rho in grid]  # checked before the pass
    stats = init_stats(schema, Hyperparams(), mode=DIRECT)
    for batch in stream:
        absorb_batch(stats, batch)
    return {(h.lam, h.rho): solve_model(replace(stats, lam=h.lam, rho=h.rho)) for h in points}


def k_fold_cv(x, y, grid, k: int, scorer) -> tuple[object, np.ndarray]:
    """Exhaustive grid search by mean k-fold accuracy.

    ``scorer(params, x_train, y_train, x_val)`` must return predicted class
    indices for the validation rows. Ties resolve to the smallest grid
    index. Returns the winning grid entry and the per-entry mean scores.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    splits = _fold_splits(x.shape[0], k)
    grid = list(grid)
    if not grid:
        raise ValueError("empty hyperparameter grid")
    scores = np.zeros(len(grid))
    for mask, val_idx in splits:
        truth = y[val_idx].argmax(axis=1)
        for i, params in enumerate(grid):
            pred = scorer(params, x[mask], y[mask], x[val_idx])
            scores[i] += float(np.mean(pred == truth))
    scores /= k
    return grid[int(np.argmax(scores))], scores


def paired_t_test(a, b, level: float = 0.05) -> str:
    """Two-sided paired t-test on per-repeat accuracies.

    Zero-variance differences with nonzero mean count as significant by
    convention; all-zero differences are a tie.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise ValueError("need two equal-length accuracy vectors of size >= 2")
    diff = a - b
    mean = diff.mean()
    if np.all(diff == 0.0):
        return TIE
    sd = diff.std(ddof=1)
    if sd == 0.0:
        return SIGNIFICANT_BETTER if mean > 0 else SIGNIFICANT_WORSE
    t = mean / (sd / math.sqrt(diff.size))
    p = 2.0 * scipy_stats.t.sf(abs(t), diff.size - 1)
    if p < level:
        return SIGNIFICANT_BETTER if mean > 0 else SIGNIFICANT_WORSE
    return TIE


def _flip(mark: str) -> str:
    if mark == SIGNIFICANT_BETTER:
        return SIGNIFICANT_WORSE
    if mark == SIGNIFICANT_WORSE:
        return SIGNIFICANT_BETTER
    return TIE


def _materialize(source):
    """Schema, a single-use compressing-stage batch iterator, and the pooled
    expanding-stage rows (features, one-hot labels)."""
    if isinstance(source, SynthConfig):
        cbatches, etrain, etest = generate_synthetic(source)
        schema = source.schema
        stream = iter(cbatches)
    elif isinstance(source, StreamManifest):
        schema = source.schema
        etrain, etest = load_estage(source)
        stream = stream_batches(source)
    else:
        raise TypeError(f"unsupported experiment source {type(source)!r}")
    pool_x = np.vstack([etrain.joined(), etest.joined()])
    pool_y = np.vstack([etrain.labels, etest.labels])
    return schema, stream, pool_x, pool_y


def _estage_batch(x: np.ndarray, y: np.ndarray, schema: FeatureSchema) -> Batch:
    s = schema.survived
    return Batch.estage(survived=x[:, :s], augmented=x[:, s:], labels=y)


def _unlabeled_batch(x: np.ndarray, schema: FeatureSchema) -> Batch:
    # prediction ignores labels; fill in a valid one-hot placeholder
    y = np.zeros((x.shape[0], schema.classes))
    y[:, 0] = 1.0
    return _estage_batch(x, y, schema)


def _accuracy(pred: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(pred == labels.argmax(axis=1)))


_BASELINE_COLUMNS = {
    BASE_ALL: lambda x, schema: x,
    BASE_S: lambda x, schema: x[:, : schema.survived],
    BASE_A: lambda x, schema: x[:, schema.survived :],
}


class _MethodRunner:
    """Trains and scores one method per repeat, tuning hyperparameters on
    the training half when a grid has more than one point."""

    def __init__(self, spec: ExperimentSpec, schema: FeatureSchema, cmodels: dict):
        self.spec = spec
        self.schema = schema
        self.cmodels = cmodels

    def evaluate(self, method: str, train_b: Batch, test_b: Batch) -> float:
        if method == OPID:
            return self._run_opid(train_b, test_b)
        if method == OPIDE:
            return self._run_opide(train_b, test_b)
        return self._run_baseline(method, train_b, test_b)

    # -- stacked methods ---------------------------------------------------
    def _run_opid(self, train_b: Batch, test_b: Batch) -> float:
        spec = self.spec
        grid = list(itertools.product(spec.lam_grid, spec.rho_grid, spec.gamma_grid))
        if len(grid) > 1:
            def scorer(params, x_tr, y_tr, x_va):
                lam, rho, gamma = params
                cmodel = self.cmodels[(lam, rho)]
                data = build_stacked(_estage_batch(x_tr, y_tr, self.schema), cmodel)
                emodel = fit_unified(data, gamma).model
                return predict_unified(_unlabeled_batch(x_va, self.schema), cmodel, emodel)

            (lam, rho, gamma), _ = k_fold_cv(
                train_b.joined(), train_b.labels, grid, spec.folds, scorer
            )
        else:
            lam, rho, gamma = grid[0]
        cmodel = self.cmodels[(lam, rho)]
        emodel = fit_unified(build_stacked(train_b, cmodel), gamma).model
        return _accuracy(predict_unified(test_b, cmodel, emodel), test_b.labels)

    def _run_opide(self, train_b: Batch, test_b: Batch) -> float:
        spec = self.spec
        grid = list(itertools.product(spec.lam_grid, spec.rho_grid, spec.alpha_grid))
        if len(grid) > 1:
            # Equal-weight probability averaging inside CV; the full weight
            # grid search runs only on the final fit.
            def scorer(params, x_tr, y_tr, x_va):
                lam, rho, alpha = params
                cmodel = self.cmodels[(lam, rho)]
                data = build_stacked(_estage_batch(x_tr, y_tr, self.schema), cmodel)
                clf_base = train_ovr(data.z_base, data.labels, alpha)
                clf_joint = train_ovr(data.z_joint, data.labels, alpha)
                val_data = build_stacked(_unlabeled_batch(x_va, self.schema), cmodel)
                combined = 0.5 * clf_base.proba(val_data.z_base) + 0.5 * clf_joint.proba(
                    val_data.z_joint
                )
                return combined.argmax(axis=1)

            (lam, rho, alpha), _ = k_fold_cv(
                train_b.joined(), train_b.labels, grid, spec.folds, scorer
            )
        else:
            lam, rho, alpha = grid[0]
        cmodel = self.cmodels[(lam, rho)]
        emodel = train_ensemble(
            build_stacked(train_b, cmodel), alpha, alpha, folds=spec.folds
        )
        return _accuracy(predict_ensemble(test_b, cmodel, emodel), test_b.labels)

    # -- raw-feature baselines ---------------------------------------------
    def _run_baseline(self, method: str, train_b: Batch, test_b: Batch) -> float:
        columns = _BASELINE_COLUMNS[method]
        x_train = columns(train_b.joined(), self.schema)
        x_test = columns(test_b.joined(), self.schema)
        grid = list(self.spec.alpha_grid)
        if len(grid) > 1:
            def scorer(alpha, x_tr, y_tr, x_va):
                return train_ovr(x_tr, y_tr, alpha).predict(x_va)

            alpha, _ = k_fold_cv(x_train, train_b.labels, grid, self.spec.folds, scorer)
        else:
            alpha = grid[0]
        clf = train_ovr(x_train, train_b.labels, alpha)
        return _accuracy(clf.predict(x_test), test_b.labels)


def build_table(
    methods: tuple[str, ...],
    accuracies: dict[str, list[float]],
    seed: int,
    failures: tuple[str, ...] = (),
) -> ResultTable:
    """Aggregate per-repeat accuracies into a table with pairwise marks."""
    repeats = len(next(iter(accuracies.values()))) if accuracies else 0
    marks: dict[tuple[str, str], str] = {}
    for i, m1 in enumerate(methods):
        for m2 in methods[i + 1 :]:
            if repeats >= 2:
                mark = paired_t_test(accuracies[m1], accuracies[m2])
            else:
                mark = TIE
            marks[(m1, m2)] = mark
            marks[(m2, m1)] = _flip(mark)
    return ResultTable(
        methods=methods,
        accuracies={m: tuple(accuracies[m]) for m in methods},
        marks=marks,
        repeats=repeats,
        seed=seed,
        failures=failures,
    )


def run_experiment(spec: ExperimentSpec) -> ResultTable:
    """Run the full protocol and aggregate a result table.

    The compressing-stage stream is read once; its model is solved once
    per (lam, rho) grid point and shared across repeats. Each repeat draws a
    fresh 50/50 split of the pooled expanding-stage data. A method failure
    aborts the whole repeat with a logged reason.
    """
    schema, stream, pool_x, pool_y = _materialize(spec.source)
    cmodels = run_cstage_pass(stream, schema, itertools.product(spec.lam_grid, spec.rho_grid))

    runner = _MethodRunner(spec, schema, cmodels)
    n_pool = pool_x.shape[0]
    n_train = n_pool // 2
    children = np.random.SeedSequence(spec.seed).spawn(spec.repeats)
    accuracies: dict[str, list[float]] = {m: [] for m in spec.methods}
    failures: list[str] = []
    for repeat, child in enumerate(children):
        rng = np.random.default_rng(child)
        perm = rng.permutation(n_pool)
        train_b = _estage_batch(pool_x[perm[:n_train]], pool_y[perm[:n_train]], schema)
        test_b = _estage_batch(pool_x[perm[n_train:]], pool_y[perm[n_train:]], schema)
        row = {}
        try:
            for method in spec.methods:
                row[method] = runner.evaluate(method, train_b, test_b)
        except (SchemaError, NumericError, ValueError, ArithmeticError) as exc:
            reason = f"repeat {repeat} aborted ({method}): {exc}"
            logger.warning(reason)
            failures.append(reason)
            continue
        for method in spec.methods:
            accuracies[method].append(row[method])
    return build_table(spec.methods, accuracies, spec.seed, tuple(failures))


_MARK_SYMBOL = {SIGNIFICANT_BETTER: ">", TIE: "=", SIGNIFICANT_WORSE: "<"}


def format_report(table: ResultTable) -> str:
    """Human-readable accuracy table with pairwise significance symbols."""
    lines = [f"repeats={table.repeats} seed={table.seed}"]
    header = f"{'method':<10} {'mean':>8} {'std':>8}"
    for other in table.methods:
        header += f" {'vs ' + other:>12}"
    lines.append(header)
    for method in table.methods:
        line = f"{method:<10} {table.mean(method):>8.4f} {table.std(method):>8.4f}"
        for other in table.methods:
            symbol = "-" if other == method else _MARK_SYMBOL[table.marks[(method, other)]]
            line += f" {symbol:>12}"
        lines.append(line)
    for failure in table.failures:
        lines.append(f"# {failure}")
    return "\n".join(lines) + "\n"


def emit_report(table: ResultTable, out_dir) -> tuple[Path, Path]:
    """Write the human-readable table and the machine-readable record
    (one row per method per repeat, floats in exact shortest repr)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "results.csv"
    with csv_path.open("w") as fh:
        fh.write("method,repeat,accuracy\n")
        for method in table.methods:
            for repeat, acc in enumerate(table.accuracies[method]):
                fh.write(f"{method},{repeat},{repr(acc)}\n")
    report_path = out / "report.txt"
    report_path.write_text(format_report(table))
    return report_path, csv_path


def load_results(csv_path) -> ResultTable:
    """Rebuild a table from the machine-readable record, recomputing the
    aggregate statistics and significance marks."""
    methods: list[str] = []
    accuracies: dict[str, list[float]] = {}
    with Path(csv_path).open() as fh:
        header = fh.readline().strip()
        if header != "method,repeat,accuracy":
            raise ValueError(f"unrecognized results header {header!r}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            method, _, acc = line.split(",")
            if method not in accuracies:
                methods.append(method)
                accuracies[method] = []
            accuracies[method].append(float(acc))
    return build_table(tuple(methods), accuracies, seed=0)
