"""End-to-end experiment harness.

Reproduces the two-stage protocol: one pass over the compressing-stage
stream, repeated random 50/50 splits of the pooled expanding-stage rows (a
feature matrix and its one-hot labels), training of the stacked methods
(OPID, OPIDe) and the raw-feature logistic baselines on each split's
training half, and aggregation into a table of mean/std accuracies with paired
two-sided t-tests at confidence level 0.05. Identical specs (including the
seed) produce identical tables and identical report bytes.
"""

from __future__ import annotations

import functools
import io
import itertools
import logging
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from scipy import stats as scipy_stats

from .cstage import DIRECT, INVERSE, absorb_batch, init_stats, solve_model
from .ensemble import EnsembleModel, predict_ensemble, train_ensemble, train_ovr
from .estage import build_stacked, fit_unified, predict_unified
from .ingest import StreamManifest, SynthConfig, generate_synthetic, read_estage, stream_batches
from .model import CStageModel, FeatureSchema, Hyperparams, SchemaError, _fold_splits, _read_text

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
            raise SchemaError(f"repeats must be >= 1, got {self.repeats}")
        if self.folds < 2:
            raise SchemaError(f"folds must be >= 2, got {self.folds}")
        unknown = set(self.methods) - set(ALL_METHODS)
        if unknown:
            raise SchemaError(f"unknown methods {sorted(unknown)}")


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
        cbatches, (x_train, y_train), (x_test, y_test) = generate_synthetic(source)
        stream = iter(cbatches)
    elif isinstance(source, StreamManifest):
        (x_train, y_train), (x_test, y_test) = read_estage(source)
        stream = stream_batches(source)
    else:
        raise TypeError(f"unsupported experiment source {type(source)!r}")
    return source.schema, stream, np.vstack([x_train, x_test]), np.vstack([y_train, y_test])


def _accuracy(pred: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(pred == labels.argmax(axis=1)))


def _fit_baseline(columns: slice, alpha: float, x: np.ndarray, y: np.ndarray):
    clf = train_ovr(x[:, columns], y, alpha)
    return lambda x_new: clf.predict(x_new[:, columns])


class _MethodRunner:
    """Trains and scores one method per repeat.

    Every method is a hyperparameter grid plus fit functions
    ``(params, x, y) -> predictor``; a predictor maps a feature matrix in
    schema order to class indices. A grid with more than one point is tuned
    by k-fold cross validation on the training half.
    """

    def __init__(self, spec: ExperimentSpec, schema: FeatureSchema, cmodels: dict):
        self.spec = spec
        self.cmodels = cmodels
        s = schema.survived
        stacked_grid = functools.partial(itertools.product, spec.lam_grid, spec.rho_grid)
        # method -> (grid, final fit, cross-validation fit)
        self.methods = {
            OPID: (list(stacked_grid(spec.gamma_grid)), self._fit_opid, self._fit_opid),
            OPIDE: (list(stacked_grid(spec.alpha_grid)), self._fit_opide, self._fit_opide_cv),
        }
        baselines = {BASE_ALL: slice(None), BASE_S: slice(s), BASE_A: slice(s, None)}
        for method, columns in baselines.items():
            fit = functools.partial(_fit_baseline, columns)
            self.methods[method] = (list(spec.alpha_grid), fit, fit)

    def evaluate(self, method: str, x_train, y_train, x_test, y_test) -> float:
        grid, fit, cv_fit = self.methods[method]
        params = grid[0]
        if len(grid) > 1:
            def scorer(params, x_tr, y_tr, x_va):
                return cv_fit(params, x_tr, y_tr)(x_va)

            params, _ = k_fold_cv(x_train, y_train, grid, self.spec.folds, scorer)
        return _accuracy(fit(params, x_train, y_train)(x_test), y_test)

    def _fit_opid(self, params, x, y):
        lam, rho, gamma = params
        cmodel = self.cmodels[(lam, rho)]
        emodel = fit_unified(build_stacked(x, y, cmodel), gamma).model
        return lambda x_new: predict_unified(x_new, cmodel, emodel)

    def _fit_opide(self, params, x, y):
        lam, rho, alpha = params
        cmodel = self.cmodels[(lam, rho)]
        emodel = train_ensemble(build_stacked(x, y, cmodel), alpha, alpha, folds=self.spec.folds)
        return lambda x_new: predict_ensemble(x_new, cmodel, emodel)

    def _fit_opide_cv(self, params, x, y):
        # Equal-weight probability averaging inside CV; the full weight grid
        # search runs only on the final fit.
        lam, rho, alpha = params
        cmodel = self.cmodels[(lam, rho)]
        data = build_stacked(x, y, cmodel)
        clf_base = train_ovr(data.z_base, data.labels, alpha)
        clf_joint = train_ovr(data.z_joint, data.labels, alpha)
        emodel = EnsembleModel(clf_base, clf_joint, 0.5, 0.5)
        return lambda x_new: predict_ensemble(x_new, cmodel, emodel)


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
        train, test = np.split(rng.permutation(n_pool), [n_train])
        split = (pool_x[train], pool_y[train], pool_x[test], pool_y[test])
        row = {}
        try:
            for method in spec.methods:
                row[method] = runner.evaluate(method, *split)
        except (ValueError, ArithmeticError) as exc:
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
    aggregate statistics and significance marks.

    An unreadable file, bytes that are not UTF-8, or a malformed record
    raise :class:`SchemaError` naming the path, and ``path:line`` where the
    line is known: a wrong header, a row without exactly three fields, a
    non-integer repeat, an accuracy outside [0, 1], or methods with unequal
    repeat counts.
    """
    accuracies: dict[str, list[float]] = {}
    last_line: dict[str, int] = {}
    with io.StringIO(_read_text(csv_path), newline=None) as fh:
        header = fh.readline().strip()
        if header != "method,repeat,accuracy":
            raise SchemaError(f"{csv_path}:1: unrecognized results header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                method, repeat, acc = line.split(",")
                int(repeat)
                acc = float(acc)
            except ValueError:
                raise SchemaError(
                    f"{csv_path}:{lineno}: expected method,repeat,accuracy, got {line!r}"
                ) from None
            if not 0.0 <= acc <= 1.0:
                raise SchemaError(f"{csv_path}:{lineno}: accuracy {acc} outside [0, 1]")
            accuracies.setdefault(method, []).append(acc)
            last_line[method] = lineno
    methods = tuple(accuracies)
    for method in methods[1:]:
        count, expected = len(accuracies[method]), len(accuracies[methods[0]])
        if count != expected:
            raise SchemaError(
                f"{csv_path}:{last_line[method]}: {method} has {count} repeats, "
                f"{methods[0]} has {expected}"
            )
    return build_table(methods, accuracies, seed=0)
