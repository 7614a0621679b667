"""End-to-end experiment harness.

Reproduces the two-stage protocol on a stream on disk, as ``opid run``
does: one pass over the compressing-stage stream, repeated random 50/50
splits of the pooled expanding-stage rows (a feature matrix and its one-hot
labels), training of the stacked methods (OPID, OPIDe) on the joint block
that ``build_stacked`` makes of each split's training half, and of the
raw-feature logistic baselines on its columns, and aggregation into a table
of mean/std accuracies with paired two-sided t-tests at significance level
0.05, whose marks are computed from the stored accuracies. Identical specs
(including the seed) produce identical tables and identical report bytes.
``resolve_mode`` and ``model.Batch.cstage`` have no caller here and stay on
purpose, for ``perfbench/worker.py`` and ``perfbench/spans.py`` in turn.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from scipy.special import stdtr

from .cstage import DIRECT, FACTOR, absorb_batch, init_stats, solve_model
from .ensemble import EnsembleModel, _fit_members, predict_ensemble, train_ensemble, train_ovr
from .estage import JointStats, build_stacked, fit_unified, predict_unified
from .ingest import StreamManifest, read_estage, stream_batches
from .model import (CStageModel, FeatureSchema, Hyperparams, SchemaError, _accuracy,
                    _cv_accuracy, _open_text)

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
SIGNIFICANCE_LEVEL = 0.05  # of the two-sided paired t-test

# Direct accumulation is preferred until the block dimension makes the final
# factorization the bottleneck.
AUTO_DIRECT_LIMIT = 2048


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one experiment on a stream on disk; a
    synthetic one gets its manifest from ``write_stream`` then ``parse_manifest``."""

    source: StreamManifest
    methods: tuple[str, ...] = ALL_METHODS
    lam_grid: tuple[float, ...] = (1.0,)
    rho_grid: tuple[float, ...] = (0.1,)
    gamma_grid: tuple[float, ...] = (1.0,)
    alpha_grid: tuple[float, ...] = (1.0,)
    repeats: int = 20
    folds: int = 5
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.source, StreamManifest):
            raise SchemaError(f"source must be a StreamManifest, got {type(self.source).__name__}")
        if self.repeats < 1:
            raise SchemaError(f"repeats must be >= 1, got {self.repeats}")
        if self.folds < 2:
            raise SchemaError(f"folds must be >= 2, got {self.folds}")
        if self.seed < 0:
            raise SchemaError(f"seed must be >= 0, got {self.seed}")
        if not self.methods:
            raise SchemaError("no methods selected")
        unknown = set(self.methods) - set(ALL_METHODS)
        if unknown:
            raise SchemaError(
                f"unknown methods {sorted(unknown)}; choose from {', '.join(ALL_METHODS)}"
            )
        repeated = [m for m in ALL_METHODS if self.methods.count(m) > 1]
        if repeated:
            raise SchemaError(f"methods selected more than once: {', '.join(repeated)}")
        for name in ("lam_grid", "rho_grid", "gamma_grid", "alpha_grid"):
            if not getattr(self, name):
                raise SchemaError(f"{name} is empty")
        for lam, rho in itertools.product(self.lam_grid, self.rho_grid):
            Hyperparams(lam=lam, rho=rho)
        for name, grid in (("expanding-stage ridge", self.gamma_grid),
                           ("logistic loss weights", self.alpha_grid)):
            for value in grid:
                if not 0 < value < math.inf:
                    raise SchemaError(f"{name} must be > 0 and finite, got {value}")


@dataclass(frozen=True)
class ResultTable:
    """Per-method accuracies, keyed in method order, the seed and the failures;
    the methods, the repeat count and the significance marks derive from them."""

    accuracies: dict[str, tuple[float, ...]] = field(default_factory=dict)
    seed: int | None = 0  # None: rebuilt from a record that does not store it
    failures: tuple[str, ...] = ()

    @property
    def methods(self) -> tuple[str, ...]:
        return tuple(self.accuracies)

    @property
    def repeats(self) -> int:
        return len(next(iter(self.accuracies.values()))) if self.accuracies else 0

    @functools.cached_property
    def marks(self) -> dict[tuple[str, str], str]:
        """The paired t-test mark of every ordered method pair, all ties below
        2 repeats; ``marks[(b, a)]`` is the flip of ``marks[(a, b)]``."""
        test = paired_t_test if self.repeats >= 2 else lambda a, b: TIE
        acc = self.accuracies
        return {(a, b): test(acc[a], acc[b]) for a, b in itertools.permutations(self.methods, 2)}

    def mean(self, method: str) -> float:
        acc = self.accuracies[method]
        return float(np.mean(acc)) if acc else math.nan

    def std(self, method: str) -> float:
        acc = self.accuracies[method]
        return float(np.std(acc, ddof=1)) if len(acc) >= 2 else 0.0


def resolve_mode(mode: str, schema: FeatureSchema) -> str:
    if mode == "auto":
        return DIRECT if schema.stats_dim <= AUTO_DIRECT_LIMIT else FACTOR
    if mode not in (DIRECT, FACTOR):
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
    return {(h.lam, h.rho): solve_model(replace(stats, hyper=h)) for h in points}


def k_fold_cv(x, y, grid, k: int, scorer) -> tuple[object, np.ndarray]:
    """Exhaustive grid search by mean k-fold accuracy.

    ``scorer(params, x_train, y_train, x_val)`` must return predicted class
    indices for the validation rows. Ties resolve to the smallest grid
    index. Returns the winning grid entry and the per-entry mean scores.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("empty hyperparameter grid")

    scores = _cv_accuracy(x, y, k, lambda *fold: [scorer(params, *fold) for params in grid]) / k
    return grid[int(np.argmax(scores))], scores


def paired_t_test(a, b) -> str:
    """Two-sided paired t-test on per-repeat accuracies.

    Zero-variance differences with nonzero mean count as significant by
    convention; a zero mean difference is a tie. Swapping ``a`` and ``b``
    negates every difference exactly, so it flips the mark.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise ValueError("need two equal-length accuracy vectors of size >= 2")
    diff = a - b
    mean = diff.mean()
    if mean == 0.0:  # also where (diff - mean)**2 underflows to a zero sd
        return TIE
    sd = diff.std(ddof=1)
    if sd == 0.0:
        return SIGNIFICANT_BETTER if mean > 0 else SIGNIFICANT_WORSE
    t = mean / (sd / math.sqrt(diff.size))
    p = 2.0 * stdtr(diff.size - 1, -abs(t))
    if p < SIGNIFICANCE_LEVEL:
        return SIGNIFICANT_BETTER if mean > 0 else SIGNIFICANT_WORSE
    return TIE


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

    def __init__(self, spec: ExperimentSpec, cmodels: dict):
        self.spec = spec
        self.cmodels = cmodels
        s = spec.source.schema.survived
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
        emodel = fit_unified(JointStats.of(build_stacked(x, cmodel), y), gamma).model
        return lambda x_new: predict_unified(x_new, cmodel, emodel)

    def _fit_opide(self, params, x, y):
        lam, rho, alpha = params
        cmodel = self.cmodels[(lam, rho)]
        emodel = train_ensemble(build_stacked(x, cmodel), y, alpha, folds=self.spec.folds)
        return lambda x_new: predict_ensemble(x_new, cmodel, emodel)

    def _fit_opide_cv(self, params, x, y):
        # Equal-weight probability averaging inside CV; the full weight grid
        # search runs only on the final fit.
        lam, rho, alpha = params
        cmodel = self.cmodels[(lam, rho)]
        emodel = EnsembleModel(*_fit_members(build_stacked(x, cmodel), y, alpha), 0.5)
        return lambda x_new: predict_ensemble(x_new, cmodel, emodel)


def build_table(
    methods: tuple[str, ...],
    accuracies: dict[str, list[float]],
    seed: int | None,
    failures: tuple[str, ...] = (),
) -> ResultTable:
    """Pack per-repeat accuracies into a table, in the order of ``methods``."""
    return ResultTable({m: tuple(accuracies[m]) for m in methods}, seed, failures)


def run_experiment(spec: ExperimentSpec) -> ResultTable:
    """Run the full protocol and aggregate a result table.

    The compressing-stage stream is read once; its model is solved once
    per (lam, rho) grid point and shared across repeats. Each repeat draws a
    fresh 50/50 split of the pooled expanding-stage data. More folds than
    training rows raise :class:`SchemaError` before any repeat if a method
    cross-validates; a method failure aborts the whole repeat with a logged
    reason.
    """
    source = spec.source
    (x_train, y_train), (x_test, y_test) = read_estage(source)
    pool_x, pool_y = np.vstack([x_train, x_test]), np.vstack([y_train, y_test])
    grid = itertools.product(spec.lam_grid, spec.rho_grid)
    runner = _MethodRunner(spec, run_cstage_pass(stream_batches(source), source.schema, grid))
    n_pool = pool_x.shape[0]
    n_train = n_pool // 2
    # OPIDe's weight search always splits the training half into folds; so does any tuned grid
    folded = [m for m in spec.methods if m == OPIDE or len(runner.methods[m][0]) > 1]
    if folded and spec.folds > n_train:
        raise SchemaError(f"--folds {spec.folds} exceeds the {n_train} rows of the training half, "
                          f"which {folded[0]} splits into folds")
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
    lines = [f"repeats={table.repeats} seed={'unknown' if table.seed is None else table.seed}"]
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
    non-integer repeat, an accuracy outside [0, 1], a method whose rows do
    not number its repeats 0, 1, 2, ... in file order, or methods with
    unequal repeat counts. The record holds no seed, so the table's seed is
    ``None``.
    """
    accuracies: dict[str, list[float]] = {}
    last_line: dict[str, int] = {}
    with _open_text(csv_path) as fh:
        header = fh.readline().strip()
        if header != "method,repeat,accuracy":
            raise SchemaError(f"{csv_path}:1: unrecognized results header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                method, repeat, acc = line.split(",")
                repeat, acc = int(repeat), float(acc)
            except ValueError:
                raise SchemaError(
                    f"{csv_path}:{lineno}: expected method,repeat,accuracy, got {line!r}"
                ) from None
            if not 0.0 <= acc <= 1.0:
                raise SchemaError(f"{csv_path}:{lineno}: accuracy {acc} outside [0, 1]")
            seen = accuracies.setdefault(method, [])
            if repeat != len(seen):
                raise SchemaError(
                    f"{csv_path}:{lineno}: {method} repeat {repeat}, expected {len(seen)}"
                )
            seen.append(acc)
            last_line[method] = lineno
    methods = tuple(accuracies)
    for method in methods[1:]:
        count, expected = len(accuracies[method]), len(accuracies[methods[0]])
        if count != expected:
            raise SchemaError(
                f"{csv_path}:{last_line[method]}: {method} has {count} repeats, "
                f"{methods[0]} has {expected}"
            )
    return build_table(methods, accuracies, seed=None)
