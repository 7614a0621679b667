"""End-to-end experiment harness.

Reproduces the two-stage protocol on a stream on disk, as ``opid run``
does: one pass over the compressing-stage stream, repeated random 50/50
splits of the pooled expanding-stage rows (a feature matrix and its one-hot
labels), training of the stacked methods (OPID, OPIDe) on the joint block
that ``build_stacked`` makes of each split's training half, and of the
raw-feature logistic baselines on its columns, and aggregation into a table
of mean/std accuracies with paired two-sided t-tests at significance level
0.05, whose marks are computed from the stored accuracies. A stacked method
tunes on one joint block per (lam, rho) point per repeat: k-fold cross
validation over gamma (OPID) or alpha (OPIDe) runs on that block's rows.
Identical specs (including the seed) produce identical tables and identical
report bytes.
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

from .cstage import DIRECT, FACTOR, absorb_batch, init_stats, solve_model
from .ensemble import _fold_decisions, predict_ensemble, train_ensemble, train_ovr
from .estage import (_normal_system, _ridge_fit, _unified_decision, build_stacked, fit_unified,
                     predict_unified)
from .ingest import StreamManifest, read_estage, stream_batches
from .model import (CStageModel, FeatureSchema, Hyperparams, SchemaError, _accuracy,
                    _check_int, _check_list, _check_positive, _cv_accuracy, _open_text,
                    _replacing)

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

# The stats_dim up to which resolve_mode picks direct mode for "auto". No
# mode forms a matrix of that width any more; the limit and resolve_mode
# stay only for perfbench/worker.py, their one caller.
AUTO_DIRECT_LIMIT = 2048


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one experiment on a stream on disk; a
    synthetic one gets its manifest from ``write_stream`` then ``parse_manifest``."""

    source: StreamManifest
    methods: tuple[str, ...] = ALL_METHODS
    lam_grid: tuple[float, ...] = (Hyperparams.lam,)
    rho_grid: tuple[float, ...] = (Hyperparams.rho,)
    gamma_grid: tuple[float, ...] = (1.0,)
    alpha_grid: tuple[float, ...] = (1.0,)
    repeats: int = 20
    folds: int = 5
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.source, StreamManifest):
            raise SchemaError(f"source must be a StreamManifest, got {type(self.source).__name__}")
        for name in ("repeats", "folds", "seed"):
            _check_int(getattr(self, name), name)
        _check_list(self.methods, "methods", str, "method names")
        for name in ("lam_grid", "rho_grid", "gamma_grid", "alpha_grid"):
            _check_list(getattr(self, name), name)
            if not getattr(self, name):
                raise SchemaError(f"{name} is empty")
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
        for lam, rho in itertools.product(self.lam_grid, self.rho_grid):
            Hyperparams(lam=lam, rho=rho)
        for name, grid in (("expanding-stage ridge", self.gamma_grid),
                           ("logistic loss weights", self.alpha_grid)):
            for value in grid:
                _check_positive(value, name)


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
    point of ``grid``: direct mode's factor of the stream holds neither, so one
    pass serves the whole grid. An empty stream yields all-zero models."""
    points = [Hyperparams(lam=lam, rho=rho) for lam, rho in grid]  # checked before the pass
    stats = init_stats(schema, Hyperparams(), mode=DIRECT)
    for batch in stream:
        absorb_batch(stats, batch)
    return {(h.lam, h.rho): solve_model(replace(stats, hyper=h)) for h in points}


def k_fold_cv(x, y, grid, k: int, scorer) -> np.ndarray:
    """The mean k-fold accuracy of every grid entry, in grid order.

    ``scorer(params, x_train, y_train, x_val)`` must return predicted class
    indices for the validation rows. The caller picks the winner.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("empty hyperparameter grid")
    return _cv_accuracy(x, y, k, lambda *fold: [scorer(params, *fold) for params in grid]) / k


def paired_t_test(a, b) -> str:
    """Two-sided paired t-test on per-repeat accuracies.

    Zero-variance differences with nonzero mean count as significant by
    convention; a zero mean difference is a tie. Swapping ``a`` and ``b``
    negates every difference exactly, so it flips the mark.
    """
    # Imported here, when a report compares methods, not with the library:
    # scipy.special's package import costs about 0.2 s (see opid._scipy).
    import scipy.special

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
    p = 2.0 * scipy.special.stdtr(diff.size - 1, -abs(t))
    if p < SIGNIFICANCE_LEVEL:
        return SIGNIFICANT_BETTER if mean > 0 else SIGNIFICANT_WORSE
    return TIE


def _opid_scorer():
    """OPID's cross-validation scorer. ``k_fold_cv`` hands every gamma of a
    fold the same training arrays, so it forms the fold's normal system for
    the first gamma and keeps it, one fold at a time, for the rest."""
    fold = (None, None, None)  # z_train, y_train and their normal system

    def score(gamma, z_train, y_train, z_val):
        nonlocal fold
        if fold[0] is not z_train or fold[1] is not y_train:
            fold = (z_train, y_train, _normal_system(z_train, y_train))
        return _unified_decision(z_val, y_train.shape[1], _ridge_fit(fold[2], gamma))

    return score


class _MethodRunner:
    """Trains and scores one method per repeat.

    A method fits on one block of the training half per view, built once per
    repeat: a stacked method (OPID, OPIDe) has one view per (lam, rho) point,
    the compressing-stage model whose ``build_stacked`` joint block it fits
    on, and a baseline has one, its raw columns. A method with more than one
    (view, grid) point is tuned by one ``k_fold_cv`` per view, on the block's
    rows over the method's own grid (gamma for OPID, the loss weight alpha
    for the rest); its folds are contiguous slices of the rows, and OPID
    forms each fold's normal system once, for every gamma. The scores,
    concatenated in grid order, pick the first best point, and its block
    serves the final fit. Every fit depends only on its own rows and
    parameters, so a repeat depends only on its split.

    Each method's ``fit(block, y, params)`` and ``predict(x_test, view, model)``
    slots are the library's own calls: ``fit_unified`` and ``predict_unified``
    for OPID, ``train_ensemble`` (with the spec's folds) and
    ``predict_ensemble`` for OPIDe, ``train_ovr`` and the model's ``predict``
    on the view's columns ``x[:, view]`` for a baseline. The table writes the
    scorers beside them: a baseline's fits ``train_ovr`` on a fold's training
    rows and predicts its validation rows, and OPIDe's is the ensemble's own
    fold rule with its two members averaged equally; the weight search runs
    only in the final ``train_ensemble``.
    """

    def __init__(self, spec: ExperimentSpec, cmodels: dict):
        self.spec = spec
        stacked = [cmodels[point] for point in itertools.product(spec.lam_grid, spec.rho_grid)]
        # method -> (views, block(x, view), grid, cross-validation scorer,
        #            fit(block, y, params) -> model, predict(x_test, view, model))
        self.methods = {
            OPID: (stacked, build_stacked, spec.gamma_grid, _opid_scorer(), fit_unified,
                   predict_unified),
            OPIDE: (stacked, build_stacked, spec.alpha_grid,
                    lambda alpha, *fold: _fold_decisions(*fold, alpha, (0.5,))[0],
                    functools.partial(train_ensemble, folds=spec.folds), predict_ensemble),
        }
        s = spec.source.schema.survived
        baselines = {BASE_ALL: slice(None), BASE_S: slice(s), BASE_A: slice(s, None)}
        for method, columns in baselines.items():
            self.methods[method] = (
                [columns], lambda x, view: x[:, view], spec.alpha_grid,
                lambda alpha, x, y, x_val: train_ovr(x, y, alpha).predict(x_val),
                train_ovr, lambda x, view, clf: clf.predict(x[:, view]))

    def tuned(self, method: str) -> bool:
        views, _, grid, *_ = self.methods[method]
        return len(views) * len(grid) > 1

    def evaluate(self, method: str, x_train, y_train, x_test, y_test) -> float:
        views, block, grid, scorer, fit, predict = self.methods[method]
        blocks = [block(x_train, view) for view in views]
        best = 0
        if self.tuned(method):
            folds = self.spec.folds
            scores = [k_fold_cv(z, y_train, grid, folds, scorer) for z in blocks]
            best = int(np.argmax(np.concatenate(scores)))
        view, params = divmod(best, len(grid))
        model = fit(blocks[view], y_train, grid[params])
        return _accuracy(predict(x_test, views[view], model), y_test)


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
    folded = [m for m in spec.methods if m == OPIDE or runner.tuned(m)]
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
    (one row per method per repeat, floats in exact shortest repr), each
    whole or not at all, as ``opid report`` may rewrite the record it read."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "results.csv"
    with _replacing(csv_path) as fh:
        fh.write("method,repeat,accuracy\n")
        for method in table.methods:
            for repeat, acc in enumerate(table.accuracies[method]):
                fh.write(f"{method},{repeat},{repr(acc)}\n")
    report_path = out / "report.txt"
    with _replacing(report_path) as fh:
        fh.write(format_report(table))
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
