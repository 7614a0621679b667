"""The library calls the benchmark under ``perfbench/`` makes, pinned here.

The benchmark drives ``opid`` through these names, argument positions and
batch attributes, and it is versioned apart from the library: a change that
renames or reorders one of them passes every other unit test and fails only
when the benchmark runs. These hooks are therefore frozen; this file does
not import ``perfbench`` and repeats its calls on a tiny stream instead.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import io
from pathlib import Path

import numpy as np
import pytest

import oracles

from opid import cli, cstage, ensemble, harness, ingest, model
from opid.harness import ALL_METHODS, ExperimentSpec, run_experiment


@pytest.fixture
def manifest(tmp_path):
    cfg = ingest.SynthConfig(
        schema=model.FeatureSchema(vanished=2, survived=4, augmented=2, classes=3),
        batches=4, batch_size=15, estage_size=30, separation=3.0, seed=3,
    )
    written = ingest.write_stream(*ingest.generate_synthetic(cfg), tmp_path, cfg.schema)
    return ingest.parse_manifest(written)


@pytest.mark.parametrize("limit", [harness.AUTO_DIRECT_LIMIT, 0], ids=["direct", "factor"])
def test_prequential_pass_with_suspend_and_resume(manifest, tmp_path, monkeypatch, limit):
    # test-then-train through the library API, snapshotting at the midpoint
    monkeypatch.setattr(harness, "AUTO_DIRECT_LIMIT", limit)
    schema = manifest.schema
    mode = harness.resolve_mode("auto", schema)
    assert mode == (cstage.DIRECT if limit else cstage.FACTOR)
    hyper = model.Hyperparams(lam=1.0, rho=0.1)
    stats = cstage.init_stats(schema, hyper, mode=mode)
    uninterrupted = cstage.init_stats(schema, hyper, mode=mode)
    snapshot = tmp_path / "mid.npz"
    correct = rows = 0
    seen = []
    for i, batch in enumerate(ingest.stream_batches(manifest)):
        seen.append(batch)
        scores = cstage.compress(batch.survived, cstage.solve_model(stats))
        pred = model.argmax_decode(scores)
        correct += int((pred == batch.labels.argmax(axis=1)).sum())
        rows += batch.n
        assert batch.vanished.shape[1] == schema.vanished  # the tracer counts floats with it
        cstage.absorb_batch(stats, batch)
        cstage.absorb_batch(uninterrupted, batch)
        if i == 1:
            cstage.save_stats(stats, snapshot)
            stats = cstage.load_stats(snapshot)
    assert rows == 4 * 15 and 0 <= correct <= rows
    final, reference = cstage.solve_model(stats), cstage.solve_model(uninterrupted)
    np.testing.assert_array_equal(final.coef_survived, reference.coef_survived)
    np.testing.assert_array_equal(final.coef_full, reference.coef_full)
    assert stats.mode == mode and stats.batches_seen == 4
    # the benchmark's coefficient check: within 1e-8 of one batch solve
    ref = np.vstack(oracles.batch_normal_solve(seen, hyper.lam, hyper.rho))
    coef = np.vstack([final.coef_full, final.coef_survived])
    assert np.linalg.norm(coef - ref) <= 1e-8 * np.linalg.norm(ref)


def test_evaluate_runs_once_per_method_per_repeat(manifest, monkeypatch):
    # wrapped the way the benchmark times a repeat: the method comes first
    calls = []
    original = harness._MethodRunner.evaluate

    def evaluate(runner_self, method, *args, **kwargs):
        calls.append(method)
        return original(runner_self, method, *args, **kwargs)

    monkeypatch.setattr(harness._MethodRunner, "evaluate", evaluate)
    spec = ExperimentSpec(source=manifest, repeats=2, seed=1)
    table = run_experiment(spec)
    assert not table.failures
    assert calls == list(ALL_METHODS) * 2


def test_cross_validation_is_called_positionally(manifest, monkeypatch):
    # the benchmark counts scorer calls through this exact signature
    spec = ExperimentSpec(
        source=manifest, methods=("OPID", "OPIDe", "BASE_S"), lam_grid=(0.1, 1.0),
        alpha_grid=(0.5, 1.0), repeats=1, seed=2,
    )
    plain = run_experiment(spec)
    fits = []
    original = harness.k_fold_cv

    def k_fold_cv(x, y, grid, k, scorer):
        def counting(*args):
            fits.append(args[0])
            return scorer(*args)

        return original(x, y, grid, k, counting)

    monkeypatch.setattr(harness, "k_fold_cv", k_fold_cv)
    counted = run_experiment(spec)
    assert counted.accuracies == plain.accuracies
    # OPID 2 x 1 x 1, OPIDe 2 x 1 x 2 and BASE_S 2 grid points, 5 folds each
    assert len(fits) == (2 + 4 + 2) * spec.folds


def test_grid_workload_counts_one_scorer_call_per_fit(manifest, tmp_path, monkeypatch):
    # The grid workload's arguments: the tracer reads harness.cv_fits from
    # the scorer calls of k_fold_cv, and the repeat clock wraps evaluate.
    fits, evaluations = [], []
    original_cv, original_evaluate = harness.k_fold_cv, harness._MethodRunner.evaluate

    def k_fold_cv(x, y, grid, k, scorer):
        def counting(*args):
            fits.append(args[0])
            return scorer(*args)

        return original_cv(x, y, grid, k, counting)

    def evaluate(runner_self, method, *args, **kwargs):
        evaluations.append(method)
        return original_evaluate(runner_self, method, *args, **kwargs)

    monkeypatch.setattr(harness, "k_fold_cv", k_fold_cv)
    monkeypatch.setattr(harness._MethodRunner, "evaluate", evaluate)
    repeats, folds = 2, 5
    argv = ["run", "--manifest", str(tmp_path / "manifest.json"), "--out", str(tmp_path / "out"),
            "--seed", "101", "--methods", "OPID", "--lambda", "0.1,1", "--rho", "0.1,1",
            "--gamma", "0.1,1", "--repeats", str(repeats), "--folds", str(folds)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert evaluations == ["OPID"] * repeats
    # 2 x 2 x 2 grid points, each fit once per fold
    assert len(fits) == repeats * 8 * folds


def test_solver_counters_count_steps_and_evaluated_points(monkeypatch):
    # The tracer counts calls to this module attribute: one objective per
    # evaluated Newton point.
    calls = 0
    original = ensemble.logistic_objective

    def counting(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(ensemble, "logistic_objective", counting)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((40, 4))
    y = np.where(x[:, 0] + 0.5 * rng.standard_normal(40) > 0, 1.0, -1.0)
    init = 3.0 * rng.standard_normal(4)
    ensemble.train_logistic(x, y, 3.0, init=init)
    _, steps, halvings = oracles.newton_logistic_loop(
        x, y, 3.0, init, ensemble.NEWTON_TOL, ensemble.NEWTON_MAX_ITER
    )
    # the start point, then each line-search candidate: one per step plus one per halving
    assert halvings > 0 and calls == 1 + steps + halvings


def test_experiment_fits_each_class_through_the_traced_solver(tmp_path, monkeypatch):
    # The tracer reads ensemble.logistic_fits from train_logistic spans, so
    # every class of every one-vs-rest fit must go through that attribute.
    # train_ovr's first Newton steps share one factorization per task set:
    # c - 1 fewer than a fit per class makes, with the same results. The
    # stream is the experiment workload's tiny scale.
    cfg = ingest.SynthConfig(
        schema=model.FeatureSchema(vanished=3, survived=5, augmented=3, classes=3),
        batches=4, batch_size=20, estage_size=40, separation=2.0, signal=(1.0, 1.0, 0.0),
    )
    written = ingest.write_stream(*ingest.generate_synthetic(cfg), tmp_path, cfg.schema)
    spec = ExperimentSpec(source=ingest.parse_manifest(written), repeats=3)
    shared, logistic, dpotrf = ensemble.train_ovr, ensemble.train_logistic, model.dpotrf

    def per_class(x, labels, alpha):
        return ensemble.LogisticModel(np.column_stack([
            ensemble.train_logistic(x, model.class_signs(labels, cls), alpha)
            for cls in range(labels.shape[1])
        ]))

    def counted_run(ovr):
        counts = dict.fromkeys(("ovr", "classes", "logistic", "dpotrf"), 0)

        def counting(key, fn):
            def call(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return call

        def counted_ovr(x, labels, alpha):
            counts["classes"] += labels.shape[1]
            fit = counting("ovr", ovr)(x, labels, alpha)
            assert fit.constant_class is None
            return fit

        with monkeypatch.context() as patch:
            patch.setattr(ensemble, "train_logistic", counting("logistic", logistic))
            patch.setattr(model, "dpotrf", counting("dpotrf", dpotrf))
            for module in (ensemble, harness):
                patch.setattr(module, "train_ovr", counted_ovr)
            return run_experiment(spec), counts

    table, counts = counted_run(shared)
    reference, reference_counts = counted_run(per_class)
    assert table.accuracies == reference.accuracies and not table.failures
    assert counts["ovr"] == reference_counts["ovr"] > 0
    assert counts["logistic"] == reference_counts["logistic"] == counts["classes"]
    assert reference_counts["dpotrf"] - counts["dpotrf"] == counts["classes"] - counts["ovr"]

def test_traced_targets_resolve():
    # The tracer wraps these (layer, module, attribute path, kind) targets and
    # silently skips one it cannot find, so a renamed or deleted name fails here.
    tree = ast.parse((Path(__file__).parents[1] / "perfbench" / "spans.py").read_text())
    (targets,) = (
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]
    )
    unresolved = set()
    for _, module_name, path, _ in targets:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or vars(owner).get(attr) is None:
            unresolved.add(f"{module_name}.{path}")
    # missing since earlier changes; mending the tracer empties this set
    assert unresolved == {
        "opid.ingest.load_estage", "opid.model.Batch.estage", "opid.estage.train_unified",
        "opid.estage.update_coefficients",
    }
