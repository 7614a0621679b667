from __future__ import annotations

import numpy as np
import pytest

from conftest import random_cstage_stream
from opid.cstage import DIRECT, INVERSE
from opid.ensemble import train_ovr
from opid.harness import (
    BASE_A,
    BASE_ALL,
    BASE_S,
    OPID,
    OPIDE,
    SIGNIFICANT_BETTER,
    SIGNIFICANT_WORSE,
    TIE,
    ExperimentSpec,
    build_table,
    emit_report,
    format_report,
    k_fold_cv,
    load_results,
    paired_t_test,
    resolve_mode,
    run_cstage_pass,
    run_experiment,
)
from opid import harness
from opid.ingest import SynthConfig, generate_synthetic, parse_manifest, write_stream
from opid.model import FeatureSchema, Hyperparams, SchemaError

import oracles


class _OneShot:
    """An iterable over batches that counts how often it is iterated."""

    def __init__(self, batches):
        self.batches = batches
        self.passes = 0

    def __iter__(self):
        self.passes += 1
        return iter(self.batches)


class TestRunCStagePass:
    def test_single_batch_stream_equals_direct_solve(self):
        rng = np.random.default_rng(0)
        schema = FeatureSchema(vanished=2, survived=3, augmented=0, classes=2)
        hyper = Hyperparams(lam=1.0, rho=0.1)
        stream = random_cstage_stream(rng, 1, 10, 2, 3, 2)
        (model,) = run_cstage_pass(iter(stream), schema, [(hyper.lam, hyper.rho)]).values()
        ref_full, ref_sur = oracles.batch_normal_solve(stream, hyper.lam, hyper.rho)
        np.testing.assert_allclose(model.coef_full, ref_full, atol=1e-10)
        np.testing.assert_allclose(model.coef_survived, ref_sur, atol=1e-10)

    def test_permuted_stream_gives_identical_model(self):
        rng = np.random.default_rng(1)
        schema = FeatureSchema(vanished=2, survived=3, augmented=0, classes=2)
        grid = [(0.5, 0.2)]
        stream = random_cstage_stream(rng, 5, 6, 2, 3, 2)
        (fwd,) = run_cstage_pass(iter(stream), schema, grid).values()
        (rev,) = run_cstage_pass(iter(stream[::-1]), schema, grid).values()
        np.testing.assert_allclose(fwd.coef_full, rev.coef_full, atol=1e-10)
        np.testing.assert_allclose(fwd.coef_survived, rev.coef_survived, atol=1e-10)

    def test_empty_stream_gives_zero_model(self):
        schema = FeatureSchema(vanished=2, survived=3, augmented=0, classes=2)
        (model,) = run_cstage_pass(iter(()), schema, [(1.0, 0.1)]).values()
        assert not model.coef_full.any() and not model.coef_survived.any()

    def test_one_pass_solves_every_grid_point(self):
        rng = np.random.default_rng(2)
        schema = FeatureSchema(vanished=3, survived=4, augmented=0, classes=3)
        stream = _OneShot(random_cstage_stream(rng, 4, 9, 3, 4, 3))
        grid = [(lam, rho) for lam in (0.1, 2.0) for rho in (0.05, 1.0)]
        models = run_cstage_pass(stream, schema, grid)
        assert stream.passes == 1
        assert list(models) == grid
        for (lam, rho), model in models.items():
            ref_full, ref_sur = oracles.batch_normal_solve(stream.batches, lam, rho)
            np.testing.assert_allclose(model.coef_full, ref_full, atol=1e-8)
            np.testing.assert_allclose(model.coef_survived, ref_sur, atol=1e-8)

    def test_bad_grid_point_rejected_before_the_pass(self):
        schema = FeatureSchema(vanished=1, survived=2, augmented=0, classes=2)
        stream = _OneShot([])
        with pytest.raises(ValueError):
            run_cstage_pass(stream, schema, [(1.0, 0.1), (1.0, 0.0)])
        assert stream.passes == 0


class TestResolveMode:
    def test_auto_picks_direct_for_small_dims(self):
        schema = FeatureSchema(vanished=10, survived=10, augmented=0, classes=2)
        assert resolve_mode("auto", schema) == DIRECT

    def test_auto_picks_inverse_for_large_dims(self):
        schema = FeatureSchema(vanished=3000, survived=100, augmented=0, classes=2)
        assert resolve_mode("auto", schema) == INVERSE

    def test_unknown_mode_rejected(self):
        schema = FeatureSchema(vanished=1, survived=1, augmented=0, classes=2)
        with pytest.raises(ValueError):
            resolve_mode("magic", schema)


class TestKFoldCV:
    @staticmethod
    def _nearest_scale_scorer(scale, x_tr, y_tr, x_va):
        # toy scorer: predict class 0 when scaled first feature is negative
        return (scale * x_va[:, 0] > 0).astype(int)

    def test_single_point_grid(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((12, 2))
        y = np.eye(2)[rng.integers(0, 2, 12)]
        best, scores = k_fold_cv(x, y, [3.0], 3, self._nearest_scale_scorer)
        assert best == 3.0 and scores.shape == (1,)

    def test_duplicated_grid_point_first_index_wins(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((12, 2))
        y = np.eye(2)[rng.integers(0, 2, 12)]
        grid = [("first", 1.0), ("second", 1.0)]

        def scorer(params, x_tr, y_tr, x_va):
            return self._nearest_scale_scorer(params[1], x_tr, y_tr, x_va)

        best, scores = k_fold_cv(x, y, grid, 3, scorer)
        assert best == ("first", 1.0)
        assert scores[0] == scores[1]

    def test_scores_match_naive_fold_loop(self):
        rng = np.random.default_rng(4)
        n = 20
        x = rng.standard_normal((n, 3))
        y = np.eye(2)[rng.integers(0, 2, n)]
        grid = [0.5, 1.0, 2.0]

        def scorer(alpha, x_tr, y_tr, x_va):
            return train_ovr(x_tr, y_tr, alpha).predict(x_va)

        _, scores = k_fold_cv(x, y, grid, 4, scorer)

        idx = np.arange(n)
        expected = np.zeros(len(grid))
        for val in np.array_split(idx, 4):
            tr = np.setdiff1d(idx, val)
            truth = y[val].argmax(axis=1)
            for i, alpha in enumerate(grid):
                pred = train_ovr(x[tr], y[tr], alpha).predict(x[val])
                expected[i] += np.mean(pred == truth)
        np.testing.assert_allclose(scores, expected / 4)

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError):
            k_fold_cv(np.zeros((3, 1)), np.eye(3), [1.0], 5, self._nearest_scale_scorer)


class TestPairedTTest:
    def test_equal_vectors_tie(self):
        a = np.linspace(0.5, 0.9, 10)
        assert paired_t_test(a, a) == TIE

    def test_constant_offset_is_significant(self):
        rng = np.random.default_rng(5)
        b = rng.random(10)
        assert paired_t_test(b + 0.1, b) == SIGNIFICANT_BETTER
        assert paired_t_test(b - 0.1, b) == SIGNIFICANT_WORSE

    def test_direction_flips_with_arguments(self):
        rng = np.random.default_rng(6)
        a = rng.random(15)
        b = a + 0.2 + 0.01 * rng.standard_normal(15)
        assert paired_t_test(a, b) == SIGNIFICANT_WORSE
        assert paired_t_test(b, a) == SIGNIFICANT_BETTER

    def test_equal_mean_noise_is_mostly_tied(self):
        ties = 0
        seeds = 100
        for seed in range(seeds):
            rng = np.random.default_rng(seed)
            a = 0.8 + 0.05 * rng.standard_normal(30)
            b = 0.8 + 0.05 * rng.standard_normal(30)
            ties += paired_t_test(a, b) == TIE
        assert ties >= 0.9 * seeds

    def test_short_vectors_rejected(self):
        with pytest.raises(ValueError):
            paired_t_test([0.5], [0.4])


def _spec(methods, repeats=3, seed=0, **cfg_kwargs):
    schema = cfg_kwargs.pop("schema", FeatureSchema(vanished=3, survived=5, augmented=3, classes=3))
    defaults = dict(
        schema=schema, batches=4, batch_size=30, estage_size=40,
        separation=3.0, noise=0.8, seed=5,
    )
    defaults.update(cfg_kwargs)
    return ExperimentSpec(
        source=SynthConfig(**defaults), methods=methods, repeats=repeats, seed=seed
    )


class TestRunExperiment:
    def test_separable_survived_baseline_is_perfect(self):
        spec = _spec((BASE_S,), repeats=2, noise=0.0, separation=4.0)
        table = run_experiment(spec)
        assert table.mean(BASE_S) == 1.0

    def test_single_repeat_has_zero_std(self):
        spec = _spec((BASE_ALL,), repeats=1)
        table = run_experiment(spec)
        assert table.std(BASE_ALL) == 0.0
        assert table.repeats == 1

    def test_noise_augmented_baseline_is_chance_level(self):
        spec = _spec(
            (BASE_A,), repeats=4, estage_size=500, signal=(1.0, 1.0, 0.0), noise=1.0
        )
        table = run_experiment(spec)
        assert abs(table.mean(BASE_A) - 1.0 / 3.0) <= 0.1

    def test_deterministic_tables(self):
        spec = _spec((OPID, OPIDE, BASE_ALL), repeats=3, seed=9)
        t1 = run_experiment(spec)
        t2 = run_experiment(spec)
        assert t1.accuracies == t2.accuracies
        assert t1.marks == t2.marks

    def test_stacked_methods_dominate_noise_augmented_baseline(self):
        for seed in (0, 1, 2):
            spec = _spec(
                (OPID, BASE_A), repeats=3, seed=seed,
                batches=6, batch_size=50, estage_size=60, signal=(1.0, 1.0, 0.1),
            )
            table = run_experiment(spec)
            assert table.mean(OPID) >= table.mean(BASE_A)

    def test_grid_search_path(self):
        spec = ExperimentSpec(
            source=SynthConfig(
                schema=FeatureSchema(vanished=2, survived=4, augmented=2, classes=2),
                batches=3, batch_size=20, estage_size=30, separation=2.5, noise=0.8, seed=6,
            ),
            methods=(OPID, BASE_ALL),
            lam_grid=(0.1, 1.0),
            gamma_grid=(0.1, 1.0),
            alpha_grid=(0.5, 1.0),
            repeats=2,
            seed=3,
        )
        table = run_experiment(spec)
        assert len(table.accuracies[OPID]) == 2
        assert not table.failures

    def test_bad_method_rejected(self):
        with pytest.raises(ValueError):
            _spec(("SOMETHING",))

    def test_method_failure_aborts_repeat_with_reason(self, caplog):
        # pool of 10 rows -> 5 training rows, so 8-fold weight CV cannot run
        spec = ExperimentSpec(
            source=SynthConfig(
                schema=FeatureSchema(vanished=2, survived=3, augmented=2, classes=2),
                batches=2, batch_size=10, estage_size=5, seed=1,
            ),
            methods=(OPIDE,),
            folds=8,
            repeats=2,
            seed=0,
        )
        with caplog.at_level("WARNING"):
            table = run_experiment(spec)
        assert len(table.failures) == 2
        assert table.repeats == 0
        assert "aborted" in table.failures[0]
        assert np.isnan(table.mean(OPIDE))


    def test_manifest_stream_is_read_once_for_the_whole_grid(self, tmp_path, monkeypatch):
        cfg = SynthConfig(
            schema=FeatureSchema(vanished=2, survived=4, augmented=2, classes=2),
            batches=3, batch_size=20, estage_size=30, separation=2.5, seed=6,
        )
        manifest = parse_manifest(write_stream(*generate_synthetic(cfg), tmp_path, cfg.schema))
        opened = []
        real = harness.stream_batches

        def counted(source, **kwargs):
            opened.append(source)
            return real(source, **kwargs)

        monkeypatch.setattr(harness, "stream_batches", counted)
        spec = ExperimentSpec(
            source=manifest, methods=(OPID,), lam_grid=(0.1, 1.0), rho_grid=(0.1, 1.0),
            repeats=2, seed=1,
        )
        table = run_experiment(spec)
        assert len(opened) == 1
        assert len(table.accuracies[OPID]) == 2


class TestReports:
    def test_emit_and_reload_round_trip(self, tmp_path):
        spec = _spec((OPID, BASE_S), repeats=3, seed=2)
        table = run_experiment(spec)
        report_path, csv_path = emit_report(table, tmp_path)
        reloaded = load_results(csv_path)
        assert reloaded.methods == table.methods
        for m in table.methods:
            assert reloaded.accuracies[m] == table.accuracies[m]
            assert reloaded.mean(m) == pytest.approx(table.mean(m), abs=0)
        assert reloaded.marks == table.marks

    @pytest.mark.parametrize(
        "body, where",
        [
            ("method,repeat,acc\nA,0,0.5\n", ":1:"),
            ("method,repeat,accuracy\nA,0\n", ":2:"),
            ("method,repeat,accuracy\nA,0,0.5,1\n", ":2:"),
            ("method,repeat,accuracy\nA,0,0.5\nA,1,abc\n", ":3:"),
            ("method,repeat,accuracy\nA,0.5,0.5\n", ":2:"),
            ("method,repeat,accuracy\nA,0,nan\n", ":2:"),
            ("method,repeat,accuracy\nA,0,inf\n", ":2:"),
            ("method,repeat,accuracy\nA,0,1.5\n", ":2:"),
            ("method,repeat,accuracy\nA,0,-0.1\n", ":2:"),
            ("method,repeat,accuracy\nA,0,0.5\nA,1,0.6\nB,0,0.7\n", ":4:"),
        ],
        ids=[
            "header", "two-cells", "four-cells", "accuracy-abc", "repeat-not-int",
            "accuracy-nan", "accuracy-inf", "accuracy-above-1", "accuracy-below-0",
            "unequal-repeats",
        ],
    )
    def test_malformed_record_rejected(self, tmp_path, body, where):
        path = tmp_path / "results.csv"
        path.write_text(body)
        with pytest.raises(SchemaError, match=f"results.csv{where}"):
            load_results(path)

    def test_reports_are_byte_deterministic(self, tmp_path):
        spec = _spec((OPIDE, BASE_A), repeats=3, seed=4)
        paths = []
        for name in ("a", "b"):
            table = run_experiment(spec)
            paths.append(emit_report(table, tmp_path / name))
        assert (paths[0][0].read_bytes() == paths[1][0].read_bytes())
        assert (paths[0][1].read_bytes() == paths[1][1].read_bytes())

    def test_empty_method_set_writes_headers_only(self, tmp_path):
        table = build_table((), {}, seed=0)
        report_path, csv_path = emit_report(table, tmp_path)
        assert csv_path.read_text() == "method,repeat,accuracy\n"
        assert "method" in report_path.read_text()

    def test_format_report_marks_consistent(self):
        acc = {"A": [0.9, 0.91, 0.92, 0.9, 0.93], "B": [0.5, 0.52, 0.51, 0.5, 0.55]}
        table = build_table(("A", "B"), acc, seed=0)
        assert table.marks[("A", "B")] == SIGNIFICANT_BETTER
        assert table.marks[("B", "A")] == SIGNIFICANT_WORSE
        text = format_report(table)
        assert ">" in text and "<" in text
