from __future__ import annotations

import dataclasses
import errno

import numpy as np
import pytest

from conftest import random_cstage_stream, synth_manifest
from opid.cstage import DIRECT, FACTOR
from opid.ensemble import SolverError, train_ovr
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
from opid import estage, harness, model as model_module
from opid.ingest import SynthConfig
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

    def test_auto_picks_factor_for_large_dims(self):
        schema = FeatureSchema(vanished=3000, survived=100, augmented=0, classes=2)
        assert resolve_mode("auto", schema) == FACTOR

    @pytest.mark.parametrize("mode", [DIRECT, FACTOR])
    def test_named_mode_kept(self, mode):
        schema = FeatureSchema(vanished=1, survived=1, augmented=0, classes=2)
        assert resolve_mode(mode, schema) == mode

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
        scores = k_fold_cv(x, y, [3.0], 3, self._nearest_scale_scorer)
        assert scores.shape == (1,) and 0.0 <= scores[0] <= 1.0

    def test_duplicated_grid_point_first_index_wins(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((12, 2))
        y = np.eye(2)[rng.integers(0, 2, 12)]
        grid = [("first", 1.0), ("second", 1.0)]

        def scorer(params, x_tr, y_tr, x_va):
            return self._nearest_scale_scorer(params[1], x_tr, y_tr, x_va)

        scores = k_fold_cv(x, y, grid, 3, scorer)
        # equal points score equally; argmax, the winner's rule in evaluate, takes the first
        assert scores.shape == (2,) and scores[0] == scores[1]
        assert int(np.argmax(scores)) == 0

    def test_scores_match_naive_fold_loop(self):
        rng = np.random.default_rng(4)
        n = 20
        x = rng.standard_normal((n, 3))
        y = np.eye(2)[rng.integers(0, 2, n)]
        grid = [0.5, 1.0, 2.0]

        def scorer(alpha, x_tr, y_tr, x_va):
            return train_ovr(x_tr, y_tr, alpha).predict(x_va)

        scores = k_fold_cv(x, y, grid, 4, scorer)

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

    @pytest.mark.parametrize("k", [2.5, 2.0, "5", True])
    def test_non_int_fold_count_rejected(self, k):
        x, y = np.zeros((6, 1)), np.eye(2)[[0, 1] * 3]
        with pytest.raises(SchemaError, match=f"folds must be an int, got {k!r}"):
            k_fold_cv(x, y, [1.0], k, self._nearest_scale_scorer)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty hyperparameter grid"):
            k_fold_cv(np.zeros((4, 1)), np.eye(2)[[0, 1, 0, 1]], [], 2,
                      self._nearest_scale_scorer)


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

    def test_p_value_matches_student_t_survival(self, monkeypatch):
        import scipy.special
        from scipy import stats

        # paired_t_test looks stdtr up on scipy.special at each call
        calls, real = [], scipy.special.stdtr

        def spy(df, x):
            calls.append((df, x, real(df, x)))
            return calls[-1][2]

        monkeypatch.setattr(scipy.special, "stdtr", spy)
        rng = np.random.default_rng(11)
        for size in (2, 3, 10, 60):
            for _ in range(25):
                a, b = rng.random(size), rng.random(size)
                paired_t_test(a, b)
                df, x, half_p = calls[-1]
                ref = stats.ttest_rel(a, b)
                assert df == size - 1
                np.testing.assert_allclose(-x, abs(ref.statistic), rtol=1e-12)
                np.testing.assert_allclose(2.0 * half_p, 2.0 * stats.t.sf(-x, df), rtol=1e-12)


_FLIP = {SIGNIFICANT_BETTER: SIGNIFICANT_WORSE, TIE: TIE, SIGNIFICANT_WORSE: SIGNIFICANT_BETTER}


class TestMarks:
    """``marks`` tests every ordered pair; (b, a) must read as the flip of (a, b)."""

    @staticmethod
    def _check(a, b):
        table = build_table(("A", "B"), {"A": list(a), "B": list(b)}, seed=0)
        assert table.repeats == len(a)
        assert table.marks[("B", "A")] == _FLIP[table.marks[("A", "B")]]
        return table.marks[("A", "B")]

    def test_random_accuracies(self):
        rng = np.random.default_rng(23)
        for _ in range(400):
            n = int(rng.integers(2, 12))
            if rng.random() < 0.5:
                a, b = rng.integers(0, 31, n) / 30, rng.integers(0, 31, n) / 30
            else:
                a, b = rng.random(n), rng.random(n)
            self._check(a, b)

    def test_all_zero_differences_tie(self):
        a = [0.5, 0.7, 0.9]
        assert self._check(a, a) == TIE

    def test_zero_variance_differences_are_significant(self):
        assert self._check([0.75, 0.5, 1.0], [0.5, 0.25, 0.75]) == SIGNIFICANT_BETTER

    def test_zero_mean_with_underflowing_variance_ties(self):
        # (d - mean)**2 underflows to 0, so sd is 0 while the differences are not
        assert self._check([1e-170, 0.0], [0.0, 1e-170]) == TIE

    @pytest.mark.parametrize("a, b", [([], []), ([0.9], [0.1])], ids=["none", "one"])
    def test_fewer_than_two_repeats_tie(self, a, b):
        assert self._check(a, b) == TIE


def _spec(out_dir, methods, repeats=3, seed=0, **cfg_kwargs):
    schema = cfg_kwargs.pop("schema", FeatureSchema(vanished=3, survived=5, augmented=3, classes=3))
    defaults = dict(
        schema=schema, batches=4, batch_size=30, estage_size=40,
        separation=3.0, noise=0.8, seed=5,
    )
    defaults.update(cfg_kwargs)
    return ExperimentSpec(
        source=synth_manifest(SynthConfig(**defaults), out_dir), methods=methods,
        repeats=repeats, seed=seed,
    )


class TestRunExperiment:
    def test_separable_survived_baseline_is_perfect(self, tmp_path):
        spec = _spec(tmp_path, (BASE_S,), repeats=2, noise=0.0, separation=4.0)
        table = run_experiment(spec)
        assert table.mean(BASE_S) == 1.0

    def test_single_repeat_has_zero_std(self, tmp_path):
        spec = _spec(tmp_path, (BASE_ALL,), repeats=1)
        table = run_experiment(spec)
        assert table.std(BASE_ALL) == 0.0
        assert table.repeats == 1

    def test_noise_augmented_baseline_is_chance_level(self, tmp_path):
        spec = _spec(
            tmp_path, (BASE_A,), repeats=4, estage_size=500, signal=(1.0, 1.0, 0.0), noise=1.0
        )
        table = run_experiment(spec)
        assert abs(table.mean(BASE_A) - 1.0 / 3.0) <= 0.1

    def test_deterministic_tables(self, tmp_path):
        spec = _spec(tmp_path, (OPID, OPIDE, BASE_ALL), repeats=3, seed=9)
        t1 = run_experiment(spec)
        t2 = run_experiment(spec)
        assert t1.accuracies == t2.accuracies
        assert t1.marks == t2.marks

    def test_stacked_methods_dominate_noise_augmented_baseline(self, tmp_path):
        for seed in (0, 1, 2):
            spec = _spec(
                tmp_path / str(seed), (OPID, BASE_A), repeats=3, seed=seed,
                batches=6, batch_size=50, estage_size=60, signal=(1.0, 1.0, 0.1),
            )
            table = run_experiment(spec)
            assert table.mean(OPID) >= table.mean(BASE_A)

    def test_grid_search_path(self, tmp_path):
        spec = ExperimentSpec(
            source=synth_manifest(SynthConfig(
                schema=FeatureSchema(vanished=2, survived=4, augmented=2, classes=2),
                batches=3, batch_size=20, estage_size=30, separation=2.5, noise=0.8, seed=6,
            ), tmp_path),
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

    @pytest.mark.parametrize("source", [
        SynthConfig(FeatureSchema(vanished=2, survived=3, augmented=2, classes=2), 2, 10, 5),
        "manifest.json",
        None,
    ], ids=["synth-config", "path", "none"])
    def test_source_other_than_a_manifest_rejected(self, source):
        with pytest.raises(SchemaError, match=f"got {type(source).__name__}$"):
            ExperimentSpec(source=source)

    def test_bad_method_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            _spec(tmp_path, ("SOMETHING",))

    def test_method_failure_aborts_repeat_with_reason(self, caplog, monkeypatch, tmp_path):
        def no_convergence(*args, **kwargs):
            raise SolverError("no convergence to gradient norm 1e-06 within 50 iterations")

        monkeypatch.setattr(harness, "train_ensemble", no_convergence)
        spec = ExperimentSpec(
            source=synth_manifest(SynthConfig(
                schema=FeatureSchema(vanished=2, survived=3, augmented=2, classes=2),
                batches=2, batch_size=10, estage_size=5, seed=1,
            ), tmp_path),
            methods=(OPIDE,),
            folds=2,
            repeats=2,
            seed=0,
        )
        with caplog.at_level("WARNING"):
            table = run_experiment(spec)
        assert len(table.failures) == 2
        assert table.repeats == 0
        assert table.methods == (OPIDE,)
        assert format_report(table).splitlines()[2].startswith(f"{OPIDE} ")
        assert "aborted (OPIDe): no convergence" in table.failures[0]
        assert np.isnan(table.mean(OPIDE))

    @pytest.mark.parametrize("methods, pattern", [
        ((), "no methods selected"),
        ((OPID, OPID, BASE_S), "methods selected more than once: OPID"),
    ], ids=["empty", "repeated"])
    def test_empty_or_repeated_methods_rejected(self, tmp_path, methods, pattern):
        with pytest.raises(SchemaError, match=pattern):
            _spec(tmp_path, methods)

    @pytest.mark.parametrize("setting, value", [
        ("lam_grid", ("1",)),
        ("gamma_grid", ("1",)),
        ("rho_grid", 0.1),
        ("alpha_grid", (True,)),
        ("lam_grid", "1.0"),
        ("methods", "OPID"),
        ("methods", {"OPID"}),
        ("methods", (1,)),
        ("repeats", "3"),
        ("folds", 2.5),
        ("seed", 1.5),
        ("seed", True),
    ])
    def test_setting_of_the_wrong_type_rejected(self, tmp_path, setting, value):
        with pytest.raises(SchemaError, match=f"^{setting} must be "):
            ExperimentSpec(source=_spec(tmp_path, (OPID,)).source, **{setting: value})

    def test_lists_and_numpy_numbers_accepted(self, tmp_path):
        spec = ExperimentSpec(source=_spec(tmp_path, (OPID,)).source, methods=[OPID, BASE_S],
                              lam_grid=[np.float64(0.5), 1], rho_grid=[np.float32(0.1)],
                              repeats=np.int64(2), folds=3, seed=np.uint8(4))
        assert run_experiment(spec).methods == (OPID, BASE_S)

    @pytest.mark.parametrize("grid", ["lam_grid", "rho_grid", "gamma_grid", "alpha_grid"])
    def test_empty_grid_rejected(self, tmp_path, grid):
        with pytest.raises(SchemaError, match=f"{grid} is empty"):
            ExperimentSpec(source=_spec(tmp_path, (OPID,)).source, **{grid: ()})

    @pytest.mark.parametrize("methods, grid", [
        ((OPIDE,), {}),
        ((OPID,), {"gamma_grid": (0.5, 1.0)}),
        ((BASE_S,), {"alpha_grid": (0.5, 1.0)}),
    ])
    def test_more_folds_than_training_rows_rejected(self, tmp_path, methods, grid):
        # pool of 10 rows -> 5 training rows, too few for 8 folds
        spec = ExperimentSpec(
            source=synth_manifest(SynthConfig(
                schema=FeatureSchema(vanished=2, survived=3, augmented=2, classes=2),
                batches=2, batch_size=10, estage_size=5, seed=1,
            ), tmp_path),
            methods=methods, folds=8, repeats=2, seed=0, **grid,
        )
        pattern = f"--folds 8 exceeds the 5 rows of the training half, which {methods[0]} splits"
        with pytest.raises(SchemaError, match=pattern):
            run_experiment(spec)


    def test_manifest_stream_is_read_once_for_the_whole_grid(self, tmp_path, monkeypatch):
        cfg = SynthConfig(
            schema=FeatureSchema(vanished=2, survived=4, augmented=2, classes=2),
            batches=3, batch_size=20, estage_size=30, separation=2.5, seed=6,
        )
        manifest = synth_manifest(cfg, tmp_path)
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


def test_opid_makes_one_factorization_per_fit(tmp_path, monkeypatch):
    # every OPID fit of a repeat, the k-fold fits of each grid point and then
    # the final fit, is one ridge step on a normal system: one Cholesky
    # factorization, no iteration
    fits, factorizations = [], []
    real_fit, real_dpotrf = estage._ridge_fit, model_module.dpotrf

    def counted_fit(*args):
        fits.append(None)
        return real_fit(*args)

    def counted_dpotrf(*args, **kwargs):
        factorizations.append(None)
        return real_dpotrf(*args, **kwargs)

    # the cross-validation scorer calls the ridge step, the final fit_unified too
    monkeypatch.setattr(harness, "_ridge_fit", counted_fit)
    monkeypatch.setattr(estage, "_ridge_fit", counted_fit)
    monkeypatch.setattr(model_module, "dpotrf", counted_dpotrf)
    spec = ExperimentSpec(
        source=synth_manifest(SynthConfig(
            schema=FeatureSchema(vanished=3, survived=5, augmented=3, classes=3),
            batches=4, batch_size=30, estage_size=40, separation=3.0, noise=0.8, seed=5,
        ), tmp_path),
        methods=(OPID,), lam_grid=(0.1, 1.0), rho_grid=(0.1, 1.0), gamma_grid=(0.1, 1.0),
        repeats=2, seed=3,
    )
    table = run_experiment(spec)
    assert len(table.accuracies[OPID]) == 2 and not table.failures
    assert len(factorizations) == len(fits) == spec.repeats * (8 * spec.folds + 1)


def test_shared_system_scores_equal_a_fit_per_gamma(monkeypatch):
    # OPID's scorer forms each fold's normal system once for all gammas; its
    # CV scores, and the model of every (gamma, fold) fit, equal those of a
    # scorer that calls fit_unified for each gamma, bit for bit
    shared_coefs, real_decision = [], harness._unified_decision

    def recording(z, classes, emodel):
        shared_coefs.append(emodel.coef)
        return real_decision(z, classes, emodel)

    monkeypatch.setattr(harness, "_unified_decision", recording)
    rng = np.random.default_rng(16)
    for _ in range(30):
        n, c, d_a = int(rng.integers(10, 60)), int(rng.integers(2, 5)), int(rng.integers(0, 6))
        z = rng.standard_normal((n, c + d_a)) * 10.0 ** rng.uniform(-3.0, 3.0, size=c + d_a)
        y = model_module.one_hot_encode(rng.integers(0, c, size=n), c)
        gammas, folds = tuple(10.0 ** rng.uniform(-3.0, 2.0, size=3)), int(rng.integers(2, 6))
        plain_coefs = []

        def per_gamma(gamma, z_train, y_train, z_val):
            emodel = estage.fit_unified(z_train, y_train, gamma)
            plain_coefs.append(emodel.coef)
            return real_decision(z_val, y_train.shape[1], emodel)

        shared_coefs.clear()
        shared = k_fold_cv(z, y, gammas, folds, harness._opid_scorer())
        plain = k_fold_cv(z, y, gammas, folds, per_gamma)
        np.testing.assert_array_equal(shared, plain)
        assert len(shared_coefs) == len(plain_coefs) == 3 * folds
        for got, expected in zip(shared_coefs, plain_coefs):
            np.testing.assert_array_equal(got, expected)


def test_opid_forms_one_normal_system_per_view_and_fold(tmp_path, monkeypatch):
    # each (lam, rho) block's folds form their system once for both gammas,
    # and the final fit forms one more
    systems, real_system = [], estage._normal_system

    def counted(z, labels):
        systems.append(z.shape[0])
        return real_system(z, labels)

    monkeypatch.setattr(harness, "_normal_system", counted)
    monkeypatch.setattr(estage, "_normal_system", counted)
    spec = _opid_grid_spec(tmp_path, (0.1, 1.0), (0.1, 1.0), (0.1, 1.0))
    table = run_experiment(spec)
    assert len(table.accuracies[OPID]) == 2 and not table.failures
    assert len(systems) == spec.repeats * (4 * spec.folds + 1)
    n_train = 2 * 40 // 2
    per_repeat = [n_train - n_train // spec.folds] * (4 * spec.folds) + [n_train]
    assert systems == per_repeat * spec.repeats


def _opid_grid_spec(out_dir, lam_grid, rho_grid, gamma_grid, repeats=2):
    return ExperimentSpec(
        source=synth_manifest(SynthConfig(
            schema=FeatureSchema(vanished=3, survived=5, augmented=3, classes=3),
            batches=4, batch_size=30, estage_size=40, separation=3.0, noise=0.8, seed=5,
        ), out_dir),
        methods=(OPID,), lam_grid=lam_grid, rho_grid=rho_grid, gamma_grid=gamma_grid,
        repeats=repeats, seed=3,
    )


def test_opid_builds_each_joint_block_once_per_repeat(tmp_path, monkeypatch):
    # the training half's block per (lam, rho) point, which every fold and
    # gamma reuses, then the test half's block inside predict_unified
    calls = []

    def counting(half, real):
        def build_stacked(x, cmodel):
            calls.append((half, id(x), id(cmodel), x.shape[0]))
            return real(x, cmodel)

        return build_stacked

    monkeypatch.setattr(harness, "build_stacked", counting("train", harness.build_stacked))
    monkeypatch.setattr(estage, "build_stacked", counting("test", estage.build_stacked))
    spec = _opid_grid_spec(tmp_path, (0.1, 1.0), (0.1, 1.0), (0.1, 1.0))
    table = run_experiment(spec)
    assert len(table.accuracies[OPID]) == 2 and not table.failures
    assert len(calls) == spec.repeats * (4 + 1)
    n_pool = 2 * 40
    for repeat in range(spec.repeats):
        *train, test = calls[5 * repeat:5 * repeat + 5]
        assert {half for half, *_ in train} == {"train"} and test[0] == "test"
        assert len({x for _, x, _, _ in train}) == 1  # one training half
        assert len({cmodel for _, _, cmodel, _ in train}) == 4  # one block per (lam, rho)
        assert train[0][3] == n_pool // 2 and test[3] == n_pool - n_pool // 2


def test_tied_grid_points_across_blocks_pick_the_first(tmp_path, monkeypatch):
    # a constant model ties every (lam, rho, gamma) point; the first wins,
    # and its training block serves the final fit
    cmodels, blocks, systems, fits, predictions = {}, {}, [], [], []
    real_pass, real_build, real_predict, real_system = (
        harness.run_cstage_pass, harness.build_stacked, harness.predict_unified,
        estage._normal_system)

    def run_cstage_pass(*args):
        cmodels.update(real_pass(*args))
        return cmodels

    def build_stacked(x, cmodel):
        blocks[id(cmodel)] = real_build(x, cmodel)
        return blocks[id(cmodel)]

    def normal_system(z, labels):
        systems.append((real_system(z, labels), z))
        return systems[-1][0]

    def constant_fit(system, gamma):
        fits.append((system, gamma))
        return model_module.EStageModel(np.ones(system[1].shape))

    def predict_unified(x, cmodel, emodel):
        predictions.append(cmodel)
        return real_predict(x, cmodel, emodel)

    for name, fake in (("run_cstage_pass", run_cstage_pass), ("build_stacked", build_stacked),
                       ("_normal_system", normal_system), ("_ridge_fit", constant_fit),
                       ("predict_unified", predict_unified)):
        monkeypatch.setattr(harness, name, fake)
    # the final fit_unified forms its system and fits through the estage names
    monkeypatch.setattr(estage, "_normal_system", normal_system)
    monkeypatch.setattr(estage, "_ridge_fit", constant_fit)
    spec = _opid_grid_spec(tmp_path, (1.0, 0.1), (0.5, 0.1), (1.0, 0.1), repeats=1)
    table = run_experiment(spec)
    assert len(table.accuracies[OPID]) == 1 and not table.failures
    assert len(fits) == 8 * spec.folds + 1
    first = cmodels[(spec.lam_grid[0], spec.rho_grid[0])]
    final_system, final_gamma = fits[-1]
    (final_block,) = (z for system, z in systems if system is final_system)
    assert final_gamma == spec.gamma_grid[0]
    assert final_block is blocks[id(first)]
    assert predictions == [first]


@pytest.mark.parametrize("method, fit_name", [
    (OPID, "fit_unified"), (OPIDE, "train_ensemble"), (BASE_ALL, "train_ovr"),
])
def test_equal_cv_scores_fit_the_first_grid_point(tmp_path, monkeypatch, method, fit_name):
    # k_fold_cv returns scores only; evaluate holds the one tie rule. With
    # every (view, grid) point scored alike, the first view's block and the
    # first grid value serve the final fit.
    blocks, fits = [], []
    real_build, real_fit = harness.build_stacked, getattr(harness, fit_name)

    def build_stacked(x, cmodel):
        blocks.append(real_build(x, cmodel))
        return blocks[-1]

    def recording_fit(z, y, params, **kwargs):
        fits.append((z, params))
        return real_fit(z, y, params, **kwargs)

    monkeypatch.setattr(harness, "k_fold_cv", lambda x, y, grid, k, scorer: np.zeros(len(grid)))
    monkeypatch.setattr(harness, "build_stacked", build_stacked)
    monkeypatch.setattr(harness, fit_name, recording_fit)
    spec = dataclasses.replace(_opid_grid_spec(tmp_path, (1.0, 0.1), (0.5, 0.1), (1.0, 0.1),
                                               repeats=1), methods=(method,), alpha_grid=(1.0, 0.5))
    table = run_experiment(spec)
    assert len(table.accuracies[method]) == 1 and not table.failures
    ((block, params),) = fits
    assert params == (spec.gamma_grid if method == OPID else spec.alpha_grid)[0]
    if method == BASE_ALL:
        assert not blocks and block.shape[1] == spec.source.schema.estage_width
    else:
        assert len(blocks) == 4 and block is blocks[0]


def _random_protocol_spec(rng, out_dir):
    """A small random stream and spec: grids of 1-2 points that may repeat,
    so that grid points tie, a random subset of the methods in random order,
    2-3 folds and 3 repeats."""
    schema = FeatureSchema(vanished=int(rng.integers(0, 5)), survived=int(rng.integers(1, 7)),
                           augmented=int(rng.integers(0, 5)), classes=int(rng.integers(2, 4)))
    cfg = SynthConfig(schema=schema, batches=int(rng.integers(1, 4)),
                      batch_size=int(rng.integers(5, 20)), estage_size=int(rng.integers(12, 30)),
                      separation=float(rng.uniform(0.5, 3.0)),
                      signal=tuple(float(f) for f in rng.uniform(0.0, 1.0, size=3)),
                      seed=int(rng.integers(1000)))

    def grid(values):
        return tuple(float(v) for v in rng.choice(values, size=int(rng.integers(1, 3))))

    chosen = [m for m in harness.ALL_METHODS if rng.random() < 0.7] or [OPID]
    return ExperimentSpec(
        source=synth_manifest(cfg, out_dir), methods=tuple(str(m) for m in rng.permutation(chosen)),
        lam_grid=grid([0.0, 0.5, 2.0]), rho_grid=grid([0.1, 1.0]),
        gamma_grid=grid([0.1, 1.0, 10.0]), alpha_grid=grid([0.1, 1.0, 10.0]),
        repeats=3, folds=int(rng.integers(2, 4)), seed=int(rng.integers(1000)),
    )


@pytest.mark.parametrize("seed", range(30))
def test_run_experiment_matches_the_protocol_reference(tmp_path, seed):
    # the harness reuses blocks, folds and normal systems; the reference
    # rebuilds everything in straight lines, and every accuracy must agree
    spec = _random_protocol_spec(np.random.default_rng([17, seed]), tmp_path)
    table = run_experiment(spec)
    accuracies, failures = oracles.experiment_protocol(spec)
    assert table.accuracies == {method: tuple(acc) for method, acc in accuracies.items()}
    assert table.failures == tuple(failures)


class TestReports:
    def test_emit_and_reload_round_trip(self, tmp_path):
        spec = _spec(tmp_path / "stream", (OPID, BASE_S), repeats=3, seed=2)
        table = run_experiment(spec)
        report_path, csv_path = emit_report(table, tmp_path)
        reloaded = load_results(csv_path)
        assert reloaded.methods == table.methods
        for m in table.methods:
            assert reloaded.accuracies[m] == table.accuracies[m]
            assert reloaded.mean(m) == pytest.approx(table.mean(m), abs=0)
        assert reloaded.marks == table.marks
        # the record does not store the seed
        assert reloaded.seed is None
        assert format_report(reloaded).startswith("repeats=3 seed=unknown\n")

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
            ("method,repeat,accuracy\nA,1,0.5\nA,0,0.6\n", ":2: A repeat 1, expected 0"),
            ("method,repeat,accuracy\nA,0,0.5\nB,0,0.6\nA,0,0.7\n", ":4: A repeat 0, expected 1"),
            ("method,repeat,accuracy\nA,0,0.5\nA,2,0.6\n", ":3: A repeat 2, expected 1"),
            ("method,repeat,accuracy\nA,-1,0.5\nA,0,0.6\n", ":2: A repeat -1, expected 0"),
        ],
        ids=[
            "header", "two-cells", "four-cells", "accuracy-abc", "repeat-not-int",
            "accuracy-nan", "accuracy-inf", "accuracy-above-1", "accuracy-below-0",
            "unequal-repeats", "repeats-reordered", "repeat-duplicated", "repeat-gap",
            "repeat-negative",
        ],
    )
    def test_malformed_record_rejected(self, tmp_path, body, where):
        path = tmp_path / "results.csv"
        path.write_text(body)
        with pytest.raises(SchemaError, match=f"results.csv{where}"):
            load_results(path)

    def test_blank_lines_in_a_record_are_skipped(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_text("method,repeat,accuracy\nA,0,0.5\n\n  \nA,1,0.75\n\n")
        table = load_results(path)
        assert table.accuracies == {"A": (0.5, 0.75)}

    def test_reports_are_byte_deterministic(self, tmp_path):
        spec = _spec(tmp_path / "stream", (OPIDE, BASE_A), repeats=3, seed=4)
        paths = []
        for name in ("a", "b"):
            table = run_experiment(spec)
            paths.append(emit_report(table, tmp_path / name))
        assert (paths[0][0].read_bytes() == paths[1][0].read_bytes())
        assert (paths[0][1].read_bytes() == paths[1][1].read_bytes())

    def test_methods_are_the_accuracy_keys_in_order(self, tmp_path):
        methods = ("B", "A", "C")
        table = build_table(methods, {"A": [0.5], "B": [0.6], "C": [0.7]}, seed=0)
        assert table.methods == methods == tuple(table.accuracies)
        _, csv_path = emit_report(table, tmp_path)
        reloaded = load_results(csv_path)
        assert reloaded.methods == methods == tuple(reloaded.accuracies)

    def test_failed_write_keeps_the_old_report(self, tmp_path, monkeypatch):
        # opid report --out can rewrite the record it read: a write that
        # fails midway leaves the old file as it was, and no temporary file
        _, csv_path = emit_report(build_table(("A",), {"A": [0.5]}, seed=0), tmp_path)
        report_path = tmp_path / "report.txt"
        old = report_path.read_bytes()

        def full_disk(table):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(harness, "format_report", full_disk)
        with pytest.raises(OSError, match="No space left"):
            emit_report(build_table(("A",), {"A": [0.75]}, seed=0), tmp_path)
        assert sorted(f.name for f in tmp_path.iterdir()) == ["report.txt", "results.csv"]
        assert report_path.read_bytes() == old
        assert load_results(csv_path).accuracies == {"A": (0.75,)}

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
