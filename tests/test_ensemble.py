from __future__ import annotations

import numpy as np
import pytest

from opid import ensemble
from opid import model as model_module
from opid.ensemble import (
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    WEIGHT_GRID,
    EnsembleModel,
    LogisticModel,
    SolverError,
    predict_ensemble,
    train_ensemble,
    train_logistic,
    train_ovr,
)
from opid.estage import predict_unified
from opid.model import (
    CStageModel,
    EStageModel,
    NumericError,
    SchemaError,
    argmax_decode,
    class_signs,
    one_hot_encode,
)

import oracles


def separable_binary(rng, n=40, d=2, margin=2.0):
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    x = rng.standard_normal((n, d)) * 0.3
    x[:, 0] += margin * y
    return x, y


class TestTrainLogistic:
    def test_zero_features_give_zero_coefficients(self):
        x = np.zeros((5, 3))
        y = np.ones(5)
        np.testing.assert_array_equal(train_logistic(x, y, alpha=1.0), np.zeros(3))

    def test_finite_difference_gradient_at_solution(self):
        rng = np.random.default_rng(0)
        x, y = separable_binary(rng)
        v = train_logistic(x, y, alpha=1.0)
        grad = oracles.finite_diff_gradient(
            lambda p: oracles.logistic_objective_loops(p, x, y, 1.0), v, eps=1e-6
        )
        assert np.abs(grad).max() <= 1e-5

    def test_descends_below_origin_objective(self):
        rng = np.random.default_rng(1)
        x, y = separable_binary(rng)
        v = train_logistic(x, y, alpha=2.0)
        assert oracles.logistic_objective_loops(v, x, y, 2.0) <= oracles.logistic_objective_loops(
            np.zeros(2), x, y, 2.0
        )

    def test_restarts_agree(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((30, 4))
        y = np.where(rng.random(30) < 0.5, 1.0, -1.0)
        v0 = train_logistic(x, y, alpha=1.0)
        v1 = train_logistic(x, y, alpha=1.0, init=rng.standard_normal(4))
        assert np.abs(v0 - v1).max() <= 1e-5

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            train_logistic(np.zeros((2, 1)), np.array([1.0, -1.0]), alpha=0.0)

    @pytest.mark.parametrize("alpha", [-1.0, 0.0, np.nan, np.inf, "1", None, True])
    def test_bad_alpha_is_a_schema_error(self, alpha):
        # nan and inf used to reach the Newton solve; inf warned on the way
        x, y = separable_binary(np.random.default_rng(0), n=6)
        with pytest.raises(SchemaError, match="loss weight must be > 0 and finite"):
            train_logistic(x, y, alpha=alpha)
        # a single class present makes a constant classifier, checked all the same
        for labels in (one_hot_encode((y > 0).astype(int), 2), one_hot_encode([1] * 6, 3)):
            with pytest.raises(SchemaError, match="loss weight"):
                train_ovr(x, labels, alpha=alpha)

    def test_empty_training_set_is_a_schema_error(self):
        with pytest.raises(SchemaError, match="at least one instance"):
            train_logistic(np.zeros((0, 2)), np.zeros(0), alpha=1.0)

    def test_features_that_are_not_a_matrix_rejected(self):
        with pytest.raises(SchemaError, match="features must be 2-D, got 1-D"):
            train_logistic(np.zeros(4), np.ones(4), alpha=1.0)

    def test_labels_of_another_length_rejected(self):
        with pytest.raises(SchemaError, match=r"labels have shape \(3,\), expected \(4,\)"):
            train_logistic(np.zeros((4, 2)), np.ones(3), alpha=1.0)

    def test_exhausted_iteration_budget_raises(self, monkeypatch):
        # one Newton step from zero does not reach the tolerance on this task
        monkeypatch.setattr(ensemble, "NEWTON_MAX_ITER", 1)
        x, y = separable_binary(np.random.default_rng(0))
        with pytest.raises(SolverError, match="within 1 iterations"):
            train_logistic(x, y, alpha=1.0)

    def test_a_fixed_point_raises_without_spending_the_budget(self, monkeypatch):
        # a line search that returns the current point bit for bit at the
        # first step from zeros, where Newton's predicted decrease is far above
        # the objective's rounding: every later iteration would repeat it
        # until the budget runs out
        steps = []
        monkeypatch.setattr(ensemble, "_armijo_step",
                            lambda x, y, alpha, v, f, *_: steps.append(1) or (v, y * (x @ v), f))
        x, y = separable_binary(np.random.default_rng(0))
        message = f"no convergence to gradient norm {NEWTON_TOL} within {NEWTON_MAX_ITER} iterations"
        with pytest.raises(SolverError) as raised:
            train_logistic(x, y, alpha=1.0)
        assert str(raised.value) == message and NEWTON_MAX_ITER == 500
        assert len(steps) == 1

    def test_a_fixed_point_optimal_to_working_precision_returns(self):
        # task 279 of a seeded sweep (n 198, d 36, alpha 0.52): at gradient
        # norm 1.4e-6 its Armijo step returns the current point bit for bit,
        # and Newton's predicted decrease there, half of grad^T H^-1 grad, is
        # below eps |f|, the rounding of the objective
        rng = np.random.default_rng(1)
        for _ in range(280):
            n, d = rng.integers(2, 201), rng.integers(1, 121)
            scale, alpha = 10 ** rng.uniform(0, 1.5), 10 ** rng.uniform(-0.5, 1)
            x = rng.standard_normal((n, d)) * scale
            y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        assert (n, d, round(alpha, 2)) == (198, 36, 0.52)
        v = train_logistic(x, y, alpha)
        t = y * (x @ v)
        slack = 1.0 / (1.0 + np.exp(t))
        grad = v - alpha * (x.T @ (y * slack))
        hess = np.eye(d) + alpha * (x.T * (slack * (1.0 - slack))) @ x
        f = 0.5 * v @ v + alpha * np.logaddexp(0.0, -t).sum()
        assert np.linalg.norm(grad) > NEWTON_TOL
        assert 0.5 * grad @ np.linalg.solve(hess, grad) <= np.finfo(float).eps * abs(f)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_feature_raises_before_lapack(monkeypatch, bad):
    def no_lapack(*args, **kwargs):
        raise AssertionError("LAPACK called on a non-finite system")

    monkeypatch.setattr(model_module, "dpotrf", no_lapack)
    monkeypatch.setattr(model_module, "dpotrs", no_lapack)
    x, y = separable_binary(np.random.default_rng(0), n=8)
    x[3, 1] = bad
    with pytest.raises(NumericError, match="Newton system solve failed: .*non-finite"):
        train_logistic(x, y, alpha=1.0)


class TestTrainLogisticMatchesTheStepByStepLoop:
    """``train_logistic`` returns the bits of the Newton loop written out step
    by step (``oracles.newton_logistic_loop``)."""

    @staticmethod
    def _assert_same_fit(x, y, alpha, init=None):
        got = train_logistic(x, y, alpha, init=init)
        ref, _, halvings = oracles.newton_logistic_loop(
            x, y, alpha, init, NEWTON_TOL, NEWTON_MAX_ITER
        )
        assert np.array_equal(got, ref)
        return halvings

    @pytest.mark.parametrize("with_init", [False, True], ids=["zeros", "init"])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
    def test_random_tasks(self, alpha, with_init):
        rng = np.random.default_rng(30)
        for _ in range(4):
            # a column slice, as the base member's compressed columns are passed
            x = rng.standard_normal((40, 6))[:, :4]
            y = np.where(x[:, 0] + 0.5 * rng.standard_normal(40) > 0, 1.0, -1.0)
            init = 3.0 * rng.standard_normal(4) if with_init else None
            self._assert_same_fit(x, y, alpha, init)

    def test_a_fit_that_backtracks(self):
        # from a far start the full Newton step overshoots and is halved
        rng = np.random.default_rng(4)
        x = rng.standard_normal((40, 4))
        y = np.where(x[:, 0] + 0.5 * rng.standard_normal(40) > 0, 1.0, -1.0)
        assert self._assert_same_fit(x, y, 3.0, 3.0 * rng.standard_normal(4)) > 0

    def test_zero_features(self):
        self._assert_same_fit(np.zeros((5, 3)), np.array([1.0, -1.0, 1.0, 1.0, -1.0]), 1.0)


class TestTrainOvr:
    def test_binary_tasks_mirror_single_model(self):
        rng = np.random.default_rng(3)
        x, y_pm = separable_binary(rng, n=50)
        labels = one_hot_encode((y_pm > 0).astype(int), 2)
        model = train_ovr(x, labels, alpha=1.0)
        single = train_logistic(x, y_pm, alpha=1.0)
        x_new = rng.standard_normal((30, 2))
        np.testing.assert_array_equal(model.predict(x_new), (x_new @ single > 0).astype(int))

    def test_each_class_meets_solver_contract(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((40, 3))
        labels = one_hot_encode(rng.integers(0, 3, 40), 3)
        model = train_ovr(x, labels, alpha=0.7)
        for cls in range(3):
            y_pm = np.where(labels[:, cls] > 0, 1.0, -1.0)
            grad = oracles.finite_diff_gradient(
                lambda p: oracles.logistic_objective_loops(p, x, y_pm, 0.7),
                model.coef[:, cls],
            )
            assert np.abs(grad).max() <= 1e-4

    def test_single_class_fold_yields_constant_classifier(self, caplog):
        x = np.random.default_rng(5).standard_normal((6, 2))
        labels = one_hot_encode([1] * 6, 3)
        with caplog.at_level("WARNING"):
            model = train_ovr(x, labels, alpha=1.0)
        assert model.constant_class == 1
        np.testing.assert_array_equal(model.predict(x), np.ones(6))
        assert "constant classifier" in caplog.text
        np.testing.assert_array_equal(model.proba(x), one_hot_encode([1] * 6, 3))

    def test_single_column_of_labels_rejected(self):
        with pytest.raises(SchemaError, match="need at least two classes, got 1"):
            train_ovr(np.zeros((3, 2)), np.ones((3, 1)), alpha=1.0)

    def test_predict_decodes_the_margins(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((30, 4))
        fitted = LogisticModel(coef=rng.standard_normal((4, 3)))
        np.testing.assert_array_equal(fitted.predict(x), argmax_decode(x @ fitted.coef))
        # both sigmoids saturate to 1.0; only the margins tell class 1 wins
        saturated = LogisticModel(coef=np.array([[40.0, 50.0]]))
        assert (saturated.proba(np.ones((1, 1))) == 1.0).all()
        np.testing.assert_array_equal(saturated.predict(np.ones((1, 1))), [1])

    def test_probabilities_in_unit_interval(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((30, 3))
        labels = one_hot_encode(rng.integers(0, 2, 30), 2)
        model = train_ovr(x, labels, alpha=1.0)
        p = model.proba(rng.standard_normal((20, 3)) * 10)
        assert ((p > 0) & (p < 1)).all()


class TestTrainOvrSharesTheFirstStep:
    """``train_ovr`` takes every class's first Newton step with one Hessian
    and one solve; column k still has the bits of ``train_logistic`` on
    class k's task."""

    @staticmethod
    def _assert_columns_are_single_fits(x, labels, alpha):
        coef = train_ovr(x, labels, alpha).coef
        for cls in range(labels.shape[1]):
            assert np.array_equal(coef[:, cls], train_logistic(x, class_signs(labels, cls), alpha))
        return coef

    @staticmethod
    def _paired_task(rng, scale, nudge):
        # the second half repeats the first half's rows with other classes,
        # so class 0's gradient at zero cancels, up to a nudge of one row
        half = scale * rng.standard_normal((12, 3))
        x = np.vstack([half, half])
        x[11, 0] += nudge
        return x, one_hot_encode(np.concatenate([np.zeros(12, int), rng.integers(1, 3, 12)]), 3)

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 10.0])
    def test_random_tasks(self, alpha):
        rng = np.random.default_rng(33)
        for c in (2, 3, 5):
            for _ in range(4):
                d = int(rng.integers(1, 30))
                # a column slice, as the base member's compressed columns are passed
                x = rng.standard_normal((60, d + 2))[:, :d]
                idx = rng.integers(0, c, 60)
                x[:, 0] += idx
                self._assert_columns_are_single_fits(x, one_hot_encode(idx, c), alpha)

    def test_class_converged_at_zero(self):
        x, labels = self._paired_task(np.random.default_rng(0), 1.0, 0.0)
        coef = self._assert_columns_are_single_fits(x, labels, 1.0)
        assert not coef[:, 0].any() and coef[:, 1:].all()

    def test_no_solve_when_every_class_is_converged_at_zero(self, monkeypatch):
        def no_lapack(*args, **kwargs):
            raise AssertionError("a Newton system was solved")

        monkeypatch.setattr(model_module, "dpotrf", no_lapack)
        coef = train_ovr(np.zeros((6, 2)), one_hot_encode([0, 1, 2, 0, 1, 2], 3), 1.0).coef
        np.testing.assert_array_equal(coef, np.zeros((2, 3)))

    def test_first_steps_that_backtrack(self, monkeypatch):
        # The quadratic model at zero bounds the objective from above, so the
        # unit step from zero fails Armijo's test only by rounding: here the
        # nudged class's decrease is far below the objective's last bit.
        backtracked, real_step = [], ensemble._armijo_step

        def recording(x, y, alpha, v, f, grad, direction):
            out = real_step(x, y, alpha, v, f, grad, direction)
            if not v.any():
                backtracked.append(not np.array_equal(out[0], v - direction))
            return out

        monkeypatch.setattr(ensemble, "_armijo_step", recording)
        for seed in range(8):
            self._assert_columns_are_single_fits(
                *self._paired_task(np.random.default_rng(seed), 1e3, 3e-6), 1.0
            )
        assert any(backtracked)

    def test_one_factorization_for_the_first_steps(self, monkeypatch):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((50, 4))
        labels = one_hot_encode(rng.integers(0, 4, 50), 4)
        calls, real_dpotrf = [], model_module.dpotrf

        def counted(*args, **kwargs):
            calls.append(None)
            return real_dpotrf(*args, **kwargs)

        monkeypatch.setattr(model_module, "dpotrf", counted)
        train_ovr(x, labels, 1.0)
        shared = len(calls)
        calls.clear()
        for cls in range(4):
            train_logistic(x, class_signs(labels, cls), 1.0)
        assert len(calls) - shared == 4 - 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_feature_raises_before_lapack(self, monkeypatch, bad):
        def no_lapack(*args, **kwargs):
            raise AssertionError("LAPACK called on a non-finite system")

        monkeypatch.setattr(model_module, "dpotrf", no_lapack)
        x = np.random.default_rng(0).standard_normal((9, 2))
        x[3, 1] = bad
        with pytest.raises(NumericError, match="Newton system solve failed: .*non-finite"):
            train_ovr(x, one_hot_encode(np.arange(9) % 3, 3), 1.0)

    def test_labels_of_another_length_rejected(self):
        with pytest.raises(SchemaError, match=r"labels have shape \(3,\), expected \(4,\)"):
            train_ovr(np.zeros((4, 2)), one_hot_encode([0, 1, 0], 2), 1.0)


def _stacked_with_noise_augmented(rng, n=60, c=3, d_a=8, noise=1.0):
    """Compressed block carries the signal; augmented block is pure noise."""
    centers = 2.5 * np.eye(c)
    labels_idx = rng.integers(0, c, size=n)
    z_base = centers[labels_idx] + noise * rng.standard_normal((n, c))
    z = np.hstack([z_base, rng.standard_normal((n, d_a))])
    return z, one_hot_encode(labels_idx, c)


class TestTrainEnsemble:
    def test_too_many_folds_rejected(self):
        rng = np.random.default_rng(7)
        z, labels = _stacked_with_noise_augmented(rng, n=4)
        with pytest.raises(ValueError):
            train_ensemble(z, labels, folds=5)

    @pytest.mark.parametrize("alpha", [np.nan, 0.0, np.inf, "1", None, True])
    def test_bad_alpha_is_a_schema_error(self, alpha):
        z, labels = _stacked_with_noise_augmented(np.random.default_rng(7), n=20)
        # single-class data, whose members are constant classifiers, too
        for y in (labels, one_hot_encode([2] * 20, 3)):
            with pytest.raises(SchemaError, match="loss weight"):
                train_ensemble(z, y, alpha=alpha)

    @pytest.mark.parametrize("z_shape, labels_shape", [
        ((10, 2), (10, 3)),  # labels wider than the block
        ((10, 5), (9, 3)),  # unequal row counts
        ((10,), (10, 3)),
    ])
    def test_labels_that_do_not_fit_the_block_rejected(self, z_shape, labels_shape):
        with pytest.raises(SchemaError, match="do not fit a joint block"):
            train_ensemble(np.zeros(z_shape), np.zeros(labels_shape), folds=2)

    def test_one_fold_is_a_schema_error(self):
        z, labels = _stacked_with_noise_augmented(np.random.default_rng(7), n=20)
        with pytest.raises(SchemaError, match="at least 2 folds"):
            train_ensemble(z, labels, folds=1)
        # a fold count is an int, as in ExperimentSpec; a numpy integer is one
        for folds in (2.5, 2.0, "5"):
            with pytest.raises(SchemaError, match=f"folds must be an int, got {folds!r}"):
                train_ensemble(z, labels, folds=folds)
        assert train_ensemble(z, labels, folds=np.int64(5)).w_base == \
            train_ensemble(z, labels, folds=5).w_base

    def test_grid_contains_both_endpoints(self):
        assert WEIGHT_GRID[0] == 0.0 and WEIGHT_GRID[-1] == 1.0

    def test_noise_augmented_block_pushes_weight_to_base(self):
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            z, labels = _stacked_with_noise_augmented(rng, n=60, noise=1.2)
            model = train_ensemble(z, labels, folds=5)
            hits += model.w_base >= 0.5
        assert hits > 10

    def test_weights_on_simplex(self):
        rng = np.random.default_rng(8)
        model = train_ensemble(*_stacked_with_noise_augmented(rng), folds=5)
        assert model.w_base + model.w_joint == pytest.approx(1.0, abs=1e-15)
        assert 0.0 <= model.w_base <= 1.0

    def test_weight_matches_naive_fold_loop(self):
        rng = np.random.default_rng(21)
        z, labels = _stacked_with_noise_augmented(rng, n=45, noise=1.5)
        c, folds = labels.shape[1], 3
        scores = np.zeros(WEIGHT_GRID.size)
        for val in np.array_split(np.arange(z.shape[0]), folds):
            z_tr, y_tr = np.delete(z, val, axis=0), np.delete(labels, val, axis=0)
            p_base = train_ovr(z_tr[:, :c], y_tr, 1.0).proba(z[val, :c])
            p_joint = train_ovr(z_tr, y_tr, 1.0).proba(z[val])
            truth = labels[val].argmax(axis=1)
            for i, w in enumerate(WEIGHT_GRID):
                pred = np.argmax(w * p_base + (1.0 - w) * p_joint, axis=1)
                scores[i] += np.mean(pred == truth)
        # not all tied: the maximum is shared by w_base 0.3 and 0.4, and the first wins
        assert np.unique(scores).size > 1
        model = train_ensemble(z, labels, folds=folds)
        assert model.w_base == WEIGHT_GRID[np.argmax(scores)]
        np.testing.assert_array_equal(model.clf_base.coef, train_ovr(z[:, :c], labels, 1.0).coef)
        np.testing.assert_array_equal(model.clf_joint.coef, train_ovr(z, labels, 1.0).coef)


    def test_fold_decisions_equal_a_decision_per_weight(self):
        rng = np.random.default_rng(21)
        z, labels = _stacked_with_noise_augmented(rng, n=45, noise=1.5)
        c, z_tr, y_tr, z_val = labels.shape[1], z[:30], labels[:30], z[30:]
        base, joint = ensemble._fit_members(z_tr, y_tr, 1.0)
        p_base, p_joint = base.proba(z_val[:, :c]), joint.proba(z_val)
        expected = [argmax_decode(w * p_base + (1.0 - w) * p_joint) for w in (*WEIGHT_GRID, 0.5)]
        assert len({tuple(e) for e in expected}) > 1
        got = ensemble._fold_decisions(z_tr, y_tr, z_val, 1.0, WEIGHT_GRID)
        assert got.shape == (WEIGHT_GRID.size, z_val.shape[0])
        np.testing.assert_array_equal(got, expected[:-1])
        # the harness's loss-weight search asks for the one weight 0.5
        np.testing.assert_array_equal(
            ensemble._fold_decisions(z_tr, y_tr, z_val, 1.0, (0.5,)), expected[-1:]
        )

    def test_fold_decisions_reject_a_non_finite_probability(self):
        z, labels = _stacked_with_noise_augmented(np.random.default_rng(21), n=45)
        z_val = z[30:].copy()
        z_val[2, 0] = np.nan
        with pytest.raises(NumericError, match="non-finite"):
            ensemble._fold_decisions(z[:30], labels[:30], z_val, 1.0, WEIGHT_GRID)

class TestPredictEnsemble:
    def _setup(self, seed=9, w_base=0.5):
        rng = np.random.default_rng(seed)
        cmodel = CStageModel(np.zeros((6, 3)), rng.standard_normal((4, 3)))
        # 4 survived then 2 augmented columns
        x = np.hstack([rng.standard_normal((25, 4)), rng.standard_normal((25, 2))])
        clf_base = LogisticModel(coef=rng.standard_normal((3, 3)))
        clf_joint = LogisticModel(coef=rng.standard_normal((5, 3)))
        emodel = EnsembleModel(clf_base, clf_joint, w_base)
        return cmodel, x, emodel, clf_base, clf_joint

    def test_full_base_weight_matches_base_member(self):
        cmodel, x, emodel, clf_base, _ = self._setup(w_base=1.0)
        z = x[:, :4] @ cmodel.coef_survived
        np.testing.assert_array_equal(predict_ensemble(x, cmodel, emodel), clf_base.predict(z))

    def test_full_joint_weight_matches_joint_member(self):
        cmodel, x, emodel, _, clf_joint = self._setup(w_base=0.0)
        z = x[:, :4] @ cmodel.coef_survived
        z_joint = np.hstack([z, x[:, 4:]])
        np.testing.assert_array_equal(
            predict_ensemble(x, cmodel, emodel), clf_joint.predict(z_joint)
        )

    def test_identical_members_any_weight(self):
        rng = np.random.default_rng(10)
        cmodel = CStageModel(np.zeros((6, 3)), rng.standard_normal((4, 3)))
        x = rng.standard_normal((15, 4))
        # with no augmented block both members see the same inputs
        coef = rng.standard_normal((3, 3))
        member = LogisticModel(coef=coef)
        for w in (0.0, 0.3, 1.0):
            emodel = EnsembleModel(member, member, w)
            z = x @ cmodel.coef_survived
            np.testing.assert_array_equal(predict_ensemble(x, cmodel, emodel), member.predict(z))

    @pytest.mark.parametrize("constant_base", [False, True], ids=["fitted", "constant"])
    @pytest.mark.parametrize("w_base", [0.0, 0.3, 0.5, 1.0])
    def test_equals_the_written_out_vote(self, w_base, constant_base):
        cmodel, x, emodel, clf_base, clf_joint = self._setup(seed=13, w_base=w_base)
        if constant_base:
            clf_base = LogisticModel(coef=np.zeros((3, 3)), constant_class=1)
            emodel = EnsembleModel(clf_base, clf_joint, w_base)
        z = np.hstack([x[:, :4] @ cmodel.coef_survived, x[:, 4:]])
        combined = w_base * clf_base.proba(z[:, :3])
        combined += (1.0 - w_base) * clf_joint.proba(z)
        np.testing.assert_array_equal(predict_ensemble(x, cmodel, emodel), argmax_decode(combined))

    @pytest.mark.parametrize("w_base", [np.nan, -0.2, 1.5])
    def test_base_weight_outside_unit_interval_rejected(self, w_base):
        member = LogisticModel(coef=np.zeros((3, 3)))
        with pytest.raises(SchemaError, match="weight"):
            EnsembleModel(member, member, w_base)



@pytest.mark.parametrize(
    "predict, model",
    [
        (predict_unified, EStageModel(np.zeros((5, 3)))),
        (
            predict_ensemble,
            EnsembleModel(
                LogisticModel(np.zeros((3, 3))), LogisticModel(np.zeros((5, 3))), 0.5
            ),
        ),
    ],
    ids=["unified", "ensemble"],
)
def test_predictors_reject_a_mismatched_augmented_width(predict, model):
    # both models take 3 compressed + 2 augmented columns; survived width is 4
    cmodel = CStageModel(np.zeros((6, 3)), np.ones((4, 3)))
    assert predict(np.ones((5, 4 + 2)), cmodel, model).shape == (5,)
    for augmented in (1, 3):
        with pytest.raises(SchemaError, match="model expects"):
            predict(np.ones((5, 4 + augmented)), cmodel, model)
