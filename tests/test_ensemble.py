from __future__ import annotations

import numpy as np
import pytest

from opid.ensemble import (
    WEIGHT_GRID,
    EnsembleModel,
    LogisticModel,
    predict_ensemble,
    train_ensemble,
    train_logistic,
    train_ovr,
)
from opid.estage import StackedTrainSet, predict_unified
from opid.model import CStageModel, EStageModel, SchemaError, one_hot_encode

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
        v0 = train_logistic(x, y, alpha=1.0, tol=1e-6)
        v1 = train_logistic(x, y, alpha=1.0, tol=1e-6, init=rng.standard_normal(4))
        assert np.abs(v0 - v1).max() <= 1e-5

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            train_logistic(np.zeros((2, 1)), np.array([1.0, -1.0]), alpha=0.0)


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

    def test_probabilities_in_unit_interval(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((30, 3))
        labels = one_hot_encode(rng.integers(0, 2, 30), 2)
        model = train_ovr(x, labels, alpha=1.0)
        p = model.proba(rng.standard_normal((20, 3)) * 10)
        assert ((p > 0) & (p < 1)).all()


def _stacked_with_noise_augmented(rng, n=60, c=3, d_a=8, noise=1.0):
    """Compressed block carries the signal; augmented block is pure noise."""
    centers = 2.5 * np.eye(c)
    labels_idx = rng.integers(0, c, size=n)
    z_base = centers[labels_idx] + noise * rng.standard_normal((n, c))
    z_joint = np.hstack([z_base, rng.standard_normal((n, d_a))])
    return StackedTrainSet(z_joint=z_joint, labels=one_hot_encode(labels_idx, c))


class TestTrainEnsemble:
    def test_too_many_folds_rejected(self):
        rng = np.random.default_rng(7)
        data = _stacked_with_noise_augmented(rng, n=4)
        with pytest.raises(ValueError):
            train_ensemble(data, folds=5)

    def test_grid_contains_both_endpoints(self):
        assert WEIGHT_GRID[0] == 0.0 and WEIGHT_GRID[-1] == 1.0

    def test_noise_augmented_block_pushes_weight_to_base(self):
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            data = _stacked_with_noise_augmented(rng, n=60, noise=1.2)
            model = train_ensemble(data, folds=5)
            hits += model.w_base >= 0.5
        assert hits > 10

    def test_weights_on_simplex(self):
        rng = np.random.default_rng(8)
        data = _stacked_with_noise_augmented(rng)
        model = train_ensemble(data, folds=5)
        assert model.w_base + model.w_joint == pytest.approx(1.0, abs=1e-15)
        assert 0.0 <= model.w_base <= 1.0


class TestPredictEnsemble:
    def _setup(self, seed=9, w_base=0.5):
        rng = np.random.default_rng(seed)
        cmodel = CStageModel(np.zeros((6, 3)), rng.standard_normal((4, 3)))
        # 4 survived then 2 augmented columns
        x = np.hstack([rng.standard_normal((25, 4)), rng.standard_normal((25, 2))])
        clf_base = LogisticModel(coef=rng.standard_normal((3, 3)))
        clf_joint = LogisticModel(coef=rng.standard_normal((5, 3)))
        emodel = EnsembleModel(clf_base, clf_joint, w_base, 1.0 - w_base)
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
            emodel = EnsembleModel(member, member, w, 1.0 - w)
            z = x @ cmodel.coef_survived
            np.testing.assert_array_equal(predict_ensemble(x, cmodel, emodel), member.predict(z))



@pytest.mark.parametrize(
    "predict, model",
    [
        (predict_unified, EStageModel(np.zeros((3, 3)), np.zeros((5, 3)), 0.5, 0.5)),
        (
            predict_ensemble,
            EnsembleModel(
                LogisticModel(np.zeros((3, 3))), LogisticModel(np.zeros((5, 3))), 0.5, 0.5
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
