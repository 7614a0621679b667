from __future__ import annotations

import numpy as np
import pytest

from opid.cstage import absorb_batch, init_stats, solve_model
from opid.estage import (
    StackedTrainSet,
    build_stacked,
    fit_unified,
    load_emodel,
    objective_value,
    predict_unified,
    WEIGHT_FLOOR,
    save_emodel,
    update_coefficients,
    update_weights,
)
from opid.ingest import SynthConfig, generate_synthetic
from opid.model import (
    Batch,
    CStageModel,
    EStageModel,
    FeatureSchema,
    Hyperparams,
    NumericError,
    SchemaError,
    one_hot_encode,
)

import oracles


def random_stacked(rng, n=20, c=3, d_a=4):
    z_base = rng.standard_normal((n, c))
    z_joint = np.hstack([z_base, rng.standard_normal((n, d_a))])
    labels = one_hot_encode(rng.integers(0, c, size=n), c)
    return StackedTrainSet(z_joint=z_joint, labels=labels)


class TestBuildStacked:
    def test_zero_survived_coefficients(self):
        cmodel = CStageModel(np.zeros((5, 2)), np.zeros((3, 2)))
        batch = Batch.estage(
            np.ones((4, 3)), np.arange(8.0).reshape(4, 2), one_hot_encode([0, 1, 0, 1], 2)
        )
        data = build_stacked(batch, cmodel)
        np.testing.assert_array_equal(data.z_base, np.zeros((4, 2)))
        np.testing.assert_array_equal(data.z_joint[:, 2:], batch.augmented)

    def test_empty_augmented_block(self):
        rng = np.random.default_rng(0)
        cmodel = CStageModel(np.zeros((5, 2)), rng.standard_normal((3, 2)))
        batch = Batch.estage(
            rng.standard_normal((4, 3)), np.zeros((4, 0)), one_hot_encode([0, 1, 0, 1], 2)
        )
        data = build_stacked(batch, cmodel)
        np.testing.assert_array_equal(data.z_joint, data.z_base)

    def test_leading_columns_identical(self):
        rng = np.random.default_rng(1)
        cmodel = CStageModel(np.zeros((5, 3)), rng.standard_normal((4, 3)))
        batch = Batch.estage(
            rng.standard_normal((6, 4)), rng.standard_normal((6, 2)),
            one_hot_encode(rng.integers(0, 3, 6), 3),
        )
        data = build_stacked(batch, cmodel)
        assert np.array_equal(data.z_joint[:, :3], data.z_base)

    def test_rejects_cstage_batch(self):
        cmodel = CStageModel(np.zeros((5, 2)), np.zeros((3, 2)))
        batch = Batch.cstage(np.zeros((2, 2)), np.zeros((2, 3)), one_hot_encode([0, 1], 2))
        with pytest.raises(SchemaError):
            build_stacked(batch, cmodel)


class TestUpdateCoefficients:
    def test_zero_labels_give_zero_coefficients(self):
        rng = np.random.default_rng(2)
        data = random_stacked(rng)
        zeroed = StackedTrainSet(z_joint=data.z_joint, labels=np.zeros_like(data.labels))
        v_base, v_joint = update_coefficients(zeroed, 0.5, 0.5, gamma=1.0)
        np.testing.assert_allclose(v_base, 0.0, atol=1e-12)
        np.testing.assert_allclose(v_joint, 0.0, atol=1e-12)

    def test_matches_descent_oracle(self):
        rng = np.random.default_rng(3)
        data = random_stacked(rng, n=20, c=3, d_a=4)
        v_base, v_joint = update_coefficients(data, 0.5, 0.5, gamma=1.0)
        ref_base, ref_joint = oracles.gd_minimize_stacked(
            data.z_base, data.z_joint, data.labels, 0.5, 0.5, gamma=1.0
        )
        np.testing.assert_allclose(v_base, ref_base, atol=1e-6)
        np.testing.assert_allclose(v_joint, ref_joint, atol=1e-6)

    def test_finite_difference_stationarity(self):
        rng = np.random.default_rng(4)
        data = random_stacked(rng, n=20, c=3, d_a=4)
        v_base, v_joint = update_coefficients(data, 0.5, 0.5, gamma=1.0)
        shapes = (v_base.shape, v_joint.shape)
        split = v_base.size

        def flat_objective(flat):
            vb = flat[:split].reshape(shapes[0])
            vj = flat[split:].reshape(shapes[1])
            return oracles.stacked_objective(
                data.z_base, data.z_joint, data.labels, vb, vj, 0.5, 0.5, 1.0
            )

        grad = oracles.finite_diff_gradient(
            flat_objective, np.concatenate([v_base.ravel(), v_joint.ravel()])
        )
        assert np.abs(grad).max() <= 1e-4

    @pytest.mark.parametrize(
        "w_base, d_a",
        [(WEIGHT_FLOOR, 4), (1.0 - WEIGHT_FLOOR, 4), (0.3, 0), (WEIGHT_FLOOR, 0)],
    )
    def test_matches_wide_stacked_solve_at_the_extremes(self, w_base, d_a):
        # the reduced k x k solve against the explicit (c + k)-wide one, at the
        # clamped weights and with no augmented columns (k = c)
        rng = np.random.default_rng(17)
        data = random_stacked(rng, n=30, c=3, d_a=d_a)
        w_joint, gamma = 1.0 - w_base, 0.7
        v_base, v_joint = update_coefficients(data, w_base, w_joint, gamma)
        scaled_base, scaled_joint = oracles.sqrt_weighted_stacked_solve(
            data.z_base, data.z_joint, data.labels, w_base, w_joint, gamma
        )
        for got, ref in ((v_base, np.sqrt(w_base) * scaled_base),
                         (v_joint, np.sqrt(w_joint) * scaled_joint)):
            assert np.linalg.norm(got - ref) <= 1e-8 * np.linalg.norm(ref)

    def test_nonpositive_weight_rejected(self):
        rng = np.random.default_rng(5)
        data = random_stacked(rng)
        with pytest.raises(ValueError):
            update_coefficients(data, 0.0, 1.0, gamma=1.0)


class TestUpdateWeights:
    def test_equal_scaled_norms(self):
        v_base = np.full((4, 1), 0.5)  # norm 1, width 4 -> ratio 0.5
        v_joint = np.zeros((16, 1))
        v_joint[0, 0] = 2.0  # norm 2, width 16 -> ratio 0.5
        w_base, w_joint = update_weights(v_base, v_joint)
        assert w_base == pytest.approx(0.5, abs=1e-15)
        assert w_joint == pytest.approx(0.5, abs=1e-15)

    def test_frozen_example(self):
        # norms 2 over width 1 and 1 over width 4: ratios 2 and 0.5
        v_base = np.array([[2.0]])
        v_joint = np.zeros((4, 1))
        v_joint[0, 0] = 1.0
        w_base, w_joint = update_weights(v_base, v_joint)
        assert w_base == pytest.approx(0.8, abs=1e-12)
        assert w_joint == pytest.approx(0.2, abs=1e-12)

    def test_degenerate_all_zero_model(self):
        assert update_weights(np.zeros((3, 3)), np.zeros((5, 3))) == (0.5, 0.5)

    def test_exact_simplex(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            w_base, w_joint = update_weights(
                rng.standard_normal((3, 3)), rng.standard_normal((7, 3))
            )
            assert w_base + w_joint == 1.0
            assert w_base >= 0.0 and w_joint >= 0.0

    def test_beats_fine_grid_and_hits_closed_form_value(self):
        rng = np.random.default_rng(7)
        grid = np.arange(0.001, 1.0, 0.001)
        for _ in range(25):
            v_base = rng.standard_normal((3, 2))
            v_joint = rng.standard_normal((8, 2))
            sq_base = (v_base**2).sum()
            sq_joint = (v_joint**2).sum()
            w_base, _ = update_weights(v_base, v_joint)
            best = oracles.weight_penalty(sq_base, sq_joint, 3, 8, w_base)
            grid_vals = [oracles.weight_penalty(sq_base, sq_joint, 3, 8, w) for w in grid]
            assert best <= min(grid_vals) + 1e-12
            r_sum = np.sqrt(sq_base / 3) + np.sqrt(sq_joint / 8)
            assert best == pytest.approx(r_sum**2, abs=1e-10)


class TestObjectiveValue:
    def test_zero_model_zero_labels(self):
        data = StackedTrainSet(np.zeros((3, 5)), np.zeros((3, 2)))
        model = EStageModel(np.zeros((2, 2)), np.zeros((5, 2)), 0.5, 0.5)
        assert objective_value(data, model, gamma=1.0) == 0.0

    def test_zero_model_reports_label_energy(self):
        labels = one_hot_encode([0, 1, 0], 2)
        data = StackedTrainSet(np.zeros((3, 5)), labels)
        model = EStageModel(np.zeros((2, 2)), np.zeros((5, 2)), 0.5, 0.5)
        assert objective_value(data, model, gamma=1.0) == pytest.approx((labels**2).sum())

    def test_matches_naive_recompute(self):
        rng = np.random.default_rng(8)
        data = random_stacked(rng)
        model = EStageModel(
            rng.standard_normal((3, 3)), rng.standard_normal((7, 3)), 0.3, 0.7
        )
        expected = oracles.stacked_objective(
            data.z_base, data.z_joint, data.labels, model.v_base, model.v_joint, 0.3, 0.7, 2.0
        )
        assert objective_value(data, model, gamma=2.0) == pytest.approx(expected, rel=1e-12)

    def test_zero_weight_with_nonzero_block_is_an_error(self):
        rng = np.random.default_rng(9)
        data = random_stacked(rng)
        model = EStageModel(np.zeros((3, 3)), rng.standard_normal((7, 3)), 1.0, 0.0)
        with pytest.raises(NumericError):
            objective_value(data, model, gamma=1.0)

    def test_zero_weight_with_zero_block_contributes_nothing(self):
        rng = np.random.default_rng(10)
        data = random_stacked(rng)
        model = EStageModel(np.zeros((3, 3)), np.zeros((7, 3)), 1.0, 0.0)
        assert objective_value(data, model, gamma=1.0) == pytest.approx(
            float((data.labels**2).sum())
        )


class TestFitUnified:
    def test_objective_monotone_and_converges(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            data = random_stacked(rng, n=int(rng.integers(10, 40)), c=3, d_a=int(rng.integers(0, 6)))
            state = fit_unified(data, gamma=1.0)
            assert state.converged and state.iterations <= 100
            diffs = np.diff(state.trace)
            assert (diffs <= 1e-9).all()

    def test_final_weights_self_consistent(self):
        rng = np.random.default_rng(12)
        data = random_stacked(rng, n=25, c=3, d_a=5)
        state = fit_unified(data, gamma=0.5)
        w_base, w_joint = update_weights(state.model.v_base, state.model.v_joint)
        assert abs(w_base - state.model.w_base) <= 1e-10
        assert abs(w_joint - state.model.w_joint) <= 1e-10

    def test_mirrored_blocks_keep_equal_weights(self):
        # with no augmented features the joint block equals the compressed
        # block, so the symmetric start stays a fixed point
        rng = np.random.default_rng(13)
        data = random_stacked(rng, n=20, c=3, d_a=0)
        state = fit_unified(data, gamma=1.0)
        assert state.model.w_base == pytest.approx(0.5, abs=1e-12)
        assert state.model.w_joint == pytest.approx(0.5, abs=1e-12)

    def test_coefficient_scaling_maps_between_formulations(self):
        # at fixed weights, the explicitly sqrt-weighted design yields the
        # same minimizer up to the per-block 1/sqrt(w) scale
        rng = np.random.default_rng(14)
        data = random_stacked(rng, n=22, c=3, d_a=4)
        w_base, w_joint, gamma = 0.3, 0.7, 1.3
        v_base, v_joint = update_coefficients(data, w_base, w_joint, gamma)

        scaled_base, scaled_joint = oracles.sqrt_weighted_stacked_solve(
            data.z_base, data.z_joint, data.labels, w_base, w_joint, gamma
        )
        np.testing.assert_allclose(scaled_base, v_base / np.sqrt(w_base), atol=1e-6)
        np.testing.assert_allclose(scaled_joint, v_joint / np.sqrt(w_joint), atol=1e-6)


class TestPredictUnified:
    def _trained_setup(self, gamma=1e-6, seed=21):
        schema = FeatureSchema(vanished=3, survived=5, augmented=3, classes=3)
        cfg = SynthConfig(
            schema=schema, batches=4, batch_size=30, estage_size=30,
            separation=4.0, noise=0.0, seed=seed,
        )
        cbatches, etrain, etest = generate_synthetic(cfg)
        stats = init_stats(schema, Hyperparams(lam=1.0, rho=0.1))
        for b in cbatches:
            absorb_batch(stats, b)
        cmodel = solve_model(stats)
        return cmodel, etrain, etest, gamma

    def test_zero_model_predicts_first_class(self):
        cmodel = CStageModel(np.zeros((5, 3)), np.zeros((3, 3)))
        emodel = EStageModel(np.zeros((3, 3)), np.zeros((5, 3)), 0.5, 0.5)
        batch = Batch.estage(
            np.ones((4, 3)), np.ones((4, 2)), one_hot_encode([1, 2, 1, 0], 3)
        )
        np.testing.assert_array_equal(predict_unified(batch, cmodel, emodel), np.zeros(4))

    def test_collapsed_joint_weight_uses_base_block_only(self):
        rng = np.random.default_rng(15)
        cmodel = CStageModel(np.zeros((5, 3)), rng.standard_normal((3, 3)))
        v_base = rng.standard_normal((3, 3))
        emodel = EStageModel(v_base, np.zeros((5, 3)), 1.0, 0.0)
        batch = Batch.estage(
            rng.standard_normal((6, 3)), rng.standard_normal((6, 2)),
            one_hot_encode(rng.integers(0, 3, 6), 3),
        )
        z = batch.survived @ cmodel.coef_survived
        np.testing.assert_array_equal(
            predict_unified(batch, cmodel, emodel), (z @ v_base).argmax(axis=1)
        )

    def test_separable_instance_fits_training_set(self):
        cmodel, etrain, _, gamma = self._trained_setup()
        emodel = fit_unified(build_stacked(etrain, cmodel), gamma=gamma).model
        pred = predict_unified(etrain, cmodel, emodel)
        assert (pred == etrain.labels.argmax(axis=1)).all()


class TestEModelSnapshot:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(16)
        data = random_stacked(rng)
        state = fit_unified(data, gamma=1.0)
        path = tmp_path / "emodel.npz"
        save_emodel(state.model, path)
        loaded = load_emodel(path)
        np.testing.assert_array_equal(loaded.v_base, state.model.v_base)
        np.testing.assert_array_equal(loaded.v_joint, state.model.v_joint)
        assert loaded.w_base == state.model.w_base
        assert loaded.w_joint == state.model.w_joint
