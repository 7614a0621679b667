from __future__ import annotations

import numpy as np
import pytest

from opid.cstage import absorb_batch, init_stats, solve_model
from opid.estage import (
    FIT_MAX_ITER,
    FIT_TOL,
    JointStats,
    build_stacked,
    fit_unified,
    objective_value,
    predict_unified,
    WEIGHT_FLOOR,
    update_coefficients,
    update_weights,
)
from opid import estage, model as model_module
from opid.ingest import SynthConfig, generate_synthetic
from opid.model import (
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
    """A random n x (c + d_a) joint block and its one-hot labels."""
    z = np.hstack([rng.standard_normal((n, c)), rng.standard_normal((n, d_a))])
    return z, one_hot_encode(rng.integers(0, c, size=n), c)


class TestBuildStacked:
    def test_zero_survived_coefficients(self):
        cmodel = CStageModel(np.zeros((5, 2)), np.zeros((3, 2)))
        augmented = np.arange(8.0).reshape(4, 2)
        x = np.hstack([np.ones((4, 3)), augmented])
        z = build_stacked(x, cmodel)
        assert z.shape == (4, 4)
        np.testing.assert_array_equal(z[:, :2], np.zeros((4, 2)))
        np.testing.assert_array_equal(z[:, 2:], augmented)

    def test_empty_augmented_block(self):
        rng = np.random.default_rng(0)
        cmodel = CStageModel(np.zeros((5, 2)), rng.standard_normal((3, 2)))
        x = rng.standard_normal((4, 3))
        np.testing.assert_array_equal(build_stacked(x, cmodel), x @ cmodel.coef_survived)

    def test_leading_columns_identical(self):
        rng = np.random.default_rng(1)
        cmodel = CStageModel(np.zeros((5, 3)), rng.standard_normal((4, 3)))
        x = np.hstack([rng.standard_normal((6, 4)), rng.standard_normal((6, 2))])
        z = build_stacked(x, cmodel)
        assert np.array_equal(z, np.hstack([x[:, :4] @ cmodel.coef_survived, x[:, 4:]]))

    def test_rejects_features_that_do_not_fit(self):
        # the survived width is 3: two columns cannot be compressed, and the
        # input must be an n x (survived + augmented) matrix
        cmodel = CStageModel(np.zeros((5, 2)), np.zeros((3, 2)))
        for x in (np.zeros((2, 2)), np.zeros(5), np.zeros((2, 5, 1))):
            with pytest.raises(SchemaError):
                build_stacked(x, cmodel)


class TestUpdateCoefficients:
    def test_zero_labels_give_zero_coefficients(self):
        rng = np.random.default_rng(2)
        z, labels = random_stacked(rng)
        v_base, v_joint = update_coefficients(
            JointStats.of(z, np.zeros_like(labels)), 0.5, gamma=1.0
        )
        np.testing.assert_allclose(v_base, 0.0, atol=1e-12)
        np.testing.assert_allclose(v_joint, 0.0, atol=1e-12)

    def test_matches_descent_oracle(self):
        rng = np.random.default_rng(3)
        z, labels = random_stacked(rng, n=20, c=3, d_a=4)
        v_base, v_joint = update_coefficients(JointStats.of(z, labels), 0.5, gamma=1.0)
        ref_base, ref_joint = oracles.gd_minimize_stacked(
            z[:, :3], z, labels, 0.5, 0.5, gamma=1.0
        )
        np.testing.assert_allclose(v_base, ref_base, atol=1e-6)
        np.testing.assert_allclose(v_joint, ref_joint, atol=1e-6)

    def test_finite_difference_stationarity(self):
        rng = np.random.default_rng(4)
        z, labels = random_stacked(rng, n=20, c=3, d_a=4)
        v_base, v_joint = update_coefficients(JointStats.of(z, labels), 0.5, gamma=1.0)
        shapes = (v_base.shape, v_joint.shape)
        split = v_base.size

        def flat_objective(flat):
            vb = flat[:split].reshape(shapes[0])
            vj = flat[split:].reshape(shapes[1])
            return oracles.stacked_objective(z[:, :3], z, labels, vb, vj, 0.5, 0.5, 1.0)

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
        z, labels = random_stacked(rng, n=30, c=3, d_a=d_a)
        w_joint, gamma = 1.0 - w_base, 0.7
        v_base, v_joint = update_coefficients(JointStats.of(z, labels), w_base, gamma)
        scaled_base, scaled_joint = oracles.sqrt_weighted_stacked_solve(
            z[:, :3], z, labels, w_base, w_joint, gamma
        )
        for got, ref in ((v_base, np.sqrt(w_base) * scaled_base),
                         (v_joint, np.sqrt(w_joint) * scaled_joint)):
            assert np.linalg.norm(got - ref) <= 1e-8 * np.linalg.norm(ref)

    def test_nonpositive_weight_rejected(self):
        rng = np.random.default_rng(5)
        z, labels = random_stacked(rng)
        with pytest.raises(ValueError):
            update_coefficients(JointStats.of(z, labels), 0.0, gamma=1.0)

    @pytest.mark.parametrize(
        "w_base, gamma",
        # the joint block's weight is 1 - w_base, so w_base must lie in (0, 1)
        [(np.nan, 1.0), (0.0, 1.0), (1.0, 1.0), (-0.1, 1.0), (1.5, 1.0),
         (0.5, 0.0), (0.5, np.nan), (0.5, np.inf)],
    )
    def test_bad_settings_raise_schema_error(self, w_base, gamma):
        stats = JointStats.of(*random_stacked(np.random.default_rng(5)))
        with pytest.raises(SchemaError):
            update_coefficients(stats, w_base, gamma)


class TestUpdateWeights:
    def test_equal_scaled_norms(self):
        v_base = np.full((4, 1), 0.5)  # norm 1, width 4 -> ratio 0.5
        v_joint = np.zeros((16, 1))
        v_joint[0, 0] = 2.0  # norm 2, width 16 -> ratio 0.5
        w_base = update_weights(v_base, v_joint)
        assert w_base == pytest.approx(0.5, abs=1e-15)
        assert 1.0 - w_base == pytest.approx(0.5, abs=1e-15)

    def test_frozen_example(self):
        # norms 2 over width 1 and 1 over width 4: ratios 2 and 0.5
        v_base = np.array([[2.0]])
        v_joint = np.zeros((4, 1))
        v_joint[0, 0] = 1.0
        w_base = update_weights(v_base, v_joint)
        assert w_base == pytest.approx(0.8, abs=1e-12)
        assert 1.0 - w_base == pytest.approx(0.2, abs=1e-12)

    def test_degenerate_all_zero_model(self):
        assert update_weights(np.zeros((3, 3)), np.zeros((5, 3))) == 0.5

    def test_exact_simplex(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            w_base = update_weights(rng.standard_normal((3, 3)), rng.standard_normal((7, 3)))
            assert 0.0 <= w_base <= 1.0

    def test_beats_fine_grid_and_hits_closed_form_value(self):
        rng = np.random.default_rng(7)
        grid = np.arange(0.001, 1.0, 0.001)
        for _ in range(25):
            v_base = rng.standard_normal((3, 2))
            v_joint = rng.standard_normal((8, 2))
            sq_base = (v_base**2).sum()
            sq_joint = (v_joint**2).sum()
            w_base = update_weights(v_base, v_joint)
            best = oracles.weight_penalty(sq_base, sq_joint, 3, 8, w_base)
            grid_vals = [oracles.weight_penalty(sq_base, sq_joint, 3, 8, w) for w in grid]
            assert best <= min(grid_vals) + 1e-12
            r_sum = np.sqrt(sq_base / 3) + np.sqrt(sq_joint / 8)
            assert best == pytest.approx(r_sum**2, abs=1e-10)


class TestJointStats:
    def test_matches_the_rows(self):
        z, y = random_stacked(np.random.default_rng(16), n=12, c=3, d_a=2)
        stats = JointStats.of(z, y)
        np.testing.assert_array_equal(stats.gram, z.T @ z)
        np.testing.assert_array_equal(stats.zty, z.T @ y)
        assert stats.yy == float((y**2).sum())

    @pytest.mark.parametrize("gram_shape, zty_shape", [
        ((5, 4), (5, 2)),  # gram not square
        ((4, 4), (5, 2)),  # gram and cross-moment disagree on k
        ((2, 2), (2, 3)),  # more classes than joint columns
        ((4,), (4, 2)),
        ((4, 4), (4,)),
    ])
    def test_mismatched_shapes_rejected(self, gram_shape, zty_shape):
        with pytest.raises(SchemaError):
            JointStats(np.zeros(gram_shape), np.zeros(zty_shape), 1.0)

    @pytest.mark.parametrize("z_shape, labels_shape", [
        ((5, 4), (6, 2)),  # unequal row counts
        ((5,), (5, 2)),  # features not 2-D
        ((5, 4), (5,)),  # labels not 2-D
        ((5, 4, 1), (5, 2)),  # features 3-D
        ((5, 2), (5, 3)),  # more classes than joint columns
    ])
    def test_rows_that_do_not_fit_rejected(self, z_shape, labels_shape):
        with pytest.raises(SchemaError, match="do not fit a joint block"):
            JointStats.of(np.zeros(z_shape), np.zeros(labels_shape))


class TestNonFiniteInputs:
    """A nan or inf in the statistics raises :class:`NumericError` where they
    are made, and a ridge that overflows the diagonal raises it before the
    solve; LAPACK never sees a non-finite system."""

    @pytest.fixture(autouse=True)
    def no_lapack(self, monkeypatch):
        def no_lapack(*args, **kwargs):
            raise AssertionError("LAPACK called on a non-finite system")

        monkeypatch.setattr(model_module, "dpotrf", no_lapack)
        monkeypatch.setattr(estage, "dpotrs", no_lapack)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["gram", "zty", "yy"])
    def test_statistics_with_a_non_finite_entry(self, bad, where):
        args = {"gram": np.eye(4), "zty": np.ones((4, 2)), "yy": 1.0}
        if where == "yy":
            args["yy"] = bad
        else:
            args[where][1, 0] = bad
        with pytest.raises(NumericError, match="non-finite"):
            JointStats(**args)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["z", "labels"])
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_rows_with_a_non_finite_entry(self, bad, where):
        z, labels = random_stacked(np.random.default_rng(22))
        {"z": z, "labels": labels}[where][2, 1] = bad
        with pytest.raises(NumericError, match="non-finite"):
            JointStats.of(z, labels)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_ridge_that_overflows_the_diagonal(self):
        stats = JointStats(np.diag([1.7e308, 1.0, 1.0]), np.ones((3, 2)), 1.0)
        # a ridge of about 1e308 overflows the first diagonal entry; gram itself is finite
        for fit in (lambda: update_coefficients(stats, 0.5, 1.5e308),
                    lambda: fit_unified(stats, 1.5e308)):
            with pytest.raises(NumericError, match="stacked ridge solve failed: .*non-finite"):
                fit()


class TestObjectiveValue:
    def test_zero_model_zero_labels(self):
        stats = JointStats.of(np.zeros((3, 5)), np.zeros((3, 2)))
        model = EStageModel(np.zeros((2, 2)), np.zeros((5, 2)), 0.5)
        assert objective_value(stats, model, gamma=1.0) == 0.0

    def test_zero_model_reports_label_energy(self):
        labels = one_hot_encode([0, 1, 0], 2)
        stats = JointStats.of(np.zeros((3, 5)), labels)
        model = EStageModel(np.zeros((2, 2)), np.zeros((5, 2)), 0.5)
        assert objective_value(stats, model, gamma=1.0) == pytest.approx((labels**2).sum())

    def test_matches_naive_recompute(self):
        rng = np.random.default_rng(8)
        z, labels = random_stacked(rng)
        model = EStageModel(rng.standard_normal((3, 3)), rng.standard_normal((7, 3)), 0.3)
        expected = oracles.stacked_objective(
            z[:, :3], z, labels, model.v_base, model.v_joint, 0.3, 0.7, 2.0
        )
        stats = JointStats.of(z, labels)
        assert objective_value(stats, model, gamma=2.0) == pytest.approx(expected, rel=1e-12)

    def test_zero_weight_with_nonzero_block_is_an_error(self):
        rng = np.random.default_rng(9)
        stats = JointStats.of(*random_stacked(rng))
        model = EStageModel(np.zeros((3, 3)), rng.standard_normal((7, 3)), 1.0)
        with pytest.raises(NumericError):
            objective_value(stats, model, gamma=1.0)

    def test_zero_weight_with_zero_block_contributes_nothing(self):
        rng = np.random.default_rng(10)
        z, labels = random_stacked(rng)
        model = EStageModel(np.zeros((3, 3)), np.zeros((7, 3)), 1.0)
        assert objective_value(JointStats.of(z, labels), model, gamma=1.0) == pytest.approx(
            float((labels**2).sum())
        )


    def test_gram_form_matches_row_form_on_ill_scaled_fits(self):
        # The Gram form cancels ‖Y‖² against ⟨u, G u⟩ − 2⟨u, B⟩, so its error
        # scales with ‖Y‖², not with the objective: near-interpolating fits
        # (n at most a few times k, small gamma) bring the objective down to
        # about 1e-8 ‖Y‖². Wider scales or smaller gamma make the k x k solve
        # ill-conditioned enough for scipy to warn.
        rng = np.random.default_rng(18)
        worst = 0.0
        for _ in range(200):
            c, d_a = int(rng.integers(2, 5)), int(rng.integers(0, 8))
            k = c + d_a
            n = int(rng.integers(max(c, k // 2), 3 * k + 2))
            scales = 10.0 ** rng.uniform(-2.0, 2.0, size=k)
            z = rng.standard_normal((n, k)) * scales
            labels = one_hot_encode(rng.integers(0, c, size=n), c)
            gamma = 10.0 ** rng.uniform(-6.0, 0.0)
            stats = JointStats.of(z, labels)
            m = fit_unified(stats, gamma).model
            row_form = oracles.stacked_objective(
                z[:, :c], z, labels, m.v_base, m.v_joint, m.w_base, m.w_joint, gamma
            )
            worst = max(worst, abs(objective_value(stats, m, gamma) - row_form) / stats.yy)
        assert worst <= 1e-10


class TestFitUnified:
    def test_objective_monotone_and_converges(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            z, labels = random_stacked(
                rng, n=int(rng.integers(10, 40)), c=3, d_a=int(rng.integers(0, 6))
            )
            state = fit_unified(JointStats.of(z, labels), gamma=1.0)
            assert state.converged and len(state.trace) <= 100
            diffs = np.diff(state.trace)
            assert (diffs <= 1e-9).all()

    def test_final_trace_value_matches_row_form_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            z, labels = random_stacked(
                rng, n=int(rng.integers(10, 40)), c=3, d_a=int(rng.integers(0, 6))
            )
            state = fit_unified(JointStats.of(z, labels), gamma=0.8)
            m = state.model
            expected = oracles.stacked_objective(
                z[:, :3], z, labels, m.v_base, m.v_joint, m.w_base, m.w_joint, 0.8
            )
            assert state.trace[-1] == pytest.approx(expected, rel=1e-12)

    def test_final_weights_self_consistent(self):
        rng = np.random.default_rng(12)
        state = fit_unified(JointStats.of(*random_stacked(rng, n=25, c=3, d_a=5)), gamma=0.5)
        w_base = update_weights(state.model.v_base, state.model.v_joint)
        assert abs(w_base - state.model.w_base) <= 1e-10
        assert abs((1.0 - w_base) - state.model.w_joint) <= 1e-10

    def test_mirrored_blocks_keep_equal_weights(self):
        # with no augmented features the joint block equals the compressed
        # block, so the symmetric start stays a fixed point
        rng = np.random.default_rng(13)
        state = fit_unified(JointStats.of(*random_stacked(rng, n=20, c=3, d_a=0)), gamma=1.0)
        assert state.model.w_base == pytest.approx(0.5, abs=1e-12)
        assert state.model.w_joint == pytest.approx(0.5, abs=1e-12)

    def test_coefficient_scaling_maps_between_formulations(self):
        # at fixed weights, the explicitly sqrt-weighted design yields the
        # same minimizer up to the per-block 1/sqrt(w) scale
        rng = np.random.default_rng(14)
        z, labels = random_stacked(rng, n=22, c=3, d_a=4)
        w_base, w_joint, gamma = 0.3, 0.7, 1.3
        v_base, v_joint = update_coefficients(JointStats.of(z, labels), w_base, gamma)

        scaled_base, scaled_joint = oracles.sqrt_weighted_stacked_solve(
            z[:, :3], z, labels, w_base, w_joint, gamma
        )
        np.testing.assert_allclose(scaled_base, v_base / np.sqrt(w_base), atol=1e-6)
        np.testing.assert_allclose(scaled_joint, v_joint / np.sqrt(w_joint), atol=1e-6)


class TestFitUnifiedMatchesTheStepByStepLoop:
    """``fit_unified`` returns the bits of the alternating loop written out
    step by step (``oracles.alternating_fit_loop``)."""

    @staticmethod
    def _assert_same_fit(stats, gamma):
        state = fit_unified(stats, gamma)
        v_base, v_joint, w_base, trace, converged = oracles.alternating_fit_loop(
            stats.gram, stats.zty, stats.yy, gamma, WEIGHT_FLOOR, FIT_TOL, FIT_MAX_ITER
        )
        m = state.model
        assert np.array_equal(m.v_base, v_base) and np.array_equal(m.v_joint, v_joint)
        # norms of a block in another memory order than the loop's change these bits
        assert m.w_base == w_base
        assert state.trace == trace and state.converged == converged
        return state

    @pytest.mark.parametrize("gamma", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("c, d_a", [(3, 0), (3, 4), (5, 50)], ids=["k=c", "narrow", "wide"])
    def test_random_blocks(self, gamma, c, d_a):
        rng = np.random.default_rng(100 + c + d_a)
        for _ in range(4):
            n = int(rng.integers(c + d_a, 3 * (c + d_a) + 5))
            z, labels = random_stacked(rng, n=n, c=c, d_a=d_a)
            z *= 10.0 ** rng.uniform(-1.0, 1.0, size=z.shape[1])
            state = self._assert_same_fit(JointStats.of(z, labels), gamma)
            # with k = c the equal weights are a fixed point
            assert len(state.trace) > 2 or d_a == 0

    def test_zero_labels(self):
        # the all-zero model takes the w = 1/2 branch at every step
        z, labels = random_stacked(np.random.default_rng(20), n=15, c=3, d_a=4)
        state = self._assert_same_fit(JointStats.of(z, np.zeros_like(labels)), 1.0)
        assert state.model.w_base == 0.5 and state.trace == (0.0, 0.0)


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
        emodel = EStageModel(np.zeros((3, 3)), np.zeros((5, 3)), 0.5)
        np.testing.assert_array_equal(predict_unified(np.ones((4, 5)), cmodel, emodel), np.zeros(4))

    def test_collapsed_joint_weight_uses_base_block_only(self):
        rng = np.random.default_rng(15)
        cmodel = CStageModel(np.zeros((5, 3)), rng.standard_normal((3, 3)))
        v_base = rng.standard_normal((3, 3))
        emodel = EStageModel(v_base, np.zeros((5, 3)), 1.0)
        x = np.hstack([rng.standard_normal((6, 3)), rng.standard_normal((6, 2))])
        z = x[:, :3] @ cmodel.coef_survived
        np.testing.assert_array_equal(
            predict_unified(x, cmodel, emodel), (z @ v_base).argmax(axis=1)
        )

    def test_separable_instance_fits_training_set(self):
        cmodel, (x, y), _, gamma = self._trained_setup()
        emodel = fit_unified(JointStats.of(build_stacked(x, cmodel), y), gamma=gamma).model
        pred = predict_unified(x, cmodel, emodel)
        assert (pred == y.argmax(axis=1)).all()

