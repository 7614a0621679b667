from __future__ import annotations

import numpy as np
import pytest

from opid.cstage import absorb_batch, init_stats, solve_model
from opid.estage import build_stacked, fit_unified, predict_unified
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


def random_fit(rng, scales):
    """A random joint block, its labels and a ridge: n 5-79, c 2-5, 0-11
    augmented columns, gamma in 10^U(-3, 2), and feature scales of 1
    ("unit"), 10^U(-1, 1) ("mid") or 10^U(-3, 3) ("wide")."""
    c, d_a = int(rng.integers(2, 6)), int(rng.integers(0, 12))
    z, labels = random_stacked(rng, n=int(rng.integers(5, 80)), c=c, d_a=d_a)
    span = {"unit": 0.0, "mid": 1.0, "wide": 3.0}[scales]
    z *= 10.0 ** rng.uniform(-span, span, size=z.shape[1])
    return z, labels, 10.0 ** rng.uniform(-3.0, 2.0)


def loop_objective(z, labels, gamma, **loop_args):
    """The alternating loop's final blocks, base weight and row-form
    objective on a joint block whose first c columns are the base block."""
    v_base, v_joint, w_base, trace, converged = oracles.alternating_fit_loop(
        z.T @ z, z.T @ labels, float((labels**2).sum()), gamma, **loop_args
    )
    c = labels.shape[1]
    value = oracles.stacked_objective(
        z[:, :c], z, labels, v_base, v_joint, w_base, 1.0 - w_base, gamma
    )
    return v_base, v_joint, w_base, trace, value


class TestUpdateCoefficients:
    """The coefficient solve: the one k x k ridge solve of :func:`fit_unified`
    that takes the place of the alternating loop's coefficient updates."""

    def test_zero_labels_give_zero_coefficients(self):
        z, labels = random_stacked(np.random.default_rng(2))
        coef = fit_unified(z, np.zeros_like(labels), gamma=1.0).coef
        assert np.array_equal(coef, np.zeros((7, 3)))

    def test_matches_descent_oracle(self):
        rng = np.random.default_rng(3)
        z, labels = random_stacked(rng, n=20, c=3, d_a=4)
        coef = fit_unified(z, labels, gamma=1.0).coef
        np.testing.assert_allclose(coef, oracles.gd_minimize_joint_ridge(z, labels, 1.0), atol=1e-6)

    def test_finite_difference_stationarity(self):
        rng = np.random.default_rng(4)
        z, labels = random_stacked(rng, n=20, c=3, d_a=4)
        coef = fit_unified(z, labels, gamma=1.0).coef

        def flat_objective(flat):
            return oracles.joint_ridge_objective(z, labels, flat.reshape(coef.shape), 1.0)

        grad = oracles.finite_diff_gradient(flat_objective, coef.ravel())
        assert np.abs(grad).max() <= 1e-4

    @pytest.mark.parametrize("w_base, d_a", [(1e-8, 4), (1.0 - 1e-8, 4), (0.3, 0), (1e-8, 0)])
    def test_matches_wide_stacked_solve_at_the_extremes(self, w_base, d_a):
        # the explicit (c + k)-wide solve at a fixed weight, at the loop's
        # clamp ends and with no augmented columns (k = c): its objective is
        # never below the fit's, and its summed map is the fit's where the
        # weight cannot matter (k = c) or leaves the base block out
        rng = np.random.default_rng(17)
        z, labels = random_stacked(rng, n=30, c=3, d_a=d_a)
        w_joint, gamma = 1.0 - w_base, 0.7
        coef = fit_unified(z, labels, gamma).coef
        scaled_base, scaled_joint = oracles.sqrt_weighted_stacked_solve(
            z[:, :3], z, labels, w_base, w_joint, gamma
        )
        v_base, v_joint = np.sqrt(w_base) * scaled_base, np.sqrt(w_joint) * scaled_joint
        fixed = oracles.stacked_objective(
            z[:, :3], z, labels, v_base, v_joint, w_base, w_joint, gamma
        )
        assert oracles.joint_ridge_objective(z, labels, coef, gamma) <= fixed * (1.0 + 1e-12)
        if d_a == 0 or w_base == 1e-8:
            summed = v_joint.copy()
            summed[:3] += v_base
            assert np.linalg.norm(summed - coef) <= 1e-8 * np.linalg.norm(coef)


class TestJointStats:
    """The joint statistics ZᵀZ and ZᵀY that :func:`fit_unified` forms from
    its rows and hands to ``_solve_spd``, with the ridge gamma / k on the
    diagonal."""

    def test_matches_the_rows(self, monkeypatch):
        z, y = random_stacked(np.random.default_rng(16), n=12, c=3, d_a=2)
        seen = {}
        solve = estage._solve_spd

        def spy_solve(mat, rhs, what):
            seen["mat"], seen["zty"] = mat.copy(), rhs.copy()
            return solve(mat, rhs, what)

        monkeypatch.setattr(estage, "_solve_spd", spy_solve)
        fit_unified(z, y, 1.5)
        expected = z.T @ z
        expected[np.diag_indices_from(expected)] += 1.5 / 5
        np.testing.assert_array_equal(seen["mat"], expected)
        np.testing.assert_array_equal(seen["zty"], z.T @ y)

    @pytest.mark.parametrize("z_shape, labels_shape", [
        ((5, 4), (6, 2)),  # unequal row counts
        ((5,), (5, 2)),  # features not 2-D
        ((5, 4), (5,)),  # labels not 2-D
        ((5, 4, 1), (5, 2)),  # features 3-D
        ((5, 2), (5, 3)),  # more classes than joint columns
        ((5, 0), (5, 0)),  # no classes
    ])
    def test_rows_that_do_not_fit_rejected(self, z_shape, labels_shape):
        with pytest.raises(SchemaError, match="do not fit a joint block"):
            fit_unified(np.zeros(z_shape), np.zeros(labels_shape), 1.0)


class TestNonFiniteInputs:
    """A nan or inf in the rows, an overflow in forming ZᵀZ or ZᵀY from
    finite rows, or a ridge that overflows the diagonal raises
    :class:`NumericError`; LAPACK never sees a non-finite system."""

    @pytest.fixture(autouse=True)
    def no_lapack(self, monkeypatch):
        def no_lapack(*args, **kwargs):
            raise AssertionError("LAPACK called on a non-finite system")

        monkeypatch.setattr(model_module, "dpotrf", no_lapack)
        monkeypatch.setattr(model_module, "dpotrs", no_lapack)

    # finite rows whose ZᵀZ, or whose ZᵀY alone, overflows to inf; a BLAS
    # that fuses multiply and add sums such rows to inf, never to nan
    @pytest.mark.parametrize("where, bad", [("gram", np.inf), ("zty", np.inf)])
    def test_statistics_with_a_non_finite_entry(self, where, bad):
        z, labels = np.eye(4), np.eye(4, 2)
        if where == "gram":
            z[0, 0] = 1e200
        else:
            z[0, 0], labels[0, 0] = 1e10, 1e300
        with pytest.raises(NumericError, match="non-finite"):
            fit_unified(z, labels, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["z", "labels"])
    def test_rows_with_a_non_finite_entry(self, bad, where):
        z, labels = random_stacked(np.random.default_rng(22))
        {"z": z, "labels": labels}[where][2, 1] = bad
        with pytest.raises(NumericError, match="non-finite"):
            fit_unified(z, labels, 1.0)

    def test_ridge_that_overflows_the_diagonal(self):
        # ZᵀZ has a finite first diagonal entry of 1.7e308, and a ridge of
        # 1.5e308 / 3 overflows it
        z = np.diag([np.sqrt(1.7e308), 1.0, 1.0])
        assert np.isfinite(z.T @ z).all()
        with pytest.raises(NumericError, match="stacked ridge solve failed: .*non-finite"):
            fit_unified(z, np.ones((3, 2)), 1.5e308)


class TestFitUnified:
    """The fit is the ridge (ZᵀZ + (gamma/k) I)⁻¹ ZᵀY on the joint block, the
    minimizer of the two-block objective over both blocks and their weights."""

    @pytest.mark.parametrize("scales", ["unit", "mid", "wide"])
    def test_objective_not_above_the_alternating_loop(self, scales):
        # the loop stops at its tolerance short of the optimum, so its
        # objective, evaluated in row form like the fit's, is never lower
        rng = np.random.default_rng({"unit": 30, "mid": 31, "wide": 32}[scales])
        worst = -np.inf
        for _ in range(100):
            z, labels, gamma = random_fit(rng, scales)
            coef = fit_unified(z, labels, gamma).coef
            *_, loop = loop_objective(z, labels, gamma)
            fit = oracles.joint_ridge_objective(z, labels, coef, gamma)
            worst = max(worst, (fit - loop) / loop)
        assert worst <= 1e-12

    def test_final_weights_self_consistent(self):
        # the weights the fit implies, w_base = 0 and w_joint = 1, are a fixed
        # point of the loop: started there, it keeps the base weight at its
        # floor, stops on its second step, and its summed map is the fit's
        rng = np.random.default_rng(12)
        z, labels = random_stacked(rng, n=25, c=3, d_a=5)
        coef = fit_unified(z, labels, gamma=0.5).coef
        v_base, v_joint, w_base, trace, _ = loop_objective(z, labels, 0.5, start=0.0)
        assert w_base <= 1e-7 and len(trace) == 2
        v_joint[:3] += v_base
        assert np.linalg.norm(v_joint - coef) <= 1e-8 * np.linalg.norm(coef)

    def test_mirrored_blocks_keep_equal_weights(self):
        # with no augmented features the joint block equals the compressed
        # block: the loop's symmetric start stays a fixed point, and any
        # split of the one map between the blocks is the fit's ridge
        rng = np.random.default_rng(13)
        z, labels = random_stacked(rng, n=20, c=3, d_a=0)
        coef = fit_unified(z, labels, gamma=1.0).coef
        v_base, v_joint, w_base, _, _ = loop_objective(z, labels, 1.0)
        assert w_base == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(v_base + v_joint, coef, rtol=1e-10, atol=1e-14)

    def test_coefficient_scaling_maps_between_formulations(self):
        # at the weights the fit implies, w_base = 0 and w_joint = 1, the
        # explicitly sqrt-weighted (c + k)-wide design gives a zero base block
        # and the fit's coefficients as its joint block, with augmented
        # columns and without (k = c)
        rng = np.random.default_rng(14)
        for d_a in (4, 0):
            z, labels = random_stacked(rng, n=22, c=3, d_a=d_a)
            coef = fit_unified(z, labels, gamma=1.3).coef
            scaled_base, scaled_joint = oracles.sqrt_weighted_stacked_solve(
                z[:, :3], z, labels, 0.0, 1.0, 1.3
            )
            assert np.array_equal(scaled_base, np.zeros((3, 3)))
            np.testing.assert_allclose(coef, scaled_joint, rtol=1e-10, atol=1e-14)

    def test_one_normal_system_serves_every_ridge(self):
        # the ridge step adds each gamma to a copy: the system it is handed
        # stays as formed, and every fit equals fit_unified's bit for bit
        rng = np.random.default_rng(15)
        for _ in range(50):
            z, labels, _ = random_fit(rng, "wide")
            system = estage._normal_system(z, labels)
            formed = tuple(part.copy() for part in system)
            for gamma in 10.0 ** rng.uniform(-3.0, 2.0, size=3):
                coef = estage._ridge_fit(system, gamma).coef
                np.testing.assert_array_equal(coef, fit_unified(z, labels, gamma).coef)
                for part, before in zip(system, formed):
                    np.testing.assert_array_equal(part, before)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, np.nan, np.inf, -np.inf, "1", None, True])
    def test_bad_ridge_rejected_before_any_solve(self, gamma, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solve called")

        monkeypatch.setattr(estage, "_solve_spd", no_solve)
        with pytest.raises(SchemaError, match="ridge must be > 0 and finite"):
            fit_unified(*random_stacked(np.random.default_rng(5)), gamma)


class TestFitUnifiedMatchesTheStepByStepLoop:
    """``fit_unified`` against the alternating loop written out step by step
    (``oracles.alternating_fit_loop``): its row-form objective is never above
    the loop's, and its coefficients are the exact ridge minimizer, which the
    loop only approaches to within its tolerance."""

    @staticmethod
    def _assert_not_above_the_loop(z, labels, gamma, **loop_args):
        coef = fit_unified(z, labels, gamma).coef
        *_, loop = loop_objective(z, labels, gamma, **loop_args)
        assert oracles.joint_ridge_objective(z, labels, coef, gamma) <= loop * (1.0 + 1e-12)
        return coef

    @pytest.mark.parametrize("gamma", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("c, d_a", [(3, 0), (3, 4), (5, 50)], ids=["k=c", "narrow", "wide"])
    def test_random_blocks(self, gamma, c, d_a):
        rng = np.random.default_rng(100 + c + d_a)
        for _ in range(4):
            n = int(rng.integers(c + d_a, 3 * (c + d_a) + 5))
            z, labels = random_stacked(rng, n=n, c=c, d_a=d_a)
            z *= 10.0 ** rng.uniform(-1.0, 1.0, size=z.shape[1])
            coef = self._assert_not_above_the_loop(z, labels, gamma)
            ref = oracles.joint_ridge_lstsq(z, labels, gamma)
            assert coef.shape == (c + d_a, c)
            assert np.linalg.norm(coef - ref) <= 1e-9 * np.linalg.norm(ref)

    @pytest.mark.parametrize("start", [0.1, 0.9, 0.0, 1.0, "converged"])
    @pytest.mark.parametrize("c, d_a", [(3, 4), (5, 50)], ids=["narrow", "wide"])
    def test_random_blocks_from_a_start_weight(self, c, d_a, start):
        # the loop from any start, 0 and 1 clamped to its floor, or from the
        # weight it converges to from 1/2, ends no lower than the fit
        rng = np.random.default_rng(200 + c + d_a)
        for gamma in (0.1, 1.0, 10.0):
            z, labels = random_stacked(rng, n=3 * (c + d_a), c=c, d_a=d_a)
            z *= 10.0 ** rng.uniform(-1.0, 1.0, size=z.shape[1])
            w = loop_objective(z, labels, gamma)[2] if start == "converged" else start
            self._assert_not_above_the_loop(z, labels, gamma, start=w)

    def test_zero_labels(self):
        # zero labels give the zero map; the loop's all-zero model takes the
        # w = 1/2 branch at every step and reaches the same zero objective
        z, labels = random_stacked(np.random.default_rng(20), n=15, c=3, d_a=4)
        labels = np.zeros_like(labels)
        assert np.array_equal(fit_unified(z, labels, 1.0).coef, np.zeros((7, 3)))
        _, _, w_base, trace, _ = loop_objective(z, labels, 1.0)
        assert w_base == 0.5 and trace == (0.0, 0.0)


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
        emodel = EStageModel(np.zeros((5, 3)))
        np.testing.assert_array_equal(predict_unified(np.ones((4, 5)), cmodel, emodel), np.zeros(4))

    def test_scores_are_the_joint_map(self):
        rng = np.random.default_rng(15)
        cmodel = CStageModel(np.zeros((5, 3)), rng.standard_normal((3, 3)))
        emodel = EStageModel(rng.standard_normal((5, 3)))
        x = np.hstack([rng.standard_normal((6, 3)), rng.standard_normal((6, 2))])
        z = np.hstack([x[:, :3] @ cmodel.coef_survived, x[:, 3:]])
        np.testing.assert_array_equal(
            predict_unified(x, cmodel, emodel), (z @ emodel.coef).argmax(axis=1)
        )

    def test_class_count_that_does_not_fit_rejected(self):
        # 2 classes and 3 augmented columns make the same width as 3 and 2
        cmodel = CStageModel(np.zeros((6, 2)), np.ones((4, 2)))
        with pytest.raises(SchemaError, match="model expects 5 over 3"):
            predict_unified(np.ones((2, 4 + 3)), cmodel, EStageModel(np.zeros((5, 3))))

    def test_separable_instance_fits_training_set(self):
        cmodel, (x, y), _, gamma = self._trained_setup()
        emodel = fit_unified(build_stacked(x, cmodel), y, gamma=gamma)
        pred = predict_unified(x, cmodel, emodel)
        assert (pred == y.argmax(axis=1)).all()

