from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opid import model
from opid.model import (
    Batch,
    CStageModel,
    EStageModel,
    FeatureSchema,
    Hyperparams,
    NumericError,
    SchemaError,
    argmax_decode,
    class_signs,
    one_hot_encode,
    validate_batch,
)

import oracles


class TestOneHot:
    def test_examples(self):
        np.testing.assert_array_equal(one_hot_encode([0, 2], 3), [[1, 0, 0], [0, 0, 1]])
        np.testing.assert_array_equal(one_hot_encode([1], 2), [[0, 1]])
        np.testing.assert_array_equal(one_hot_encode([0, 0, 1], 2), [[1, 0], [1, 0], [0, 1]])

    def test_out_of_range_label(self):
        with pytest.raises(SchemaError):
            one_hot_encode([0, 3], 3)
        with pytest.raises(SchemaError):
            one_hot_encode([-1], 2)

    def test_labels_that_are_not_a_vector_rejected(self):
        with pytest.raises(SchemaError, match="labels must be 1-D, got 2-D"):
            one_hot_encode([[0, 1]], 2)

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=30))
    def test_rows_sum_to_one_with_binary_entries(self, labels):
        out = one_hot_encode(labels, 5)
        assert np.isin(out, (0.0, 1.0)).all()
        np.testing.assert_array_equal(out.sum(axis=1), np.ones(len(labels)))
        np.testing.assert_array_equal(out.argmax(axis=1), labels)


class TestArgmaxDecode:
    def test_examples(self):
        np.testing.assert_array_equal(argmax_decode([[0.1, 0.9]]), [1])
        np.testing.assert_array_equal(argmax_decode([[0.5, 0.5]]), [0])
        np.testing.assert_array_equal(argmax_decode([[3, 1, 2], [0, 0, 7]]), [0, 2])

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            argmax_decode([[np.nan, 1.0]])
        with pytest.raises(NumericError):
            argmax_decode([[np.inf, 1.0]])

    def test_scores_that_are_not_a_matrix_rejected(self):
        with pytest.raises(SchemaError, match="scores must be 2-D, got 1-D"):
            argmax_decode([0.1, 0.9])

    @settings(max_examples=50)
    @given(
        st.lists(
            st.lists(st.integers(-1000, 1000), min_size=3, max_size=3),
            min_size=1,
            max_size=10,
        ),
        st.integers(-500, 500),
    )
    def test_row_shift_invariance(self, rows, shift):
        # integer-valued doubles keep the addition exact, so the shift
        # cannot manufacture new ties
        scores = np.asarray(rows, dtype=np.float64)
        shifted = scores + float(shift)
        np.testing.assert_array_equal(argmax_decode(scores), argmax_decode(shifted))


class TestClassSigns:
    def test_recoding(self):
        y = one_hot_encode([0, 1, 2, 1], 3)
        np.testing.assert_array_equal(class_signs(y, 1), [-1, 1, -1, 1])
        np.testing.assert_array_equal(class_signs(y, 0), [1, -1, -1, -1])


class TestSchema:
    def test_widths(self):
        s = FeatureSchema(vanished=2, survived=3, augmented=4, classes=5)
        assert s.cstage_width == 5
        assert s.estage_width == 7
        assert s.stats_dim == 8

    def test_degenerate_partitions_allowed(self):
        FeatureSchema(vanished=0, survived=1, augmented=0, classes=2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(vanished=2, survived=0, augmented=2, classes=2),
            dict(vanished=2, survived=3, augmented=2, classes=1),
            dict(vanished=-1, survived=3, augmented=2, classes=2),
            dict(vanished=2, survived=3, augmented=-2, classes=2),
        ],
    )
    def test_invalid_schemas(self, kwargs):
        with pytest.raises(SchemaError):
            FeatureSchema(**kwargs)

    @pytest.mark.parametrize("field", ["vanished", "survived", "augmented", "classes"])
    @pytest.mark.parametrize("value", [1.5, 2.0, True, "2", None])
    def test_non_integer_width_rejected(self, field, value):
        kwargs = dict(vanished=2, survived=3, augmented=2, classes=2)
        kwargs[field] = value
        with pytest.raises(SchemaError, match=f"{field} must be an int, got {value!r}"):
            FeatureSchema(**kwargs)

    def test_numpy_integer_widths_accepted(self):
        s = FeatureSchema(*(np.int64(w) for w in (2, 3, 4)), np.uint8(5))
        assert s.stats_dim == 8


class TestValidateBatch:
    def test_matching_cstage_batch_accepted(self, small_schema):
        b = Batch.cstage(np.zeros((4, 2)), np.zeros((4, 3)), one_hot_encode([0, 1, 0, 1], 2))
        validate_batch(b, small_schema)

    def test_wrong_vanished_width(self, small_schema):
        b = Batch.cstage(np.zeros((4, 3)), np.zeros((4, 3)), one_hot_encode([0, 1, 0, 1], 2))
        with pytest.raises(SchemaError, match="vanished"):
            validate_batch(b, small_schema)

    def test_row_count_mismatch(self):
        # blocks of unequal row count cannot be stacked into one matrix
        with pytest.raises(SchemaError, match="rows"):
            Batch.cstage(
                vanished=np.zeros((2, 2)),
                survived=np.zeros((3, 3)),
                labels=one_hot_encode([0, 1, 0], 2),
            )

    @pytest.mark.parametrize("column", [0, 4], ids=["vanished", "survived"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_features_rejected(self, small_schema, column, value):
        x = np.zeros((2, 5))
        x[1, column] = value
        b = Batch.cstage(x[:, :2], x[:, 2:], one_hot_encode([0, 1], 2))
        with pytest.raises(SchemaError, match="non-finite"):
            validate_batch(b, small_schema)

    def test_bad_labels(self, small_schema):
        bad = np.full((2, 2), 0.5)
        b = Batch.cstage(np.zeros((2, 2)), np.zeros((2, 3)), bad)
        with pytest.raises(SchemaError, match="one-hot"):
            validate_batch(b, small_schema)

    def test_label_row_sum(self, small_schema):
        bad = np.array([[1.0, 1.0], [1.0, 0.0]])
        b = Batch.cstage(np.zeros((2, 2)), np.zeros((2, 3)), bad)
        with pytest.raises(SchemaError, match="sum"):
            validate_batch(b, small_schema)

    def test_empty_batch_rejected(self, small_schema):
        b = Batch.cstage(np.zeros((0, 2)), np.zeros((0, 3)), np.zeros((0, 2)))
        with pytest.raises(SchemaError, match="at least one instance"):
            validate_batch(b, small_schema)

    def test_wrong_class_count_rejected(self, small_schema):
        b = Batch.cstage(np.zeros((2, 2)), np.zeros((2, 3)), one_hot_encode([0, 2], 3))
        with pytest.raises(SchemaError, match=r"labels have shape \(2, 3\), expected \(2, 2\)"):
            validate_batch(b, small_schema)

    def test_block_that_is_not_a_matrix_rejected(self):
        with pytest.raises(SchemaError, match="vanished must be 2-D, got 1-D"):
            Batch.cstage(np.zeros(2), np.zeros((2, 3)), one_hot_encode([0, 1], 2))

    @given(st.integers(0, 6), st.integers(1, 6))
    def test_acceptance_matches_schema_widths(self, d_v, d_s):
        schema = FeatureSchema(vanished=2, survived=3, augmented=0, classes=2)
        b = Batch.cstage(np.zeros((2, d_v)), np.zeros((2, d_s)), one_hot_encode([0, 1], 2))
        if d_v == 2 and d_s == 3:
            validate_batch(b, schema)
        else:
            with pytest.raises(SchemaError):
                validate_batch(b, schema)


class TestHyperparams:
    def test_defaults_valid(self):
        h = Hyperparams()
        assert h.lam == 1.0 and h.rho == 0.1

    def test_zero_consistency_weight_allowed(self):
        Hyperparams(lam=0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(lam=-0.1), dict(rho=0.0), dict(lam=np.nan), dict(lam=np.inf), dict(rho=np.nan),
         dict(rho=np.inf)],
    )
    def test_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            Hyperparams(**kwargs)

    @pytest.mark.parametrize("field", ["lam", "rho"])
    @pytest.mark.parametrize("value", [True, "1", None, 1j])
    def test_non_real_value_rejected(self, field, value):
        with pytest.raises(SchemaError, match=f"{field} must be a real number, got {value!r}"):
            Hyperparams(**{field: value})

    def test_numpy_scalars_accepted(self):
        h = Hyperparams(lam=np.float32(0.5), rho=np.int64(2))
        assert (h.lam, h.rho) == (0.5, 2)


class TestCStageModelInvariants:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("block", ["coef_full", "coef_survived"])
    def test_non_finite_coefficients_rejected(self, bad, block):
        coefs = {"coef_full": np.zeros((5, 3)), "coef_survived": np.zeros((3, 3))}
        coefs[block][0, 1] = bad
        with pytest.raises(NumericError, match="finite"):
            CStageModel(**coefs)

    def test_blocks_with_different_class_counts_rejected(self):
        with pytest.raises(SchemaError, match="disagree on class count"):
            CStageModel(np.zeros((5, 3)), np.zeros((3, 2)))


class TestEStageModelInvariants:
    @pytest.mark.parametrize("shape", [(5,), (5, 3, 1), (2, 3)], ids=["1-D", "3-D", "k<c"])
    def test_bad_shape_rejected(self, shape):
        with pytest.raises(SchemaError, match="bad shape"):
            EStageModel(np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coefficients_rejected(self, bad):
        coef = np.zeros((5, 3))
        coef[4, 2] = bad
        with pytest.raises(NumericError, match="finite"):
            EStageModel(coef)

    def test_valid_model(self):
        EStageModel(np.zeros((5, 3)))
        EStageModel(np.zeros((3, 3)))  # no augmented columns


class TestSolveSpd:
    """``_solve_spd`` factors and solves in LAPACK; it must return the checked solver's bits."""

    @staticmethod
    def _spd(rng, k, ridge=1.0):
        x = rng.standard_normal((3 * k, k))
        return x.T @ x + ridge * np.eye(k)

    def test_newton_step_matches_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((200, 28))
        curv = rng.uniform(0.01, 0.25, size=200)
        hess = np.eye(28) + 0.7 * (x.T * curv) @ x
        assert not np.array_equal(hess, hess.T)  # only the upper triangle is read
        grad = rng.standard_normal(28)
        got = model._solve_spd(hess, grad, "Newton system")
        assert got.shape == (28,)
        np.testing.assert_array_equal(got, oracles.spd_solve(hess, grad))

    @pytest.mark.parametrize("k, c", [(28, 3), (55, 5)], ids=["ridge", "normal-equation"])
    def test_matrix_rhs_matches_oracle(self, k, c):
        rng = np.random.default_rng(k)
        mat = self._spd(rng, k, ridge=0.1)
        rhs = rng.standard_normal((k, c))
        np.testing.assert_array_equal(model._solve_spd(mat, rhs, "x"), oracles.spd_solve(mat, rhs))

    def test_wide_core_rhs_matches_oracle(self):
        rng = np.random.default_rng(1)
        core = self._spd(rng, 120)
        rhs = rng.standard_normal((2220, 120)).T  # a transposed, Fortran-ordered view
        np.testing.assert_array_equal(model._solve_spd(core, rhs, "x"), oracles.spd_solve(core, rhs))

    @pytest.mark.parametrize("mat", [[[1.0, 2.0], [2.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]]],
                             ids=["indefinite", "singular-psd"])
    def test_non_spd_raises(self, mat):
        with pytest.raises(NumericError, match="stacked ridge solve failed: .*positive definite"):
            model._solve_spd(np.array(mat), np.ones(2), "stacked ridge")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["mat", "rhs", "mat-lower"])
    def test_non_finite_raises_before_lapack(self, monkeypatch, bad, where):
        def no_lapack(*args, **kwargs):
            raise AssertionError("LAPACK called on a non-finite system")

        monkeypatch.setattr(model, "dpotrf", no_lapack)
        monkeypatch.setattr(model, "dpotrs", no_lapack)
        args = {"mat": np.eye(3), "rhs": np.ones((3, 2))}
        if where == "mat-lower":
            args["mat"][2, 0] = bad  # below the diagonal, which LAPACK would not even read
        else:
            args[where][1, 1] = bad
        with pytest.raises(NumericError, match="Newton system solve failed: .*non-finite"):
            model._solve_spd(args["mat"], args["rhs"], "Newton system")

    def test_small_residual(self):
        rng = np.random.default_rng(5)
        mat = self._spd(rng, 20)
        rhs = rng.standard_normal((20, 3))
        x = model._solve_spd(mat, rhs, "normal-equation")
        assert np.linalg.norm(mat @ x - rhs) <= 1e-12 * np.linalg.norm(mat) * np.linalg.norm(x)

    def test_reads_only_the_upper_triangle(self):
        rng = np.random.default_rng(6)
        mat = self._spd(rng, 10)
        rhs = rng.standard_normal(10)
        scrambled = mat.copy()
        scrambled[np.tril_indices(10, -1)] = rng.standard_normal(45) * 1e3
        np.testing.assert_array_equal(
            model._solve_spd(scrambled, rhs, "x"), model._solve_spd(mat, rhs, "x")
        )

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_inputs_are_never_written(self, order):
        rng = np.random.default_rng(7)
        mat = np.array(self._spd(rng, 12), order=order)
        rhs = np.array(rng.standard_normal((12, 3)), order=order)
        mat_before, rhs_before = mat.copy(), rhs.copy()
        x = model._solve_spd(mat, rhs, "x")
        assert not (np.shares_memory(x, mat) or np.shares_memory(x, rhs))
        np.testing.assert_array_equal(mat, mat_before)
        np.testing.assert_array_equal(rhs, rhs_before)


class TestCholesky:
    """The Cholesky step of ``_solve_spd``: a non-SPD matrix stops at ``dpotrf``."""

    @pytest.mark.parametrize("mat", [[[1.0, 2.0], [2.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]]],
                             ids=["indefinite", "singular-psd"])
    def test_non_spd_raises(self, monkeypatch, mat):
        def no_solve(*args, **kwargs):
            raise AssertionError("dpotrs called after a failed factorization")

        monkeypatch.setattr(model, "dpotrs", no_solve)
        with pytest.raises(NumericError, match="normal-equation solve failed: "
                                               "leading minor 2 is not positive definite"):
            model._solve_spd(np.array(mat), np.ones(2), "normal-equation")



class TestCvAccuracy:
    def test_folds_are_the_row_ranges_of_array_split(self):
        # row i holds i in its feature and its label, so each fold's arrays
        # show exactly which rows they hold, and in which order
        for n in range(2, 41):
            x = np.arange(n, dtype=np.float64)[:, None]
            y = np.column_stack([x[:, 0], np.zeros(n)])
            for folds in range(2, n + 1):
                seen = []

                def predict(x_train, y_train, x_val):
                    seen.append((x_train[:, 0].tolist(), y_train[:, 0].tolist(),
                                 x_val[:, 0].tolist()))
                    return [np.zeros(len(x_val), dtype=np.int64)]

                model._cv_accuracy(x, y, folds, predict)
                expected = []
                for rows in np.array_split(np.arange(n), folds):
                    rest = np.setdiff1d(np.arange(n), rows).tolist()
                    expected.append((rest, rest, rows.tolist()))
                assert seen == expected
