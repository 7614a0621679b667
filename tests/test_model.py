from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opid import model
from opid.model import (
    Batch,
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


class TestEStageModelInvariants:
    def test_negative_weight_rejected(self):
        with pytest.raises(SchemaError):
            EStageModel(np.zeros((2, 2)), np.zeros((4, 2)), w_base=-0.2)

    @pytest.mark.parametrize("w_base", [np.nan, 1.2])
    def test_base_weight_outside_unit_interval_rejected(self, w_base):
        with pytest.raises(SchemaError, match="weight"):
            EStageModel(np.zeros((2, 2)), np.zeros((4, 2)), w_base=w_base)

    @pytest.mark.parametrize("w_base", [0.0, 0.3, 0.5, 1.0])
    def test_joint_weight_is_the_complement(self, w_base):
        model = EStageModel(np.zeros((3, 3)), np.zeros((5, 3)), w_base=w_base)
        assert model.w_joint == 1.0 - w_base

    def test_valid_model(self):
        EStageModel(np.zeros((3, 3)), np.zeros((5, 3)), w_base=0.5)


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
        with pytest.raises(NumericError, match="stacked ridge solve failed"):
            model._solve_spd(np.array(mat), np.ones(2), "stacked ridge")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["mat", "rhs"])
    def test_non_finite_raises_before_lapack(self, monkeypatch, bad, where):
        def no_lapack(*args, **kwargs):
            raise AssertionError("LAPACK called on a non-finite system")

        monkeypatch.setattr(model, "dpotrf", no_lapack)
        monkeypatch.setattr(model, "dpotrs", no_lapack)
        args = {"mat": np.eye(3), "rhs": np.ones((3, 2))}
        args[where][1, 1] = bad
        with pytest.raises(NumericError, match="Newton system solve failed: .*non-finite"):
            model._solve_spd(args["mat"], args["rhs"], "Newton system")


class TestCholesky:
    """``_cholesky`` is the one SPD factorization: upper U with U^T U = mat."""

    def test_upper_factor_reproduces_the_matrix(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((60, 20))
        mat = x.T @ x + np.eye(20)
        u = np.triu(model._cholesky(mat, "normal-equation"))
        assert np.all(np.diag(u) > 0)
        np.testing.assert_allclose(u.T @ u, mat, rtol=0, atol=1e-12 * np.abs(mat).max())

    def test_reads_only_the_upper_triangle(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((30, 10))
        mat = x.T @ x + np.eye(10)
        scrambled = mat.copy()
        scrambled[np.tril_indices(10, -1)] = rng.standard_normal(45) * 1e3
        np.testing.assert_array_equal(
            np.triu(model._cholesky(scrambled, "normal-equation")),
            np.triu(model._cholesky(mat, "normal-equation")),
        )

    @pytest.mark.parametrize("mat", [[[1.0, 2.0], [2.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]]],
                             ids=["indefinite", "singular-psd"])
    def test_non_spd_raises(self, mat):
        with pytest.raises(NumericError, match="normal-equation solve failed: .*positive definite"):
            model._cholesky(np.array(mat), "normal-equation")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_raises_before_lapack(self, monkeypatch, bad):
        def no_lapack(*args, **kwargs):
            raise AssertionError("LAPACK called on a non-finite matrix")

        monkeypatch.setattr(model, "dpotrf", no_lapack)
        mat = np.eye(3)
        mat[2, 0] = bad  # in the lower triangle, which LAPACK would not even read
        with pytest.raises(NumericError, match="normal-equation solve failed: .*non-finite"):
            model._cholesky(mat, "normal-equation")

    def test_owned_matrix_is_factored_in_place_without_the_scan(self):
        # the factor is the caller's matrix, with the bits of a factored copy
        rng = np.random.default_rng(7)
        x = rng.standard_normal((40, 12))
        mat = x.T @ x + np.eye(12)
        owned = np.array(mat, order="F")
        owned[5, 2] = np.nan  # in the lower triangle: only the skipped scan would see it
        u = model._cholesky(owned, "stacked ridge", owned=True)
        assert np.shares_memory(u, owned)
        np.testing.assert_array_equal(np.triu(u), np.triu(model._cholesky(mat, "stacked ridge")))
        with pytest.raises(NumericError, match="stacked ridge solve failed: .*positive definite"):
            model._cholesky(-np.eye(3, order="F"), "stacked ridge", owned=True)
