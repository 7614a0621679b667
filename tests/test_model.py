from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_row_count_mismatch(self, small_schema):
        b = Batch.cstage(
            vanished=np.zeros((2, 2)),
            survived=np.zeros((3, 3)),
            labels=one_hot_encode([0, 1, 0], 2),
        )
        with pytest.raises(SchemaError, match="rows"):
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
        "kwargs", [dict(lam=-0.1), dict(rho=0.0), dict(gamma=0.0), dict(alpha1=0.0), dict(alpha2=-1.0)]
    )
    def test_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            Hyperparams(**kwargs)


class TestEStageModelInvariants:
    def test_weights_off_simplex_rejected(self):
        with pytest.raises(SchemaError):
            EStageModel(np.zeros((2, 2)), np.zeros((4, 2)), w_base=0.7, w_joint=0.7)

    def test_negative_weight_rejected(self):
        with pytest.raises(SchemaError):
            EStageModel(np.zeros((2, 2)), np.zeros((4, 2)), w_base=-0.2, w_joint=1.2)

    def test_valid_model(self):
        EStageModel(np.zeros((3, 3)), np.zeros((5, 3)), w_base=0.5, w_joint=0.5)
