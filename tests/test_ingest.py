from __future__ import annotations

import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from opid.ensemble import train_ovr
from opid.ingest import (
    ManifestError,
    SynthConfig,
    _parse_whole,
    _read_rows,
    _read_rows_by_line,
    generate_synthetic,
    parse_manifest,
    read_estage,
    stream_batches,
    write_stream,
)
from opid.model import FeatureSchema


def _write_manifest(tmp_path, overrides=None, drop=None):
    """A tiny valid stream on disk: d_v=1, d_s=2, d_a=1, c=2."""
    (tmp_path / "c0.csv").write_text("0.5,1.0,2.0,0\n-0.5,0.25,1.5,1\n")
    (tmp_path / "train.csv").write_text("1.0,2.0,3.0,0\n4.0,5.0,6.0,1\n")
    (tmp_path / "test.csv").write_text("0.1,0.2,0.3,1\n")
    manifest = {
        "classes": 2,
        "vanished": 1,
        "survived": 2,
        "augmented": 1,
        "cstage_batches": ["c0.csv"],
        "estage_train": "train.csv",
        "estage_test": "test.csv",
        "cstage_columns": {"vanished": [0, 1], "survived": [1, 3]},
        "estage_columns": {"survived": [0, 2], "augmented": [2, 3]},
    }
    manifest.update(overrides or {})
    for key in drop or ():
        del manifest[key]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path


class TestParseManifest:
    def test_valid_manifest_accepted(self, tmp_path):
        m = parse_manifest(_write_manifest(tmp_path))
        assert m.schema == FeatureSchema(vanished=1, survived=2, augmented=1, classes=2)
        assert m.cstage_columns == ((0, 1), (1, 3))
        assert m.estage_columns == ((0, 2), (2, 3))

    def test_dna_shaped_manifest_accepted(self, tmp_path):
        schema = FeatureSchema(vanished=50, survived=80, augmented=50, classes=3)
        cfg = SynthConfig(schema=schema, batches=2, batch_size=6, estage_size=6, seed=1)
        path = write_stream(*generate_synthetic(cfg), tmp_path, schema)
        m = parse_manifest(path)
        assert m.schema == schema

    def test_overlapping_ranges_rejected(self, tmp_path):
        path = _write_manifest(
            tmp_path, overrides={"cstage_columns": {"vanished": [0, 1], "survived": [0, 2]}}
        )
        with pytest.raises(ManifestError, match="overlap"):
            parse_manifest(path)

    def test_range_width_mismatch_rejected(self, tmp_path):
        path = _write_manifest(
            tmp_path, overrides={"estage_columns": {"survived": [0, 1], "augmented": [1, 2]}}
        )
        with pytest.raises(ManifestError, match="width"):
            parse_manifest(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = _write_manifest(tmp_path, overrides={"surprise": 1})
        with pytest.raises(ManifestError, match="unknown"):
            parse_manifest(path)

    def test_missing_key_rejected(self, tmp_path):
        path = _write_manifest(tmp_path, drop=["estage_test"])
        with pytest.raises(ManifestError, match="missing"):
            parse_manifest(path)

    @pytest.mark.parametrize("field, value", [
        ("classes", "three"), ("survived", None), ("augmented", float("inf")),
        ("cstage_columns", 5), ("cstage_batches", [7]), ("estage_train", {"a": 1}),
    ])
    def test_malformed_field_rejected(self, tmp_path, field, value):
        path = _write_manifest(tmp_path, overrides={field: value})
        with pytest.raises(ManifestError, match="malformed manifest field"):
            parse_manifest(path)

    @pytest.mark.parametrize("field, value", [
        ("survived", 3.7), ("survived", 2.0), ("survived", "3"), ("vanished", True),
        ("classes", 2.0), ("classes", "2"),
    ])
    def test_non_integer_width_rejected(self, tmp_path, field, value):
        path = _write_manifest(tmp_path, overrides={field: value})
        with pytest.raises(ManifestError, match=f"{field} must be a JSON integer"):
            parse_manifest(path)

    @pytest.mark.parametrize("bounds", [[False, True], [1, True], [0, 1.0]])
    def test_non_integer_range_bound_rejected(self, tmp_path, bounds):
        path = _write_manifest(
            tmp_path, overrides={"cstage_columns": {"vanished": bounds, "survived": [1, 3]}}
        )
        with pytest.raises(ManifestError, match="pair of integers"):
            parse_manifest(path)

    def test_non_utf8_manifest_rejected(self, tmp_path):
        path = _write_manifest(tmp_path)
        path.write_bytes(b'{\n"classes": "\xff\xfe"}')
        with pytest.raises(ManifestError, match=r"manifest\.json:2: not UTF-8 text"):
            parse_manifest(path)

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_non_utf8_line_counts_text_mode_line_ends(self, tmp_path, newline):
        path = _write_manifest(tmp_path)
        path.write_bytes(newline.join([b"{", b'"classes": 2,', b'"vanished": "\xff"}']))
        with pytest.raises(ManifestError, match=r"manifest\.json:3: not UTF-8 text"):
            parse_manifest(path)

    def test_missing_batch_file_rejected(self, tmp_path):
        path = _write_manifest(tmp_path, overrides={"cstage_batches": ["nope.csv"]})
        with pytest.raises(ManifestError, match="not found"):
            parse_manifest(path)


class TestStreamBatches:
    def test_yields_one_batch_per_file(self, tmp_path):
        schema = FeatureSchema(vanished=2, survived=3, augmented=2, classes=3)
        cfg = SynthConfig(schema=schema, batches=4, batch_size=60, estage_size=10, seed=2)
        path = write_stream(*generate_synthetic(cfg), tmp_path, schema)
        batches = list(stream_batches(parse_manifest(path)))
        assert len(batches) == 4
        assert all(b.n == 60 for b in batches)

    def test_is_lazy(self, tmp_path):
        import types

        path = _write_manifest(tmp_path)
        gen = stream_batches(parse_manifest(path))
        assert isinstance(gen, types.GeneratorType)

    def test_wrong_column_count_names_file_and_line(self, tmp_path):
        path = _write_manifest(tmp_path)
        (tmp_path / "c0.csv").write_text("0.5,1.0,2.0,0\n1.0,2.0,1\n")
        with pytest.raises(ManifestError, match=r"c0\.csv:2"):
            list(stream_batches(parse_manifest(path)))

    def test_malformed_value_names_file_and_line(self, tmp_path):
        path = _write_manifest(tmp_path)
        (tmp_path / "c0.csv").write_text("0.5,oops,2.0,0\n")
        with pytest.raises(ManifestError, match=r"c0\.csv:1"):
            list(stream_batches(parse_manifest(path)))

    def test_empty_file_rejected(self, tmp_path):
        path = _write_manifest(tmp_path)
        (tmp_path / "c0.csv").write_text("")
        with pytest.raises(ManifestError, match="no instances"):
            list(stream_batches(parse_manifest(path)))

    def test_label_out_of_range_rejected(self, tmp_path):
        path = _write_manifest(tmp_path)
        for label in ("5", "nan", "inf", "-inf"):
            (tmp_path / "c0.csv").write_text(f"0.5,1.0,2.0,0\n0.5,1.0,2.0,{label}\n")
            with pytest.raises(ManifestError, match=r"c0\.csv:2: label"):
                list(stream_batches(parse_manifest(path)))

    def test_round_trip_is_bitwise(self, tmp_path):
        schema = FeatureSchema(vanished=2, survived=3, augmented=2, classes=3)
        cfg = SynthConfig(schema=schema, batches=3, batch_size=12, estage_size=9, seed=3)
        cbatches, etrain, etest = generate_synthetic(cfg)
        path = write_stream(cbatches, etrain, etest, tmp_path, schema)
        manifest = parse_manifest(path)
        for original, read in zip(cbatches, stream_batches(manifest)):
            np.testing.assert_array_equal(read.vanished, original.vanished)
            np.testing.assert_array_equal(read.survived, original.survived)
            np.testing.assert_array_equal(read.labels, original.labels)
        for original, read in zip((etrain, etest), read_estage(manifest)):
            np.testing.assert_array_equal(read[0], original[0])
            np.testing.assert_array_equal(read[1], original[1])

    def test_permuted_column_ranges_read_in_schema_order(self, tmp_path):
        # survived before vanished in the compressing stage, augmented before
        # survived in the expanding stage
        path = _write_manifest(tmp_path, overrides={
            "cstage_columns": {"vanished": [2, 3], "survived": [0, 2]},
            "estage_columns": {"survived": [1, 3], "augmented": [0, 1]},
        })
        manifest = parse_manifest(path)
        (batch,) = stream_batches(manifest)
        np.testing.assert_array_equal(batch.vanished, [[2.0], [1.5]])
        np.testing.assert_array_equal(batch.survived, [[0.5, 1.0], [-0.5, 0.25]])
        (x_train, y_train), (x_test, y_test) = read_estage(manifest)
        np.testing.assert_array_equal(x_train, [[2.0, 3.0, 1.0], [5.0, 6.0, 4.0]])
        np.testing.assert_array_equal(y_train, [[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(x_test, [[0.2, 0.3, 0.1]])
        np.testing.assert_array_equal(y_test, [[0.0, 1.0]])

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_names_file_and_line(self, tmp_path, value):
        path = _write_manifest(tmp_path)
        (tmp_path / "c0.csv").write_text(f"0.5,1.0,2.0,0\n\n0.5,{value},2.0,1\n")
        with pytest.raises(ManifestError, match=r"c0\.csv:3: feature values must be finite"):
            list(stream_batches(parse_manifest(path)))
        (tmp_path / "c0.csv").write_text("0.5,1.0,2.0,0\n")
        (tmp_path / "test.csv").write_text(f"{value},0.2,0.3,1\n")
        with pytest.raises(ManifestError, match=r"test\.csv:1: feature values must be finite"):
            read_estage(parse_manifest(path))

    def test_non_utf8_bytes_name_file_and_line(self, tmp_path):
        path = _write_manifest(tmp_path)
        (tmp_path / "c0.csv").write_bytes(b"0.5,1.0,2.0,0\n0.5,\xff\xfe,2.0,1\n")
        with pytest.raises(ManifestError, match=r"c0\.csv:2"):
            list(stream_batches(parse_manifest(path)))

    @pytest.mark.parametrize("name, read", [
        ("c0.csv", lambda manifest: list(stream_batches(manifest))),
        ("test.csv", read_estage),
    ], ids=["stream_batches", "read_estage"])
    def test_file_removed_after_manifest_names_it(self, tmp_path, name, read):
        manifest = parse_manifest(_write_manifest(tmp_path))
        (tmp_path / name).unlink()
        with pytest.raises(ManifestError, match=rf"{name}: cannot read"):
            read(manifest)


# (file bytes, features and labels read, or the error after "<path>"), read
# with 2 features and 3 classes
_PARSE_CASES = {
    "plain": (b"1.0,-2.5,0\n3e-5,4,2\n", ([[1.0, -2.5], [3e-5, 4.0]], [0, 2])),
    "crlf": (b"1.0,2.0,0\r\n3.0,4.0,1\r\n", ([[1.0, 2.0], [3.0, 4.0]], [0, 1])),
    "underscore": (b"1_0,2.0,0\n", ([[10.0, 2.0]], [0])),
    "arabic_indic_digit": ("١,2.0,1\n".encode(), ([[1.0, 2.0]], [1])),
    "fullwidth_digit": ("１,2.0,1\n".encode(), ([[1.0, 2.0]], [1])),
    "whitespace_only_line": (b"1.0,2.0,0\n \t\n3.0,4.0,1\n", ([[1.0, 2.0], [3.0, 4.0]], [0, 1])),
    "separator_at_line_end": (b"1.0,2.0,0\x1c\n", ([[1.0, 2.0]], [0])),
    "separator_inside_line": (b"1.0\x1c,2.0,0\n", ([[1.0, 2.0]], [0])),
    "hash": (b"#,2.0,0\n", ":1: malformed value: could not convert string to float: '#'"),
    "trailing_comma": (b"1.0,2.0,0,\n", ":1: expected 3 columns, got 4"),
    "empty_file": (b"", ": file contains no instances"),
    "blank_lines_only": (b"\n\n", ": file contains no instances"),
    "non_utf8": (b"1.0,2.0,0\n1.0,\xff,0\n", ":2: not UTF-8 text"),
    "non_utf8_cr": (b"1.0,2.0,0\r1.0,2.0,1\r1.0,\xff,0\r", ":3: not UTF-8 text"),
    "fractional_label": (b"1.0,2.0,2.5\n", ":1: label 2.5 is not an integer in [0, 3)"),
    "nan_label": (b"1.0,2.0,nan\n", ":1: label nan is not an integer in [0, 3)"),
    "label_out_of_range": (b"1.0,2.0,0\n1.0,2.0,3\n", ":2: label 3.0 is not an integer in [0, 3)"),
    "inf_feature": (b"1.0,2.0,0\n\n1.0,inf,1\n", ":3: feature values must be finite"),
    "first_fault_first": (b"1,2,0\n1,inf,1\n1,2,7\n", ":2: feature values must be finite"),
}


class TestReadRows:
    """The whole-file parse gives the line reader's exact result or error."""

    @pytest.mark.parametrize("content, expected", _PARSE_CASES.values(), ids=_PARSE_CASES)
    def test_case_matches_line_reader(self, tmp_path, content, expected):
        path = tmp_path / "b.csv"
        path.write_bytes(content)
        for read in (_read_rows, _read_rows_by_line):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                if isinstance(expected, str):
                    with pytest.raises(ManifestError) as info:
                        read(path, 2, 3)
                    assert str(info.value) == f"{path}{expected}"
                else:
                    feats, labels = read(path, 2, 3)
                    np.testing.assert_array_equal(feats, expected[0], strict=True)
                    np.testing.assert_array_equal(labels, np.eye(3)[expected[1]], strict=True)
            assert caught == []

    @pytest.mark.parametrize("name", ["plain", "crlf", "separator_inside_line"])
    def test_plain_files_take_the_whole_file_parse(self, tmp_path, name):
        path = tmp_path / "b.csv"
        path.write_bytes(_PARSE_CASES[name][0])
        assert _parse_whole(path, 2, 3) is not None

    _FEATURE = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.sampled_from(["-0", "1e400", "4.9e-324", "0.1000000000000000055511151231257827",
                         "nan", "Infinity", "1_0", "١", " 1 ", "\t2\x0b", "\xa03\u3000", "1\x1c",
                         "\x1f0", "#", ""]),
        st.text(st.sampled_from("0123456789.-+eEinfa_ \t\x0b\x0c\x1c\x85\xa0\u3000\ufeff#\x00"),
                max_size=6),
    )
    _LABEL = st.sampled_from(["0", "1", "2", "2.0", "-0", "0e0", " 1", "2.5", "3", "nan", "1\x1d"])
    _LINE = st.one_of(
        st.tuples(_FEATURE, _FEATURE, _LABEL).map(",".join),
        st.lists(_FEATURE, max_size=4).map(",".join),
    )

    @settings(derandomize=True, max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines=st.lists(_LINE, min_size=1, max_size=4), newline=st.sampled_from(["\n", "\r\n", "\r"]))
    def test_whole_file_parse_agrees_with_line_reader(self, tmp_path, lines, newline):
        path = tmp_path / "b.csv"
        path.write_bytes(newline.join(lines).encode())
        whole = _parse_whole(path, 2, 3)
        try:
            feats, labels = _read_rows_by_line(path, 2, 3)
        except ManifestError:
            assert whole is None
            return
        if whole is not None:
            np.testing.assert_array_equal(whole[0], feats, strict=True)
            np.testing.assert_array_equal(np.signbit(whole[0]), np.signbit(feats))
            np.testing.assert_array_equal(whole[1], labels, strict=True)


class TestBatchLayout:
    """A compressing-stage batch is one C-ordered schema-order matrix whose
    vanished and survived blocks are views of it."""

    @staticmethod
    def _assert_layout(batch, schema):
        assert batch.x.flags.c_contiguous
        assert batch.x.shape == (batch.n, schema.cstage_width)
        assert np.shares_memory(batch.vanished, batch.x)
        assert np.shares_memory(batch.survived, batch.x)
        assert batch.vanished.shape[1] == schema.vanished
        assert batch.survived.shape[1] == schema.survived

    def test_synthetic_and_read_batches(self, tmp_path):
        schema = FeatureSchema(vanished=2, survived=3, augmented=2, classes=3)
        cfg = SynthConfig(schema=schema, batches=2, batch_size=5, estage_size=4, seed=4)
        cbatches, etrain, etest = generate_synthetic(cfg)
        manifest = parse_manifest(write_stream(cbatches, etrain, etest, tmp_path, schema))
        for batch in (*cbatches, *stream_batches(manifest)):
            self._assert_layout(batch, schema)

    def test_permuted_manifest_batches(self, tmp_path):
        path = _write_manifest(tmp_path, overrides={
            "cstage_columns": {"vanished": [2, 3], "survived": [0, 2]},
        })
        manifest = parse_manifest(path)
        (batch,) = stream_batches(manifest)
        self._assert_layout(batch, manifest.schema)
        np.testing.assert_array_equal(batch.x, [[2.0, 0.5, 1.0], [1.5, -0.5, 0.25]])


class TestGenerateSynthetic:
    def test_same_seed_same_stream(self):
        schema = FeatureSchema(vanished=2, survived=3, augmented=2, classes=3)
        cfg = SynthConfig(schema=schema, batches=3, batch_size=10, estage_size=12, seed=5)
        a_batches, a_train, a_test = generate_synthetic(cfg)
        b_batches, b_train, b_test = generate_synthetic(cfg)
        for a, b in zip(a_batches, b_batches):
            np.testing.assert_array_equal(a.x, b.x)
            np.testing.assert_array_equal(a.labels, b.labels)
        for a, b in ((a_train, b_train), (a_test, b_test)):
            np.testing.assert_array_equal(a[0], b[0])
            np.testing.assert_array_equal(a[1], b[1])

    def test_zero_noise_survived_features_are_separable(self):
        schema = FeatureSchema(vanished=2, survived=4, augmented=2, classes=3)
        cfg = SynthConfig(
            schema=schema, batches=1, batch_size=30, estage_size=60,
            separation=4.0, noise=0.0, seed=6,
        )
        _, (x_train, y_train), (x_test, y_test) = generate_synthetic(cfg)
        clf = train_ovr(x_train[:, : schema.survived], y_train, alpha=1.0)
        pred = clf.predict(x_test[:, : schema.survived])
        assert (pred == y_test.argmax(axis=1)).all()

    def test_signal_free_augmented_block_is_chance_level(self):
        schema = FeatureSchema(vanished=2, survived=4, augmented=6, classes=3)
        cfg = SynthConfig(
            schema=schema, batches=1, batch_size=10, estage_size=500,
            separation=4.0, noise=1.0, signal=(1.0, 1.0, 0.0), seed=7,
        )
        _, (x_train, y_train), (x_test, y_test) = generate_synthetic(cfg)
        clf = train_ovr(x_train[:, schema.survived :], y_train, alpha=1.0)
        acc = float(np.mean(clf.predict(x_test[:, schema.survived :]) == y_test.argmax(axis=1)))
        assert abs(acc - 1.0 / 3.0) <= 0.1

    def test_balanced_labels_per_batch(self):
        schema = FeatureSchema(vanished=1, survived=2, augmented=1, classes=3)
        cfg = SynthConfig(schema=schema, batches=2, batch_size=9, estage_size=9, seed=8)
        cbatches, _, _ = generate_synthetic(cfg)
        for b in cbatches:
            np.testing.assert_array_equal(b.labels.sum(axis=0), [3, 3, 3])

    def test_invalid_config_rejected(self):
        schema = FeatureSchema(vanished=1, survived=2, augmented=1, classes=2)
        with pytest.raises(ValueError):
            SynthConfig(schema=schema, batches=0, batch_size=5, estage_size=5)
        with pytest.raises(ValueError):
            SynthConfig(schema=schema, batches=1, batch_size=5, estage_size=5, noise=-1.0)
        with pytest.raises(ValueError):
            SynthConfig(schema=schema, batches=1, batch_size=5, estage_size=5, signal=(1.0, 1.0))
