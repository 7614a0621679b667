from __future__ import annotations

import json

import numpy as np
import pytest

from opid.ensemble import train_ovr
from opid.ingest import (
    ManifestError,
    SynthConfig,
    generate_synthetic,
    load_estage,
    parse_manifest,
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
        assert m.c_vanished == (0, 1) and m.c_survived == (1, 3)

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
        r_train, r_test = load_estage(manifest)
        np.testing.assert_array_equal(r_train.joined(), etrain.joined())
        np.testing.assert_array_equal(r_test.augmented, etest.augmented)

    def test_standardize_uses_first_batch_statistics(self, tmp_path):
        schema = FeatureSchema(vanished=1, survived=2, augmented=1, classes=2)
        cfg = SynthConfig(schema=schema, batches=3, batch_size=25, estage_size=8, seed=4)
        path = write_stream(*generate_synthetic(cfg), tmp_path, schema)
        manifest = parse_manifest(path)
        scaled = list(stream_batches(manifest, standardize=True))
        first = scaled[0].joined()
        np.testing.assert_allclose(first.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(first.std(axis=0), 1.0, atol=1e-12)
        # later batches reuse the first batch's affine map, so they are not
        # exactly centered
        later = scaled[1].joined()
        assert np.abs(later.mean(axis=0)).max() > 1e-6


class TestGenerateSynthetic:
    def test_same_seed_same_stream(self):
        schema = FeatureSchema(vanished=2, survived=3, augmented=2, classes=3)
        cfg = SynthConfig(schema=schema, batches=3, batch_size=10, estage_size=12, seed=5)
        a_batches, a_train, a_test = generate_synthetic(cfg)
        b_batches, b_train, b_test = generate_synthetic(cfg)
        for a, b in zip(a_batches, b_batches):
            np.testing.assert_array_equal(a.joined(), b.joined())
            np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a_train.joined(), b_train.joined())
        np.testing.assert_array_equal(a_test.joined(), b_test.joined())

    def test_zero_noise_survived_features_are_separable(self):
        schema = FeatureSchema(vanished=2, survived=4, augmented=2, classes=3)
        cfg = SynthConfig(
            schema=schema, batches=1, batch_size=30, estage_size=60,
            separation=4.0, noise=0.0, seed=6,
        )
        _, etrain, etest = generate_synthetic(cfg)
        clf = train_ovr(etrain.survived, etrain.labels, alpha=1.0)
        pred = clf.predict(etest.survived)
        assert (pred == etest.labels.argmax(axis=1)).all()

    def test_signal_free_augmented_block_is_chance_level(self):
        schema = FeatureSchema(vanished=2, survived=4, augmented=6, classes=3)
        cfg = SynthConfig(
            schema=schema, batches=1, batch_size=10, estage_size=500,
            separation=4.0, noise=1.0, signal=(1.0, 1.0, 0.0), seed=7,
        )
        _, etrain, etest = generate_synthetic(cfg)
        clf = train_ovr(etrain.augmented, etrain.labels, alpha=1.0)
        acc = float(np.mean(clf.predict(etest.augmented) == etest.labels.argmax(axis=1)))
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
