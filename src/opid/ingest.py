"""Disk ingestion of evolving-feature streams plus a seeded synthetic generator.

Batch files are plain delimited text: one instance per row, feature columns
first, a single integer class label last. A JSON manifest declares the
partition widths, the ordered compressing-stage file list, the
expanding-stage train/test files, and the column ranges realizing each
partition. Readers hold at most one batch in memory at a time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import Batch, FeatureSchema, SchemaError, one_hot_encode

_MANIFEST_KEYS = {
    "classes",
    "vanished",
    "survived",
    "augmented",
    "cstage_batches",
    "estage_train",
    "estage_test",
    "cstage_columns",
    "estage_columns",
}


class ManifestError(SchemaError):
    """A manifest or batch file violates the stream contract."""


@dataclass(frozen=True)
class StreamManifest:
    """Validated description of an on-disk evolving-feature stream.

    Column ranges are half-open [start, stop) indices into the feature
    columns of each file; the label always occupies the final column.
    """

    schema: FeatureSchema
    cstage_batches: tuple[Path, ...]
    estage_train: Path
    estage_test: Path
    c_vanished: tuple[int, int]
    c_survived: tuple[int, int]
    e_survived: tuple[int, int]
    e_augmented: tuple[int, int]


def _parse_range(raw, name: str) -> tuple[int, int]:
    if (
        not isinstance(raw, (list, tuple))
        or len(raw) != 2
        or not all(isinstance(v, int) for v in raw)
    ):
        raise ManifestError(f"{name} range must be a [start, stop) pair of integers, got {raw!r}")
    start, stop = raw
    if start < 0 or stop < start:
        raise ManifestError(f"{name} range [{start}, {stop}) is not a valid span")
    return start, stop


def _check_ranges(ranges: dict[str, tuple[int, int]], widths: dict[str, int], stage: str) -> None:
    total = sum(widths.values())
    spans = []
    for name, width in widths.items():
        start, stop = ranges[name]
        if stop - start != width:
            raise ManifestError(
                f"{stage} {name} range [{start}, {stop}) has width {stop - start}, "
                f"schema says {width}"
            )
        if stop > total:
            raise ManifestError(
                f"{stage} {name} range [{start}, {stop}) exceeds the {total} feature columns"
            )
        spans.append((start, stop, name))
    spans.sort()
    for (_, stop_a, name_a), (start_b, _, name_b) in zip(spans, spans[1:]):
        if start_b < stop_a:
            raise ManifestError(f"{stage} ranges {name_a} and {name_b} overlap")


def parse_manifest(path) -> StreamManifest:
    """Load and validate a stream manifest; file paths resolve relative to
    the manifest's directory."""
    path = Path(path)
    if not path.is_file():
        raise ManifestError(f"manifest not found: {path}")
    with path.open() as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ManifestError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ManifestError(f"{path}: manifest must be a JSON object")
    unknown = set(raw) - _MANIFEST_KEYS
    if unknown:
        raise ManifestError(f"{path}: unknown manifest keys {sorted(unknown)}")
    missing = _MANIFEST_KEYS - set(raw)
    if missing:
        raise ManifestError(f"{path}: missing manifest keys {sorted(missing)}")

    schema = FeatureSchema(
        vanished=int(raw["vanished"]),
        survived=int(raw["survived"]),
        augmented=int(raw["augmented"]),
        classes=int(raw["classes"]),
    )
    c_cols = {k: _parse_range(v, f"cstage {k}") for k, v in dict(raw["cstage_columns"]).items()}
    e_cols = {k: _parse_range(v, f"estage {k}") for k, v in dict(raw["estage_columns"]).items()}
    if set(c_cols) != {"vanished", "survived"}:
        raise ManifestError(f"cstage_columns must map exactly vanished/survived, got {sorted(c_cols)}")
    if set(e_cols) != {"survived", "augmented"}:
        raise ManifestError(f"estage_columns must map exactly survived/augmented, got {sorted(e_cols)}")
    _check_ranges(c_cols, {"vanished": schema.vanished, "survived": schema.survived}, "cstage")
    _check_ranges(e_cols, {"survived": schema.survived, "augmented": schema.augmented}, "estage")

    base = path.parent
    batches = tuple(base / p for p in raw["cstage_batches"])
    train = base / raw["estage_train"]
    test = base / raw["estage_test"]
    for f in (*batches, train, test):
        if not f.is_file():
            raise ManifestError(f"batch file not found: {f}")
    return StreamManifest(
        schema=schema,
        cstage_batches=batches,
        estage_train=train,
        estage_test=test,
        c_vanished=c_cols["vanished"],
        c_survived=c_cols["survived"],
        e_survived=e_cols["survived"],
        e_augmented=e_cols["augmented"],
    )


def _read_rows(path: Path, n_features: int, classes: int) -> tuple[np.ndarray, np.ndarray]:
    feats = []
    labels = []
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != n_features + 1:
                raise ManifestError(
                    f"{path}:{lineno}: expected {n_features + 1} columns, got {len(cells)}"
                )
            try:
                row = [float(c) for c in cells]
            except ValueError as exc:
                raise ManifestError(f"{path}:{lineno}: malformed value: {exc}") from exc
            label = row[-1]
            # The range test comes first: it also rejects nan and inf before int() sees them.
            if not 0 <= label < classes or label != int(label):
                raise ManifestError(
                    f"{path}:{lineno}: label {label} is not an integer in [0, {classes})"
                )
            feats.append(row[:-1])
            labels.append(int(label))
    if not feats:
        raise ManifestError(f"{path}: file contains no instances")
    return np.asarray(feats, dtype=np.float64), one_hot_encode(labels, classes)


@dataclass(frozen=True)
class _Affine:
    shift: np.ndarray
    scale: np.ndarray

    @classmethod
    def from_features(cls, feats: np.ndarray) -> "_Affine":
        std = feats.std(axis=0)
        return cls(shift=feats.mean(axis=0), scale=np.where(std > 0, std, 1.0))

    def apply(self, feats: np.ndarray) -> np.ndarray:
        return (feats - self.shift) / self.scale


def _cstage_batch(feats: np.ndarray, labels: np.ndarray, manifest: StreamManifest) -> Batch:
    v0, v1 = manifest.c_vanished
    s0, s1 = manifest.c_survived
    return Batch.cstage(vanished=feats[:, v0:v1], survived=feats[:, s0:s1], labels=labels)


def _estage_batch(feats: np.ndarray, labels: np.ndarray, manifest: StreamManifest) -> Batch:
    s0, s1 = manifest.e_survived
    a0, a1 = manifest.e_augmented
    return Batch.estage(survived=feats[:, s0:s1], augmented=feats[:, a0:a1], labels=labels)


def stream_batches(manifest: StreamManifest, standardize: bool = False):
    """Yield compressing-stage batches one file at a time.

    With ``standardize`` set, features are affinely rescaled using the mean
    and standard deviation of the first batch only, so the pass stays
    one-pass.
    """
    width = manifest.schema.cstage_width
    affine = None
    for path in manifest.cstage_batches:
        feats, labels = _read_rows(path, width, manifest.schema.classes)
        if standardize:
            if affine is None:
                affine = _Affine.from_features(feats)
            feats = affine.apply(feats)
        yield _cstage_batch(feats, labels, manifest)


def load_estage(manifest: StreamManifest, standardize: bool = False) -> tuple[Batch, Batch]:
    """Read the expanding-stage train and test batches; scaling statistics,
    when requested, come from the training batch alone."""
    width = manifest.schema.estage_width
    train_f, train_y = _read_rows(manifest.estage_train, width, manifest.schema.classes)
    test_f, test_y = _read_rows(manifest.estage_test, width, manifest.schema.classes)
    if standardize:
        affine = _Affine.from_features(train_f)
        train_f = affine.apply(train_f)
        test_f = affine.apply(test_f)
    return (
        _estage_batch(train_f, train_y, manifest),
        _estage_batch(test_f, test_y, manifest),
    )


@dataclass(frozen=True)
class SynthConfig:
    """Seeded generator settings for an evolving-feature stream.

    Class means are separated random directions per partition; ``signal``
    scales the separation carried by the (vanished, survived, augmented)
    partitions, so e.g. signal=(1, 1, 0) makes augmented features pure
    noise. Identical configs generate identical streams.
    """

    schema: FeatureSchema
    batches: int
    batch_size: int
    estage_size: int
    separation: float = 2.0
    noise: float = 1.0
    signal: tuple[float, float, float] = (1.0, 1.0, 1.0)
    seed: int = 0

    def __post_init__(self):
        if self.batches < 1 or self.batch_size < 1 or self.estage_size < 1:
            raise ValueError("batch counts and sizes must be >= 1")
        if self.separation < 0 or self.noise < 0:
            raise ValueError("separation and noise must be >= 0")
        if len(self.signal) != 3 or any(f < 0 for f in self.signal):
            raise ValueError("signal must be three fractions >= 0")


def _balanced_labels(n: int, classes: int, rng: np.random.Generator) -> np.ndarray:
    return rng.permutation(np.arange(n) % classes)


def generate_synthetic(cfg: SynthConfig) -> tuple[list[Batch], Batch, Batch]:
    """Generate (compressing-stage batches, expanding train, expanding test).

    Features are Gaussian around per-class means; the survived partition
    carries its label signal in both stages.
    """
    rng = np.random.default_rng(cfg.seed)
    schema = cfg.schema
    widths = (schema.vanished, schema.survived, schema.augmented)
    total = sum(widths)

    means = np.zeros((schema.classes, total))
    offset = 0
    for width, fraction in zip(widths, cfg.signal):
        if width:
            directions = rng.standard_normal((schema.classes, width))
            directions /= np.linalg.norm(directions, axis=1, keepdims=True)
            means[:, offset : offset + width] = cfg.separation * fraction * directions
        offset += width

    def draw(n: int, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        labels = _balanced_labels(n, schema.classes, rng)
        feats = means[labels, start:stop] + cfg.noise * rng.standard_normal((n, stop - start))
        return feats, one_hot_encode(labels, schema.classes)

    c_stop = schema.cstage_width
    cbatches = []
    for _ in range(cfg.batches):
        feats, labels = draw(cfg.batch_size, 0, c_stop)
        cbatches.append(
            Batch.cstage(
                vanished=feats[:, : schema.vanished],
                survived=feats[:, schema.vanished :],
                labels=labels,
            )
        )

    def estage_batch() -> Batch:
        feats, labels = draw(cfg.estage_size, schema.vanished, total)
        return Batch.estage(
            survived=feats[:, : schema.survived],
            augmented=feats[:, schema.survived :],
            labels=labels,
        )

    return cbatches, estage_batch(), estage_batch()


def _write_batch_file(path: Path, feats: np.ndarray, labels: np.ndarray) -> None:
    classes = labels.argmax(axis=1)
    with path.open("w") as fh:
        for row, cls in zip(feats, classes):
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write(f",{int(cls)}\n" if row.size else f"{int(cls)}\n")


def write_stream(
    cbatches: list[Batch], etrain: Batch, etest: Batch, out_dir, schema: FeatureSchema
) -> Path:
    """Write a stream to disk (batch files plus manifest); floats round-trip
    exactly through their shortest repr. Returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = []
    for i, batch in enumerate(cbatches):
        name = f"cstage_{i:03d}.csv"
        _write_batch_file(out / name, batch.joined(), batch.labels)
        names.append(name)
    _write_batch_file(out / "estage_train.csv", etrain.joined(), etrain.labels)
    _write_batch_file(out / "estage_test.csv", etest.joined(), etest.labels)

    manifest = {
        "classes": schema.classes,
        "vanished": schema.vanished,
        "survived": schema.survived,
        "augmented": schema.augmented,
        "cstage_batches": names,
        "estage_train": "estage_train.csv",
        "estage_test": "estage_test.csv",
        "cstage_columns": {
            "vanished": [0, schema.vanished],
            "survived": [schema.vanished, schema.cstage_width],
        },
        "estage_columns": {
            "survived": [0, schema.survived],
            "augmented": [schema.survived, schema.estage_width],
        },
    }
    manifest_path = out / "manifest.json"
    with manifest_path.open("w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest_path
