"""Disk ingestion of evolving-feature streams plus a seeded synthetic generator.

Batch files are plain delimited text: one instance per row, feature columns
first, a single integer class label last. A JSON manifest declares the
partition widths, the ordered compressing-stage file list, the
expanding-stage train/test files, and the column ranges realizing each
partition. Readers hold at most one batch in memory at a time. Each file is
parsed in one ``np.loadtxt`` call; a file that call refuses, or whose rows
fail a check, is read again line by line, which names the file and line of
its first fault. Both readers end lines where text mode does and read each
value as ``float()`` does once ``str.strip()`` has stripped it. Both stages
are read with their feature columns in schema order, whatever their order in
the files: the compressing stage as :class:`Batch` objects (vanished, then
survived), the expanding stage as (features, one-hot labels) pairs
(survived, then augmented).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import (Batch, FeatureSchema, SchemaError, _check_int, _check_list, _check_real,
                    _open_text, _zeros, one_hot_encode)

# each manifest key and the Python type its JSON value must parse to; the
# array must hold at least one string, and strings only
_MANIFEST_TYPES = {
    "classes": int,
    "vanished": int,
    "survived": int,
    "augmented": int,
    "cstage_batches": list,
    "estage_train": str,
    "estage_test": str,
    "cstage_columns": dict,
    "estage_columns": dict,
}
_JSON_NAMES = {int: "integer", str: "string", list: "non-empty array of strings", dict: "object"}


# (features, one-hot labels): the rows of one file, or an expanding-stage set
# with its feature columns in schema order.
_Rows = tuple[np.ndarray, np.ndarray]


class ManifestError(SchemaError):
    """A manifest or batch file violates the stream contract."""


@dataclass(frozen=True)
class StreamManifest:
    """Validated description of an on-disk evolving-feature stream.

    Each stage's column ranges are half-open [start, stop) indices into the
    feature columns of its files, one per partition in schema order:
    (vanished, survived) for the compressing stage, (survived, augmented) for
    the expanding stage. The label always occupies the final column.
    """

    schema: FeatureSchema
    cstage_batches: tuple[Path, ...]
    estage_train: Path
    estage_test: Path
    cstage_columns: tuple[tuple[int, int], ...]
    estage_columns: tuple[tuple[int, int], ...]


def _parse_range(raw, name: str) -> tuple[int, int]:
    if (
        not isinstance(raw, (list, tuple))
        or len(raw) != 2
        or not all(type(v) is int for v in raw)  # bool is an int subclass
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
    try:
        raw = json.load(_open_text(path, ManifestError))
    except json.JSONDecodeError as exc:
        raise ManifestError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ManifestError(f"{path}: manifest must be a JSON object")
    unknown = set(raw) - set(_MANIFEST_TYPES)
    if unknown:
        raise ManifestError(f"{path}: unknown manifest keys {sorted(unknown)}")
    missing = set(_MANIFEST_TYPES) - set(raw)
    if missing:
        raise ManifestError(f"{path}: missing manifest keys {sorted(missing)}")
    for key, kind in _MANIFEST_TYPES.items():
        value = raw[key]
        # type(), not isinstance(): a width of true is not an integer
        if type(value) is not kind or (
            kind is list and not (value and all(type(p) is str for p in value))
        ):
            raise ManifestError(f"{path}: malformed manifest field: {key} must be a JSON "
                                f"{_JSON_NAMES[kind]}, got {value!r}")

    schema = FeatureSchema(**{k: raw[k] for k in ("vanished", "survived", "augmented", "classes")})
    base = path.parent
    batches = tuple(base / p for p in raw["cstage_batches"])
    train, test = base / raw["estage_train"], base / raw["estage_test"]
    c_cols = {k: _parse_range(v, f"cstage {k}") for k, v in raw["cstage_columns"].items()}
    e_cols = {k: _parse_range(v, f"estage {k}") for k, v in raw["estage_columns"].items()}
    if set(c_cols) != {"vanished", "survived"}:
        raise ManifestError(f"cstage_columns must map exactly vanished/survived, got {sorted(c_cols)}")
    if set(e_cols) != {"survived", "augmented"}:
        raise ManifestError(f"estage_columns must map exactly survived/augmented, got {sorted(e_cols)}")
    _check_ranges(c_cols, {"vanished": schema.vanished, "survived": schema.survived}, "cstage")
    _check_ranges(e_cols, {"survived": schema.survived, "augmented": schema.augmented}, "estage")

    for f in (*batches, train, test):
        if not f.is_file():
            raise ManifestError(f"batch file not found: {f}")
    return StreamManifest(
        schema=schema,
        cstage_batches=batches,
        estage_train=train,
        estage_test=test,
        cstage_columns=(c_cols["vanished"], c_cols["survived"]),
        estage_columns=(e_cols["survived"], e_cols["augmented"]),
    )


def _read_rows(path: Path, n_features: int, classes: int) -> _Rows:
    """The rows of a batch file as (features, one-hot labels). A file that
    :func:`_parse_whole` refuses is read again line by line, which names the
    file and line of the first fault."""
    return _parse_whole(path, n_features, classes) or _read_rows_by_line(path, n_features, classes)


def _parse_whole(path: Path, n_features: int, classes: int) -> _Rows | None:
    """The rows of a batch file parsed in one ``np.loadtxt`` call and checked
    with vectorised tests, or None if loadtxt refuses the file or a check
    fails. loadtxt strips every ``str.isspace()`` character from around a
    value, so it accepts a subset of what the line reader does, with the
    same values."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an empty file only warns
            table = np.loadtxt(path, delimiter=",", comments=None, ndmin=2, encoding="utf-8")
    except (OSError, ValueError, Warning):
        return None
    feats, labels = table[:, :-1], table[:, -1]
    # nan fails every comparison, so the label test rejects it too
    if (
        table.shape[1] != n_features + 1
        or not ((0 <= labels) & (labels < classes) & (labels == np.trunc(labels))).all()
        or not np.isfinite(feats).all()
    ):
        return None
    return feats, one_hot_encode(labels, classes)


def _read_rows_by_line(path: Path, n_features: int, classes: int) -> _Rows:
    feats = []
    labels = []
    for lineno, line in enumerate(_open_text(path, ManifestError), start=1):
        line = line.strip()
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != n_features + 1:
            raise ManifestError(
                f"{path}:{lineno}: expected {n_features + 1} columns, got {len(cells)}"
            )
        try:
            row = [float(c.strip()) for c in cells]
        except ValueError as exc:
            raise ManifestError(f"{path}:{lineno}: malformed value: {exc}") from exc
        label = row.pop()
        # The range test comes first: it also rejects nan and inf before int() sees them.
        if not 0 <= label < classes or label != int(label):
            raise ManifestError(
                f"{path}:{lineno}: label {label} is not an integer in [0, {classes})"
            )
        if not all(map(math.isfinite, row)):
            raise ManifestError(f"{path}:{lineno}: feature values must be finite")
        feats.append(row)
        labels.append(int(label))
    if not feats:
        raise ManifestError(f"{path}: file contains no instances")
    return np.asarray(feats, dtype=np.float64), one_hot_encode(labels, classes)


def _schema_order(feats: np.ndarray, columns: tuple[tuple[int, int], ...]) -> np.ndarray:
    """The column ranges ``columns`` of ``feats``, side by side in that order,
    as a new C-ordered matrix."""
    return np.hstack([feats[:, start:stop] for start, stop in columns])


def stream_batches(manifest: StreamManifest):
    """Yield compressing-stage batches one file at a time."""
    schema = manifest.schema
    for path in manifest.cstage_batches:
        feats, labels = _read_rows(path, schema.cstage_width, schema.classes)
        yield Batch(_schema_order(feats, manifest.cstage_columns), labels, schema.vanished)


def read_estage(manifest: StreamManifest) -> tuple[_Rows, _Rows]:
    """Read the expanding-stage train and test files as (features, one-hot
    labels) pairs, with the feature columns in schema order: survived, then
    augmented."""
    pairs = []
    for path in (manifest.estage_train, manifest.estage_test):
        feats, labels = _read_rows(path, manifest.schema.estage_width, manifest.schema.classes)
        pairs.append((_schema_order(feats, manifest.estage_columns), labels))
    return pairs[0], pairs[1]


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
        if not isinstance(self.schema, FeatureSchema):
            raise SchemaError(f"schema must be a FeatureSchema, got {type(self.schema).__name__}")
        for name in ("batches", "batch_size", "estage_size", "seed"):
            _check_int(getattr(self, name), name)
        for name in ("separation", "noise"):
            _check_real(getattr(self, name), name)
        _check_list(self.signal, "signal")
        if self.batches < 1 or self.batch_size < 1 or self.estage_size < 1:
            raise SchemaError("batch counts and sizes must be >= 1")
        if not (0 <= self.separation < math.inf and 0 <= self.noise < math.inf):
            raise SchemaError(f"separation and noise must be >= 0 and finite, "
                              f"got {self.separation} and {self.noise}")
        if len(self.signal) != 3 or not all(0 <= f < math.inf for f in self.signal):
            raise SchemaError(f"signal must be three finite fractions >= 0, got {self.signal}")
        if self.seed < 0:
            raise SchemaError(f"seed must be >= 0, got {self.seed}")


def _balanced_labels(n: int, classes: int, rng: np.random.Generator) -> np.ndarray:
    return rng.permutation(np.arange(n) % classes)


def generate_synthetic(cfg: SynthConfig) -> tuple[list[Batch], _Rows, _Rows]:
    """Generate (compressing-stage batches, expanding train, expanding test).

    The expanding-stage train and test sets are (features, one-hot labels)
    pairs in schema order. Features are Gaussian around per-class means; the
    survived partition carries its label signal in both stages. Settings
    whose draws overflow raise :class:`SchemaError`.
    """
    rng = np.random.default_rng(cfg.seed)
    schema = cfg.schema
    widths = (schema.vanished, schema.survived, schema.augmented)
    total = sum(widths)

    means = _zeros((schema.classes, total), schema)

    def draw(n: int, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        labels = _balanced_labels(n, schema.classes, rng)
        feats = means[labels, start:stop] + cfg.noise * rng.standard_normal((n, stop - start))
        return feats, one_hot_encode(labels, schema.classes)

    with np.errstate(over="ignore", invalid="ignore"):  # the draws are checked below
        offset = 0
        for width, fraction in zip(widths, cfg.signal):
            if width:
                directions = rng.standard_normal((schema.classes, width))
                directions /= np.linalg.norm(directions, axis=1, keepdims=True)
                means[:, offset : offset + width] = cfg.separation * fraction * directions
            offset += width
        cbatches = [
            Batch(*draw(cfg.batch_size, 0, schema.cstage_width), schema.vanished)
            for _ in range(cfg.batches)
        ]
        train = draw(cfg.estage_size, schema.vanished, total)
        test = draw(cfg.estage_size, schema.vanished, total)
    if not all(np.isfinite(feats).all() for feats in (*(b.x for b in cbatches), train[0], test[0])):
        raise SchemaError(f"separation {cfg.separation} and noise {cfg.noise}, with signal "
                          f"{cfg.signal}, draw features that are not finite")
    return cbatches, train, test


def _write_batch_file(path: Path, feats: np.ndarray, labels: np.ndarray) -> None:
    classes = labels.argmax(axis=1)
    with path.open("w") as fh:
        for row, cls in zip(feats, classes):
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write(f",{int(cls)}\n")


def write_stream(
    cbatches: list[Batch], etrain: _Rows, etest: _Rows, out_dir, schema: FeatureSchema
) -> Path:
    """Write a stream to disk (batch files plus manifest); floats round-trip
    exactly through their shortest repr. ``etrain`` and ``etest`` are
    (features, one-hot labels) pairs in schema order. Returns the manifest
    path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = []
    for i, batch in enumerate(cbatches):
        name = f"cstage_{i:03d}.csv"
        _write_batch_file(out / name, batch.x, batch.labels)
        names.append(name)
    _write_batch_file(out / "estage_train.csv", *etrain)
    _write_batch_file(out / "estage_test.csv", *etest)

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
