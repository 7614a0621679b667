"""Shared data model for two-stage learning over an evolving feature space.

Feature partitions follow the stream's life cycle: *vanished* features exist
only during the compressing stage, *survived* features span both stages,
*augmented* features appear only in the expanding stage. Every matrix shape
in the library derives from one :class:`FeatureSchema`. Compressing-stage
data arrives as :class:`Batch` objects; the expanding stage works on plain
feature matrices in schema order (survived, then augmented) with one-hot
labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

class SchemaError(ValueError):
    """A batch, matrix, file or setting does not match its declared shapes or
    allowed range."""


class NumericError(ArithmeticError):
    """A numeric operation met non-finite data or an unsolvable system."""


def _as_matrix(a, name: str) -> np.ndarray:
    arr = np.ascontiguousarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise SchemaError(f"{name} must be 2-D, got {arr.ndim}-D")
    return arr


@dataclass(frozen=True)
class FeatureSchema:
    """Widths of the three feature partitions plus the class count."""

    vanished: int
    survived: int
    augmented: int
    classes: int

    def __post_init__(self):
        if self.survived < 1:
            raise SchemaError(f"survived width must be >= 1, got {self.survived}")
        if self.classes < 2:
            raise SchemaError(f"class count must be >= 2, got {self.classes}")
        if self.vanished < 0:
            raise SchemaError(f"vanished width must be >= 0, got {self.vanished}")
        if self.augmented < 0:
            raise SchemaError(f"augmented width must be >= 0, got {self.augmented}")

    @property
    def cstage_width(self) -> int:
        """Instance width during the compressing stage."""
        return self.vanished + self.survived

    @property
    def estage_width(self) -> int:
        """Instance width during the expanding stage."""
        return self.survived + self.augmented

    @property
    def stats_dim(self) -> int:
        """Row count of the coupled normal system: one block for the
        all-feature classifier, one for the survived-only classifier."""
        return self.vanished + 2 * self.survived


@dataclass(frozen=True)
class Batch:
    """One compressing-stage mini-batch: the vanished and survived feature
    blocks plus the n x classes one-hot ``labels``. A zero-width vanished
    block is legal and appears as an n x 0 array. Instances are immutable
    after construction.
    """

    vanished: np.ndarray
    survived: np.ndarray
    labels: np.ndarray

    @classmethod
    def cstage(cls, vanished, survived, labels) -> "Batch":
        return cls(
            vanished=_as_matrix(vanished, "vanished"),
            survived=_as_matrix(survived, "survived"),
            labels=_as_matrix(labels, "labels"),
        )

    @property
    def n(self) -> int:
        return self.survived.shape[0]

    def joined(self) -> np.ndarray:
        """All feature columns of this batch, in schema order."""
        return np.hstack([self.vanished, self.survived])


@dataclass(frozen=True)
class CStageModel:
    """Coupled compressing-stage classifiers.

    ``coef_full`` maps all current features (vanished + survived) to class
    scores; ``coef_survived`` maps survived features only and is the part
    that outlives the feature change.
    """

    coef_full: np.ndarray
    coef_survived: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.coef_full).all() and np.isfinite(self.coef_survived).all()):
            raise NumericError("model coefficients must be finite")
        if self.coef_full.shape[1] != self.coef_survived.shape[1]:
            raise SchemaError("coefficient blocks disagree on class count")


@dataclass(frozen=True)
class EStageModel:
    """Joint expanding-stage model: two coefficient blocks plus their
    simplex weights.

    ``v_base`` acts on the compressed representation (class-score features),
    ``v_joint`` on the joint representation (compressed + augmented). The
    square-root block weighting of the combined predictor is absorbed into
    the coefficients, so scoring is the plain sum of both blocks.
    """

    v_base: np.ndarray
    v_joint: np.ndarray
    w_base: float
    w_joint: float

    def __post_init__(self):
        c = self.v_base.shape[1]
        if self.v_base.shape[0] != c:
            raise SchemaError(
                f"compressed-block coefficients must be square, got {self.v_base.shape}"
            )
        if self.v_joint.shape[1] != c or self.v_joint.shape[0] < c:
            raise SchemaError(f"joint-block coefficients have bad shape {self.v_joint.shape}")
        if self.w_base < 0 or self.w_joint < 0 or abs(self.w_base + self.w_joint - 1.0) > 1e-12:
            raise SchemaError(
                f"weights must lie on the simplex, got ({self.w_base}, {self.w_joint})"
            )


@dataclass(frozen=True)
class Hyperparams:
    """Regularization knobs shared across both stages.

    ``lam`` weighs the consistency coupling between the two compressing-stage
    classifiers (0 decouples them), ``rho`` is their ridge, ``gamma`` the
    expanding-stage ridge, ``alpha1``/``alpha2`` the logistic loss weights of
    the ensemble variant.
    """

    lam: float = 1.0
    rho: float = 0.1
    gamma: float = 1.0
    alpha1: float = 1.0
    alpha2: float = 1.0

    def __post_init__(self):
        if self.lam < 0:
            raise SchemaError(f"consistency weight must be >= 0, got {self.lam}")
        if self.rho <= 0:
            raise SchemaError(f"ridge must be > 0, got {self.rho}")
        if self.gamma <= 0:
            raise SchemaError(f"expanding-stage ridge must be > 0, got {self.gamma}")
        if self.alpha1 <= 0 or self.alpha2 <= 0:
            raise SchemaError("logistic loss weights must be > 0")


def one_hot_encode(labels, classes: int) -> np.ndarray:
    """Encode integer class indices as an n x classes one-hot matrix."""
    idx = np.asarray(labels, dtype=np.int64)
    if idx.ndim != 1:
        raise SchemaError(f"labels must be 1-D, got {idx.ndim}-D")
    if idx.size and (idx.min() < 0 or idx.max() >= classes):
        raise SchemaError(
            f"label index out of range [0, {classes}): saw {int(idx.min())}..{int(idx.max())}"
        )
    out = np.zeros((idx.size, classes), dtype=np.float64)
    out[np.arange(idx.size), idx] = 1.0
    return out


def argmax_decode(scores) -> np.ndarray:
    """Decode a score matrix to class indices; ties go to the lowest index."""
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 2:
        raise SchemaError(f"scores must be 2-D, got {s.ndim}-D")
    if not np.isfinite(s).all():
        raise NumericError("scores contain non-finite entries")
    return s.argmax(axis=1)


def class_signs(labels: np.ndarray, cls: int) -> np.ndarray:
    """One-hot labels -> +/-1 vector for a one-vs-rest binary task."""
    return np.where(labels[:, cls] > 0, 1.0, -1.0)


def _solve_spd(mat: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    """Solve the symmetric positive definite system ``mat @ x = rhs``.

    A non-finite or non-SPD system raises :class:`NumericError` naming ``what``.
    """
    if not (np.isfinite(mat).all() and np.isfinite(rhs).all()):
        raise NumericError(f"{what} solve failed: the system has non-finite entries")
    try:
        return scipy.linalg.solve(mat, rhs, assume_a="pos", check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NumericError(f"{what} solve failed: {exc}") from exc


def _read_text(path, error: type[SchemaError] = SchemaError) -> str:
    """The whole of a UTF-8 text file. An unreadable file or a byte sequence
    that is not UTF-8 raises ``error`` naming the path (and the line)."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise error(f"{path}: cannot read: {exc.strerror or exc}") from exc
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{line}: not UTF-8 text") from exc


def _fold_splits(n: int, folds: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Contiguous k-fold splits of ``n`` rows as (training mask, validation
    indices) pairs; needs 2 <= folds <= n."""
    if folds < 2:
        raise ValueError(f"need at least 2 folds, got {folds}")
    if n < folds:
        raise ValueError(f"cannot make {folds} folds from {n} instances")
    splits = []
    for val_idx in np.array_split(np.arange(n), folds):
        mask = np.ones(n, dtype=bool)
        mask[val_idx] = False
        splits.append((mask, val_idx))
    return splits


def validate_batch(batch: Batch, schema: FeatureSchema) -> None:
    """Check a batch against a schema; raises :class:`SchemaError` naming
    the offending dimension."""
    n = batch.n
    if n < 1:
        raise SchemaError("batch must contain at least one instance")
    for name, block, width in (
        ("vanished", batch.vanished, schema.vanished),
        ("survived", batch.survived, schema.survived),
    ):
        if block.shape[0] != n:
            raise SchemaError(f"{name} block has {block.shape[0]} rows, expected {n}")
        if block.shape[1] != width:
            raise SchemaError(f"{name} block is {block.shape[1]} wide, schema says {width}")
        if not np.isfinite(block).all():
            raise SchemaError(f"{name} block contains non-finite entries")

    y = batch.labels
    if y.shape != (n, schema.classes):
        raise SchemaError(f"labels have shape {y.shape}, expected ({n}, {schema.classes})")
    if not np.isin(y, (0.0, 1.0)).all():
        raise SchemaError("labels must be one-hot with entries in {0, 1}")
    if not (y.sum(axis=1) == 1.0).all():
        raise SchemaError("each label row must sum to exactly 1")
