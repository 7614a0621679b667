"""Shared data model for two-stage learning over an evolving feature space.

Feature partitions follow the stream's life cycle: *vanished* features exist
only during the compressing stage, *survived* features span both stages,
*augmented* features appear only in the expanding stage. Every matrix shape
in the library derives from one :class:`FeatureSchema`. Both stages work on
schema-order feature matrices with one-hot labels: a compressing-stage
:class:`Batch` holds one (vanished, survived) matrix, the expanding stage
plain (survived, augmented) ones. The one k-fold routine, shared by the grid
search and the ensemble weight search, lives here too.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs


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
    """One compressing-stage mini-batch: the n x (vanished + survived) feature
    matrix ``x`` in schema order, the n x classes one-hot ``labels``, and the
    width of ``x``'s leading vanished block. The ``vanished`` and ``survived``
    blocks are column views of ``x``; a zero-width vanished block is legal and
    is an n x 0 view. Instances are immutable after construction.
    """

    x: np.ndarray
    labels: np.ndarray
    vanished_width: int

    @classmethod
    def cstage(cls, vanished, survived, labels) -> "Batch":
        """A batch from separate vanished and survived blocks of equal row count."""
        vanished, survived = _as_matrix(vanished, "vanished"), _as_matrix(survived, "survived")
        if vanished.shape[0] != survived.shape[0]:
            raise SchemaError(f"blocks have {len(vanished)} vanished and {len(survived)} survived rows")
        return cls(np.hstack([vanished, survived]), _as_matrix(labels, "labels"), vanished.shape[1])

    @property
    def vanished(self) -> np.ndarray:
        return self.x[:, : self.vanished_width]

    @property
    def survived(self) -> np.ndarray:
        return self.x[:, self.vanished_width :]

    @property
    def n(self) -> int:
        return self.x.shape[0]


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
    simplex weights, ``w_base`` and ``w_joint = 1 - w_base``.

    ``v_base`` acts on the compressed representation (class-score features),
    ``v_joint`` on the joint representation (compressed + augmented). The
    square-root block weighting of the combined predictor is absorbed into
    the coefficients, so scoring is the plain sum of both blocks.
    """

    v_base: np.ndarray
    v_joint: np.ndarray
    w_base: float

    def __post_init__(self):
        c = self.v_base.shape[1]
        if self.v_base.shape[0] != c:
            raise SchemaError(
                f"compressed-block coefficients must be square, got {self.v_base.shape}"
            )
        if self.v_joint.shape[1] != c or self.v_joint.shape[0] < c:
            raise SchemaError(f"joint-block coefficients have bad shape {self.v_joint.shape}")
        if not 0.0 <= self.w_base <= 1.0:  # nan fails too
            raise SchemaError(f"base-block weight must lie in [0, 1], got {self.w_base}")

    @property
    def w_joint(self) -> float:
        return 1.0 - self.w_base


@dataclass(frozen=True)
class Hyperparams:
    """Regularization knobs of the compressing stage.

    ``lam`` weighs the consistency coupling between the two compressing-stage
    classifiers (0 decouples them) and ``rho`` is their ridge. The solve
    scales by 1 + 2 lam and 2 rho, so both must be finite.
    """

    lam: float = 1.0
    rho: float = 0.1

    def __post_init__(self):
        # float(): numpy scalars would warn on the overflow that is tested for
        if not (self.lam >= 0 and math.isfinite(1.0 + 2.0 * float(self.lam))):
            raise SchemaError(f"consistency weight must be >= 0, 1 + 2 lam finite, got {self.lam}")
        if not (self.rho > 0 and math.isfinite(2.0 * float(self.rho))):
            raise SchemaError(f"ridge must be > 0, 2 rho finite, got {self.rho}")


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


def _cholesky(mat: np.ndarray, what: str, owned: bool = False) -> np.ndarray:
    """The upper Cholesky factor U of a symmetric positive definite matrix,
    with U^T U = ``mat``.

    One LAPACK ``dpotrf`` call that reads only the upper triangle of ``mat``;
    the strict lower triangle of the result keeps ``mat``'s entries, which
    the upper-triangle LAPACK routines that take U never read. LAPACK does
    not check for nan or inf, so a non-finite ``mat`` raises
    :class:`NumericError` naming ``what`` before LAPACK sees it; a non-SPD
    one raises it from the factorization. ``owned=True`` hands over a
    Fortran-ordered float64 matrix that the caller built and checked to be
    finite: it is factored in place, without the scan, and returned as U.
    This is the one SPD factorization in the library: :func:`_solve_spd`,
    the expanding-stage ridge step and the direct-mode compressing-stage
    solve factor with it, the last one both halves of its split factor in
    place. Factor mode never calls it: it keeps its Cholesky factor up to
    date by QR instead.
    """
    if not owned and not np.isfinite(mat).all():
        raise NumericError(f"{what} solve failed: the system has non-finite entries")
    u, info = dpotrf(mat, lower=0, clean=0, overwrite_a=owned)
    if info > 0:
        raise NumericError(f"{what} solve failed: leading minor {info} is not positive definite")
    return u


def _solve_spd(mat: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    """Solve the symmetric positive definite system ``mat @ x = rhs``.

    The factor of :func:`_cholesky` and one LAPACK ``dpotrs`` call, which
    together give ``dposv``'s bits; only the upper triangle of ``mat`` is read
    and ``rhs`` may be a vector or a matrix. A non-finite system raises
    :class:`NumericError` naming ``what`` before LAPACK sees it, and a
    non-SPD one raises it from the factorization.
    """
    if not np.isfinite(rhs).all():
        raise NumericError(f"{what} solve failed: the system has non-finite entries")
    x, _ = dpotrs(_cholesky(mat, what), rhs)
    return x


def _open_text(path, error: type[SchemaError] = SchemaError) -> io.StringIO:
    """The whole of a UTF-8 text file as a text stream whose lines end at
    ``\\n``, ``\\r\\n`` or ``\\r``, as in text mode. An unreadable file or bytes
    that are not UTF-8 raise ``error`` naming the path (and the line)."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise error(f"{path}: cannot read: {exc.strerror or exc}") from exc
    try:
        return io.StringIO(raw.decode("utf-8"), newline=None)
    except UnicodeDecodeError as exc:
        head = raw[: exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise error(f"{path}:{line}: not UTF-8 text") from exc


def _accuracy(pred: np.ndarray, labels: np.ndarray) -> float:
    """Share of rows whose predicted class index is the one-hot label's class."""
    return float(np.mean(pred == labels.argmax(axis=1)))


def _cv_accuracy(x, y, folds: int, predict) -> np.ndarray:
    """Each candidate's validation accuracy summed over contiguous k-fold
    splits of the rows of ``x`` and one-hot ``y`` (2 <= folds <= rows).
    ``predict(x_train, y_train, x_val)`` returns one class-index vector per
    candidate; it is called once per fold, in order. The caller divides by
    ``folds``."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    n = x.shape[0]
    if folds < 2:
        raise SchemaError(f"need at least 2 folds, got {folds}")
    if n < folds:
        raise SchemaError(f"cannot make {folds} folds from {n} instances")
    total = 0.0
    for val_idx in np.array_split(np.arange(n), folds):
        train = np.ones(n, dtype=bool)
        train[val_idx] = False
        preds = predict(x[train], y[train], x[val_idx])
        y_val = y[val_idx]
        total = total + np.array([_accuracy(pred, y_val) for pred in preds])
    return total


def validate_batch(batch: Batch, schema: FeatureSchema) -> None:
    """Check a batch against a schema; raises :class:`SchemaError` naming
    the offending dimension. Features and labels must be 2-D arrays of a
    real numeric dtype (bool, integer or floating), checked first so that
    no other check does arithmetic on anything else."""
    for name, a in (("features", batch.x), ("labels", batch.labels)):
        if not isinstance(a, np.ndarray) or a.ndim != 2 or a.dtype.kind not in "biuf":
            got = f"{a.ndim}-D {a.dtype}" if isinstance(a, np.ndarray) else type(a).__name__
            raise SchemaError(f"batch {name} must be a 2-D real numeric array, got {got}")
    n = batch.n
    if n < 1:
        raise SchemaError("batch must contain at least one instance")
    for name, block, width in (
        ("vanished", batch.vanished, schema.vanished),
        ("survived", batch.survived, schema.survived),
    ):
        if block.shape[1] != width:
            raise SchemaError(f"{name} block is {block.shape[1]} wide, schema says {width}")
    if not np.isfinite(batch.x).all():
        raise SchemaError("batch features contain non-finite entries")

    y = batch.labels
    if y.shape != (n, schema.classes):
        raise SchemaError(f"labels have shape {y.shape}, expected ({n}, {schema.classes})")
    if not np.isin(y, (0.0, 1.0)).all():
        raise SchemaError("labels must be one-hot with entries in {0, 1}")
    if not (y.sum(axis=1) == 1.0).all():
        raise SchemaError("each label row must sum to exactly 1")
