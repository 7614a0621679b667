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
import numbers
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._scipy import dpotrf, dpotrs


class SchemaError(ValueError):
    """A batch, matrix, file or setting does not match its declared shapes or
    allowed range."""


class NumericError(ArithmeticError):
    """A numeric operation met non-finite data or an unsolvable system."""


def _is_a(value, kind: type) -> bool:
    """Whether ``value`` is an instance of ``kind``, a ``numbers`` class for a
    setting (numpy scalars included); bool is an int, but never a number here."""
    return isinstance(value, kind) and not isinstance(value, bool)


# The one rule for each kind of setting. Each raises SchemaError naming the
# setting ``name``; a str is a sequence, but never a tuple or list here.
def _check_int(value, name: str) -> None:
    if not _is_a(value, numbers.Integral):
        raise SchemaError(f"{name} must be an int, got {value!r}")


def _check_real(value, name: str) -> None:
    if not _is_a(value, numbers.Real):
        raise SchemaError(f"{name} must be a real number, got {value!r}")


def _check_list(values, name: str, kind: type = numbers.Real, what: str = "real numbers") -> None:
    if not (isinstance(values, (tuple, list)) and all(_is_a(v, kind) for v in values)):
        raise SchemaError(f"{name} must be a tuple or list of {what}, got {values!r}")


def _check_positive(value, name: str) -> None:
    if not (_is_a(value, numbers.Real) and 0 < value < math.inf):
        raise SchemaError(f"{name} must be > 0 and finite, got {value!r}")


def _as_matrix(a, name: str) -> np.ndarray:
    arr = np.ascontiguousarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise SchemaError(f"{name} must be 2-D, got {arr.ndim}-D")
    return arr


def _zeros(shape: tuple[int, int], schema: FeatureSchema, order: str = "C") -> np.ndarray:
    """``np.zeros(shape)`` for a matrix whose shape ``schema``'s widths set;
    a shape that numpy cannot allocate raises :class:`SchemaError` naming them."""
    try:
        return np.zeros(shape, order=order)
    except (ValueError, MemoryError) as exc:
        raise SchemaError(
            f"{schema} needs a {shape[0]} x {shape[1]} matrix, which cannot be allocated: {exc}"
        ) from exc


@dataclass(frozen=True)
class FeatureSchema:
    """Widths of the three feature partitions plus the class count."""

    vanished: int
    survived: int
    augmented: int
    classes: int

    def __post_init__(self):
        for name in ("vanished", "survived", "augmented", "classes"):
            _check_int(getattr(self, name), name)
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
        """vanished + 2 survived, the width of the coupled normal system in
        the classifiers' own unknowns. No mode forms that matrix; the width
        serves only ``harness.resolve_mode``, for its perfbench caller."""
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
    """Joint expanding-stage model: the k x c map ``coef`` from the joint
    block (c compressed class scores, then the augmented features) to class
    scores."""

    coef: np.ndarray

    def __post_init__(self):
        if self.coef.ndim != 2 or self.coef.shape[0] < self.coef.shape[1]:
            raise SchemaError(f"joint-block coefficients have bad shape {self.coef.shape}")
        if not np.isfinite(self.coef).all():
            raise NumericError("model coefficients must be finite")


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
        for name in ("lam", "rho"):
            _check_real(getattr(self, name), name)
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


def _solve_spd(mat: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    """Solve the symmetric positive definite system ``mat @ x = rhs``.

    The one SPD solve in the library: the logistic Newton step and the
    expanding stage's ridge both call it, and the compressing stage, which
    builds its Cholesky factors by QR, never does. One LAPACK ``dpotrf`` on
    the upper triangle of ``mat`` and one ``dpotrs``, which together give
    ``dposv``'s bits; ``rhs`` may be a vector or a matrix, and neither input
    is ever written. LAPACK does not check for nan or inf, so a non-finite
    system raises :class:`NumericError` naming ``what`` before LAPACK sees
    it; a non-SPD one raises it from the factorization.
    """
    if not (np.isfinite(mat).all() and np.isfinite(rhs).all()):
        raise NumericError(f"{what} solve failed: the system has non-finite entries")
    u, info = dpotrf(mat, lower=0, clean=0)
    if info > 0:
        raise NumericError(f"{what} solve failed: leading minor {info} is not positive definite")
    x, _ = dpotrs(u, rhs)
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


@contextmanager
def _replacing(path, binary: bool = False):
    """A sibling file for writing that replaces ``path`` once the block ends;
    if the block fails, it is removed and ``path`` is left as it was. An
    error in opening or renaming it names ``path``."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb" if binary else "w") as fh:
            yield fh
        os.replace(tmp, path)
    except OSError as exc:
        if exc.filename != str(tmp):
            raise
        raise OSError(exc.errno, exc.strerror, str(path)) from exc
    finally:
        tmp.unlink(missing_ok=True)


def _accuracy(pred: np.ndarray, labels: np.ndarray) -> float:
    """Share of rows whose predicted class index is the one-hot label's class."""
    return float(np.mean(pred == labels.argmax(axis=1)))


def _cv_accuracy(x, y, folds: int, predict) -> np.ndarray:
    """Each candidate's validation accuracy summed over contiguous k-fold
    splits of the rows of ``x`` and one-hot ``y`` (``folds`` an int,
    2 <= folds <= rows).
    The folds are the row ranges ``np.array_split`` would give, taken as
    slices: validation rows ``x[start:stop]``, training rows the rest, in
    order. ``predict(x_train, y_train, x_val)`` returns one class-index
    vector per candidate; it is called once per fold, in order, with training
    arrays made for that fold alone. The caller divides by ``folds``."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    n = x.shape[0]
    _check_int(folds, "folds")
    if folds < 2:
        raise SchemaError(f"need at least 2 folds, got {folds}")
    if n < folds:
        raise SchemaError(f"cannot make {folds} folds from {n} instances")
    size, larger = divmod(n, folds)  # the first ``larger`` folds hold one row more
    total, stop = 0.0, 0
    for fold in range(folds):
        start, stop = stop, stop + size + (fold < larger)
        preds = predict(np.concatenate((x[:start], x[stop:])),
                        np.concatenate((y[:start], y[stop:])), x[start:stop])
        truth = y[start:stop].argmax(axis=1)  # decoded once for every candidate
        total = total + (np.asarray(preds) == truth).mean(axis=1)
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
