"""One-pass compressing-stage trainer.

The compressing stage sees mini-batches carrying vanished + survived features
and learns two coupled linear classifiers: one on all current features, one
on survived features only, tied together by a consistency penalty so the
survived-feature classifier retains what the vanished features knew. The
entire stream is summarized by a fixed-size pair of sufficient statistics,
so each instance is read exactly once and memory never grows with the data.

Two interchangeable accumulation strategies sit behind the same interface:

* ``direct``  -- accumulate only the Gram pair G = X^T X, B = X^T Y; build
  the normal matrix M(lam, rho) and factorize it once at solve time.
* ``factor``  -- maintain an upper-triangular Cholesky factor R with
  R^T R = M, so the solution is two triangular solves away at any point of
  the stream. Each batch adds W^T W to M for a 2n x m matrix W (n = batch
  size), and the QR factorization of [R; W] folds it into R (Golub & Van
  Loan, Matrix Computations, 4th ed., sec. 6.5). W's lower n rows are zero
  outside the trailing survived columns, so two LAPACK ``dtpqrt`` calls do
  it: one folds the upper n rows into all of R in place, the other folds
  the lower rows into R's trailing survived x survived block alone. Unlike
  an updated inverse, the factor stays accurate when M is ill-conditioned.
"""

from __future__ import annotations

import math
import zipfile
import zlib
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.linalg.lapack import dlange, dpotrs, dtpqrt

from .model import (
    Batch,
    CStageModel,
    FeatureSchema,
    Hyperparams,
    NumericError,
    SchemaError,
    _cholesky,
    validate_batch,
)

DIRECT = "direct"
FACTOR = "factor"
SNAPSHOT_FORMAT = 2  # the Gram-pair layout; unversioned snapshots predate it
# Block size of both factor-mode ``dtpqrt`` calls. At m = 2220, survived 960
# and 60 rows per batch, on one core of a 2-vCPU x86-64 machine, 16, 24, 32
# and 48 tied within the noise (median absorb 49-58 ms, quartiles about 5 ms
# either side, over interleaved runs of 12 batches); 64 tied or was up to 4%
# slower, and 8 and 12 were 15-19% slower.
_QR_BLOCK = 32
# No value that dtpqrt forms exceeds _QR_HEADROOM * N, N = ||[R; W]||_F:
# column norms stay <= N, Householder vectors are 1 over entries <= 1, and
# T = I - Q11 of the orthogonal block reflector I - V T V^T has entries <= 2,
# so T (V^T c) sums at most _QR_BLOCK terms of at most 2 * 2N each.
_QR_HEADROOM = 4.0 * _QR_BLOCK


@dataclass
class CStageStats:
    """Streaming sufficient statistics of the compressing-stage objective.

    ``mat`` is the (p, p) Gram matrix G in ``direct`` mode and, in ``factor``
    mode, the upper-triangular, Fortran-ordered (m, m) R with R^T R equal to
    the coupled normal matrix, with p = vanished + survived and m = p +
    survived. ``rhs`` is the (p, classes) cross-moment B with the one-hot
    labels. The footprint is fixed by the schema, never by how many
    instances were absorbed; factor mode has ``hyper`` folded into ``mat``.
    Factor mode keeps ``r_norm`` = ||R||_F, derived from ``mat`` when the
    statistics are made or loaded and grown by each absorb; snapshots omit it.
    Single-writer: factor-mode absorbing changes ``mat`` in place, its
    trailing (survived, survived) block through one copy that is written
    back; direct mode builds new arrays and swaps them in only once they are
    checked finite.
    """

    mode: str
    schema: FeatureSchema
    hyper: Hyperparams
    mat: np.ndarray
    rhs: np.ndarray
    batches_seen: int = 0
    r_norm: float | None = field(init=False)

    def __post_init__(self):
        self.r_norm = dlange("F", self.mat) if self.mode == FACTOR else None


def init_stats(schema: FeatureSchema, hyper: Hyperparams, mode: str = DIRECT) -> CStageStats:
    """Empty-stream statistics: a zero Gram matrix (direct) or the factor
    sqrt(rho) I of the ridge-only matrix (factor), zero right-hand side."""
    if mode not in (DIRECT, FACTOR):
        raise SchemaError(f"unknown accumulation mode {mode!r}")
    p, m = schema.cstage_width, schema.stats_dim
    mat = np.zeros((p, p)) if mode == DIRECT else np.sqrt(hyper.rho) * np.eye(m, order="F")
    return CStageStats(mode, schema, hyper, mat, np.zeros((p, schema.classes)))


def absorb_batch(stats: CStageStats, batch: Batch) -> CStageStats:
    """Fold one compressing-stage batch into the statistics (in place).

    One-pass contract: each batch is absorbed exactly once. A batch that
    overflows the statistics to non-finite values raises
    :class:`NumericError` and leaves them as they were.
    """
    validate_batch(batch, stats.schema)

    x_all = batch.x
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is checked below
        rhs = stats.rhs + x_all.T @ batch.labels
        if stats.mode == DIRECT:
            mat = stats.mat + x_all.T @ x_all
            fits = np.isfinite(mat).all()
        else:
            # The increment of M is W^T W with W = [[a X, b X_s], [0, d X_s]],
            # where a^2 = b^2 + d^2 = 1 + lam and a b = -lam. The upper rows
            # are w, the survived-only lower ones w_s.
            p, lam = stats.schema.cstage_width, stats.hyper.lam
            a = np.sqrt(1.0 + lam)
            w = np.empty((batch.n, stats.schema.stats_dim), order="F")
            w[:, :p] = a * x_all
            w[:, p:] = -lam / a * batch.survived
            w_s = np.sqrt((1.0 + 2.0 * lam) / (1.0 + lam)) * batch.survived
            # ||R_new||_F = ||[R; W]||_F; w_s.T is Fortran-ordered, so not copied
            r_norm = math.hypot(stats.r_norm, dlange("F", w), dlange("F", w_s.T))
            fits = math.isfinite(_QR_HEADROOM * r_norm)
        if not (fits and np.isfinite(rhs).all()):
            raise NumericError(
                f"batch {stats.batches_seen} overflows the statistics to non-finite values"
            )
        if stats.mode == FACTOR:
            # The new R is the triangle of qr([R; W]). A Fortran-ordered R is
            # overwritten in place; any other layout is copied once. W's lower
            # rows [0, w_s] are zero in the first p columns, so with
            # R = [[R11, R12], [0, R22]] they leave R11 and R12 as they are,
            # and R22 becomes the triangle of qr([R22; w_s]).
            mat = _qr_update(stats.mat, w)
            mat[p:, p:] = _qr_update(mat[p:, p:].copy(order="F"), w_s)
            stats.r_norm = r_norm
    stats.mat, stats.rhs = mat, rhs
    stats.batches_seen += 1
    return stats


def _qr_update(r: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The upper triangle of qr([r; w]) for an upper-triangular r, written
    over r if it is Fortran-ordered; ``w`` may be overwritten too."""
    nb = min(_QR_BLOCK, r.shape[1])  # dtpqrt rejects a block wider than r
    return dtpqrt(0, nb, r, w, overwrite_a=1, overwrite_b=1)[0]


def _coupled_system(stats: CStageStats) -> tuple[np.ndarray | None, np.ndarray]:
    """M(lam, rho) and the right-hand side [B; B[v:]] of the coupled normal
    system, v = vanished. M is built from the Gram matrix in direct mode only;
    factor mode holds M's factor already and gets None in its place."""
    v = stats.schema.vanished
    rhs = np.vstack([stats.rhs, stats.rhs[v:]])
    if stats.mode != DIRECT:
        return None, rhs
    gram, lam = stats.mat, stats.hyper.lam
    cross = -lam * gram[:, v:]
    mat = np.block([[(1.0 + lam) * gram, cross], [cross.T, (1.0 + lam) * gram[v:, v:]]])
    mat.flat[:: mat.shape[0] + 1] += stats.hyper.rho
    return mat, rhs


def solve_model(stats: CStageStats) -> CStageModel:
    """Solve the coupled normal system for both coefficient blocks.

    Both modes end in one LAPACK ``dpotrs`` call on an upper Cholesky factor
    of M(lam, rho). Direct mode builds M from the Gram pair and factors it;
    factor mode holds the factor already, which is what makes the anytime
    solution cheap on that path.
    """
    mat, rhs = _coupled_system(stats)
    factor = stats.mat if mat is None else _cholesky(mat, "normal-equation")
    coef, _ = dpotrs(factor, rhs)
    p = stats.schema.cstage_width
    return CStageModel(coef_full=coef[:p], coef_survived=coef[p:])


def compress(x_sur, model: CStageModel) -> np.ndarray:
    """Class scores of the survived-feature classifier, used as the stacked
    representation in the expanding stage."""
    x = np.asarray(x_sur, dtype=np.float64)
    if x.ndim != 2:
        raise SchemaError(f"survived block must be 2-D, got {x.ndim}-D")
    if x.shape[1] != model.coef_survived.shape[0]:
        raise SchemaError(
            f"survived block is {x.shape[1]} wide, model expects {model.coef_survived.shape[0]}"
        )
    return x @ model.coef_survived


def save_stats(stats: CStageStats, path) -> None:
    """Snapshot the statistics so a pass can be suspended and resumed.

    Binary container with exact float round-trip: format version, mode tag,
    schema widths, regularization, batch counter, and the ``mat``/``rhs`` pair.
    The file is written at exactly ``path``, whatever its suffix.
    """
    with open(path, "wb") as fh:  # np.savez(path) appends ".npz" to any other suffix
        np.savez(
            fh,
            format=SNAPSHOT_FORMAT,
            mode=np.array(stats.mode),
            **asdict(stats.schema),
            **asdict(stats.hyper),
            batches_seen=stats.batches_seen,
            mat=stats.mat,
            rhs=stats.rhs,
        )


_SNAPSHOT_SCALARS = {  # dtype kinds accepted for each 0-d snapshot field
    "format": "iu", "mode": "U", "vanished": "iu", "survived": "iu", "augmented": "iu",
    "classes": "iu", "lam": "iuf", "rho": "iuf", "batches_seen": "iu",
}


def load_stats(path) -> CStageStats:
    """Read a snapshot written by :func:`save_stats`. Any unreadable file,
    missing or malformed field, or other format version, unversioned
    snapshots included, raises :class:`SchemaError`, and so does a factor
    that is not upper-triangular or has a zero on its diagonal. Nothing is
    converted, but ``mat`` is returned Fortran-ordered, the layout that factor
    mode updates in place, whatever order it was stored in."""
    try:
        with open(path, "rb") as fh:  # np.load(path) leaks the handle of a broken archive
            data = np.load(fh)
            if not isinstance(data, np.lib.npyio.NpzFile):
                raise ValueError("not an .npz archive")
            with data:
                raw = {key: data[key] for key in data.files}
    # zipfile raises NotImplementedError for an unknown compression method and
    # RuntimeError for a member flagged as encrypted.
    except (OSError, EOFError, ValueError, NotImplementedError, RuntimeError,
            zipfile.BadZipFile, zlib.error) as exc:
        raise SchemaError(f"{path}: not a readable statistics snapshot: {exc}") from exc
    for key, kinds in _SNAPSHOT_SCALARS.items():
        value = raw.get(key)
        if value is None or value.shape != () or value.dtype.kind not in kinds:
            raise SchemaError(f"{path}: snapshot field {key!r} is missing or malformed")
    if raw["format"] != SNAPSHOT_FORMAT:
        raise SchemaError(f"{path}: snapshot format {raw['format']}, expected {SNAPSHOT_FORMAT}")
    mode, seen = str(raw["mode"]), int(raw["batches_seen"])
    if mode not in (DIRECT, FACTOR) or seen < 0:
        raise SchemaError(f"{path}: bad settings {mode=} batches_seen={seen}")
    try:
        hyper = Hyperparams(lam=float(raw["lam"]), rho=float(raw["rho"]))
        widths = (int(raw[k]) for k in ("vanished", "survived", "augmented", "classes"))
        schema = FeatureSchema(*widths)
    except SchemaError as exc:
        raise SchemaError(f"{path}: bad settings: {exc}") from None
    dim = schema.cstage_width if mode == DIRECT else schema.stats_dim
    for key, shape in (("mat", (dim, dim)), ("rhs", (schema.cstage_width, schema.classes))):
        arr = raw.get(key, np.empty(0))
        if arr.shape != shape or arr.dtype != np.float64 or not np.isfinite(arr).all():
            raise SchemaError(f"{path}: {mode} snapshot needs a finite float64 {key!r} of {shape}")
    mat = np.asfortranarray(raw["mat"])
    # column by column, with no (m, m) temporary; dpotrs divides by the diagonal
    if mode == FACTOR and (not mat.diagonal().all() or any(mat[j + 1 :, j].any() for j in range(dim))):
        raise SchemaError(f"{path}: factor 'mat' must be upper-triangular with a nonzero diagonal")
    return CStageStats(mode, schema, hyper, mat, raw["rhs"], seen)
