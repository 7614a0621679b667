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
* ``inverse`` -- maintain the inverse of M through rank-2n updates
  (n = batch size), so the solution is a single multiplication away at any
  point of the stream. Each step factors its 2n x 2n Woodbury core once,
  core = U^T U, and downdates M^-1 by R^T R with R = U^-T (M^-1 A)^T. One
  BLAS ``dsyrk`` subtracts R^T R from one triangle of M^-1 in place, and a
  blocked copy mirrors that triangle onto the other, so M^-1 stays
  symmetric bit for bit and no (m, m) temporary is allocated.
"""

from __future__ import annotations

import zipfile
import zlib
from dataclasses import asdict, dataclass

import numpy as np
from scipy.linalg.blas import dsyrk
from scipy.linalg.lapack import dtrtrs

from .model import (
    Batch,
    CStageModel,
    FeatureSchema,
    Hyperparams,
    NumericError,
    SchemaError,
    _cholesky,
    _solve_spd,
    validate_batch,
)

DIRECT = "direct"
INVERSE = "inverse"
SNAPSHOT_FORMAT = 2  # the Gram-pair layout; unversioned snapshots predate it
# Edge of the square blocks in which the inverse-mode downdate mirrors M^-1's
# triangle. At m = 2220, on one core of a 2-vCPU x86-64 machine, the mirror
# took 8.4 ms with 128, against 11.0 ms with 64, 8.7 with 256 and 10.3 with 512.
_MIRROR_BLOCK = 128


@dataclass
class CStageStats:
    """Streaming sufficient statistics of the compressing-stage objective.

    ``mat`` is the (p, p) Gram matrix G in ``direct`` mode and the inverse of
    the (m, m) coupled normal matrix in ``inverse`` mode, with p = vanished +
    survived and m = p + survived. ``rhs`` is the (p, classes) cross-moment B
    with the one-hot labels. The footprint is fixed by the schema, never by
    how many instances were absorbed; inverse mode has ``hyper`` folded into
    ``mat``. Single-writer: inverse-mode absorbing
    changes ``mat`` in place; direct mode builds new arrays and swaps them in
    only once they are checked finite.
    """

    mode: str
    schema: FeatureSchema
    hyper: Hyperparams
    mat: np.ndarray
    rhs: np.ndarray
    batches_seen: int = 0


def init_stats(schema: FeatureSchema, hyper: Hyperparams, mode: str = DIRECT) -> CStageStats:
    """Empty-stream statistics: a zero Gram matrix (direct) or the inverse
    of the ridge-only matrix (inverse), zero right-hand side."""
    if mode not in (DIRECT, INVERSE):
        raise SchemaError(f"unknown accumulation mode {mode!r}")
    p = schema.cstage_width
    mat = np.zeros((p, p)) if mode == DIRECT else np.eye(schema.stats_dim) / hyper.rho
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
            checked = [rhs, mat]
        else:
            # The increment is A K A^T with A = blockdiag(X^T, X_s^T) and
            # K = [[1+lam, -lam], [-lam, 1+lam]] (x) I_n, so the Woodbury core
            # is K^-1 + A^T M^-1 A with K^-1 = [[1+lam, lam], [lam, 1+lam]]
            # / (1+2 lam) (x) I_n (Hager 1989).
            p, lam, x_sur = stats.schema.cstage_width, stats.hyper.lam, batch.survived
            ma = np.hstack([stats.mat[:, :p] @ x_all.T, stats.mat[:, p:] @ x_sur.T])
            checked = [rhs, ma]
        if not all(np.isfinite(a).all() for a in checked):
            raise NumericError(
                f"batch {stats.batches_seen} overflows the statistics to non-finite values"
            )
        if stats.mode == INVERSE:
            k_inv = np.array([[1.0 + lam, lam], [lam, 1.0 + lam]]) / (1.0 + 2.0 * lam)
            core = np.kron(k_inv, np.eye(batch.n)) + np.vstack([x_all @ ma[:p], x_sur @ ma[p:]])
            # With core = U^T U and R = U^-T (M^-1 A)^T, the downdate is R^T R.
            # The factor rejects a non-finite core before M^-1 changes. dsyrk
            # writes into a copy unless c is Fortran-ordered, so M^-1 is kept
            # C-ordered and handed over transposed: its lower triangle is M^-1's
            # upper one, which is downdated in place and then mirrored.
            r, _ = dtrtrs(_cholesky(core, "rank-update core"), ma.T, lower=0, trans=1)
            mat = np.ascontiguousarray(stats.mat)
            dsyrk(-1.0, r, beta=1.0, c=mat.T, trans=1, lower=1, overwrite_c=1)
            _mirror_upper(mat)
    stats.mat, stats.rhs = mat, rhs
    stats.batches_seen += 1
    return stats


def _mirror_upper(a: np.ndarray) -> None:
    """Copy the upper triangle of the square C-ordered ``a`` onto its strict
    lower triangle in place, one square block at a time, so that ``a`` equals
    its transpose bit for bit. The upper triangle is only read."""
    m = a.shape[0]
    for i in range(0, m, _MIRROR_BLOCK):
        rows = slice(i, i + _MIRROR_BLOCK)
        diag = a[rows, rows]
        np.copyto(diag, diag.T, where=np.tri(len(diag), k=-1, dtype=bool))
        for j in range(i + _MIRROR_BLOCK, m, _MIRROR_BLOCK):
            cols = slice(j, j + _MIRROR_BLOCK)
            a[cols, rows] = a[rows, cols].T


def _coupled_system(stats: CStageStats) -> tuple[np.ndarray | None, np.ndarray]:
    """M(lam, rho) and the right-hand side [B; B[v:]] of the coupled normal
    system, v = vanished. M is built from the Gram matrix in direct mode only;
    inverse mode holds M^-1 already and gets None in its place."""
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

    Direct mode builds M(lam, rho) from the Gram pair for one SPD solve;
    inverse mode is a plain multiplication, which is what makes the anytime
    solution cheap on that path.
    """
    mat, rhs = _coupled_system(stats)
    coef = _solve_spd(mat, rhs, "normal-equation") if stats.mode == DIRECT else stats.mat @ rhs
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
    snapshots included, raises :class:`SchemaError`; nothing is converted,
    but ``mat`` is returned C-ordered whatever order it was stored in."""
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
    if mode not in (DIRECT, INVERSE) or seen < 0:
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
    return CStageStats(mode, schema, hyper, np.ascontiguousarray(raw["mat"]), raw["rhs"], seen)
