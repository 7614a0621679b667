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
* ``inverse`` -- maintain the inverse of M through rank-3n updates
  (n = batch size), so the solution is a single multiplication away at any
  point of the stream; each step factorizes only a 3n x 3n system.
"""

from __future__ import annotations

import math
import zipfile
import zlib
from dataclasses import asdict, dataclass

import numpy as np

from .model import (
    C_STAGE,
    Batch,
    CStageModel,
    FeatureSchema,
    Hyperparams,
    SchemaError,
    _solve_spd,
    validate_batch,
)

DIRECT = "direct"
INVERSE = "inverse"
SNAPSHOT_FORMAT = 2  # the Gram-pair layout; unversioned snapshots predate it


@dataclass
class CStageStats:
    """Streaming sufficient statistics of the compressing-stage objective.

    ``mat`` is the (p, p) Gram matrix G in ``direct`` mode and the inverse of
    the (m, m) coupled normal matrix in ``inverse`` mode, with p = vanished +
    survived and m = p + survived. ``rhs`` is the (p, classes) cross-moment B
    with the one-hot labels. The footprint is fixed by the schema, never by
    how many instances were absorbed. Single-writer: absorbing mutates in place.
    """

    mode: str
    schema: FeatureSchema
    lam: float
    rho: float
    mat: np.ndarray
    rhs: np.ndarray
    batches_seen: int = 0


def init_stats(schema: FeatureSchema, hyper: Hyperparams, mode: str = DIRECT) -> CStageStats:
    """Empty-stream statistics: a zero Gram matrix (direct) or the inverse
    of the ridge-only matrix (inverse), zero right-hand side."""
    if mode not in (DIRECT, INVERSE):
        raise ValueError(f"unknown accumulation mode {mode!r}")
    p = schema.cstage_width
    mat = np.zeros((p, p)) if mode == DIRECT else np.eye(schema.stats_dim) / hyper.rho
    return CStageStats(mode, schema, hyper.lam, hyper.rho, mat, np.zeros((p, schema.classes)))


def update_columns(batch: Batch, lam: float, schema: FeatureSchema) -> np.ndarray:
    """Columns whose outer product reproduces one batch's normal-matrix
    increment.

    Three n-column groups: the all-feature rows against themselves, the
    survived rows against themselves, and a +/-sqrt(lam) pairing that
    produces the consistency cross terms. Returns an (m, 3n) matrix U with
    U @ U.T equal to the additive increment.
    """
    x_all = batch.joined()
    x_sur = batch.survived
    n = batch.n
    p = schema.cstage_width
    root = math.sqrt(lam)
    u = np.zeros((schema.stats_dim, 3 * n))
    u[:p, :n] = x_all.T
    u[p:, n : 2 * n] = x_sur.T
    u[:p, 2 * n :] = root * x_all.T
    u[p:, 2 * n :] = -root * x_sur.T
    return u


def absorb_batch(stats: CStageStats, batch: Batch) -> CStageStats:
    """Fold one compressing-stage batch into the statistics (in place).

    One-pass contract: each batch is absorbed exactly once.
    """
    if batch.stage != C_STAGE:
        raise SchemaError("only compressing-stage batches can be absorbed")
    validate_batch(batch, stats.schema)

    x_all = batch.joined()
    if stats.mode == DIRECT:
        stats.mat += x_all.T @ x_all
    else:
        u = update_columns(batch, stats.lam, stats.schema)
        au = stats.mat @ u
        core = np.eye(u.shape[1]) + u.T @ au
        stats.mat -= au @ _solve_spd(core, au.T, "rank-update core")
        # Guard against asymmetry drift over long streams.
        stats.mat = 0.5 * (stats.mat + stats.mat.T)
    stats.rhs += x_all.T @ batch.labels
    stats.batches_seen += 1
    return stats


def _coupled_system(stats: CStageStats) -> tuple[np.ndarray | None, np.ndarray]:
    """M(lam, rho) and the right-hand side [B; B[v:]] of the coupled normal
    system, v = vanished. M is built from the Gram matrix in direct mode only;
    inverse mode holds M^-1 already and gets None in its place."""
    v = stats.schema.vanished
    rhs = np.vstack([stats.rhs, stats.rhs[v:]])
    if stats.mode != DIRECT:
        return None, rhs
    gram, lam = stats.mat, stats.lam
    cross = -lam * gram[:, v:]
    mat = np.block([[(1.0 + lam) * gram, cross], [cross.T, (1.0 + lam) * gram[v:, v:]]])
    mat.flat[:: mat.shape[0] + 1] += stats.rho
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
    """
    np.savez(
        path,
        format=SNAPSHOT_FORMAT,
        mode=np.array(stats.mode),
        **asdict(stats.schema),
        lam=stats.lam,
        rho=stats.rho,
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
    snapshots included, raises :class:`SchemaError`; nothing is converted."""
    try:
        with open(path, "rb") as fh:  # np.load(path) leaks the handle of a broken archive
            data = np.load(fh)
            if not isinstance(data, np.lib.npyio.NpzFile):
                raise ValueError("not an .npz archive")
            with data:
                raw = {key: data[key] for key in data.files}
    except (OSError, EOFError, ValueError, zipfile.BadZipFile, zlib.error) as exc:
        raise SchemaError(f"{path}: not a readable statistics snapshot: {exc}") from exc
    for key, kinds in _SNAPSHOT_SCALARS.items():
        value = raw.get(key)
        if value is None or value.shape != () or value.dtype.kind not in kinds:
            raise SchemaError(f"{path}: snapshot field {key!r} is missing or malformed")
    if raw["format"] != SNAPSHOT_FORMAT:
        raise SchemaError(f"{path}: snapshot format {raw['format']}, expected {SNAPSHOT_FORMAT}")
    mode, seen = str(raw["mode"]), int(raw["batches_seen"])
    lam, rho = float(raw["lam"]), float(raw["rho"])
    finite = 0 <= lam < math.inf and 0 < rho < math.inf
    if mode not in (DIRECT, INVERSE) or not finite or seen < 0:
        raise SchemaError(f"{path}: bad settings {mode=} {lam=} {rho=} batches_seen={seen}")
    schema = FeatureSchema(*(int(raw[k]) for k in ("vanished", "survived", "augmented", "classes")))
    dim = schema.cstage_width if mode == DIRECT else schema.stats_dim
    for key, shape in (("mat", (dim, dim)), ("rhs", (schema.cstage_width, schema.classes))):
        arr = raw.get(key, np.empty(0))
        if arr.shape != shape or arr.dtype != np.float64 or not np.isfinite(arr).all():
            raise SchemaError(f"{path}: {mode} snapshot needs a finite float64 {key!r} of {shape}")
    return CStageStats(mode, schema, lam, rho, raw["mat"], raw["rhs"], seen)
