"""One-pass compressing-stage trainer.

The compressing stage sees mini-batches carrying vanished + survived features
and learns two coupled linear classifiers: one on all current features, one
on survived features only, tied together by a consistency penalty lam that
pulls the all-feature classifier towards the survived-feature one's
predictions. The survived-feature classifier is the least-squares fit on the
survived features, up to the ridge rho, so lam moves it (and the expanding
stage built on it) only on streams that are short for their width. The
entire stream is summarized by a fixed-size pair of sufficient statistics,
so each instance is read exactly once and memory never grows with the data.

Two interchangeable accumulation strategies sit behind the same interface,
and both keep upper-triangular factors that a LAPACK ``dtpqrt`` call updates
in place: the QR update of a Cholesky factor (Golub & Van Loan, Matrix
Computations, 4th ed., sec. 6.5), 4 n p^2 flops for a batch of n rows and a
triangle of width p = vanished + survived. Unlike an updated inverse, a
factor stays accurate when its matrix is ill-conditioned.

* ``direct``  -- keep R, the triangular factor of the stream itself (R^T R
  = G = X^T X, columns ordered survived, then vanished), and B = X^T Y.
  Neither holds lam or rho, so one pass serves any number of (lam, rho)
  settings. ``factor`` mode's increment depends on a batch only through
  X^T X = R^T R, so the solve folds R's p rows into the ridge-only factor
  to build the factor that mode keeps, below: two ``dtpqrt`` calls, about
  2 p^3 / 3 flops each on triangular rows.
* ``factor``  -- maintain a Cholesky factor of M, so the solution is three
  triangular solves away at any point of the stream. The factor lives in
  split coordinates: with E placing the survived classifier phi in theta's
  survived slots, sigma = (theta + E phi) / sqrt(2) and delta = (theta -
  E phi) / sqrt(2) share their vanished part t = theta_v / sqrt(2). The
  consistency term lam ||X theta - X_s phi||^2 = 2 lam ||X delta||^2
  touches delta alone, so in the unknowns (sigma_s, delta_s, t) the normal
  matrix has an exact zero survived x survived block between sigma_s and
  delta_s. Its factor is two (p, p) upper triangles: P1 over (sigma_s, t)
  and P2 over (delta_s, t), sharing their trailing vanished x vanished
  corner. Each batch adds A^T A + B^T B with A = [X_s, 0, X_v] and B = c
  [0, X_s, X_v], c^2 = 1 + 2 lam, and one ``dtpqrt`` call folds each into
  its triangle.
"""

from __future__ import annotations

import itertools
import math
import os
import struct
import zlib
from dataclasses import astuple, dataclass, field

import numpy as np

from ._scipy import dlange, dlantr, dtpqrt, dtrtrs
from .model import (
    Batch,
    CStageModel,
    FeatureSchema,
    Hyperparams,
    NumericError,
    SchemaError,
    _replacing,
    _zeros,
    validate_batch,
)

DIRECT = "direct"
FACTOR = "factor"
# 6: one fixed header, rhs and each upper triangle of mat (R, or P1 and P2)
# packed column by column as little-endian doubles, and a CRC-32 of it all.
# Only format 6 is read.
SNAPSHOT_FORMAT = 6
# Block size of every ``dtpqrt`` call. At width p = 1260
# (survived 960, vanished 300) and 60 rows per batch, on one core of a
# 2-vCPU x86-64 machine, 16, 32 and 48 tied within the noise: median absorb
# 31.1, 31.3 and 29.6 ms over 11 runs of 15 batches each, interleaved in
# rotating order, with single runs spreading 22-40 ms.
_QR_BLOCK = 32
# No value that dtpqrt forms exceeds _QR_HEADROOM * N, N = ||[P; W]||_F for
# the triangle P and the rows W it folds in: column norms stay <= N,
# Householder vectors are 1 over entries <= 1, and T = I - Q11 of the
# orthogonal block reflector I - V T V^T has entries <= 2, so T (V^T c) sums
# at most _QR_BLOCK terms of at most 2 * 2N each.
_QR_HEADROOM = 4.0 * _QR_BLOCK


@dataclass
class CStageStats:
    """Streaming sufficient statistics of the compressing-stage objective.

    ``mat`` is Fortran-ordered and holds upper triangles whose columns are
    ordered survived first, then vanished, p = vanished + survived wide. In
    ``direct`` mode it is the (p, p) factor R of the stream, R^T R = X^T X,
    whose rows may be zero. In ``factor`` mode it is the (p, 2p) [P1 | P2],
    the factor of the coupled normal matrix in the split unknowns (see the
    module docstring); their trailing (vanished, vanished) corners are one
    block of that factor, kept bit-equal in both. ``rhs`` is the (p,
    classes) cross-moment B with the one-hot labels, in schema order. The
    footprint is fixed by the schema, never by how many instances were
    absorbed; factor mode has ``hyper`` folded into ``mat``. ``r_norm`` is
    the Frobenius norm of the whole factor, a shared corner counted once,
    derived from ``mat`` when the statistics are made or loaded and grown by
    each absorb. Snapshots omit it: after one fixed header they store
    ``rhs`` and each triangle of ``mat`` packed, then a CRC-32 (see
    :func:`save_stats`). Single-writer: an absorb checks first
    that the batch cannot overflow ``mat``, then changes it in place.
    """

    mode: str
    schema: FeatureSchema
    hyper: Hyperparams
    mat: np.ndarray
    rhs: np.ndarray
    batches_seen: int = 0
    r_norm: float = field(init=False)

    def __post_init__(self):
        self.r_norm = _factor_norm(self.mat, self.schema.survived)


def _factor_norm(mat: np.ndarray, s: int) -> float:
    """||mat||_F, or sqrt(||mat||^2 - ||corner||^2) for the shared corner
    mat[s:, s:p] of a (p, 2p) factor, formed from the two norms as
    a * sqrt((1 - q)(1 + q)), q = b / a <= 1, so no square overflows. Both
    norms read only the upper trapezoids, where the factor's nonzeros are."""
    p, whole = mat.shape[0], dlantr("F", mat, uplo="U", diag="N")
    shared = whole and mat.shape[1] > p
    q = dlantr("F", mat[s:, s:p], uplo="U", diag="N") / whole if shared else 0.0
    return whole * math.sqrt((1.0 - q) * (1.0 + q))


def init_stats(schema: FeatureSchema, hyper: Hyperparams, mode: str = DIRECT) -> CStageStats:
    """Empty-stream statistics: a zero factor R (direct) or the factor of the
    ridge-only matrix (factor), P1 = P2 = diag(sqrt(rho) I_survived,
    sqrt(2 rho) I_vanished), both Fortran-ordered, the layout ``dtpqrt``
    updates in place, and a zero right-hand side."""
    if mode not in (DIRECT, FACTOR):
        raise SchemaError(f"unknown accumulation mode {mode!r}")
    p, s = schema.cstage_width, schema.survived
    mat = _zeros((p, p if mode == DIRECT else 2 * p), schema, order="F")
    if mode == FACTOR:
        rows = np.arange(p)
        mat[rows, rows] = mat[rows, p + rows] = np.repeat(
            [np.sqrt(hyper.rho), np.sqrt(2.0 * hyper.rho)], [s, p - s]
        )
    return CStageStats(mode, schema, hyper, mat, _zeros((p, schema.classes), schema))


def absorb_batch(stats: CStageStats, batch: Batch) -> CStageStats:
    """Fold one compressing-stage batch into the statistics (in place).

    One-pass contract: each batch is absorbed exactly once. A batch that
    could overflow the statistics to non-finite values raises
    :class:`NumericError` and leaves them as they were.
    """
    validate_batch(batch, stats.schema)

    # The batch's rows in split order, w = [X_s, X_v]. Direct mode folds w
    # into R, factor mode w into P1 and c w into P2, a squared norm of
    # (1 + c^2) ||w||^2 in all. QR keeps the Frobenius norm, so the factor's
    # norm grows to r_norm in either mode; it bounds the norm of every dtpqrt
    # call's input.
    s, lam = stats.schema.survived, stats.hyper.lam
    w = np.empty(batch.x.shape, order="F")
    w[:, :s] = batch.survived
    w[:, s:] = batch.vanished
    # rhs in float64: an integer or bool product would wrap or saturate
    x, y = (np.asarray(a, dtype=np.float64) for a in (batch.x, batch.labels))
    scale = 1.0 if stats.mode == DIRECT else math.sqrt(2.0 + 2.0 * lam)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is checked below
        rhs = stats.rhs + x.T @ y
        r_norm = math.hypot(stats.r_norm, dlange("F", w) * scale)
        if not (math.isfinite(_QR_HEADROOM * r_norm) and np.isfinite(rhs).all()):
            raise NumericError(
                f"batch {stats.batches_seen} overflows the statistics to non-finite values"
            )
    # A Fortran-ordered mat is updated in place, any other layout copied once
    mat = np.asfortranarray(stats.mat)
    if stats.mode == DIRECT:
        _qr_update(mat, w)
    else:
        _fold_split(mat, w, s, lam)
    stats.mat, stats.rhs, stats.r_norm = mat, rhs, r_norm
    stats.batches_seen += 1
    return stats


def _qr_update(r: np.ndarray, w: np.ndarray, l: int = 0) -> None:
    """Overwrite the Fortran-ordered upper-triangular ``r`` with the upper
    triangle of qr([r; w]); ``w`` is overwritten too. The last ``l`` rows of
    ``w`` are upper trapezoidal, and the zeros below them are not read."""
    nb = min(_QR_BLOCK, r.shape[1])  # dtpqrt rejects a block wider than r
    dtpqrt(l, nb, r, w, overwrite_a=1, overwrite_b=1)


def _fold_split(mat: np.ndarray, rows: np.ndarray, s: int, lam: float, l: int = 0) -> None:
    """Fold ``rows`` w (split order) into [P1 | P2] in place: w into P1 and
    c w into P2, c^2 = 1 + 2 lam (see the module docstring). Each call hands
    its new shared corner to the other half. ``rows`` is only read; one work
    array holds w, then c w. ``l`` is as in :func:`_qr_update`."""
    p = mat.shape[0]
    p1, p2 = mat[:, :p], mat[:, p:]
    w = np.array(rows, order="F")
    _qr_update(p1, w, l)
    p2[s:, s:] = p1[s:, s:]
    np.multiply(rows, math.sqrt(1.0 + 2.0 * lam), out=w)
    _qr_update(p2, w, l)
    p1[s:, s:] = p2[s:, s:]


def _split_factor(stats: CStageStats) -> np.ndarray:
    """Factor mode's [P1 | P2] for direct mode's R at ``hyper``: R's
    triangular rows folded into the ridge-only factor, refused before the
    fold by factor mode's absorb rule on the norm that mode would reach."""
    ridge, lam = init_stats(stats.schema, stats.hyper, FACTOR), stats.hyper.lam
    r_norm = math.hypot(ridge.r_norm, math.sqrt(2.0 + 2.0 * lam) * stats.r_norm)
    if not math.isfinite(_QR_HEADROOM * r_norm):
        raise NumericError("direct-mode solve failed: the factor overflows to non-finite values")
    _fold_split(ridge.mat, stats.mat, stats.schema.survived, lam, l=stats.schema.cstage_width)
    return ridge.mat


def solve_model(stats: CStageStats) -> CStageModel:
    """Solve the coupled normal system for both coefficient blocks.

    Factor mode holds the factor [P1 | P2] already, which is what makes the
    anytime solution cheap on that path; direct mode builds it from its
    factor R at ``hyper`` first (:func:`_split_factor`). Both then make three
    ``dtrtrs`` calls, P1^T then P1 over (sigma_s, t), then P2 over
    (delta_s, t). delta_s has no right-hand side, so P2 needs only the
    back-substitution. ``stats`` is only read.
    """
    p = stats.schema.cstage_width
    mat = _split_factor(stats) if stats.mode == DIRECT else stats.mat
    # The right-hand side in the split unknowns is sqrt(2) [B_s; 0; B_v].
    # Solving with [B_s; B_v] instead gives the unknowns over sqrt(2), which
    # maps back as theta_v = 2 t, theta_s = sigma_s + delta_s and
    # phi = sigma_s - delta_s.
    v, s = stats.schema.vanished, stats.schema.survived
    p1, p2 = mat[:, :p], mat[:, p:]
    y, singular = dtrtrs(p1, np.vstack([stats.rhs[v:], stats.rhs[:v]]), trans=1)
    sigma_t, _ = dtrtrs(p1, y)
    y[:s] = 0.0
    delta_t, singular_2 = dtrtrs(p2, y)
    if singular or singular_2:  # dtrtrs solves nothing then; it returns the right-hand side
        raise NumericError("factor solve failed: a triangle has a zero on its diagonal")
    sigma, delta = sigma_t[:s], delta_t[:s]
    return CStageModel(coef_full=np.vstack([2.0 * sigma_t[s:], sigma + delta]),
                       coef_survived=sigma - delta)


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


def _pack(tri: np.ndarray) -> np.ndarray:
    """The upper triangle of the square ``tri``, packed column by column:
    LAPACK's triangular storage, p (p + 1) / 2 entries."""
    return np.concatenate([tri[: j + 1, j] for j in range(tri.shape[1])])


# A snapshot's header: magic, format, mode code (the mode's index in
# _MODES), the widths vanished, survived, augmented and classes,
# batches_seen, lam and rho
_HEADER = struct.Struct("<8s7q2d")
_MAGIC = b"OPIDSTAT"
_MODES = (DIRECT, FACTOR)


def save_stats(stats: CStageStats, path) -> None:
    """Snapshot the statistics so a pass can be suspended and resumed.

    The file holds, with exact float round-trip: one fixed header (format
    version, mode, schema widths, batch counter and regularization), then
    ``rhs`` row by row and each upper triangle of ``mat`` packed column by
    column (:func:`_pack`; R in ``direct`` mode, P1 and P2 in ``factor``
    mode) as little-endian doubles, then a CRC-32 of every byte before it.
    A triangle takes p (p + 1) / 2 entries, so the zeros below the diagonals
    are not stored, and is packed and written one at a time.
    The file is written at exactly ``path``, whatever its suffix, and
    replaces it only once complete, so a failed save leaves an existing
    snapshot there as it was.
    """
    p, hyper = stats.schema.cstage_width, stats.hyper
    header = _HEADER.pack(_MAGIC, SNAPSHOT_FORMAT, _MODES.index(stats.mode),
                          *astuple(stats.schema), stats.batches_seen, hyper.lam, hyper.rho)
    triangles = (_pack(stats.mat[:, k : k + p]) for k in range(0, stats.mat.shape[1], p))
    with _replacing(path, binary=True) as fh:
        fh.write(header)
        crc = zlib.crc32(header)
        for array in itertools.chain([stats.rhs], triangles):
            data = np.ascontiguousarray(array, dtype="<f8")
            fh.write(data)
            crc = zlib.crc32(data, crc)
        fh.write(crc.to_bytes(4, "little"))


def load_stats(path) -> CStageStats:
    """Read a snapshot written by :func:`save_stats`. A file that cannot be
    read, is not a snapshot of this format (older formats included) or fails
    its CRC, header fields that are not valid settings, and a file whose
    size is not exactly what the header's widths imply raise
    :class:`SchemaError` naming the file; so do a non-finite ``rhs`` or
    ``mat``, and a factor whose triangles have a zero on their diagonals or
    differ anywhere in their shared corner. Direct mode's R may have zero
    rows. The header and the file's size are checked before any memory is
    set aside for the arrays. Each array is then read straight into its own
    storage, a triangle into the front of its square in a zeroed ``mat``,
    Fortran-ordered, the layout that both modes update in place, and
    unpacked there; no other full-size copy of the factor is made. Nothing
    is converted."""
    try:
        with open(path, "rb") as fh:
            return _read_snapshot(path, fh)
    except OSError as exc:
        raise SchemaError(f"{path}: not a readable statistics snapshot: {exc}") from exc


def _read_snapshot(path, fh) -> CStageStats:
    """The statistics in the open snapshot file ``fh``; see :func:`load_stats`."""
    head = fh.read(_HEADER.size)
    if len(head) < _HEADER.size or not head.startswith(_MAGIC):
        raise SchemaError(f"{path}: not a statistics snapshot of format {SNAPSHOT_FORMAT}")
    _, version, code, *widths, seen, lam, rho = _HEADER.unpack(head)
    if version != SNAPSHOT_FORMAT:
        raise SchemaError(f"{path}: snapshot format {version}, expected {SNAPSHOT_FORMAT}")
    if code not in range(len(_MODES)) or seen < 0:
        raise SchemaError(f"{path}: bad settings mode code={code} batches_seen={seen}")
    try:
        hyper, schema = Hyperparams(lam=lam, rho=rho), FeatureSchema(*widths)
    except SchemaError as exc:
        raise SchemaError(f"{path}: bad settings: {exc}") from None
    mode, p = _MODES[code], schema.cstage_width
    halves = 1 if mode == DIRECT else 2
    size = _HEADER.size + 8 * (p * schema.classes + halves * p * (p + 1) // 2) + 4
    actual = os.fstat(fh.fileno()).st_size
    if actual != size:
        raise SchemaError(f"{path}: a {mode} snapshot of {schema} takes {size} bytes, "
                          f"the file has {actual}")
    rhs = _zeros((p, schema.classes), schema)
    crc = _read_into(fh, rhs, zlib.crc32(head))
    mat = _zeros((p, halves * p), schema, order="F")
    triangles = np.hsplit(mat, halves)  # views
    for tri in triangles:
        crc = _read_triangle(fh, tri, crc)
    if fh.read(4) != crc.to_bytes(4, "little"):
        raise SchemaError(f"{path}: snapshot fails its CRC-32 check")
    if not (np.isfinite(rhs).all() and all(np.isfinite(tri).all() for tri in triangles)):
        raise SchemaError(f"{path}: {mode} snapshot holds a value that is not finite")
    if mode == FACTOR:
        (p1, p2), s = triangles, schema.survived
        if not (p1.diagonal().all() and p2.diagonal().all()):  # dtrtrs divides by them
            raise SchemaError(f"{path}: factor triangles must have a nonzero diagonal")
        if p1[s:, s:].tobytes() != p2[s:, s:].tobytes():
            raise SchemaError(f"{path}: factor triangles must share their corner bit for bit")
    return CStageStats(mode, schema, hyper, mat, rhs, seen)


def _read_into(fh, out: np.ndarray, crc: int) -> int:
    """Fill the contiguous float64 ``out`` straight from ``fh``'s
    little-endian doubles; returns ``crc`` carried over the bytes. A file
    that ends early leaves the rest of ``out`` as it was, and the CRC then
    fails."""
    buf = memoryview(out.reshape(-1)).cast("B")  # a view: ``out`` is contiguous
    fh.readinto(buf)
    crc = zlib.crc32(buf, crc)
    if not np.little_endian:
        out.byteswap(inplace=True)
    return crc


def _read_triangle(fh, out: np.ndarray, crc: int) -> int:
    """Read the triangle that :func:`_pack` packed from ``fh`` into the
    square Fortran-ordered ``out``, zeros below the diagonal, carrying
    ``crc`` as :func:`_read_into` does. The packed entries are read into the
    front of ``out``'s own storage and unpacked in place, so no other copy
    of the triangle is made."""
    p = out.shape[0]
    n = p * (p + 1) // 2
    packed = out.reshape(-1, order="F")[:n]  # views
    crc = _read_into(fh, packed, crc)
    # Column j moves from offset j (j + 1) / 2 to j p, never to a lower one,
    # so going from the last column back overwrites only entries already moved.
    for j in range(p - 1, -1, -1):
        start = j * (j + 1) // 2
        out[: j + 1, j] = packed[start : start + j + 1]
        if j * p < n:  # below the packed entries ``out`` is still zero
            out[j + 1 :, j] = 0.0
    return crc
