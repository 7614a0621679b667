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

import math
import tokenize
import zipfile
import zlib
from dataclasses import asdict, dataclass, field

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
# 5: each upper triangle of mat (R, or P1 and P2) packed column by column;
# 4 stored the whole mat, zeros below its diagonals included; 3 held G's
# upper triangle in direct mode, 2 one (m, m) factor in factor mode, and
# unversioned snapshots predate the Gram-pair layout of direct mode
SNAPSHOT_FORMAT = 5
# Block size of every ``dtpqrt`` call. At width p = 1260
# (survived 960, vanished 300) and 60 rows per batch, on one core of a
# 2-vCPU x86-64 machine, 16, 32 and 48 tied within the noise: median absorb
# 31.1, 31.3 and 29.6 ms over 11 runs of 15 batches each, interleaved in
# rotating order, with single runs spreading 22-40 ms. At the old single
# triangle's width 2220, 8 and 12 were 15-19% slower.
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
    each absorb; snapshots omit it, and store each triangle of ``mat``
    packed (see :func:`save_stats`). Single-writer: an absorb checks first
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


def save_stats(stats: CStageStats, path) -> None:
    """Snapshot the statistics so a pass can be suspended and resumed.

    Binary container with exact float round-trip: format version, mode tag,
    schema widths, regularization, batch counter, ``rhs``, and the upper
    triangles of ``mat`` packed column by column, one member each (R in
    ``direct`` mode, P1 and P2 in ``factor`` mode): p (p + 1) / 2 entries a
    triangle, so the zeros below the diagonals are not stored.
    The file is written at exactly ``path``, whatever its suffix, and
    replaces it only once complete, so a failed save leaves an existing
    snapshot there as it was.
    """
    p = stats.schema.cstage_width
    triangles = {
        name: _pack(stats.mat[:, k * p : (k + 1) * p])
        for k, name in enumerate(_TRIANGLES[stats.mode])
    }
    with _replacing(path, binary=True) as fh:  # np.savez(path) appends ".npz" to any other suffix
        np.savez(
            fh,
            format=SNAPSHOT_FORMAT,
            mode=np.array(stats.mode),
            **asdict(stats.schema),
            **asdict(stats.hyper),
            batches_seen=stats.batches_seen,
            rhs=stats.rhs,
            **triangles,
        )


_SNAPSHOT_SCALARS = {  # dtype kinds accepted for each 0-d snapshot field
    "format": "iu", "mode": "U", "vanished": "iu", "survived": "iu", "augmented": "iu",
    "classes": "iu", "lam": "iuf", "rho": "iuf", "batches_seen": "iu",
}
# The largest item a 0-d field may declare: a float128, or the mode's six
# characters at four bytes each, with room to spare
_SCALAR_BYTES = 32
# The members that hold mat's packed upper triangles, left to right
_TRIANGLES = {DIRECT: ("r",), FACTOR: ("p1", "p2")}
_READ_CHUNK = 1 << 18  # bytes read from a member at a time


def load_stats(path) -> CStageStats:
    """Read a snapshot written by :func:`save_stats`. Any unreadable file,
    missing, malformed or undefined field, or other format version,
    unversioned snapshots included, raises :class:`SchemaError`, and so does
    a triangle member that is not a finite float64 vector of p (p + 1) / 2
    entries, or a factor whose triangles have a zero on their diagonals or
    differ anywhere in their shared corner. Direct mode's R may have zero
    rows. The scalar fields are checked before any triangle is read, and the
    triangles are read one at a time into a zeroed ``mat``, Fortran-ordered,
    the layout that both modes update in place; no other full-size copy of
    the factor is made. Every member is read header first
    (:func:`_read_member`), so one whose header does not parse, or declares
    another shape or dtype than the format defines, is refused before any
    memory is set aside for it. Nothing is converted."""
    try:
        with open(path, "rb") as fh:  # np.load(path) leaks the handle of a broken archive
            data = np.load(fh)
            if not isinstance(data, np.lib.npyio.NpzFile):
                raise ValueError("not an .npz archive")
            with data:
                return _read_snapshot(path, data)
    except SchemaError:  # a ValueError too; the checks' own messages pass through
        raise
    # zipfile raises NotImplementedError for an unknown compression method,
    # RuntimeError for a member flagged as encrypted and KeyError for a
    # triangle stored without the ".npy" suffix that np.load strips.
    except (OSError, EOFError, ValueError, KeyError, NotImplementedError, RuntimeError,
            zipfile.BadZipFile, zlib.error) as exc:
        raise SchemaError(f"{path}: not a readable statistics snapshot: {exc}") from exc


def _read_snapshot(path, data) -> CStageStats:
    """The statistics in the open archive ``data``; see :func:`load_stats`."""
    raw = {}
    for key, kinds in _SNAPSHOT_SCALARS.items():
        raw[key] = _read_member(data, key, kinds=kinds)
        if raw[key] is None:
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
    names = _TRIANGLES[mode]
    undefined = set(data.files) - _SNAPSHOT_SCALARS.keys() - {"rhs", *names}
    if undefined:
        raise SchemaError(f"{path}: {mode} snapshot has undefined fields {sorted(undefined)}")
    p = schema.cstage_width
    rhs = _read_member(data, "rhs", _zeros((p, schema.classes), schema))
    if rhs is None or not np.isfinite(rhs).all():
        raise SchemaError(
            f"{path}: {mode} snapshot needs a finite float64 'rhs' of {(p, schema.classes)}"
        )
    mat = _zeros((p, len(names) * p), schema, order="F")
    for k, name in enumerate(names):
        if not _read_triangle(data, name, mat[:, k * p : (k + 1) * p]):
            raise SchemaError(f"{path}: {mode} snapshot needs a finite float64 {name!r} "
                              f"of {p * (p + 1) // 2} entries")
    if mode == FACTOR:
        p1, p2, s = mat[:, :p], mat[:, p:], schema.survived
        if not (p1.diagonal().all() and p2.diagonal().all()):  # dtrtrs divides by them
            raise SchemaError(f"{path}: factor triangles must have a nonzero diagonal")
        if p1[s:, s:].tobytes() != p2[s:, s:].tobytes():
            raise SchemaError(f"{path}: factor triangles must share their corner bit for bit")
    return CStageStats(mode, schema, hyper, mat, rhs, seen)


def _read_member(data, name: str, out: np.ndarray | None = None, kinds: str = ""):
    """Member ``name`` of the open archive ``data``, read header first into
    the contiguous ``out``, or with no ``out`` as a 0-d field of one of the
    dtype kinds ``kinds``, at most ``_SCALAR_BYTES`` an item. None when the
    member is missing, its magic is not the version 1.0 that np.savez
    writes, or its header does not parse or declares another shape or dtype;
    nothing past the header is read, and no memory set aside, before these
    checks pass. The data go straight into the array's storage, in chunks,
    so no other copy is made; the result views that storage in the member's
    declared order."""
    if name not in data.files:
        return None
    with data.zip.open(f"{name}.npy") as fh:
        try:
            if np.lib.format.read_magic(fh) != (1, 0):
                return None
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
        except (ValueError, tokenize.TokenError):  # the latter from numpy's Python 2 header filter
            return None
        if out is None and shape == () and dtype.kind in kinds and dtype.itemsize <= _SCALAR_BYTES:
            out = np.empty((), dtype)
        if out is None or shape != out.shape or dtype != out.dtype:
            return None
        flat = out.reshape(-1)  # a view: ``out`` is contiguous
        buf, done = memoryview(flat).cast("B"), 0
        while done < len(buf):  # in chunks: ZipExtFile.readinto would read all into one bytes
            chunk = fh.read(min(_READ_CHUNK, len(buf) - done))
            if not chunk:
                raise EOFError(f"member {name!r} ends early")
            buf[done : done + len(chunk)] = chunk
            done += len(chunk)
    return flat.reshape(shape[::-1]).T if fortran else flat.reshape(shape)


def _read_triangle(data, name: str, out: np.ndarray) -> bool:
    """Read the triangle that :func:`_pack` packed into member ``name`` of
    ``data`` into the square Fortran-ordered ``out``, zeros below the
    diagonal. The packed entries are read into the front of ``out``'s own
    storage and unpacked in place, so no other copy of the triangle is
    made. False, with ``out`` undefined, when the member is not a finite
    float64 vector of p (p + 1) / 2 entries."""
    p = out.shape[0]
    n = p * (p + 1) // 2
    packed = out.reshape(-1, order="F")[:n]  # views
    if _read_member(data, name, packed) is None or not np.isfinite(packed).all():
        return False
    # Column j moves from offset j (j + 1) / 2 to j p, never to a lower one,
    # so going from the last column back overwrites only entries already moved.
    for j in range(p - 1, -1, -1):
        start = j * (j + 1) // 2
        out[: j + 1, j] = packed[start : start + j + 1]
        if j * p < n:  # below the packed entries ``out`` is still zero
            out[j + 1 :, j] = 0.0
    return True
