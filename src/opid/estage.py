"""Expanding-stage joint trainer: ridge stacking with learned block weights.

The expanding stage works on feature matrices with the columns in schema
order, survived then augmented. :func:`build_stacked` maps one to its n x k
joint block ``z``: the compressed class scores of the survived-feature
classifier, then the augmented raw features. Training takes ``z`` and its
one-hot labels; prediction needs the features only. The model has two
blocks: ``v_base`` on the c compressed columns ``z[:, :c]`` and ``v_joint``
on all of ``z``. Training alternates two closed-form steps on a jointly
convex objective: a ridge solve for both blocks at a fixed base weight
``w_base`` (the joint block's is ``1 - w_base``), and an exact
simplex-constrained weight update from the blocks' width-scaled norms. Each
block's ridge is divided by its width so the narrow compressed block is not
drowned out by the wide augmented block.

The compressed columns lead the joint block, so both blocks' scores add up
to one map ``z @ u`` and the coefficient step is a single k x k ridge
solve on the joint block. With a = gamma / (c * w_base) and
b = gamma / (k * (1 - w_base)), the compressed columns get ridge ab / (a + b)
and the augmented ones ridge b; the blocks split back exactly as
``v_base = b/(a+b) u[:c]``, ``v_joint[:c] = a/(a+b) u[:c]``,
``v_joint[c:] = u[c:]``. A fit reads the data only through its weight-free
k x k :class:`JointStats` record, formed once; it never touches the rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrs

from .cstage import compress
from .model import (
    CStageModel,
    EStageModel,
    NumericError,
    SchemaError,
    _cholesky,
    argmax_decode,
)

# Keeps the 1/weight ridge finite when one block's norm collapses to zero.
WEIGHT_FLOOR = 1e-8
# fit_unified stops once an iteration lowers the objective by no more than
# FIT_TOL relative to it, or after FIT_MAX_ITER iterations.
FIT_TOL = 1e-6
FIT_MAX_ITER = 100


@dataclass(frozen=True)
class JointStats:
    """Sufficient statistics of the joint block Z and one-hot labels Y:
    ``gram`` = ZᵀZ (k x k), ``zty`` = ZᵀY (k x classes) and ``yy`` = ‖Y‖².

    They do not change within a fit, so they are checked once, here: shapes
    that do not fit raise :class:`SchemaError`, and a nan or inf anywhere
    raises :class:`NumericError`. The fit's steps rely on that check.
    """

    gram: np.ndarray
    zty: np.ndarray
    yy: float

    def __post_init__(self):
        g, b = self.gram, self.zty
        if b.ndim != 2 or g.shape != (b.shape[0],) * 2 or b.shape[1] > b.shape[0]:
            raise SchemaError(f"statistics of shapes {g.shape} and {b.shape} do not fit")
        if not (np.isfinite(g).all() and np.isfinite(b).all() and math.isfinite(self.yy)):
            raise NumericError("joint statistics have non-finite entries")

    @classmethod
    def of(cls, z, labels) -> JointStats:
        """The statistics of a joint block ``z`` and its one-hot ``labels``."""
        z, y = _joint_data(z, labels)
        return cls(gram=z.T @ z, zty=z.T @ y, yy=float((y**2).sum()))


@dataclass(frozen=True)
class UnifiedTrainerState:
    """Final iterate of the alternating trainer plus its objective trace,
    one value per iteration."""

    model: EStageModel
    converged: bool
    trace: tuple[float, ...]


def _joint_data(z, labels) -> tuple[np.ndarray, np.ndarray]:
    """A joint block and its one-hot labels as float matrices, checked to have
    equal row counts and no more classes than joint columns."""
    z, y = np.asarray(z, dtype=np.float64), np.asarray(labels, dtype=np.float64)
    if z.ndim != 2 or y.ndim != 2 or y.shape[0] != z.shape[0] or y.shape[1] > z.shape[1]:
        raise SchemaError(f"labels of shape {y.shape} do not fit a joint block of {z.shape}")
    return z, y


def _base_width(z: np.ndarray, cmodel: CStageModel, base_rows: int, joint_rows: int) -> int:
    """The width c of the compressed block ``z[:, :c]``; it and the width of
    ``z`` must match the input widths of a trained model's two blocks."""
    c = cmodel.coef_survived.shape[1]
    if (c, z.shape[1]) != (base_rows, joint_rows):
        raise SchemaError(
            f"blocks are {c} and {z.shape[1]} wide, model expects {base_rows} and {joint_rows}"
        )
    return c


def build_stacked(x, cmodel: CStageModel) -> np.ndarray:
    """The n x k joint block of an n x (survived + augmented) feature matrix:
    the compressed scores of its first ``survived`` columns, then the rest."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise SchemaError(f"features must be 2-D, got {x.ndim}-D")
    s = cmodel.coef_survived.shape[0]
    return np.hstack([compress(x[:, :s], cmodel), x[:, s:]])


def update_coefficients(
    stats: JointStats, w_base: float, gamma: float
) -> tuple[np.ndarray, np.ndarray]:
    """Exact coefficient solve at a fixed base weight ``w_base`` in (0, 1),
    the joint block's weight being ``1 - w_base``.

    Minimizes the stacked ridge objective over both blocks by the reduced
    k x k ridge solve; the per-block ridge is gamma / (width * weight). The
    reduced system is SPD because both ridge terms are strictly positive.
    ``stats`` were checked finite when they were made, and adding the ridge
    changes only the diagonal, so only the diagonal is checked here.
    """
    if not 0 < w_base < 1:  # nan fails too
        raise SchemaError(f"base weight must lie in (0, 1), got {w_base}")
    if not 0 < gamma < math.inf:
        raise SchemaError(f"ridge must be > 0 and finite, got {gamma}")
    k, c = stats.zty.shape
    inv_a, inv_b = c * w_base / gamma, k * (1.0 - w_base) / gamma  # 1/a and 1/b
    mat = np.array(stats.gram, order="F")
    diag = mat.reshape(-1, order="F")[:: k + 1]  # a view, as mat is Fortran-ordered
    diag[:c] += 1.0 / (inv_a + inv_b)  # ab/(a+b)
    diag[c:] += 1.0 / inv_b  # b
    if not np.isfinite(diag).all():
        raise NumericError("stacked ridge solve failed: the system has non-finite entries")
    u, _ = dpotrs(_cholesky(mat, "stacked ridge", owned=True), stats.zty)
    share = inv_a / (inv_a + inv_b)  # b/(a+b)
    return share * u[:c], np.vstack([(1.0 - share) * u[:c], u[c:]])


def _scaled_norm(block: np.ndarray) -> float:
    """‖block‖_F / √rows. The squares are summed in memory order, as
    ``np.linalg.norm`` sums them, so the bits are its bits."""
    flat = block.ravel(order="K")
    return math.sqrt(flat.dot(flat)) / math.sqrt(block.shape[0])


def update_weights(v_base: np.ndarray, v_joint: np.ndarray) -> float:
    """Exact simplex-constrained weight update; returns ``w_base``.

    Minimizes the weighted inverse penalty over w_base + w_joint = 1,
    w >= 0; the optimum is proportional to each block's Frobenius norm
    divided by the square root of its width. An all-zero model falls back
    to 1/2.
    """
    r_base, r_joint = _scaled_norm(v_base), _scaled_norm(v_joint)
    total = r_base + r_joint
    return 0.5 if total == 0.0 else r_base / total


def objective_value(stats: JointStats, model: EStageModel, gamma: float) -> float:
    """Stacked ridge objective: the squared residual ⟨u, G u⟩ − 2⟨u, B⟩ + ‖Y‖²
    of the summed map u = v_joint + [v_base; 0] plus the width- and
    weight-scaled block penalties. A zero weight on a nonzero block is an
    infinite penalty and raises :class:`NumericError`."""
    u = model.v_joint.copy()
    u[: model.v_base.shape[0]] += model.v_base
    value = float((u * (stats.gram @ u - 2.0 * stats.zty)).sum()) + stats.yy
    for block, weight in ((model.v_base, model.w_base), (model.v_joint, model.w_joint)):
        sq = float((block**2).sum())
        denom = block.shape[0] * weight
        if denom != 0.0:
            value += gamma * sq / denom
        elif sq != 0.0:
            raise NumericError("zero weight with nonzero coefficients: infinite penalty")
    return value


def fit_unified(stats: JointStats, gamma: float) -> UnifiedTrainerState:
    """Alternate the two exact block updates from equal weights until the
    relative objective decrease drops below ``FIT_TOL``.

    Both half-steps are exact minimizations, so the objective is
    non-increasing; convergence is typically a handful of iterations. The
    last operation is always the weight update, so the returned weights are
    exactly consistent with the returned coefficients.
    """
    w_base = 0.5
    prev = None
    trace: list[float] = []
    converged = False
    for _ in range(FIT_MAX_ITER):
        wb = min(max(w_base, WEIGHT_FLOOR), 1.0 - WEIGHT_FLOOR)
        v_base, v_joint = update_coefficients(stats, wb, gamma)
        w_base = update_weights(v_base, v_joint)
        model = EStageModel(v_base=v_base, v_joint=v_joint, w_base=w_base)
        value = objective_value(stats, model, gamma)
        if not math.isfinite(value):
            raise NumericError("objective diverged to a non-finite value")
        trace.append(value)
        if prev is not None and prev - value <= FIT_TOL * max(1.0, abs(prev)):
            converged = True
            break
        prev = value
    return UnifiedTrainerState(model=model, converged=converged, trace=tuple(trace))


def predict_unified(x, cmodel: CStageModel, emodel: EStageModel) -> np.ndarray:
    """Classify the rows of an n x (survived + augmented) feature matrix with
    the joint model.

    The square-root block weighting is already absorbed into the stored
    coefficients, so the combined score is the plain sum of both blocks.
    """
    z = build_stacked(x, cmodel)
    c = _base_width(z, cmodel, emodel.v_base.shape[0], emodel.v_joint.shape[0])
    return argmax_decode(z[:, :c] @ emodel.v_base + z @ emodel.v_joint)
