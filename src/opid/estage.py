"""Expanding-stage joint trainer: ridge stacking with learned block weights.

The expanding stage works on feature matrices with the columns in schema
order, survived then augmented; training adds one-hot labels, prediction
needs the features only. The compressed class scores of the survived-feature
classifier become input features, alongside the augmented raw features. The
model has two blocks: ``v_base`` on the c compressed columns and ``v_joint``
on the k-wide joint block (compressed + augmented). Training alternates two closed-form steps on
a jointly convex objective: a ridge solve for both blocks at fixed weights,
and an exact simplex-constrained weight update from the blocks' width-scaled
norms. Each block's ridge is divided by its width so the narrow compressed
block is not drowned out by the wide augmented block.

The compressed columns lead the joint block, so both blocks' scores add up
to one map ``z_joint @ u`` and the coefficient step is a single k x k ridge
solve on the joint block. With a = gamma / (c * w_base) and
b = gamma / (k * w_joint), the compressed columns get ridge ab / (a + b) and
the augmented ones ridge b; the blocks split back exactly as
``v_base = b/(a+b) u[:c]``, ``v_joint[:c] = a/(a+b) u[:c]``,
``v_joint[c:] = u[c:]``. The Gram matrix of the joint block and its
cross-moment with the labels hold no weights, so a fit forms them once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cstage import compress
from .model import (
    CStageModel,
    EStageModel,
    NumericError,
    SchemaError,
    _solve_spd,
    argmax_decode,
)

# Keeps the 1/weight ridge finite when one block's norm collapses to zero.
WEIGHT_FLOOR = 1e-8


@dataclass(frozen=True)
class StackedTrainSet:
    """Expanding-stage training data in stacked form.

    ``z_joint`` is the joint block (n x (classes + augmented)): the
    compressed class-score features followed by the augmented features.
    ``labels`` is the n x classes one-hot matrix, whose width fixes how many
    leading columns are compressed ones.
    """

    z_joint: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        z, y = self.z_joint, self.labels
        if z.ndim != 2 or y.ndim != 2 or y.shape[0] != z.shape[0] or y.shape[1] > z.shape[1]:
            raise SchemaError(f"labels of shape {y.shape} do not fit a joint block of {z.shape}")

    @property
    def z_base(self) -> np.ndarray:
        """The compressed block: a view of the leading columns of ``z_joint``."""
        return self.z_joint[:, : self.labels.shape[1]]

    @property
    def n(self) -> int:
        return self.z_joint.shape[0]


@dataclass(frozen=True)
class UnifiedTrainerState:
    """Final iterate of the alternating trainer plus its objective trace."""

    model: EStageModel
    objective: float
    iterations: int
    converged: bool
    trace: tuple[float, ...]


def _joint_block(x, cmodel: CStageModel) -> np.ndarray:
    """The joint block of an n x (survived + augmented) feature matrix: the
    compressed scores of its first ``survived`` columns, then the rest."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise SchemaError(f"features must be 2-D, got {x.ndim}-D")
    s = cmodel.coef_survived.shape[0]
    return np.hstack([compress(x[:, :s], cmodel), x[:, s:]])


def _model_blocks(x, cmodel: CStageModel, base_rows: int, joint_rows: int):
    """The compressed and joint blocks of a feature matrix, checked against
    the input widths of a trained model's two blocks."""
    z = _joint_block(x, cmodel)
    c = cmodel.coef_survived.shape[1]
    if (c, z.shape[1]) != (base_rows, joint_rows):
        raise SchemaError(
            f"blocks are {c} and {z.shape[1]} wide, model expects {base_rows} and {joint_rows}"
        )
    return z[:, :c], z


def build_stacked(x, labels, cmodel: CStageModel) -> StackedTrainSet:
    """Training data in stacked form from a feature matrix and its one-hot
    labels."""
    return StackedTrainSet(
        z_joint=_joint_block(x, cmodel), labels=np.asarray(labels, dtype=np.float64)
    )


def _solve_blocks(
    gram: np.ndarray, zty: np.ndarray, w_base: float, w_joint: float, gamma: float
) -> tuple[np.ndarray, np.ndarray]:
    """The coefficient blocks at fixed weights from the joint block's Gram
    matrix and label cross-moment, by the reduced k x k ridge solve."""
    if w_base <= 0 or w_joint <= 0:
        raise ValueError(f"weights must be > 0, got ({w_base}, {w_joint})")
    if gamma <= 0:
        raise ValueError(f"ridge must be > 0, got {gamma}")
    k, c = zty.shape
    inv_a, inv_b = c * w_base / gamma, k * w_joint / gamma  # 1/a and 1/b
    ridge = np.repeat([1.0 / (inv_a + inv_b), 1.0 / inv_b], [c, k - c])  # ab/(a+b), b
    u = _solve_spd(gram + np.diag(ridge), zty, "stacked ridge")
    share = inv_a / (inv_a + inv_b)  # b/(a+b)
    return share * u[:c], np.vstack([(1.0 - share) * u[:c], u[c:]])


def update_coefficients(
    data: StackedTrainSet, w_base: float, w_joint: float, gamma: float
) -> tuple[np.ndarray, np.ndarray]:
    """Exact coefficient solve at fixed weights.

    Minimizes the stacked ridge objective over both blocks; the per-block
    ridge is gamma / (width * weight). The reduced system is SPD because
    both ridge terms are strictly positive.
    """
    z = data.z_joint
    return _solve_blocks(z.T @ z, z.T @ data.labels, w_base, w_joint, gamma)


def update_weights(v_base: np.ndarray, v_joint: np.ndarray) -> tuple[float, float]:
    """Exact simplex-constrained weight update.

    Minimizes the weighted inverse penalty over w_base + w_joint = 1,
    w >= 0; the optimum is proportional to each block's Frobenius norm
    divided by the square root of its width. An all-zero model falls back
    to (1/2, 1/2).
    """
    r_base = np.linalg.norm(v_base) / math.sqrt(v_base.shape[0])
    r_joint = np.linalg.norm(v_joint) / math.sqrt(v_joint.shape[0])
    total = r_base + r_joint
    if total == 0.0:
        return 0.5, 0.5
    w_base = r_base / total
    return w_base, 1.0 - w_base


def objective_value(data: StackedTrainSet, model: EStageModel, gamma: float) -> float:
    """Stacked ridge objective: squared residual plus the width- and
    weight-scaled block penalties."""

    def penalty(block: np.ndarray, weight: float) -> float:
        sq = float((block**2).sum())
        denom = block.shape[0] * weight
        if denom == 0.0:
            if sq == 0.0:
                return 0.0
            raise NumericError("zero weight with nonzero coefficients: infinite penalty")
        return gamma * sq / denom

    resid = data.z_base @ model.v_base + data.z_joint @ model.v_joint - data.labels
    return (
        float((resid**2).sum())
        + penalty(model.v_base, model.w_base)
        + penalty(model.v_joint, model.w_joint)
    )


def fit_unified(
    data: StackedTrainSet, gamma: float, tol: float = 1e-6, max_iter: int = 100
) -> UnifiedTrainerState:
    """Alternate the two exact block updates from equal weights until the
    relative objective decrease drops below ``tol``.

    Both half-steps are exact minimizations, so the objective is
    non-increasing; convergence is typically a handful of iterations.
    The joint block's Gram matrix is formed once; each iteration only
    changes the ridge on its diagonal. The last operation is always the
    weight update, so the returned weights are exactly consistent with the
    returned coefficients.
    """
    z = data.z_joint
    gram, zty = z.T @ z, z.T @ data.labels
    w_base = 0.5
    prev = None
    trace: list[float] = []
    model = None
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        wb = min(max(w_base, WEIGHT_FLOOR), 1.0 - WEIGHT_FLOOR)
        v_base, v_joint = _solve_blocks(gram, zty, wb, 1.0 - wb, gamma)
        w_base, w_joint = update_weights(v_base, v_joint)
        model = EStageModel(v_base=v_base, v_joint=v_joint, w_base=w_base, w_joint=w_joint)
        value = objective_value(data, model, gamma)
        if not math.isfinite(value):
            raise NumericError("objective diverged to a non-finite value")
        trace.append(value)
        if prev is not None and prev - value <= tol * max(1.0, abs(prev)):
            converged = True
            break
        prev = value
    return UnifiedTrainerState(
        model=model,
        objective=trace[-1],
        iterations=iterations,
        converged=converged,
        trace=tuple(trace),
    )


def predict_unified(x, cmodel: CStageModel, emodel: EStageModel) -> np.ndarray:
    """Classify the rows of an n x (survived + augmented) feature matrix with
    the joint model.

    The square-root block weighting is already absorbed into the stored
    coefficients, so the combined score is the plain sum of both blocks.
    """
    z_base, z_joint = _model_blocks(x, cmodel, emodel.v_base.shape[0], emodel.v_joint.shape[0])
    return argmax_decode(z_base @ emodel.v_base + z_joint @ emodel.v_joint)
