"""Expanding-stage joint trainer: one ridge solve on the joint block.

The expanding stage works on feature matrices with the columns in schema
order, survived then augmented. :func:`build_stacked` maps one to its n x k
joint block ``z``: the c compressed class scores of the survived-feature
classifier, then the augmented raw features. Training takes ``z`` and its
one-hot labels; prediction needs the features only.

OPID's objective has a compressed block ``v_base`` on ``z[:, :c]`` and a
joint block ``v_joint`` on all of ``z``, each with ridge gamma / (width *
weight) under simplex weights. Its minimum over the weights is
gamma (a + b)² with a = ‖v_base‖/√c and b = ‖v_joint‖/√k. As c <= k, the
triangle inequality gives a + b >= ‖u‖/√k for the one map
u = v_joint + [v_base; 0] that the loss sees, with equality at v_base = 0.
So the optimum is the plain ridge u = (ZᵀZ + (gamma/k) I)⁻¹ ZᵀY on the
joint block: one k x k solve by ``model._solve_spd``, and the weights vanish.
"""

from __future__ import annotations

import numpy as np

from .cstage import compress
from .model import (
    CStageModel,
    EStageModel,
    SchemaError,
    _check_positive,
    _solve_spd,
    argmax_decode,
)


def _joint_data(z, labels) -> tuple[np.ndarray, np.ndarray]:
    """A joint block and its one-hot labels as float matrices, checked to have
    equal row counts and at least one class but no more than joint columns."""
    z, y = np.asarray(z, dtype=np.float64), np.asarray(labels, dtype=np.float64)
    if z.ndim != 2 or y.ndim != 2 or y.shape[0] != z.shape[0] or not 0 < y.shape[1] <= z.shape[1]:
        raise SchemaError(f"labels of shape {y.shape} do not fit a joint block of {z.shape}")
    return z, y


def build_stacked(x, cmodel: CStageModel) -> np.ndarray:
    """The n x k joint block of an n x (survived + augmented) feature matrix:
    the compressed scores of its first ``survived`` columns, then the rest."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise SchemaError(f"features must be 2-D, got {x.ndim}-D")
    s = cmodel.coef_survived.shape[0]
    return np.hstack([compress(x[:, :s], cmodel), x[:, s:]])


def _normal_system(z, labels) -> tuple[np.ndarray, np.ndarray]:
    """The normal system (ZᵀZ, ZᵀY) of a joint block ``z`` and its one-hot
    ``labels``, after ``_joint_data``'s checks; one system serves every ridge."""
    z, y = _joint_data(z, labels)
    with np.errstate(over="ignore", invalid="ignore"):  # _solve_spd checks
        return z.T @ z, z.T @ y


def _ridge_fit(system: tuple[np.ndarray, np.ndarray], gamma: float) -> EStageModel:
    """Solve a normal system from ``_normal_system`` with the ridge gamma / k
    added to a copy of its k x k ZᵀZ, by ``_solve_spd``."""
    _check_positive(gamma, "ridge")
    gram, zty = system
    k = gram.shape[0]
    mat = gram.copy()  # C-ordered, so reshape(-1) below is a view of it
    with np.errstate(over="ignore"):  # _solve_spd checks
        mat.reshape(-1)[:: k + 1] += gamma / k
    return EStageModel(_solve_spd(mat, zty, "stacked ridge"))


def fit_unified(z, labels, gamma: float) -> EStageModel:
    """Fit OPID on a joint block ``z`` and its one-hot ``labels``: the ridge
    (ZᵀZ + (gamma/k) I)⁻¹ ZᵀY over the k joint columns, by ``_solve_spd``.

    Labels that do not fit the block, or a ridge that is not a real number in
    (0, inf), raise :class:`SchemaError`. A nan or inf in the system, or an
    overflow in forming it, raises :class:`NumericError` before LAPACK sees it.
    """
    return _ridge_fit(_normal_system(z, labels), gamma)


def _unified_decision(z: np.ndarray, classes: int, emodel: EStageModel) -> np.ndarray:
    """Classify the rows of a joint block ``z`` over ``classes`` classes with
    the joint model's scores ``z @ coef``."""
    shape = (z.shape[1], classes)
    if shape != emodel.coef.shape:
        raise SchemaError(
            f"joint block is {shape[0]} wide over {shape[1]} classes, "
            f"model expects {emodel.coef.shape[0]} over {emodel.coef.shape[1]}"
        )
    return argmax_decode(z @ emodel.coef)


def predict_unified(x, cmodel: CStageModel, emodel: EStageModel) -> np.ndarray:
    """Classify the rows of an n x (survived + augmented) feature matrix with
    the joint model's scores ``z @ coef``."""
    return _unified_decision(build_stacked(x, cmodel), cmodel.coef_survived.shape[1], emodel)
