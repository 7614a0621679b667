"""Two-classifier expanding-stage ensemble and its regularized logistic solver.

Both ensemble members are L2-regularized logistic models trained from scratch
with a damped Newton iteration; the same solver backs the raw-feature
baselines, so every classifier in the package shares one optimization
contract: the gradient norm at the returned coefficients is below tolerance.
The ensemble weights are picked on an 11-point grid by k-fold cross
validation of the probability-averaged decision.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .estage import StackedTrainSet, build_stacked
from .model import (
    Batch,
    CStageModel,
    NumericError,
    SchemaError,
    _fold_splits,
    _solve_spd,
    argmax_decode,
    class_signs,
)

logger = logging.getLogger(__name__)

WEIGHT_GRID = np.linspace(0.0, 1.0, 11)


class SolverError(NumericError):
    """The logistic solver did not reach its tolerance within budget."""


def logistic_objective(v: np.ndarray, x: np.ndarray, y_pm: np.ndarray, alpha: float) -> float:
    """0.5 * ||v||^2 plus alpha times the logistic loss over +/-1 labels."""
    margins = y_pm * (x @ v)
    return 0.5 * float(v @ v) + alpha * float(np.logaddexp(0.0, -margins).sum())


def train_logistic(
    x,
    y_pm,
    alpha: float,
    tol: float = 1e-6,
    max_iter: int = 500,
    init=None,
) -> np.ndarray:
    """Minimize the regularized logistic objective to gradient norm <= tol.

    Damped Newton with Armijo backtracking; the Hessian is the identity plus
    a weighted Gram matrix, so every step is an SPD solve and the iteration
    is globally convergent on this strictly convex objective.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y_pm, dtype=np.float64)
    if x.ndim != 2:
        raise SchemaError(f"features must be 2-D, got {x.ndim}-D")
    if y.shape != (x.shape[0],):
        raise SchemaError(f"labels have shape {y.shape}, expected ({x.shape[0]},)")
    if x.shape[0] < 1:
        raise ValueError("need at least one instance")
    if alpha <= 0:
        raise ValueError(f"loss weight must be > 0, got {alpha}")

    d = x.shape[1]
    v = np.zeros(d) if init is None else np.asarray(init, dtype=np.float64).copy()
    f = logistic_objective(v, x, y, alpha)
    for _ in range(max_iter):
        t = y * (x @ v)
        slack = expit(-t)
        grad = v - alpha * (x.T @ (y * slack))
        if np.linalg.norm(grad) <= tol:
            return v
        curv = expit(t) * slack
        hess = np.eye(d) + alpha * (x.T * curv) @ x
        direction = _solve_spd(hess, grad, "Newton system")
        slope = float(grad @ direction)
        eta = 1.0
        while eta > 2.0**-40:
            cand = v - eta * direction
            f_cand = logistic_objective(cand, x, y, alpha)
            if f_cand <= f - 1e-4 * eta * slope:
                break
            eta *= 0.5
        v, f = cand, f_cand
    raise SolverError(f"no convergence to gradient norm {tol} within {max_iter} iterations")


@dataclass(frozen=True)
class LogisticModel:
    """One-vs-rest logistic classifier: one coefficient column per class.

    ``constant_class`` marks the degenerate single-class fit that emits a
    fixed prediction instead of solved coefficients.
    """

    coef: np.ndarray
    constant_class: int | None = None

    def margins(self, x: np.ndarray) -> np.ndarray:
        if self.constant_class is not None:
            out = np.zeros((x.shape[0], self.coef.shape[1]))
            out[:, self.constant_class] = 1.0
            return out
        return x @ self.coef

    def proba(self, x: np.ndarray) -> np.ndarray:
        """Per-class sigmoid of the one-vs-rest margins (not normalized)."""
        if self.constant_class is not None:
            return self.margins(x)
        return expit(x @ self.coef)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return argmax_decode(self.margins(x))


@dataclass(frozen=True)
class EnsembleModel:
    """Two logistic members plus their cross-validated simplex weights."""

    clf_base: LogisticModel
    clf_joint: LogisticModel
    w_base: float
    w_joint: float


def train_ovr(x, labels, alpha: float, tol: float = 1e-6) -> LogisticModel:
    """Train one binary logistic task per class against the rest."""
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    c = labels.shape[1]
    if c < 2:
        raise SchemaError(f"need at least two classes, got {c}")
    present = np.flatnonzero(labels.sum(axis=0) > 0)
    if present.size == 1:
        only = int(present[0])
        logger.warning("degenerate fold with a single class %d: constant classifier", only)
        return LogisticModel(coef=np.zeros((x.shape[1], c)), constant_class=only)
    coef = np.empty((x.shape[1], c))
    for cls in range(c):
        coef[:, cls] = train_logistic(x, class_signs(labels, cls), alpha, tol=tol)
    return LogisticModel(coef=coef)


def _combined_accuracy(w_base, p_base, p_joint, truth):
    pred = argmax_decode(w_base * p_base + (1.0 - w_base) * p_joint)
    return float(np.mean(pred == truth))


def train_ensemble(
    data: StackedTrainSet,
    alpha_base: float = 1.0,
    alpha_joint: float = 1.0,
    folds: int = 5,
    tol: float = 1e-6,
) -> EnsembleModel:
    """Fit both members on the full training set, then pick the combination
    weight by k-fold cross validation of the probability-averaged decision.

    The grid contains both endpoints, so the ensemble never scores worse in
    CV than either member alone; ties go to the larger joint-block weight
    (the richer feature set).
    """
    splits = _fold_splits(data.n, folds)
    clf_base = train_ovr(data.z_base, data.labels, alpha_base, tol=tol)
    clf_joint = train_ovr(data.z_joint, data.labels, alpha_joint, tol=tol)

    scores = np.zeros(WEIGHT_GRID.size)
    for mask, val_idx in splits:
        fold_base = train_ovr(data.z_base[mask], data.labels[mask], alpha_base, tol=tol)
        fold_joint = train_ovr(data.z_joint[mask], data.labels[mask], alpha_joint, tol=tol)
        p_base = fold_base.proba(data.z_base[val_idx])
        p_joint = fold_joint.proba(data.z_joint[val_idx])
        truth = data.labels[val_idx].argmax(axis=1)
        for i, w in enumerate(WEIGHT_GRID):
            scores[i] += _combined_accuracy(w, p_base, p_joint, truth)

    # argmax keeps the first maximum: the smallest tied base weight, i.e. the
    # largest joint-block weight.
    w_base = float(WEIGHT_GRID[int(np.argmax(scores))])
    return EnsembleModel(
        clf_base=clf_base, clf_joint=clf_joint, w_base=w_base, w_joint=1.0 - w_base
    )


def predict_ensemble(batch: Batch, cmodel: CStageModel, emodel: EnsembleModel) -> np.ndarray:
    """Classify an expanding-stage batch by weighted probability averaging
    of the two members."""
    data = build_stacked(batch, cmodel)
    combined = emodel.w_base * emodel.clf_base.proba(data.z_base)
    combined += emodel.w_joint * emodel.clf_joint.proba(data.z_joint)
    return argmax_decode(combined)


def save_ensemble(model: EnsembleModel, path) -> None:
    np.savez(
        path,
        base_coef=model.clf_base.coef,
        joint_coef=model.clf_joint.coef,
        base_const=-1 if model.clf_base.constant_class is None else model.clf_base.constant_class,
        joint_const=-1
        if model.clf_joint.constant_class is None
        else model.clf_joint.constant_class,
        w_base=model.w_base,
        w_joint=model.w_joint,
    )


def load_ensemble(path) -> EnsembleModel:
    with np.load(path) as data:
        base_const = int(data["base_const"])
        joint_const = int(data["joint_const"])
        return EnsembleModel(
            clf_base=LogisticModel(
                coef=data["base_coef"].copy(),
                constant_class=None if base_const < 0 else base_const,
            ),
            clf_joint=LogisticModel(
                coef=data["joint_coef"].copy(),
                constant_class=None if joint_const < 0 else joint_const,
            ),
            w_base=float(data["w_base"]),
            w_joint=float(data["w_joint"]),
        )
