"""Two-classifier expanding-stage ensemble and its regularized logistic solver.

Both ensemble members are L2-regularized logistic models trained from scratch
with a damped Newton iteration; the same solver backs the raw-feature
baselines, so every classifier in the package shares one optimization
contract: the gradient norm at the returned coefficients is <= ``NEWTON_TOL``.
Training takes the joint block ``z`` of :func:`estage.build_stacked` and
its one-hot labels: the base member is fit on the c compressed columns
``z[:, :c]``, the joint member on all of ``z``. ``_fit_members`` fits both
members with one loss weight wherever they are fit. The ensemble weights
are picked on an 11-point grid by k-fold cross validation
(``model._cv_accuracy``) of the probability-averaged decision. Prediction
takes a feature matrix, survived columns first, augmented after.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .estage import _base_width, _joint_data, build_stacked
from .model import (
    CStageModel,
    NumericError,
    SchemaError,
    _cv_accuracy,
    _solve_spd,
    argmax_decode,
    class_signs,
)

logger = logging.getLogger(__name__)

WEIGHT_GRID = np.linspace(0.0, 1.0, 11)
# train_logistic's gradient-norm tolerance and Newton iteration budget.
NEWTON_TOL = 1e-6
NEWTON_MAX_ITER = 500


class SolverError(NumericError):
    """The logistic solver did not reach its tolerance within budget."""


def logistic_objective(v: np.ndarray, margins: np.ndarray, alpha: float) -> float:
    """0.5 * ||v||^2 plus alpha times the logistic loss of the ``margins``
    ``y * (x @ v)`` of features ``x`` over +/-1 labels ``y``."""
    return 0.5 * float(v @ v) + alpha * float(np.logaddexp(0.0, -margins).sum())


def _check_loss_weight(alpha: float) -> None:
    if not 0 < alpha < np.inf:
        raise SchemaError(f"loss weight must be > 0 and finite, got {alpha}")


def train_logistic(x, y_pm, alpha: float, init=None) -> np.ndarray:
    """Minimize the regularized logistic objective to gradient norm <=
    ``NEWTON_TOL``, starting from ``init`` (zeros by default).

    Damped Newton with Armijo backtracking; the Hessian is the identity plus
    a weighted Gram matrix, so every step is an SPD solve and the iteration
    is globally convergent on this strictly convex objective. No instances,
    or a loss weight that is not finite and > 0, raise :class:`SchemaError`.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y_pm, dtype=np.float64)
    if x.ndim != 2:
        raise SchemaError(f"features must be 2-D, got {x.ndim}-D")
    if y.shape != (x.shape[0],):
        raise SchemaError(f"labels have shape {y.shape}, expected ({x.shape[0]},)")
    if x.shape[0] < 1:
        raise SchemaError("need at least one instance")
    _check_loss_weight(alpha)

    d = x.shape[1]
    v = np.zeros(d) if init is None else np.asarray(init, dtype=np.float64).copy()
    t = y * (x @ v)
    f = logistic_objective(v, t, alpha)
    for _ in range(NEWTON_MAX_ITER):
        slack = expit(-t)
        grad = v - alpha * (x.T @ (y * slack))
        if np.linalg.norm(grad) <= NEWTON_TOL:
            return v
        curv = expit(t) * slack
        hess = alpha * (x.T * curv) @ x
        hess.reshape(-1)[:: d + 1] += 1.0  # plus the identity; a fresh product is C-ordered
        direction = _solve_spd(hess, grad, "Newton system")
        slope = float(grad @ direction)
        eta = 1.0
        while eta > 2.0**-40:
            cand = v - eta * direction
            t_cand = y * (x @ cand)
            f_cand = logistic_objective(cand, t_cand, alpha)
            if f_cand <= f - 1e-4 * eta * slope:
                break
            eta *= 0.5
        # the accepted point's margins and objective start the next step
        v, t, f = cand, t_cand, f_cand
    raise SolverError(
        f"no convergence to gradient norm {NEWTON_TOL} within {NEWTON_MAX_ITER} iterations"
    )


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
    """Two logistic members plus their cross-validated simplex weights,
    ``w_base`` and ``w_joint = 1 - w_base``."""

    clf_base: LogisticModel
    clf_joint: LogisticModel
    w_base: float

    def __post_init__(self):
        if not 0.0 <= self.w_base <= 1.0:  # nan fails too
            raise SchemaError(f"base-member weight must lie in [0, 1], got {self.w_base}")

    @property
    def w_joint(self) -> float:
        return 1.0 - self.w_base


def train_ovr(x, labels, alpha: float) -> LogisticModel:
    """Train one binary logistic task per class against the rest. A bad loss
    weight raises :class:`SchemaError` even when only one class is present
    and the fit is a constant classifier."""
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    c = labels.shape[1]
    if c < 2:
        raise SchemaError(f"need at least two classes, got {c}")
    _check_loss_weight(alpha)
    present = np.flatnonzero(labels.sum(axis=0) > 0)
    if present.size == 1:
        only = int(present[0])
        logger.warning("degenerate fold with a single class %d: constant classifier", only)
        return LogisticModel(coef=np.zeros((x.shape[1], c)), constant_class=only)
    coef = np.empty((x.shape[1], c))
    for cls in range(c):
        coef[:, cls] = train_logistic(x, class_signs(labels, cls), alpha)
    return LogisticModel(coef=coef)


def _fit_members(z: np.ndarray, labels: np.ndarray, alpha: float):
    """The base member, fit on the leading ``labels.shape[1]`` (compressed)
    columns of the joint block ``z``, and the joint member, fit on all of it."""
    return train_ovr(z[:, : labels.shape[1]], labels, alpha), train_ovr(z, labels, alpha)


def train_ensemble(z, labels, alpha: float = 1.0, folds: int = 5) -> EnsembleModel:
    """Fit the ensemble on a joint block ``z`` and its one-hot ``labels``.

    Picks the combination weight by k-fold cross validation of the
    probability-averaged decision, then fits both members on the full
    training set. Both members use the loss weight ``alpha``. Labels that do
    not fit the block, or a bad ``folds``, raise :class:`SchemaError` before
    any member is fit.

    The grid contains both endpoints, so the ensemble never scores worse in
    CV than either member alone; ties go to the larger joint-block weight
    (the richer feature set).
    """
    def predict(z_train, y_train, z_val):
        fold_base, fold_joint = _fit_members(z_train, y_train, alpha)
        p_base = fold_base.proba(z_val[:, : y_train.shape[1]])
        p_joint = fold_joint.proba(z_val)
        return [argmax_decode(w * p_base + (1.0 - w) * p_joint) for w in WEIGHT_GRID]

    z, labels = _joint_data(z, labels)
    scores = _cv_accuracy(z, labels, folds, predict)
    # argmax keeps the first maximum: the smallest tied base weight, i.e. the
    # largest joint-block weight.
    w_base = float(WEIGHT_GRID[int(np.argmax(scores))])
    return EnsembleModel(*_fit_members(z, labels, alpha), w_base)


def predict_ensemble(x, cmodel: CStageModel, emodel: EnsembleModel) -> np.ndarray:
    """Classify the rows of an n x (survived + augmented) feature matrix by
    weighted probability averaging of the two members."""
    z = build_stacked(x, cmodel)
    c = _base_width(z, cmodel, emodel.clf_base.coef.shape[0], emodel.clf_joint.coef.shape[0])
    combined = emodel.w_base * emodel.clf_base.proba(z[:, :c])
    combined += emodel.w_joint * emodel.clf_joint.proba(z)
    return argmax_decode(combined)
