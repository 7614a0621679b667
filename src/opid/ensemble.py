"""Two-classifier expanding-stage ensemble and its regularized logistic solver.

Both ensemble members are L2-regularized logistic models trained from scratch
with a damped Newton iteration; the same solver backs the raw-feature
baselines, so every classifier in the package shares one optimization
contract: the gradient norm at the returned coefficients is <= ``NEWTON_TOL``.
``train_ovr`` takes the first Newton step of all its classes at once. From
zero coefficients every margin is 0 whatever the class, so the objective,
the Hessian I + alpha X'X / 4 and its Cholesky factor are the same for all
classes: one factorization, solved with a column of right-hand side per
class, replaces one per class. It is exact, not an approximation: each
class's gradient and line search are computed as ``train_logistic``
computes them, the triangular solves give each column the bits of its
one-column solve (as the tests check on the bundled OpenBLAS), and
``train_logistic`` continues from the accepted point.
Training takes the joint block ``z`` of :func:`estage.build_stacked` and
its one-hot labels: the base member is fit on the c compressed columns
``z[:, :c]``, the joint member on all of ``z``. ``_fit_members`` fits both
members with one loss weight wherever they are fit, and ``_vote`` is OPIDe's
one decision: the argmax of the members' probabilities averaged at a base
weight. ``_fold_decisions`` is OPIDe's one fold rule: it fits both members on
a fold's training rows and votes on its validation rows for each base weight
it is given. The ensemble weights are picked on an 11-point grid by k-fold
cross validation (``model._cv_accuracy``) of that rule, and the harness's
loss-weight search scores its folds with it at the one weight 0.5.
Prediction takes a feature matrix, survived columns first, augmented after,
and votes at the chosen weight: CV and prediction share one decision.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from ._scipy import expit
from .estage import _joint_data, build_stacked
from .model import (
    CStageModel,
    NumericError,
    SchemaError,
    _check_positive,
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


def _check_task(x: np.ndarray, y: np.ndarray) -> None:
    if x.ndim != 2:
        raise SchemaError(f"features must be 2-D, got {x.ndim}-D")
    if y.shape != (x.shape[0],):
        raise SchemaError(f"labels have shape {y.shape}, expected ({x.shape[0]},)")
    if x.shape[0] < 1:
        raise SchemaError("need at least one instance")


def _converged(grad: np.ndarray) -> bool:
    # np.linalg.norm of a vector, without its dispatch
    return math.sqrt(grad @ grad) <= NEWTON_TOL


def _hessian(x: np.ndarray, curv: np.ndarray, alpha: float) -> np.ndarray:
    """The identity plus ``alpha`` times the ``curv``-weighted Gram matrix of ``x``."""
    hess = alpha * (x.T * curv) @ x
    hess.reshape(-1)[:: x.shape[1] + 1] += 1.0  # a fresh product is C-ordered
    return hess


def _armijo_step(x, y, alpha: float, v, f: float, grad, direction):
    """The damped Newton step from ``v`` (objective ``f``, gradient ``grad``)
    along ``-direction``: the first step size of 1, 1/2, ..., 2**-39 that
    meets Armijo's sufficient decrease, else the last one tried. Returns the
    accepted point, its margins and its objective."""
    slope = float(grad @ direction)
    eta, step = 1.0, direction  # the unit step needs no multiply
    while eta > 2.0**-40:
        cand = v - step
        t_cand = y * (x @ cand)
        f_cand = logistic_objective(cand, t_cand, alpha)
        if f_cand <= f - 1e-4 * eta * slope:
            break
        eta *= 0.5
        step = eta * direction
    return cand, t_cand, f_cand


def train_logistic(x, y_pm, alpha: float, init=None) -> np.ndarray:
    """Minimize the regularized logistic objective to gradient norm <=
    ``NEWTON_TOL``, starting from ``init`` (zeros by default).

    Damped Newton with Armijo backtracking; the Hessian is the identity plus
    a weighted Gram matrix, so every step is an SPD solve and the iteration
    is globally convergent on this strictly convex objective. No instances,
    or a loss weight that is not a real number, finite and > 0, raise
    :class:`SchemaError`.
    :func:`train_ovr` takes every class's first step from zeros itself and
    passes the accepted point as ``init``. A step that leaves the point, its
    margins and its objective the same bit for bit would repeat forever.
    That fixed point is returned when it is optimal to working precision,
    Newton's predicted decrease (half the decrement grad^T H^-1 grad) at
    most eps * |f|, and raises the budget's :class:`SolverError` at once
    otherwise. So the result has gradient norm <= ``NEWTON_TOL`` or is such
    a point.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y_pm, dtype=np.float64)
    _check_task(x, y)
    _check_positive(alpha, "loss weight")

    v = np.zeros(x.shape[1]) if init is None else np.asarray(init, dtype=np.float64).copy()
    # a nan or inf feature reaches _solve_spd's finiteness check and fails
    # there, typed; numpy must not warn about it first
    with np.errstate(over="ignore", invalid="ignore"):
        t = y * (x @ v)
        f = logistic_objective(v, t, alpha)
        for _ in range(NEWTON_MAX_ITER):
            slack = expit(-t)
            grad = v - alpha * (x.T @ (y * slack))
            if _converged(grad):
                return v
            direction = _solve_spd(_hessian(x, expit(t) * slack, alpha), grad, "Newton system")
            # the accepted point's margins and objective start the next step
            state = _armijo_step(x, y, alpha, v, f, grad, direction)
            if state[2] == f and [a.tobytes() for a in state[:2]] == [v.tobytes(), t.tobytes()]:
                # a fixed point: optimal to working precision when Newton's
                # predicted decrease is below the rounding of f
                if 0.5 * float(grad @ direction) <= np.finfo(float).eps * abs(f):
                    return v
                break
            v, t, f = state
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

    def proba(self, x: np.ndarray) -> np.ndarray:
        """Per-class sigmoid of the one-vs-rest margins (not normalized); a
        constant model's rows are one-hot on its class."""
        if self.constant_class is not None:
            out = np.zeros((x.shape[0], self.coef.shape[1]))
            out[:, self.constant_class] = 1.0
            return out
        return expit(x @ self.coef)

    def predict(self, x: np.ndarray) -> np.ndarray:
        # the margins, not their sigmoids, which tie where expit saturates
        return argmax_decode(self.proba(x) if self.constant_class is not None else x @ self.coef)


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
    and the fit is a constant classifier.

    The first Newton step of every class is taken here, with one Hessian and
    one SPD solve (see the module docstring); each class then continues in
    :func:`train_logistic` from its accepted point, so column k has the bits
    of ``train_logistic(x, class_signs(labels, k), alpha)``. A class that
    exhausts ``NEWTON_MAX_ITER`` there has taken one step more.
    """
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    c = labels.shape[1]
    if c < 2:
        raise SchemaError(f"need at least two classes, got {c}")
    _check_positive(alpha, "loss weight")
    present = np.flatnonzero(labels.sum(axis=0) > 0)
    if present.size == 1:
        only = int(present[0])
        logger.warning("degenerate fold with a single class %d: constant classifier", only)
        return LogisticModel(coef=np.zeros((x.shape[1], c)), constant_class=only)
    signs = [class_signs(labels, cls) for cls in range(c)]
    _check_task(x, signs[0])
    zero = np.zeros(x.shape[1])
    starts = [zero] * c
    with np.errstate(over="ignore", invalid="ignore"):
        # every class's margins y * (x @ 0) are +/-0, or nan beside a
        # non-finite feature: the unsigned ones give each class's slack,
        # curvature and objective bit for bit
        t = x @ zero
        slack = expit(-t)
        grads = [zero - alpha * (x.T @ (y * slack)) for y in signs]
        moving = [cls for cls in range(c) if not _converged(grads[cls])]
        if moving:
            f = logistic_objective(zero, t, alpha)
            # the stacked gradients' transpose is Fortran-ordered, as LAPACK
            # takes it, and each class's direction is a contiguous row
            directions = _solve_spd(_hessian(x, expit(t) * slack, alpha),
                                    np.array([grads[cls] for cls in moving]).T, "Newton system")
            for cls, direction in zip(moving, directions.T):
                starts[cls] = _armijo_step(x, signs[cls], alpha, zero, f, grads[cls], direction)[0]
    coef = np.empty((x.shape[1], c))
    for cls in range(c):
        coef[:, cls] = train_logistic(x, signs[cls], alpha, init=starts[cls])
    return LogisticModel(coef=coef)


def _fit_members(z: np.ndarray, labels: np.ndarray, alpha: float):
    """The base member, fit on the leading ``labels.shape[1]`` (compressed)
    columns of the joint block ``z``, and the joint member, fit on all of it."""
    return train_ovr(z[:, : labels.shape[1]], labels, alpha), train_ovr(z, labels, alpha)


def _vote(clf_base: LogisticModel, clf_joint: LogisticModel, z, weights) -> np.ndarray:
    """OPIDe's decision on the rows of a joint block ``z``, one row of class
    indices for each base weight w in ``weights``: argmax(w p_base + (1 - w)
    p_joint), the base member on the block's leading columns."""
    p_base = clf_base.proba(z[:, : clf_base.coef.shape[0]])
    p_joint = clf_joint.proba(z)
    w = np.asarray(weights, dtype=np.float64)[:, None, None]
    combined = w * p_base + (1.0 - w) * p_joint
    return argmax_decode(combined.reshape(-1, p_base.shape[1])).reshape(w.shape[0], -1)


def _fold_decisions(z_train, y_train, z_val, alpha: float, weights) -> np.ndarray:
    """Fit both members on a fold's training rows with loss weight ``alpha``
    and :func:`_vote` on its validation rows at each base weight in ``weights``."""
    return _vote(*_fit_members(z_train, y_train, alpha), z_val, weights)


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
    z, labels = _joint_data(z, labels)
    scores = _cv_accuracy(z, labels, folds,
                          lambda *fold: _fold_decisions(*fold, alpha, WEIGHT_GRID))
    # argmax keeps the first maximum: the smallest tied base weight, i.e. the
    # largest joint-block weight.
    w_base = float(WEIGHT_GRID[int(np.argmax(scores))])
    return EnsembleModel(*_fit_members(z, labels, alpha), w_base)


def predict_ensemble(x, cmodel: CStageModel, emodel: EnsembleModel) -> np.ndarray:
    """Classify the rows of an n x (survived + augmented) feature matrix by
    :func:`_vote` at the model's ``w_base``, the vote its cross validation
    scored; the widths of its compressed and joint blocks must match the
    members' input widths."""
    z, c = build_stacked(x, cmodel), cmodel.coef_survived.shape[1]
    expected = (emodel.clf_base.coef.shape[0], emodel.clf_joint.coef.shape[0])
    if (c, z.shape[1]) != expected:
        raise SchemaError(
            f"blocks are {c} and {z.shape[1]} wide, model expects {expected[0]} and {expected[1]}"
        )
    return _vote(emodel.clf_base, emodel.clf_joint, z, (emodel.w_base,))[0]
