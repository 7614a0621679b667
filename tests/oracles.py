"""Independent reference computations for the test suite.

Everything here recomputes results from first principles (stacked data,
naive loops, finite differences, iterative descent) and stays independent
of the streaming / closed-form code paths it checks.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.special import expit


def stack_stream(batches):
    """Concatenate a compressing-stage stream into full data matrices."""
    x_all = np.vstack([b.x for b in batches])
    x_sur = np.vstack([b.survived for b in batches])
    y = np.vstack([b.labels for b in batches])
    return x_all, x_sur, y


def batch_normal_solve(batches, lam, rho):
    """One-shot solve of the coupled ridge stationarity system over the
    whole (stacked) stream."""
    x_all, x_sur, y = stack_stream(batches)
    p = x_all.shape[1]
    s = x_sur.shape[1]
    a = np.zeros((p + s, p + s))
    a[:p, :p] = (1.0 + lam) * (x_all.T @ x_all) + rho * np.eye(p)
    a[:p, p:] = -lam * (x_all.T @ x_sur)
    a[p:, :p] = a[:p, p:].T
    a[p:, p:] = (1.0 + lam) * (x_sur.T @ x_sur) + rho * np.eye(s)
    b = np.vstack([x_all.T @ y, x_sur.T @ y])
    coef = np.linalg.solve(a, b)
    return coef[:p], coef[p:]


def cstage_gradient(batches, coef_full, coef_survived, lam, rho):
    """Stationarity residual of the coupled objective, accumulated batch by
    batch straight from its definition."""
    g_full = rho * coef_full.copy()
    g_sur = rho * coef_survived.copy()
    for b in batches:
        x_all = b.x
        x_sur = b.survived
        pred_full = x_all @ coef_full
        pred_sur = x_sur @ coef_survived
        g_full += x_all.T @ (pred_full - b.labels) + lam * (x_all.T @ (pred_full - pred_sur))
        g_sur += x_sur.T @ (pred_sur - b.labels) + lam * (x_sur.T @ (pred_sur - pred_full))
    return g_full, g_sur


def spd_solve(mat, rhs):
    """SciPy's checked general-purpose solver, told the system is SPD."""
    return scipy.linalg.solve(mat, rhs, assume_a="pos")


def ridge_solve(x, y, rho):
    return np.linalg.solve(x.T @ x + rho * np.eye(x.shape[1]), x.T @ y)


def naive_matmul(a, b):
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0.0
            for k in range(a.shape[1]):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def stacked_objective(z_base, z_joint, y, v_base, v_joint, w_base, w_joint, gamma):
    resid = z_base @ v_base + z_joint @ v_joint - y
    pen = gamma * (
        (v_base**2).sum() / (z_base.shape[1] * w_base)
        + (v_joint**2).sum() / (z_joint.shape[1] * w_joint)
    )
    return float((resid**2).sum() + pen)


def sqrt_weighted_stacked_solve(z_base, z_joint, y, w_base, w_joint, gamma):
    """Explicit (c + k)-wide normal solve of the stacked ridge objective in
    its square-root-weighted form: design [sqrt(w_base) z_base,
    sqrt(w_joint) z_joint] with ridge gamma / width per block. Returns the
    scaled blocks, i.e. v_base / sqrt(w_base) and v_joint / sqrt(w_joint)."""
    c = z_base.shape[1]
    k = z_joint.shape[1]
    design = np.hstack([math.sqrt(w_base) * z_base, math.sqrt(w_joint) * z_joint])
    gram = design.T @ design
    gram[np.diag_indices_from(gram)] += np.concatenate(
        [np.full(c, gamma / c), np.full(k, gamma / k)]
    )
    scaled = np.linalg.solve(gram, design.T @ y)
    return scaled[:c], scaled[c:]


def gd_minimize_stacked(z_base, z_joint, y, w_base, w_joint, gamma, tol=1e-10, max_iter=500_000):
    """Steepest descent with exact line search on the stacked ridge
    objective (a quadratic), down to the requested gradient norm."""
    c = z_base.shape[1]
    k = z_joint.shape[1]
    reg_base = gamma / (c * w_base)
    reg_joint = gamma / (k * w_joint)
    v_base = np.zeros((c, y.shape[1]))
    v_joint = np.zeros((k, y.shape[1]))
    for _ in range(max_iter):
        resid = z_base @ v_base + z_joint @ v_joint - y
        g_base = 2.0 * (z_base.T @ resid + reg_base * v_base)
        g_joint = 2.0 * (z_joint.T @ resid + reg_joint * v_joint)
        sq = (g_base**2).sum() + (g_joint**2).sum()
        if math.sqrt(sq) <= tol:
            break
        applied = z_base @ g_base + z_joint @ g_joint
        curvature = 2.0 * (
            (applied**2).sum() + reg_base * (g_base**2).sum() + reg_joint * (g_joint**2).sum()
        )
        step = sq / curvature
        v_base -= step * g_base
        v_joint -= step * g_joint
    return v_base, v_joint


def finite_diff_gradient(func, point, eps=1e-6):
    """Central-difference gradient of a scalar function of a flat vector."""
    point = np.asarray(point, dtype=np.float64)
    grad = np.zeros_like(point)
    for i in range(point.size):
        bump = np.zeros_like(point)
        bump[i] = eps
        grad[i] = (func(point + bump) - func(point - bump)) / (2.0 * eps)
    return grad


def weight_penalty(sq_base, sq_joint, width_base, width_joint, w_base):
    return sq_base / (width_base * w_base) + sq_joint / (width_joint * (1.0 - w_base))


def logistic_objective_loops(v, x, y_pm, alpha):
    total = 0.5 * sum(float(vi) ** 2 for vi in v)
    for j in range(x.shape[0]):
        margin = float(y_pm[j]) * float(x[j] @ v)
        total += alpha * math.log1p(math.exp(-margin)) if margin > -30 else alpha * (-margin)
    return total


def _dposv(mat, rhs):
    """``dposv``'s bits: the upper Cholesky factor of ``mat``, then its solve."""
    factor, info = dpotrf(mat, lower=0, clean=0)
    assert info == 0, f"leading minor {info} is not positive definite"
    return dpotrs(factor, rhs)[0]


def alternating_fit_loop(gram, zty, yy, gamma, floor, tol, max_iter):
    """The expanding stage's alternating fit written out step by step: the
    ridge matrix rebuilt from ``np.diag`` each iteration, the blocks split
    by ``vstack``, the weights from ``np.linalg.norm`` and the objective with
    its per-block penalty. Returns (v_base, v_joint, w_base, trace,
    converged), the quantities ``fit_unified`` must reproduce bit for bit."""

    def penalty(block, weight):
        sq = float((block**2).sum())
        denom = block.shape[0] * weight
        return 0.0 if denom == 0.0 and sq == 0.0 else gamma * sq / denom

    k, c = zty.shape
    w_base, prev, trace, converged = 0.5, None, [], False
    for _ in range(max_iter):
        wb = min(max(w_base, floor), 1.0 - floor)
        inv_a, inv_b = c * wb / gamma, k * (1.0 - wb) / gamma
        ridge = np.repeat([1.0 / (inv_a + inv_b), 1.0 / inv_b], [c, k - c])
        u = _dposv(gram + np.diag(ridge), zty)
        share = inv_a / (inv_a + inv_b)
        v_base, v_joint = share * u[:c], np.vstack([(1.0 - share) * u[:c], u[c:]])
        r_base = np.linalg.norm(v_base) / math.sqrt(v_base.shape[0])
        r_joint = np.linalg.norm(v_joint) / math.sqrt(v_joint.shape[0])
        total = r_base + r_joint
        w_base = 0.5 if total == 0.0 else r_base / total
        summed = v_joint.copy()
        summed[:c] += v_base
        value = (
            float((summed * (gram @ summed - 2.0 * zty)).sum()) + yy
            + penalty(v_base, w_base)
            + penalty(v_joint, 1.0 - w_base)
        )
        trace.append(value)
        if prev is not None and prev - value <= tol * max(1.0, abs(prev)):
            converged = True
            break
        prev = value
    return v_base, v_joint, w_base, tuple(trace), converged


def newton_logistic_loop(x, y_pm, alpha, init, tol, max_iter):
    """Damped Newton on the regularized logistic objective written out step
    by step: margins recomputed at every point, the Hessian built on
    ``np.eye``. Returns the coefficients ``train_logistic`` must reproduce
    bit for bit, the number of Newton steps and the number of halved
    line-search steps; the objective was evaluated at 1 + steps + halvings
    points."""

    def objective(v):
        return 0.5 * float(v @ v) + alpha * float(np.logaddexp(0.0, -(y_pm * (x @ v))).sum())

    d = x.shape[1]
    v = np.zeros(d) if init is None else np.array(init, dtype=np.float64)
    f = objective(v)
    halvings = 0
    for steps in range(max_iter):
        t = y_pm * (x @ v)
        slack = expit(-t)
        grad = v - alpha * (x.T @ (y_pm * slack))
        if np.linalg.norm(grad) <= tol:
            return v, steps, halvings
        curv = expit(t) * slack
        direction = _dposv(np.eye(d) + alpha * (x.T * curv) @ x, grad)
        slope = float(grad @ direction)
        eta = 1.0
        while eta > 2.0**-40:
            cand = v - eta * direction
            f_cand = objective(cand)
            if f_cand <= f - 1e-4 * eta * slope:
                break
            eta *= 0.5
            halvings += 1
        v, f = cand, f_cand
    raise AssertionError("no convergence")
