"""Independent reference computations for the test suite.

Everything here recomputes results from first principles (stacked data,
naive loops, finite differences, iterative descent) and stays independent
of the streaming / closed-form code paths it checks. The protocol reference,
``experiment_protocol``, calls the library only for its fits and their
decision rules, and writes the orchestration around them out in full.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.special import expit

from opid import cstage, ensemble, estage, model


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


def coupled_matrix(stats):
    """The dense (m, m) coupled normal matrix M(lam, rho), m = vanished + 2
    survived, built from direct mode's statistics. Direct mode keeps the
    factor R of G in split order (survived, then vanished), so G is R^T R
    permuted back to schema order (vanished, then survived)."""
    v, s, lam = stats.schema.vanished, stats.schema.survived, stats.hyper.lam
    order = np.concatenate([np.arange(s, v + s), np.arange(s)])
    gram = (stats.mat.T @ stats.mat)[np.ix_(order, order)]
    cross = -lam * gram[:, v:]
    mat = np.block([[(1.0 + lam) * gram, cross], [cross.T, (1.0 + lam) * gram[v:, v:]]])
    mat.flat[:: mat.shape[0] + 1] += stats.hyper.rho
    return mat


def split_factor(stats):
    """Factor mode's [P1 | P2] assembled into the (m, m) block factor R' of
    the unknowns (sigma_s, delta_s, t), and the (m, m) map T from them to
    the coupled system's unknowns (theta, phi), so that R'^T R' = T^T M T
    for the coupled normal matrix M. The corner is read from P1."""
    v, s = stats.schema.vanished, stats.schema.survived
    p, m = v + s, v + 2 * s
    p1, p2 = stats.mat[:, :p], stats.mat[:, p:]
    r = np.zeros((m, m))
    r[:s, :s], r[:s, 2 * s :] = p1[:s, :s], p1[:s, s:]
    r[s : 2 * s, s : 2 * s], r[s : 2 * s, 2 * s :] = p2[:s, :s], p2[:s, s:]
    r[2 * s :, 2 * s :] = p1[s:, s:]
    half = np.eye(s) / math.sqrt(2.0)
    t = np.zeros((m, m))
    t[:v, 2 * s :] = math.sqrt(2.0) * np.eye(v)  # theta_v = sqrt(2) t
    t[v:p, :s], t[v:p, s : 2 * s] = half, half  # theta_s = (sigma_s + delta_s) / sqrt(2)
    t[p:, :s], t[p:, s : 2 * s] = half, -half  # phi = (sigma_s - delta_s) / sqrt(2)
    return r, t


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


def joint_ridge_objective(z, y, u, gamma):
    """OPID's objective at v_base = 0 in row form: ‖Z u − Y‖² + (gamma / k)‖u‖²."""
    return float(((z @ u - y) ** 2).sum() + gamma / z.shape[1] * (u**2).sum())


def joint_ridge_lstsq(z, y, gamma):
    """The minimizer of ``joint_ridge_objective`` by least squares on the
    augmented rows [Z; sqrt(gamma / k) I] against [Y; 0], without normal
    equations."""
    k = z.shape[1]
    design = np.vstack([z, math.sqrt(gamma / k) * np.eye(k)])
    target = np.vstack([y, np.zeros((k, y.shape[1]))])
    return np.linalg.lstsq(design, target, rcond=None)[0]


def gd_minimize_joint_ridge(z, y, gamma, tol=1e-10, max_iter=500_000):
    """Steepest descent with exact line search on ``joint_ridge_objective``
    (a quadratic), from zero down to the requested gradient norm."""
    reg = gamma / z.shape[1]
    u = np.zeros((z.shape[1], y.shape[1]))
    for _ in range(max_iter):
        grad = 2.0 * (z.T @ (z @ u - y) + reg * u)
        sq = (grad**2).sum()
        if math.sqrt(sq) <= tol:
            break
        step = sq / (2.0 * (((z @ grad) ** 2).sum() + reg * sq))
        u -= step * grad
    return u


def finite_diff_gradient(func, point, eps=1e-6):
    """Central-difference gradient of a scalar function of a flat vector."""
    point = np.asarray(point, dtype=np.float64)
    grad = np.zeros_like(point)
    for i in range(point.size):
        bump = np.zeros_like(point)
        bump[i] = eps
        grad[i] = (func(point + bump) - func(point - bump)) / (2.0 * eps)
    return grad


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


def alternating_fit_loop(gram, zty, yy, gamma, floor=1e-8, tol=1e-6, max_iter=100, start=0.5):
    """Alternating descent on OPID's two-block objective, written out step
    by step from the base weight ``start``: a k x k ridge solve for both
    blocks at a fixed weight, clamped to [floor, 1 - floor], then the
    closed-form weight update, until an iteration lowers the objective by no
    more than ``tol`` relative to it or after ``max_iter`` iterations. The
    ridge matrix is rebuilt from ``np.diag`` each iteration, the blocks split
    by ``vstack``, the weights come from ``np.linalg.norm`` and the objective
    from its per-block penalty. Returns (v_base, v_joint, w_base, trace,
    converged); the one-solve fit must reach an objective no higher than
    this loop's.
    """

    def penalty(block, weight):
        sq = float((block**2).sum())
        denom = block.shape[0] * weight
        return 0.0 if denom == 0.0 and sq == 0.0 else gamma * sq / denom

    k, c = zty.shape
    w_base, prev, trace, converged = start, None, [], False
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


def experiment_protocol(spec):
    """``opid run``'s protocol for an ``ExperimentSpec``, in straight lines.

    It reads the stream's files with ``np.loadtxt``, absorbs the
    compressing-stage batches and solves once for each (lam, rho) point,
    and pools the two expanding-stage files. Each repeat splits the pool
    50/50 by a generator from ``SeedSequence(seed).spawn(repeats)``. Each
    method scores all of its candidates, every (view, grid point) pair in
    grid order, with a plain k-fold loop over ``np.array_split``'s folds, in
    which a stacked method builds the joint blocks of the fold's own raw
    rows. The first best candidate is fit on the training half and scored on
    the test half. A method with one candidate skips the folds, and a method
    that raises a ``ValueError`` or ``ArithmeticError`` drops the repeat with
    a reason. Returns ({method: accuracies}, [reasons]).
    """
    source, schema = spec.source, spec.source.schema

    def read(path, columns):
        table = np.loadtxt(path, delimiter=",", ndmin=2)
        feats = np.hstack([table[:, start:stop] for start, stop in columns])
        return feats, np.eye(schema.classes)[table[:, -1].astype(int)]

    batches = [model.Batch(*read(path, source.cstage_columns), schema.vanished)
               for path in source.cstage_batches]
    cmodels = []
    for lam, rho in itertools.product(spec.lam_grid, spec.rho_grid):
        stats = cstage.init_stats(schema, model.Hyperparams(lam=lam, rho=rho))
        for batch in batches:
            cstage.absorb_batch(stats, batch)
        cmodels.append(cstage.solve_model(stats))
    (x_a, y_a), (x_b, y_b) = (read(path, source.estage_columns)
                              for path in (source.estage_train, source.estage_test))
    pool_x, pool_y = np.vstack([x_a, x_b]), np.vstack([y_a, y_b])
    s, c = schema.survived, schema.classes

    def opid(cmodel, gamma, x_tr, y_tr, x_te):
        emodel = estage.fit_unified(estage.build_stacked(x_tr, cmodel), y_tr, gamma)
        return estage.predict_unified(x_te, cmodel, emodel)

    def opide_in_folds(cmodel, alpha, x_tr, y_tr, x_te):
        z = estage.build_stacked(x_tr, cmodel)
        members = ensemble.train_ovr(z[:, :c], y_tr, alpha), ensemble.train_ovr(z, y_tr, alpha)
        return ensemble.predict_ensemble(x_te, cmodel, ensemble.EnsembleModel(*members, 0.5))

    def opide(cmodel, alpha, x_tr, y_tr, x_te):
        emodel = ensemble.train_ensemble(estage.build_stacked(x_tr, cmodel), y_tr, alpha,
                                         folds=spec.folds)
        return ensemble.predict_ensemble(x_te, cmodel, emodel)

    def baseline(columns, alpha, x_tr, y_tr, x_te):
        return ensemble.train_ovr(x_tr[:, columns], y_tr, alpha).predict(x_te[:, columns])

    # method -> (views, grid, predict in a fold, predict after the final fit),
    # each predict(view, params, x_train, y_train, x_test)
    methods = {
        "OPID": (cmodels, spec.gamma_grid, opid, opid),
        "OPIDe": (cmodels, spec.alpha_grid, opide_in_folds, opide),
        "BASE_ALL": ([slice(None)], spec.alpha_grid, baseline, baseline),
        "BASE_S": ([slice(0, s)], spec.alpha_grid, baseline, baseline),
        "BASE_A": ([slice(s, None)], spec.alpha_grid, baseline, baseline),
    }
    n_pool = pool_x.shape[0]
    n_train = n_pool // 2
    accuracies = {method: [] for method in spec.methods}
    failures = []
    for repeat, child in enumerate(np.random.SeedSequence(spec.seed).spawn(spec.repeats)):
        order = np.random.default_rng(child).permutation(n_pool)
        train, test = order[:n_train], order[n_train:]
        x_tr, y_tr, x_te, y_te = pool_x[train], pool_y[train], pool_x[test], pool_y[test]
        row = {}
        try:
            for method in spec.methods:
                views, grid, in_folds, final = methods[method]
                candidates = [(view, params) for view in views for params in grid]
                best = 0
                if len(candidates) > 1:
                    scores = []
                    for view, params in candidates:
                        total = 0.0
                        for val in np.array_split(np.arange(n_train), spec.folds):
                            fit = np.setdiff1d(np.arange(n_train), val)
                            pred = in_folds(view, params, x_tr[fit], y_tr[fit], x_tr[val])
                            total += np.mean(pred == y_tr[val].argmax(axis=1))
                        scores.append(total / spec.folds)
                    best = scores.index(max(scores))
                pred = final(*candidates[best], x_tr, y_tr, x_te)
                row[method] = float(np.mean(pred == y_te.argmax(axis=1)))
        except (ValueError, ArithmeticError) as exc:
            failures.append(f"repeat {repeat} aborted ({method}): {exc}")
            continue
        for method in spec.methods:
            accuracies[method].append(row[method])
    return accuracies, failures
