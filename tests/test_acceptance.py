"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
verdict lines alongside the pytest report.
"""

from __future__ import annotations

import time

import numpy as np

from scipy.linalg.lapack import dpotri

from conftest import synth_manifest
from opid.cstage import DIRECT, FACTOR, absorb_batch, init_stats, solve_model
from opid.ensemble import train_logistic
from opid.estage import (
    JointStats,
    fit_unified,
    update_coefficients,
    update_weights,
)
from opid.harness import (
    BASE_A,
    BASE_ALL,
    OPID,
    OPIDE,
    ExperimentSpec,
    emit_report,
    run_experiment,
)
from opid.ingest import SynthConfig
from opid.model import Batch, FeatureSchema, Hyperparams, one_hot_encode

import oracles


def _verdict(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def _random_streams(count: int = 50, seed: int = 1234):
    """Shared random stream family for criteria 1, 2, and 5."""
    rng = np.random.default_rng(seed)
    lams = (0.1, 1.0, 10.0)
    rhos = (0.01, 1.0)
    instances = []
    for i in range(count):
        t1 = int(rng.integers(1, 7))
        n = int(rng.integers(1, 33))
        d_v = int(rng.integers(0, 7))
        d_s = int(rng.integers(1, 9))
        c = int(rng.integers(2, 5))
        lam = lams[i % len(lams)]
        rho = rhos[i % len(rhos)]
        schema = FeatureSchema(vanished=d_v, survived=d_s, augmented=0, classes=c)
        stream = []
        for _ in range(t1):
            labels = one_hot_encode(rng.integers(0, c, size=n), c)
            stream.append(
                Batch.cstage(
                    vanished=rng.standard_normal((n, d_v)),
                    survived=rng.standard_normal((n, d_s)),
                    labels=labels,
                )
            )
        instances.append((schema, stream, Hyperparams(lam=lam, rho=rho)))
    return instances


def _run_stream(schema, stream, hyper, mode):
    stats = init_stats(schema, hyper, mode)
    for batch in stream:
        absorb_batch(stats, batch)
    return stats


def test_criterion_1_one_pass_equals_batch_oracle():
    start = time.monotonic()
    worst = 0.0
    for schema, stream, hyper in _random_streams():
        model = solve_model(_run_stream(schema, stream, hyper, DIRECT))
        ref_full, ref_sur = oracles.batch_normal_solve(stream, hyper.lam, hyper.rho)
        worst = max(
            worst,
            np.abs(model.coef_full - ref_full).max(),
            np.abs(model.coef_survived - ref_sur).max(),
        )
    elapsed = time.monotonic() - start
    _verdict(
        1,
        "one-pass solution equals the stacked batch oracle on 50 random streams",
        worst <= 1e-8 and elapsed < 10.0,
        f"max abs diff {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_factor_path_equivalence():
    start = time.monotonic()
    worst_rel = 0.0
    worst_identity = 0.0
    for schema, stream, hyper in _random_streams():
        direct = _run_stream(schema, stream, hyper, DIRECT)
        factor = _run_stream(schema, stream, hyper, FACTOR)
        m_d = solve_model(direct)
        m_f = solve_model(factor)
        scale = max(
            np.abs(m_d.coef_full).max(), np.abs(m_d.coef_survived).max(), 1e-30
        )
        worst_rel = max(
            worst_rel,
            np.abs(m_d.coef_full - m_f.coef_full).max() / scale,
            np.abs(m_d.coef_survived - m_f.coef_survived).max() / scale,
        )
        # M^-1 = T M'^-1 T^T, with M'^-1 from the block factor R' of M' = T^T M T
        r, t = oracles.split_factor(factor)
        inv_upper, _ = dpotri(r)  # upper triangle of M'^-1
        inverse = t @ (np.triu(inv_upper) + np.triu(inv_upper, 1).T) @ t.T
        identity = inverse @ oracles.coupled_matrix(direct)
        worst_identity = max(
            worst_identity, np.abs(identity - np.eye(schema.stats_dim)).max()
        )
    elapsed = time.monotonic() - start
    _verdict(
        2,
        "QR-updated factor path matches the direct path",
        worst_rel <= 1e-6 and worst_identity <= 1e-6 and elapsed < 10.0,
        f"rel diff {worst_rel:.2e}, identity dev {worst_identity:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_anytime_property():
    start = time.monotonic()
    rng = np.random.default_rng(77)
    schema = FeatureSchema(vanished=4, survived=5, augmented=0, classes=3)
    hyper = Hyperparams(lam=1.0, rho=0.1)
    stream = []
    for _ in range(6):
        n = 12
        labels = one_hot_encode(rng.integers(0, 3, size=n), 3)
        stream.append(
            Batch.cstage(
                vanished=rng.standard_normal((n, 4)),
                survived=rng.standard_normal((n, 5)),
                labels=labels,
            )
        )
    worst = 0.0
    for mode in (DIRECT, FACTOR):
        stats = init_stats(schema, hyper, mode)
        for t, batch in enumerate(stream, start=1):
            absorb_batch(stats, batch)
            model = solve_model(stats)
            ref_full, ref_sur = oracles.batch_normal_solve(stream[:t], hyper.lam, hyper.rho)
            worst = max(
                worst,
                np.abs(model.coef_full - ref_full).max(),
                np.abs(model.coef_survived - ref_sur).max(),
            )
    elapsed = time.monotonic() - start
    _verdict(
        3,
        "every stream prefix solves to the batch optimum of that prefix",
        worst <= 1e-8 and elapsed < 5.0,
        f"max abs diff {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_zero_consistency_decoupling():
    rng = np.random.default_rng(55)
    schema = FeatureSchema(vanished=3, survived=4, augmented=0, classes=3)
    hyper = Hyperparams(lam=0.0, rho=0.7)
    stream = []
    for _ in range(4):
        labels = one_hot_encode(rng.integers(0, 3, size=10), 3)
        stream.append(
            Batch.cstage(
                vanished=rng.standard_normal((10, 3)),
                survived=rng.standard_normal((10, 4)),
                labels=labels,
            )
        )
    model = solve_model(_run_stream(schema, stream, hyper, DIRECT))
    x_all, x_sur, y = oracles.stack_stream(stream)
    diff_sur = np.abs(model.coef_survived - oracles.ridge_solve(x_sur, y, hyper.rho)).max()
    diff_full = np.abs(model.coef_full - oracles.ridge_solve(x_all, y, hyper.rho)).max()
    _verdict(
        4,
        "zero coupling reduces both blocks to standalone ridge solutions",
        diff_sur <= 1e-8 and diff_full <= 1e-8,
        f"survived diff {diff_sur:.2e}, full diff {diff_full:.2e}",
    )


def test_criterion_5_stationarity_of_coupled_objective():
    worst = 0.0
    for schema, stream, hyper in _random_streams():
        model = solve_model(_run_stream(schema, stream, hyper, DIRECT))
        g_full, g_sur = oracles.cstage_gradient(
            stream, model.coef_full, model.coef_survived, hyper.lam, hyper.rho
        )
        worst = max(worst, np.abs(g_full).max(), np.abs(g_sur).max())
    _verdict(
        5,
        "coupled-objective gradient vanishes at every solved model",
        worst <= 1e-6,
        f"max abs residual {worst:.2e}",
    )


def _random_stacked_instances(count: int = 20, seed: int = 4321):
    rng = np.random.default_rng(seed)
    instances = []
    for _ in range(count):
        n = int(rng.integers(10, 41))
        c = int(rng.integers(2, 5))
        d_a = int(rng.integers(0, 7))
        z = np.hstack([rng.standard_normal((n, c)), rng.standard_normal((n, d_a))])
        labels = one_hot_encode(rng.integers(0, c, size=n), c)
        instances.append((z, labels))
    return instances


def test_criterion_6_alternating_descent():
    worst_increase = -np.inf
    worst_consistency = 0.0
    all_converged = True
    for z, labels in _random_stacked_instances():
        state = fit_unified(JointStats.of(z, labels), gamma=1.0)
        all_converged &= state.converged and len(state.trace) <= 100
        if len(state.trace) > 1:
            worst_increase = max(worst_increase, float(np.diff(state.trace).max()))
        w_base = update_weights(state.model.v_base, state.model.v_joint)
        worst_consistency = max(
            worst_consistency,
            abs(w_base - state.model.w_base),
            abs((1.0 - w_base) - state.model.w_joint),
        )
    _verdict(
        6,
        "alternating trainer descends monotonically and ends weight-consistent",
        all_converged and worst_increase <= 1e-9 and worst_consistency <= 1e-10,
        f"max increase {worst_increase:.2e}, weight dev {worst_consistency:.2e}",
    )


def test_criterion_7_closed_form_weights_optimal():
    rng = np.random.default_rng(99)
    grid = np.arange(0.001, 1.0, 0.001)
    worst_gap = -np.inf
    worst_value = 0.0
    for _ in range(100):
        c = int(rng.integers(1, 6))
        k = c + int(rng.integers(0, 9))
        v_base = rng.standard_normal((c, 3)) * rng.uniform(0.1, 3.0)
        v_joint = rng.standard_normal((k, 3)) * rng.uniform(0.1, 3.0)
        sq_base = float((v_base**2).sum())
        sq_joint = float((v_joint**2).sum())
        w_base = update_weights(v_base, v_joint)
        achieved = oracles.weight_penalty(sq_base, sq_joint, c, k, w_base)
        grid_best = min(oracles.weight_penalty(sq_base, sq_joint, c, k, w) for w in grid)
        worst_gap = max(worst_gap, achieved - grid_best)
        r_sum = np.sqrt(sq_base / c) + np.sqrt(sq_joint / k)
        worst_value = max(worst_value, abs(achieved - r_sum**2))
    _verdict(
        7,
        "closed-form weights beat the fine grid and achieve the squared-sum value",
        worst_gap <= 1e-12 and worst_value <= 1e-10,
        f"worst grid gap {worst_gap:.2e}, value dev {worst_value:.2e}",
    )


def test_criterion_8_coefficient_solve_optimal():
    worst_diff = 0.0
    worst_grad = 0.0
    for z, labels in _random_stacked_instances(count=20, seed=8765):
        c = labels.shape[1]
        v_base, v_joint = update_coefficients(JointStats.of(z, labels), 0.5, gamma=1.0)
        ref_base, ref_joint = oracles.gd_minimize_stacked(
            z[:, :c], z, labels, 0.5, 0.5, gamma=1.0
        )
        worst_diff = max(
            worst_diff,
            np.abs(v_base - ref_base).max(),
            np.abs(v_joint - ref_joint).max(),
        )
        shapes = (v_base.shape, v_joint.shape)
        split = v_base.size

        def flat_objective(flat):
            vb = flat[:split].reshape(shapes[0])
            vj = flat[split:].reshape(shapes[1])
            return oracles.stacked_objective(z[:, :c], z, labels, vb, vj, 0.5, 0.5, 1.0)

        grad = oracles.finite_diff_gradient(
            flat_objective, np.concatenate([v_base.ravel(), v_joint.ravel()])
        )
        worst_grad = max(worst_grad, np.abs(grad).max())
    _verdict(
        8,
        "closed-form coefficient solve matches the descent oracle and is stationary",
        worst_diff <= 1e-6 and worst_grad <= 1e-4,
        f"max oracle diff {worst_diff:.2e}, fd gradient {worst_grad:.2e}",
    )


def test_criterion_9_logistic_solver_contract():
    rng = np.random.default_rng(2024)
    worst_grad = 0.0
    worst_restart = 0.0
    for _ in range(15):
        n = int(rng.integers(20, 61))
        d = int(rng.integers(2, 11))
        alpha = float(rng.choice([0.5, 1.0, 2.0]))
        x = rng.standard_normal((n, d))
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        v0 = train_logistic(x, y, alpha)
        v1 = train_logistic(x, y, alpha, init=rng.standard_normal(d))
        for v in (v0, v1):
            margins = y * (x @ v)
            grad = v - alpha * (x.T @ (y / (1.0 + np.exp(margins))))
            worst_grad = max(worst_grad, float(np.linalg.norm(grad)))
        worst_restart = max(worst_restart, np.abs(v0 - v1).max())
    _verdict(
        9,
        "logistic solver meets its gradient-norm contract and restarts agree",
        worst_grad <= 1e-6 and worst_restart <= 1e-5,
        f"worst gradient norm {worst_grad:.2e}, restart dev {worst_restart:.2e}",
    )


def test_criterion_10_qualitative_accuracy_pattern(tmp_path):
    start = time.monotonic()
    schema = FeatureSchema(vanished=25, survived=50, augmented=25, classes=3)
    details = []
    ok = True
    for estage_n in (60, 120):
        cfg = SynthConfig(
            schema=schema,
            batches=40,  # 40x the expanding-stage size, well above the 10x floor
            batch_size=estage_n,
            estage_size=estage_n,
            separation=1.5,
            noise=1.0,
            signal=(1.0, 1.0, 0.0),
            seed=7,
        )
        spec = ExperimentSpec(
            source=synth_manifest(cfg, tmp_path / f"n{estage_n}"),
            methods=(OPID, OPIDE, BASE_ALL, BASE_A), repeats=20, seed=7,
        )
        table = run_experiment(spec)
        means = {m: table.mean(m) for m in spec.methods}
        gain_opid = means[OPID] - means[BASE_A]
        gain_opide = means[OPIDE] - means[BASE_A]
        edge = means[OPID] - means[BASE_ALL]
        ok &= gain_opid >= 0.05 and gain_opide >= 0.05 and edge >= 0.0
        details.append(
            f"n={estage_n}: OPID-BASE_A={gain_opid:+.3f}, OPIDe-BASE_A={gain_opide:+.3f}, "
            f"OPID-BASE_ALL={edge:+.3f}"
        )
    elapsed = time.monotonic() - start
    ok &= elapsed < 120.0
    _verdict(
        10,
        "stacked methods dominate the augmented-only baseline and match the full baseline",
        ok,
        "; ".join(details) + f"; {elapsed:.1f}s",
    )


def test_criterion_11_deterministic_reports(tmp_path):
    schema = FeatureSchema(vanished=4, survived=6, augmented=4, classes=3)
    cfg = SynthConfig(
        schema=schema, batches=5, batch_size=30, estage_size=40,
        separation=2.5, noise=0.8, seed=13,
    )
    spec = ExperimentSpec(
        source=synth_manifest(cfg, tmp_path / "stream"),
        methods=(OPID, OPIDE, BASE_ALL, BASE_A), repeats=5, seed=13,
    )
    outputs = []
    for name in ("first", "second"):
        table = run_experiment(spec)
        outputs.append(emit_report(table, tmp_path / name))
    same_report = outputs[0][0].read_bytes() == outputs[1][0].read_bytes()
    same_record = outputs[0][1].read_bytes() == outputs[1][1].read_bytes()
    _verdict(
        11,
        "re-running a seeded experiment reproduces the report byte-for-byte",
        same_report and same_record,
    )
