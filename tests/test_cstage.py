from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.linalg.lapack import dlange, dpotrs

from conftest import random_cstage_stream
from opid.cstage import (
    DIRECT,
    FACTOR,
    _QR_BLOCK,
    absorb_batch,
    compress,
    init_stats,
    load_stats,
    save_stats,
    solve_model,
)
from opid.model import (
    Batch,
    CStageModel,
    FeatureSchema,
    Hyperparams,
    NumericError,
    SchemaError,
    one_hot_encode,
)

import oracles


def _schema(d_v=2, d_s=3, c=2):
    return FeatureSchema(vanished=d_v, survived=d_s, augmented=0, classes=c)


def _factor_error(factor, direct):
    """||R'^T R' - T^T M T||_F / ||T^T M T||_F for the block factor R' that
    factor mode keeps, its map T and the M that direct mode builds from the
    same stream."""
    r, t = oracles.split_factor(factor)
    mat = t.T @ oracles.coupled_matrix(direct) @ t
    return np.linalg.norm(r.T @ r - mat) / np.linalg.norm(mat)


def _traced_peak(step):
    """The tracemalloc peak, in bytes, of one call of ``step``."""
    tracemalloc.start()
    try:
        step()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _halves_upper_with_one_corner(stats):
    """Both halves of a factor-mode ``mat`` are upper-triangular and their
    trailing (vanished, vanished) corners are bit-equal."""
    p, s = stats.schema.cstage_width, stats.schema.survived
    p1, p2 = stats.mat[:, :p], stats.mat[:, p:]
    return (not np.tril(p1, -1).any() and not np.tril(p2, -1).any()
            and p1[s:, s:].tobytes() == p2[s:, s:].tobytes())


class TestInitStats:
    def test_direct_init(self):
        # direct mode keeps only the (p, p) Gram matrix and (p, c) cross-moment
        stats = init_stats(_schema(1, 2, 3), Hyperparams(rho=2.0), mode=DIRECT)
        np.testing.assert_array_equal(stats.mat, np.zeros((3, 3)))
        np.testing.assert_array_equal(stats.rhs, np.zeros((3, 3)))
        np.testing.assert_array_equal(oracles.coupled_matrix(stats), 2.0 * np.eye(5))
        assert stats.batches_seen == 0

    def test_factor_init(self):
        # P1 = P2 = diag(sqrt(rho) I_survived, sqrt(2 rho) I_vanished)
        stats = init_stats(_schema(1, 2, 3), Hyperparams(rho=2.0), mode=FACTOR)
        half = np.diag([np.sqrt(2.0), np.sqrt(2.0), 2.0])
        np.testing.assert_array_equal(stats.mat, np.hstack([half, half]))
        assert stats.mat.flags.f_contiguous
        r, t = oracles.split_factor(stats)
        np.testing.assert_allclose(r.T @ r, t.T @ (2.0 * np.eye(5)) @ t, atol=1e-15)

    def test_zero_ridge_rejected(self):
        with pytest.raises(ValueError):
            Hyperparams(rho=0.0)

    def test_unknown_mode(self):
        with pytest.raises(SchemaError, match="unknown accumulation mode"):
            init_stats(_schema(), Hyperparams(), mode="magic")


class TestAbsorb:
    def test_zero_consistency_decouples_blocks(self):
        rng = np.random.default_rng(0)
        schema = _schema(2, 3, 2)
        (batch,) = random_cstage_stream(rng, 1, 6, 2, 3, 2)
        stats = absorb_batch(init_stats(schema, Hyperparams(lam=0.0, rho=1.0)), batch)
        mat = oracles.coupled_matrix(stats)
        p = schema.cstage_width
        np.testing.assert_array_equal(mat[:p, p:], np.zeros((p, 3)))
        np.testing.assert_array_equal(mat[p:, :p], np.zeros((3, p)))

    def test_increment_equals_factored_form(self):
        # M = rho I + A K A^T with A = blockdiag(X^T, X_s^T) and
        # K = [[1+lam, -lam], [-lam, 1+lam]] (x) I_n
        rng = np.random.default_rng(1)
        schema = _schema(2, 3, 2)
        hyper = Hyperparams(lam=0.5, rho=1.0)
        (batch,) = random_cstage_stream(rng, 1, 5, 2, 3, 2)
        stats = absorb_batch(init_stats(schema, hyper), batch)
        p, n = schema.cstage_width, batch.n
        a = np.zeros((schema.stats_dim, 2 * n))
        a[:p, :n] = batch.x.T
        a[p:, n:] = batch.survived.T
        lam = hyper.lam
        k = np.kron([[1.0 + lam, -lam], [-lam, 1.0 + lam]], np.eye(n))
        expected = hyper.rho * np.eye(schema.stats_dim) + a @ k @ a.T
        np.testing.assert_allclose(oracles.coupled_matrix(stats), expected, atol=1e-12)

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_factor_mode_matches_dense_matrix(self, lam):
        rng = np.random.default_rng(2)
        schema = _schema(2, 3, 2)
        hyper = Hyperparams(lam=lam, rho=1.0)
        (batch,) = random_cstage_stream(rng, 1, 5, 2, 3, 2)
        direct = absorb_batch(init_stats(schema, hyper, DIRECT), batch)
        factor = absorb_batch(init_stats(schema, hyper, FACTOR), batch)
        assert _factor_error(factor, direct) <= 1e-14

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_factor_stays_upper_triangular(self, lam):
        # dtpqrt writes only the upper triangle, so the strict lower one stays zero
        rng = np.random.default_rng(3)
        schema = _schema(3, 4, 3)
        stats = init_stats(schema, Hyperparams(lam=lam, rho=0.1), FACTOR)
        for batch in random_cstage_stream(rng, 6, 7, 3, 4, 3):
            absorb_batch(stats, batch)
            assert _halves_upper_with_one_corner(stats)

    def test_factor_across_qr_blocks(self):
        # the width p = 180 of both dtpqrt calls spans more than five QR
        # blocks with a ragged last block, and the survived width 150 before
        # the shared corner more than four
        rng = np.random.default_rng(22)
        schema = _schema(30, 150, 3)
        p = schema.cstage_width
        assert p > 5 * _QR_BLOCK and p % _QR_BLOCK
        assert schema.survived > 4 * _QR_BLOCK and schema.survived % _QR_BLOCK
        hyper = Hyperparams(lam=0.5, rho=1.0)
        direct = init_stats(schema, hyper, DIRECT)
        factor = init_stats(schema, hyper, FACTOR)
        for batch in random_cstage_stream(rng, 4, 20, 30, 150, 3):
            absorb_batch(direct, batch)
            absorb_batch(factor, batch)
            assert _factor_error(factor, direct) <= 1e-14

    @pytest.mark.parametrize("d_v, d_s, n", [
        (0, 6, 4),  # no vanished block: the shared corner is empty
        (3, 4, 1),  # one-row batches
        (40, 5, 7),  # survived narrower than a QR block, p wider than one
    ])
    def test_split_update_matches_dense_matrix(self, d_v, d_s, n):
        # w updates P1, c w updates P2, and the corner passes between them;
        # after every batch R'^T R' is T^T M T, both halves stay
        # upper-triangular and their corners stay bit-equal
        rng = np.random.default_rng(28)
        schema = _schema(d_v, d_s, 3)
        hyper = Hyperparams(lam=0.8, rho=0.2)
        direct = init_stats(schema, hyper, DIRECT)
        factor = init_stats(schema, hyper, FACTOR)
        for batch in random_cstage_stream(rng, 6, n, d_v, d_s, 3):
            absorb_batch(direct, batch)
            absorb_batch(factor, batch)
            assert _factor_error(factor, direct) <= 1e-14
            assert _halves_upper_with_one_corner(factor)
        assert factor.mat.flags.f_contiguous

    def test_factor_mode_allocates_no_full_temporary(self, tmp_path):
        # one warm-up batch first, so lazy set-up is not counted; then an
        # absorb and a solve, and an absorb straight after a resume
        schema = _schema(60, 250, 3)
        warm, batch, after = random_cstage_stream(np.random.default_rng(23), 3, 20, 60, 250, 3)
        stats = absorb_batch(init_stats(schema, Hyperparams(), FACTOR), warm)
        path = tmp_path / "stats.npz"
        m = schema.stats_dim
        assert _traced_peak(lambda: solve_model(absorb_batch(stats, batch))) < m * m * 8 / 2
        save_stats(stats, path)
        resumed = load_stats(path)
        assert _traced_peak(lambda: absorb_batch(resumed, after)) < m * m * 8 / 2

    def test_direct_mode_allocates_no_full_temporary(self):
        # after a warm-up batch, an absorb folds the batch into G's upper
        # triangle in place, and a solve factors both halves of [P1 | P2] in
        # one (p, 2p) array, with no (m, m) coupled matrix
        schema = _schema(60, 250, 3)
        warm, batch = random_cstage_stream(np.random.default_rng(23), 2, 20, 60, 250, 3)
        stats = absorb_batch(init_stats(schema, Hyperparams(), DIRECT), warm)
        p, m = schema.cstage_width, schema.stats_dim
        gram = stats.mat
        assert _traced_peak(lambda: absorb_batch(stats, batch)) < p * p * 8 / 2
        assert stats.mat is gram
        assert _traced_peak(lambda: solve_model(stats)) < m * m * 8

    def test_factor_absorb_accepts_any_matrix_layout(self):
        rng = np.random.default_rng(25)
        schema = _schema(2, 3, 2)
        hyper = Hyperparams(lam=0.9, rho=0.3)
        stream = random_cstage_stream(rng, 3, 5, 2, 3, 2)
        whole = init_stats(schema, hyper, FACTOR)
        other = init_stats(schema, hyper, FACTOR)
        other.mat = np.ascontiguousarray(other.mat)
        for b in stream:
            absorb_batch(whole, b)
            absorb_batch(other, b)
        np.testing.assert_array_equal(other.mat, whole.mat)
        assert other.mat.flags.f_contiguous

    def test_single_instance_batches(self):
        rng = np.random.default_rng(4)
        schema = _schema(2, 2, 2)
        hyper = Hyperparams(lam=0.7, rho=0.5)
        stream = random_cstage_stream(rng, 5, 1, 2, 2, 2)
        direct = init_stats(schema, hyper, DIRECT)
        factor = init_stats(schema, hyper, FACTOR)
        for b in stream:
            absorb_batch(direct, b)
            absorb_batch(factor, b)
        r, t = oracles.split_factor(factor)
        identity, _ = dpotrs(r, t.T @ oracles.coupled_matrix(direct) @ t)
        np.testing.assert_allclose(identity, np.eye(schema.stats_dim), atol=1e-8)

    @pytest.mark.parametrize("d_v, lam, n", [(4, 0.7, 6), (0, 0.7, 6), (4, 0.0, 6), (4, 0.7, 1)],
                             ids=["plain", "no-vanished", "lam0", "one-row"])
    def test_r_norm_is_the_norm_of_the_block_factor(self, d_v, lam, n):
        # grown batch by batch, and derived from mat with the corner counted
        # once, r_norm is ||R'||_F
        rng = np.random.default_rng(29)
        stats = init_stats(_schema(d_v, 5, 3), Hyperparams(lam=lam, rho=0.3), FACTOR)
        for batch in random_cstage_stream(rng, 50, n, d_v, 5, 3):
            absorb_batch(stats, batch)
        expected = dlange("F", oracles.split_factor(stats)[0])
        for r_norm in (stats.r_norm, dataclasses.replace(stats).r_norm):
            assert abs(r_norm - expected) <= 1e-12 * expected

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_direct_gram_is_the_upper_triangle(self, lam):
        # dsyrk writes only the upper triangle, so the strict lower one stays zero
        rng = np.random.default_rng(33)
        stream = random_cstage_stream(rng, 4, 6, 3, 4, 3)
        stats = init_stats(_schema(3, 4, 3), Hyperparams(lam=lam, rho=0.1), DIRECT)
        for batch in stream:
            absorb_batch(stats, batch)
        x_all = oracles.stack_stream(stream)[0]
        np.testing.assert_allclose(np.triu(stats.mat), np.triu(x_all.T @ x_all), atol=1e-12)
        assert not np.tril(stats.mat, -1).any()
        assert stats.mat.flags.f_contiguous

    def test_order_insensitivity_direct(self):
        rng = np.random.default_rng(5)
        schema = _schema(2, 3, 2)
        hyper = Hyperparams(lam=1.0, rho=0.1)
        stream = random_cstage_stream(rng, 4, 6, 2, 3, 2)
        fwd = init_stats(schema, hyper)
        rev = init_stats(schema, hyper)
        for b in stream:
            absorb_batch(fwd, b)
        for b in reversed(stream):
            absorb_batch(rev, b)
        np.testing.assert_allclose(fwd.mat, rev.mat, atol=1e-12)
        np.testing.assert_allclose(fwd.rhs, rev.rhs, atol=1e-12)

    def test_direct_matrix_stays_positive_definite(self):
        rng = np.random.default_rng(17)
        schema = _schema(2, 3, 2)
        hyper = Hyperparams(lam=2.0, rho=0.25)
        stats = init_stats(schema, hyper)
        for b in random_cstage_stream(rng, 5, 4, 2, 3, 2):
            absorb_batch(stats, b)
            eigs = np.linalg.eigvalsh(oracles.coupled_matrix(stats))
            assert eigs.min() >= hyper.rho - 1e-10  # data adds a PSD increment

    def test_footprint_independent_of_stream_length(self):
        rng = np.random.default_rng(6)
        schema = _schema(2, 3, 2)
        stats = init_stats(schema, Hyperparams())
        shapes = (stats.mat.shape, stats.rhs.shape)
        for b in random_cstage_stream(rng, 10, 4, 2, 3, 2):
            absorb_batch(stats, b)
            assert (stats.mat.shape, stats.rhs.shape) == shapes

    @pytest.mark.parametrize("mode", [DIRECT, FACTOR])
    @pytest.mark.parametrize("x, labels", [
        (np.ones(5), np.eye(2)),
        (np.full((2, 5), "1"), np.eye(2)),
        (np.ones((2, 5), dtype=complex), np.eye(2)),
        (np.ones((2, 5)).tolist(), np.eye(2)),
        (np.ones((2, 5)), np.eye(2, dtype=object)),
        (np.ones((2, 5)), np.array([0.0, 1.0])),
        (np.ones((2, 5)), np.eye(2, dtype=complex)),
    ], ids=["x-1d", "x-str", "x-complex", "x-list", "labels-object", "labels-1d", "labels-complex"])
    def test_malformed_batch_contents_rejected_first(self, mode, x, labels):
        stats = init_stats(_schema(2, 3, 2), Hyperparams(), mode)
        before = (stats.mat.copy(), stats.rhs.copy())
        with pytest.raises(SchemaError, match="must be a 2-D real numeric array"):
            absorb_batch(stats, Batch(x, labels, 2))
        np.testing.assert_array_equal(stats.mat, before[0], strict=True)
        np.testing.assert_array_equal(stats.rhs, before[1], strict=True)
        assert stats.batches_seen == 0

    @pytest.mark.parametrize("mode", [DIRECT, FACTOR])
    @pytest.mark.parametrize("dtype", [bool, np.int64, np.uint8, np.float32])
    def test_real_numeric_dtypes_absorb_like_float64(self, mode, dtype):
        x = np.arange(10).reshape(2, 5) % 3 == 1
        labels = one_hot_encode([0, 1], 2)
        got, want = (init_stats(_schema(2, 3, 2), Hyperparams(), mode) for _ in range(2))
        absorb_batch(got, Batch(x.astype(dtype), labels.astype(dtype), 2))
        absorb_batch(want, Batch(x.astype(np.float64), labels, 2))
        np.testing.assert_array_equal(got.mat, want.mat, strict=True)
        np.testing.assert_array_equal(got.rhs, want.rhs, strict=True)


class TestSolveModel:
    def test_empty_stream_gives_zero_model(self):
        model = solve_model(init_stats(_schema(1, 2, 3), Hyperparams()))
        np.testing.assert_array_equal(model.coef_full, np.zeros((3, 3)))
        np.testing.assert_array_equal(model.coef_survived, np.zeros((2, 3)))

    def test_stream_matches_one_shot_batch_solve(self):
        rng = np.random.default_rng(7)
        schema = FeatureSchema(vanished=3, survived=4, augmented=0, classes=3)
        hyper = Hyperparams(lam=1.0, rho=0.1)
        stream = random_cstage_stream(rng, 4, 8, 3, 4, 3)
        stats = init_stats(schema, hyper)
        for b in stream:
            absorb_batch(stats, b)
        model = solve_model(stats)
        ref_full, ref_sur = oracles.batch_normal_solve(stream, hyper.lam, hyper.rho)
        np.testing.assert_allclose(model.coef_full, ref_full, atol=1e-8)
        np.testing.assert_allclose(model.coef_survived, ref_sur, atol=1e-8)

    def test_anytime_prefix_equivalence(self):
        rng = np.random.default_rng(8)
        schema = _schema(2, 3, 2)
        hyper = Hyperparams(lam=0.5, rho=0.3)
        stream = random_cstage_stream(rng, 5, 6, 2, 3, 2)
        stats = init_stats(schema, hyper, FACTOR)
        for t, batch in enumerate(stream, start=1):
            absorb_batch(stats, batch)
            model = solve_model(stats)
            ref_full, ref_sur = oracles.batch_normal_solve(stream[:t], hyper.lam, hyper.rho)
            np.testing.assert_allclose(model.coef_full, ref_full, atol=1e-8)
            np.testing.assert_allclose(model.coef_survived, ref_sur, atol=1e-8)

    @pytest.mark.parametrize("lam", [0.0, 10.0])
    @pytest.mark.parametrize("d_v, d_s", [(0, 4), (3, 1), (0, 1)],
                             ids=["no-vanished", "one-survived", "one-survived-no-vanished"])
    def test_direct_solve_at_edge_shapes(self, d_v, d_s, lam):
        # an empty shared corner (v = 0) and one-column P1 and P2 tops (s = 1)
        rng = np.random.default_rng(31)
        hyper = Hyperparams(lam=lam, rho=0.2)
        stream = random_cstage_stream(rng, 3, 5, d_v, d_s, 3)
        stats = init_stats(_schema(d_v, d_s, 3), hyper, DIRECT)
        for b in stream:
            absorb_batch(stats, b)
        model = solve_model(stats)
        ref_full, ref_sur = oracles.batch_normal_solve(stream, hyper.lam, hyper.rho)
        np.testing.assert_allclose(model.coef_full, ref_full, atol=1e-10)
        np.testing.assert_allclose(model.coef_survived, ref_sur, atol=1e-10)

    def test_direct_solve_leaves_the_statistics_unchanged(self):
        # one pass serves every (lam, rho): the solve must not write into G
        rng = np.random.default_rng(34)
        stats = init_stats(_schema(3, 4, 3), Hyperparams(lam=0.5, rho=0.1), DIRECT)
        for b in random_cstage_stream(rng, 3, 6, 3, 4, 3):
            absorb_batch(stats, b)
        before = (stats.mat.copy(), stats.rhs.copy())
        first = solve_model(stats)
        np.testing.assert_array_equal(stats.mat, before[0], strict=True)
        np.testing.assert_array_equal(stats.rhs, before[1], strict=True)
        again = solve_model(stats)
        np.testing.assert_array_equal(again.coef_full, first.coef_full)
        np.testing.assert_array_equal(again.coef_survived, first.coef_survived)

    def test_direct_and_factor_paths_agree(self):
        rng = np.random.default_rng(9)
        schema = _schema(3, 4, 3)
        hyper = Hyperparams(lam=2.0, rho=0.05)
        stream = random_cstage_stream(rng, 5, 7, 3, 4, 3)
        direct = init_stats(schema, hyper, DIRECT)
        factor = init_stats(schema, hyper, FACTOR)
        for b in stream:
            absorb_batch(direct, b)
            absorb_batch(factor, b)
        m_d = solve_model(direct)
        m_f = solve_model(factor)
        scale = max(np.abs(m_d.coef_full).max(), np.abs(m_d.coef_survived).max())
        assert np.abs(m_d.coef_full - m_f.coef_full).max() <= 1e-6 * scale
        assert np.abs(m_d.coef_survived - m_f.coef_survived).max() <= 1e-6 * scale

    def test_factor_does_not_drift_on_an_ill_conditioned_stream(self):
        # column scales 10^U(-3, 3) make cond(M) about 1e12; an updated
        # inverse drifts about 1e-8 from direct mode over these 400 batches
        rng = np.random.default_rng(26)
        schema = _schema(20, 40, 3)
        hyper = Hyperparams(lam=1.0, rho=1e-3)
        scales = 10.0 ** rng.uniform(-3.0, 3.0, schema.cstage_width)
        direct = init_stats(schema, hyper, DIRECT)
        factor = init_stats(schema, hyper, FACTOR)
        for _ in range(400):
            x = rng.standard_normal((10, schema.cstage_width)) * scales
            batch = Batch(x, one_hot_encode(rng.integers(0, 3, 10), 3), schema.vanished)
            absorb_batch(direct, batch)
            absorb_batch(factor, batch)
        coef_d, coef_f = (np.vstack([m.coef_full, m.coef_survived])
                          for m in (solve_model(direct), solve_model(factor)))
        assert np.abs(coef_f - coef_d).max() <= 1e-12 * np.abs(coef_d).max()
        assert _factor_error(factor, direct) <= 1e-13

    @pytest.mark.parametrize("column", [1, 6], ids=["P1", "P2"])
    def test_factor_with_a_zero_diagonal_entry_raises(self, column):
        # snapshots are checked for this when loaded; a factor set by hand is not
        stats = init_stats(_schema(2, 3, 2), Hyperparams(), FACTOR)
        stats.rhs[:] = 1.0
        stats.mat[1, column] = 0.0
        with pytest.raises(NumericError, match="zero on its diagonal"):
            solve_model(stats)

    def test_zero_consistency_reduces_to_standalone_ridges(self):
        rng = np.random.default_rng(10)
        hyper = Hyperparams(lam=0.0, rho=0.4)
        stream = random_cstage_stream(rng, 3, 9, 2, 3, 2)
        stats = init_stats(_schema(2, 3, 2), hyper)
        for b in stream:
            absorb_batch(stats, b)
        model = solve_model(stats)
        x_all, x_sur, y = oracles.stack_stream(stream)
        np.testing.assert_allclose(model.coef_full, oracles.ridge_solve(x_all, y, hyper.rho), atol=1e-8)
        np.testing.assert_allclose(
            model.coef_survived, oracles.ridge_solve(x_sur, y, hyper.rho), atol=1e-8
        )

    def test_stationarity_residual_vanishes(self):
        rng = np.random.default_rng(11)
        hyper = Hyperparams(lam=1.5, rho=0.2)
        stream = random_cstage_stream(rng, 4, 6, 2, 3, 2)
        stats = init_stats(_schema(2, 3, 2), hyper)
        for b in stream:
            absorb_batch(stats, b)
        model = solve_model(stats)
        g_full, g_sur = oracles.cstage_gradient(
            stream, model.coef_full, model.coef_survived, hyper.lam, hyper.rho
        )
        assert np.abs(g_full).max() <= 1e-6
        assert np.abs(g_sur).max() <= 1e-6

    def test_vanished_free_schema(self):
        rng = np.random.default_rng(12)
        schema = _schema(0, 3, 2)
        hyper = Hyperparams(lam=1.0, rho=0.1)
        stream = random_cstage_stream(rng, 3, 5, 0, 3, 2)
        stats = init_stats(schema, hyper)
        for b in stream:
            absorb_batch(stats, b)
        model = solve_model(stats)
        ref_full, ref_sur = oracles.batch_normal_solve(stream, hyper.lam, hyper.rho)
        np.testing.assert_allclose(model.coef_full, ref_full, atol=1e-10)
        np.testing.assert_allclose(model.coef_survived, ref_sur, atol=1e-10)


    @pytest.mark.parametrize("mode", [DIRECT, FACTOR])
    def test_overflowing_features_raise_numeric_error(self, mode):
        # finite features overflow the Gram product (direct) or the factor's
        # norm bound (factor) to inf; the solve must fail typed
        value = _OVERFLOWING[mode]
        batch = Batch.cstage(
            np.full((4, 2), value), np.full((4, 3), value), one_hot_encode([0, 1, 0, 1], 2)
        )
        stats = init_stats(_schema(2, 3, 2), Hyperparams(lam=1.0), mode)
        with pytest.raises(NumericError, match="non-finite"):
            solve_model(absorb_batch(stats, batch))

    def test_direct_solve_that_overflows_raises(self):
        # G holds entries near 1e301, which are finite, but c^2 = 1 + 2 lam
        # scales them past the largest double when the factor is built
        rng = np.random.default_rng(36)
        stats = init_stats(_schema(2, 3, 2), Hyperparams(lam=1e10), DIRECT)
        absorb_batch(stats, Batch(1e150 * rng.standard_normal((4, 5)), one_hot_encode([0, 1, 0, 1], 2), 2))
        assert np.isfinite(stats.mat).all()
        with pytest.raises(NumericError, match="non-finite"):
            solve_model(stats)

    @pytest.mark.parametrize("kwargs", [
        dict(lam=1e308), dict(rho=1e308), dict(lam=np.float64(1e308)), dict(rho=np.float64(1e308)),
    ], ids=["lam", "rho", "lam-float64", "rho-float64"])
    def test_settings_whose_solve_constants_overflow_rejected(self, kwargs):
        # 1 + 2 lam and 2 rho would be inf: 0 * inf turns the factor's zero
        # lower triangle into nan, and the ridge into an inf diagonal
        stats = absorb_batch(init_stats(_schema(2, 3, 2), Hyperparams()),
                             Batch(np.ones((2, 5)), one_hot_encode([0, 1], 2), 2))
        with pytest.raises(SchemaError, match="finite"):
            solve_model(dataclasses.replace(stats, hyper=Hyperparams(**kwargs)))

    def test_largest_consistency_weight_solves_or_fails_typed(self):
        # 1 + 2 lam is finite, near the largest double: factor mode folds
        # sqrt(1 + 2 lam) into the rows and solves, direct mode's (1 + 2 lam) G
        # overflows, and its solve says so with no warning first
        hyper = Hyperparams(lam=0.49 * np.finfo(float).max)
        batch = Batch(np.ones((2, 5)), one_hot_encode([0, 1], 2), 2)
        model = solve_model(absorb_batch(init_stats(_schema(2, 3, 2), hyper, FACTOR), batch))
        assert np.isfinite(model.coef_full).all() and np.isfinite(model.coef_survived).all()
        with pytest.raises(NumericError, match="non-finite"):
            solve_model(absorb_batch(init_stats(_schema(2, 3, 2), hyper, DIRECT), batch))

    def test_huge_features_fit_in_the_factor(self):
        # the factor holds sqrt(M), so features of 1e200 that overflow the
        # Gram matrix absorb and solve to finite values in factor mode
        rng = np.random.default_rng(27)
        x = 1e200 * rng.standard_normal((4, 5))
        batch = Batch(x, one_hot_encode([0, 1, 0, 1], 2), 2)
        stats = absorb_batch(init_stats(_schema(2, 3, 2), Hyperparams(lam=1.0), FACTOR), batch)
        model = solve_model(stats)
        assert np.isfinite(stats.mat).all()
        assert np.isfinite(model.coef_full).all() and np.isfinite(model.coef_survived).all()

    @pytest.mark.parametrize("mode", [DIRECT, FACTOR])
    def test_overflowing_batch_leaves_statistics_unchanged(self, mode):
        rng = np.random.default_rng(21)
        schema = _schema(2, 3, 2)
        stats = init_stats(schema, Hyperparams(lam=1.0), mode)
        labels = one_hot_encode([0, 1, 0, 1], 2)
        good = Batch.cstage(rng.standard_normal((4, 2)), rng.standard_normal((4, 3)), labels)
        absorb_batch(stats, good)
        before = (stats.mat.copy(), stats.rhs.copy(), stats.batches_seen)
        value = _OVERFLOWING[mode]
        huge = Batch.cstage(np.full((4, 2), value), np.full((4, 3), value), labels)
        with pytest.raises(NumericError, match="non-finite"):
            absorb_batch(stats, huge)
        np.testing.assert_array_equal(stats.mat, before[0])
        np.testing.assert_array_equal(stats.rhs, before[1])
        assert stats.batches_seen == before[2]

    @pytest.mark.parametrize("round_trip", [False, True], ids=["fresh", "loaded"])
    def test_batch_that_would_overflow_the_factor_is_refused(self, tmp_path, round_trip):
        # W holds sqrt(2) 1e308, which is finite, and rhs stays finite with
        # one row per class; only the columns of [R; W] overflow
        rng = np.random.default_rng(28)
        stats = init_stats(_schema(2, 3, 2), Hyperparams(lam=1.0), FACTOR)
        absorb_batch(stats, Batch(rng.standard_normal((4, 5)), one_hot_encode([0, 1, 0, 1], 2), 2))
        if round_trip:
            save_stats(stats, tmp_path / "stats.npz")
            stats = load_stats(tmp_path / "stats.npz")
        before = (stats.mat.copy(), stats.rhs.copy(), stats.batches_seen)
        with pytest.raises(NumericError, match="non-finite"):
            absorb_batch(stats, Batch(np.full((2, 5), 1e308), one_hot_encode([0, 1], 2), 2))
        np.testing.assert_array_equal(stats.mat, before[0], strict=True)
        np.testing.assert_array_equal(stats.rhs, before[1], strict=True)
        assert stats.batches_seen == before[2]

    def test_huge_features_refuse_or_leave_the_factor_finite(self):
        # Batches of 10^k and 0.6 * 10^k in every column or in one, then an
        # ordinary batch. 0.6e308 in one column would leave a finite corner
        # of 1.2e308 in R, on which the next QR update overflows, so the
        # headroom must refuse it.
        labels = one_hot_encode([0, 1], 2)
        one_column = np.zeros((2, 5))
        one_column[:, 0] = 1.0
        for k in range(150, 309):
            for value in (10.0**k, 0.6 * 10.0**k):
                for rows in (np.ones((2, 5)), one_column):
                    stats = init_stats(_schema(2, 3, 2), Hyperparams(lam=1.0), FACTOR)
                    for x in (value * rows, value * rows, np.ones((2, 5))):
                        before = (stats.mat.copy(), stats.rhs.copy(), stats.batches_seen)
                        try:
                            absorb_batch(stats, Batch(x, labels, 2))
                        except NumericError:
                            np.testing.assert_array_equal(stats.mat, before[0], strict=True)
                            np.testing.assert_array_equal(stats.rhs, before[1], strict=True)
                            assert stats.batches_seen == before[2]
                        else:
                            assert np.isfinite(stats.mat).all(), (k, value)

    def test_huge_features_refuse_or_leave_the_gram_finite(self):
        # Batches of 10^k and 0.6 * 10^k around sqrt(float max) ~ 1.34e154,
        # where the squares in G overflow, in every column or in one, then an
        # ordinary batch. Each is refused with the statistics unchanged, or
        # leaves G finite.
        labels = one_hot_encode([0, 1], 2)
        one_column = np.zeros((2, 5))
        one_column[:, 0] = 1.0
        refused = 0
        for k in range(150, 156):
            for value in (10.0**k, 0.6 * 10.0**k):
                for rows in (np.ones((2, 5)), one_column):
                    stats = init_stats(_schema(2, 3, 2), Hyperparams(lam=1.0), DIRECT)
                    for x in (value * rows, value * rows, np.ones((2, 5))):
                        before = (stats.mat.copy(), stats.rhs.copy(), stats.batches_seen)
                        try:
                            absorb_batch(stats, Batch(x, labels, 2))
                        except NumericError:
                            refused += 1
                            np.testing.assert_array_equal(stats.mat, before[0], strict=True)
                            np.testing.assert_array_equal(stats.rhs, before[1], strict=True)
                            assert stats.batches_seen == before[2]
                        else:
                            assert np.isfinite(stats.mat).all(), (k, value)
        assert refused  # the range reaches the refusal edge


# Features that overflow each mode's statistics: the Gram matrix squares
# them, while the factor's norm bound only scales their norm by
# sqrt(2 + 2 lam) = 2.
_OVERFLOWING = {DIRECT: 1e200, FACTOR: 1.5e308}


class TestCompress:
    def test_zero_model(self):
        model = CStageModel(np.zeros((5, 2)), np.zeros((3, 2)))
        np.testing.assert_array_equal(compress(np.ones((4, 3)), model), np.zeros((4, 2)))

    def test_identity_input_returns_coefficients(self):
        rng = np.random.default_rng(13)
        coef = rng.standard_normal((3, 2))
        model = CStageModel(np.zeros((5, 2)), coef)
        np.testing.assert_array_equal(compress(np.eye(3), model), coef)

    def test_matches_naive_multiply(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((6, 4))
        coef = rng.standard_normal((4, 3))
        model = CStageModel(np.zeros((7, 3)), coef)
        np.testing.assert_allclose(compress(x, model), oracles.naive_matmul(x, coef), atol=1e-12)

    def test_width_mismatch(self):
        model = CStageModel(np.zeros((5, 2)), np.zeros((3, 2)))
        with pytest.raises(SchemaError):
            compress(np.ones((4, 4)), model)


class TestSnapshot:
    @pytest.mark.parametrize("mode", [DIRECT, FACTOR])
    def test_round_trip_is_exact(self, tmp_path, mode):
        rng = np.random.default_rng(15)
        schema = _schema(2, 3, 2)
        hyper = Hyperparams(lam=0.9, rho=0.3)
        stats = init_stats(schema, hyper, mode)
        for b in random_cstage_stream(rng, 3, 5, 2, 3, 2):
            absorb_batch(stats, b)
        path = tmp_path / "stats.npz"
        save_stats(stats, path)
        loaded = load_stats(path)
        assert loaded.mode == stats.mode
        assert loaded.schema == stats.schema
        assert loaded.hyper == stats.hyper
        assert loaded.batches_seen == stats.batches_seen
        np.testing.assert_array_equal(loaded.mat, stats.mat)
        np.testing.assert_array_equal(loaded.rhs, stats.rhs)

    @pytest.mark.parametrize("mode", [DIRECT, FACTOR])
    def test_resume_continues_identically(self, tmp_path, mode):
        rng = np.random.default_rng(16)
        schema = _schema(2, 3, 2)
        hyper = Hyperparams(lam=0.9, rho=0.3)
        stream = random_cstage_stream(rng, 4, 5, 2, 3, 2)
        whole = init_stats(schema, hyper, mode)
        for b in stream:
            absorb_batch(whole, b)
        for split in range(len(stream) + 1):
            first = init_stats(schema, hyper, mode)
            for b in stream[:split]:
                absorb_batch(first, b)
            path = tmp_path / f"split{split}.npz"
            save_stats(first, path)
            resumed = load_stats(path)
            for b in stream[split:]:
                absorb_batch(resumed, b)
            np.testing.assert_array_equal(resumed.mat, whole.mat)
            np.testing.assert_array_equal(resumed.rhs, whole.rhs)
            assert resumed.batches_seen == whole.batches_seen == len(stream)

    def test_c_ordered_snapshot_resumes_identically(self, tmp_path):
        rng = np.random.default_rng(24)
        schema = _schema(2, 3, 2)
        hyper = Hyperparams(lam=0.9, rho=0.3)
        stream = random_cstage_stream(rng, 4, 5, 2, 3, 2)
        whole = init_stats(schema, hyper, FACTOR)
        for b in stream:
            absorb_batch(whole, b)
        first = init_stats(schema, hyper, FACTOR)
        for b in stream[:2]:
            absorb_batch(first, b)
        first.mat = np.ascontiguousarray(first.mat)
        path = tmp_path / "c_order.npz"
        save_stats(first, path)
        resumed = load_stats(path)
        assert resumed.mat.flags.f_contiguous
        for b in stream[2:]:
            absorb_batch(resumed, b)
        np.testing.assert_array_equal(resumed.mat, whole.mat)
        np.testing.assert_array_equal(resumed.rhs, whole.rhs)

    def test_full_and_upper_gram_snapshots_resume_identically(self, tmp_path):
        # a direct pass leaves G's strict lower triangle zero, while snapshots
        # written before G was kept as its upper triangle hold the whole
        # symmetric G; the solve reads only the upper one, so both resume to
        # the same coefficients bit for bit
        rng = np.random.default_rng(35)
        schema, hyper = _schema(2, 3, 2), Hyperparams(lam=0.9, rho=0.3)
        stream = random_cstage_stream(rng, 4, 5, 2, 3, 2)
        first = init_stats(schema, hyper, DIRECT)
        for b in stream[:2]:
            absorb_batch(first, b)
        upper = first.mat
        assert not np.tril(upper, -1).any()
        coefs = []
        for name, mat in (("upper", upper), ("full", np.triu(upper) + np.triu(upper, 1).T)):
            path = tmp_path / f"{name}.npz"
            save_stats(dataclasses.replace(first, mat=mat), path)
            resumed = load_stats(path)
            np.testing.assert_array_equal(resumed.mat, mat)
            for b in stream[2:]:
                absorb_batch(resumed, b)
            model = solve_model(resumed)
            coefs.append(np.vstack([model.coef_full, model.coef_survived]))
        np.testing.assert_array_equal(coefs[0], coefs[1], strict=True)

    @staticmethod
    def _direct_snapshot(tmp_path, mat):
        stats = init_stats(_schema(1, 2, 2), Hyperparams(lam=1.0), DIRECT)
        stats.mat = mat
        path = tmp_path / "direct.npz"
        save_stats(stats, path)
        return path

    @pytest.mark.parametrize(
        "entries",
        [
            {(0, 1): 1.7e308},  # zero diagonal: one row of 5e153 would overflow G_01 in place
            {(1, 1): -1.0},
            {(0, 0): 1.0, (2, 2): 3.0, (0, 2): np.nextafter(4.0, np.inf)},
            {(0, 0): 1.0, (2, 2): 3.0, (0, 2): -np.nextafter(4.0, np.inf)},
        ],
    )
    def test_direct_snapshot_that_is_no_gram_matrix_rejected(self, tmp_path, entries):
        mat = np.zeros((3, 3))
        for at, value in entries.items():
            mat[at] = value
        with pytest.raises(SchemaError, match="Gram matrix"):
            load_stats(self._direct_snapshot(tmp_path, mat))

    def test_direct_snapshot_at_the_gram_slack_loads(self, tmp_path):
        # |G_02| = 2 (G_00 + G_22) / 2 is the edge; the lower triangle is not read
        mat = np.diag([1.0, 0.0, 3.0])
        mat[0, 2], mat[2, 0] = -4.0, 1e300
        np.testing.assert_array_equal(load_stats(self._direct_snapshot(tmp_path, mat)).mat, mat)

    def test_pass_with_equal_columns_loads(self, tmp_path):
        # equal columns put |G_ij| at (G_ii + G_jj) / 2 before rounding
        rng = np.random.default_rng(36)
        stats = init_stats(_schema(1, 2, 2), Hyperparams(lam=1.0), DIRECT)
        for _ in range(20):
            x = np.repeat(rng.standard_normal((50, 1)) * 10.0 ** rng.uniform(-3, 3), 3, axis=1)
            absorb_batch(stats, Batch(x, one_hot_encode(rng.integers(0, 2, 50), 2), 1))
        path = tmp_path / "equal.npz"
        save_stats(stats, path)
        np.testing.assert_array_equal(load_stats(path).mat, stats.mat)

    def test_negative_factor_diagonal_loads(self, tmp_path):
        # dtpqrt may leave negative diagonal entries; R^T R is the same matrix
        stats = init_stats(_schema(2, 3, 2), Hyperparams(lam=0.9, rho=0.3), FACTOR)
        stats.mat = -stats.mat
        path = tmp_path / "negative.npz"
        save_stats(stats, path)
        np.testing.assert_array_equal(load_stats(path).mat, stats.mat)

    @staticmethod
    def _snapshot_fields(tmp_path):
        stats = init_stats(_schema(2, 3, 2), Hyperparams(lam=0.9, rho=0.3))
        path = tmp_path / "good.npz"
        save_stats(stats, path)
        with np.load(path) as data:
            return {key: data[key] for key in data.files}

    @pytest.mark.parametrize(
        "change",
        [
            {"mode": np.array("bogus")},
            {"mat": np.eye(3)},  # a 3x3 matrix for a schema with 8 statistic rows
            {"rhs": np.zeros((8, 2))},
            {"mat": np.full((5, 5), np.nan)},
            {"mat": np.zeros((5, 5), dtype=np.int64)},
            {"format": 2},  # the single-triangle factor's format
            {"survived": 0},
            {"classes": 2.5},
            {"lam": -1.0},
            {"rho": 0.0},
            {"rho": np.inf},
            {"batches_seen": -1},
            {"lam": None},
            {"mode": np.array("inverse"), "mat": 0.3 * np.eye(8)},  # the layout before factors
            {"mode": np.array("factor"), "mat": np.hstack([np.eye(5) + np.eye(5, k=-3), np.eye(5)])},
            {"mode": np.array("factor"), "mat": np.hstack([np.eye(5), np.diag([1.0, 1.0, 0.0, 1.0, 1.0])])},
        ],
    )
    def test_invalid_snapshot_rejected(self, tmp_path, change):
        fields = self._snapshot_fields(tmp_path)
        fields.update(change)
        path = tmp_path / "bad.npz"
        np.savez(path, **{k: v for k, v in fields.items() if v is not None})
        with pytest.raises(SchemaError):
            load_stats(path)

    @pytest.mark.parametrize("key", ["lam", "rho"])
    def test_snapshot_whose_solve_constants_overflow_rejected(self, tmp_path, key):
        fields = self._snapshot_fields(tmp_path)
        fields[key] = np.float64(1e308)
        path = tmp_path / "bad.npz"
        np.savez(path, **fields)
        with pytest.raises(SchemaError, match="bad settings: .* finite, got 1e"):
            load_stats(path)

    @staticmethod
    def _factor_snapshot(tmp_path, **change):
        """A factor snapshot of a few batches with ``change`` applied to its
        fields; ``mat`` may be given as a function of the stored one."""
        stats = init_stats(_schema(2, 3, 2), Hyperparams(lam=0.9, rho=0.3), FACTOR)
        for b in random_cstage_stream(np.random.default_rng(30), 3, 4, 2, 3, 2):
            absorb_batch(stats, b)
        path = tmp_path / "factor.npz"
        save_stats(stats, path)
        with np.load(path) as data:
            fields = {key: data[key] for key in data.files}
        if callable(change.get("mat")):
            change["mat"] = change["mat"](fields["mat"].copy())
        fields.update(change)
        np.savez(path, **fields)
        return path

    def test_single_triangle_factor_snapshot_rejected(self, tmp_path):
        # format 2 stored one (m, m) upper triangle R with R^T R = M
        path = self._factor_snapshot(tmp_path, format=2, mat=np.triu(np.ones((8, 8))))
        with pytest.raises(SchemaError, match="format 2, expected 3"):
            load_stats(path)

    def test_factor_corners_that_differ_rejected(self, tmp_path):
        def nudge(mat):  # one ulp on the last diagonal entry of P2's corner
            mat[-1, -1] = np.nextafter(mat[-1, -1], np.inf)
            return mat

        with pytest.raises(SchemaError, match="corner"):
            load_stats(self._factor_snapshot(tmp_path, mat=nudge))

    def test_lower_entry_in_the_second_half_rejected(self, tmp_path):
        def below(mat):  # row 3 lies below P2's diagonal in its first column
            mat[3, 5] = 1e-300
            return mat

        with pytest.raises(SchemaError, match="upper-triangular"):
            load_stats(self._factor_snapshot(tmp_path, mat=below))

    def test_unversioned_snapshot_rejected(self, tmp_path):
        # the layout from before format versions: a coupled (m, m) matrix
        fields = self._snapshot_fields(tmp_path)
        del fields["format"]
        fields.update(mat=0.3 * np.eye(8), rhs=np.zeros((8, 2)))
        path = tmp_path / "old.npz"
        np.savez(path, **fields)
        with pytest.raises(SchemaError, match="format"):
            load_stats(path)

    @pytest.mark.parametrize("content", [b"", b"not a snapshot", b"PK\x03\x04broken"])
    def test_unreadable_file_rejected(self, tmp_path, content):
        path = tmp_path / "junk.npz"
        path.write_bytes(content)
        with pytest.raises(SchemaError):
            load_stats(path)

    @pytest.mark.parametrize("offset, value", [(8, 1), (10, 99)], ids=["encrypted", "method"])
    def test_unsupported_archive_member_rejected(self, tmp_path, offset, value):
        # patch the first central-directory entry: its flag bits (offset 8) or
        # its compression method (offset 10)
        path = tmp_path / "stats.npz"
        save_stats(init_stats(_schema(), Hyperparams()), path)
        data = bytearray(path.read_bytes())
        entry = data.index(b"PK\x01\x02")
        data[entry + offset : entry + offset + 2] = value.to_bytes(2, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(SchemaError, match="not a readable statistics snapshot"):
            load_stats(path)
