from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from scipy.linalg.lapack import dpotrs

from conftest import random_cstage_stream
from opid.cstage import (
    DIRECT,
    FACTOR,
    _QR_BLOCK,
    _coupled_system,
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
    """||R^T R - M||_F / ||M||_F for a factor-mode R and the M that direct
    mode builds from the same stream."""
    mat = _coupled_system(direct)[0]
    return np.linalg.norm(factor.mat.T @ factor.mat - mat) / np.linalg.norm(mat)


class TestInitStats:
    def test_direct_init(self):
        # direct mode keeps only the (p, p) Gram matrix and (p, c) cross-moment
        stats = init_stats(_schema(1, 2, 3), Hyperparams(rho=2.0), mode=DIRECT)
        np.testing.assert_array_equal(stats.mat, np.zeros((3, 3)))
        np.testing.assert_array_equal(stats.rhs, np.zeros((3, 3)))
        np.testing.assert_array_equal(_coupled_system(stats)[0], 2.0 * np.eye(5))
        assert stats.batches_seen == 0

    def test_factor_init(self):
        stats = init_stats(_schema(1, 2, 3), Hyperparams(rho=2.0), mode=FACTOR)
        np.testing.assert_array_equal(stats.mat, np.sqrt(2.0) * np.eye(5))
        assert stats.mat.flags.f_contiguous

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
        mat, _ = _coupled_system(stats)
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
        np.testing.assert_allclose(_coupled_system(stats)[0], expected, atol=1e-12)

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
            assert not np.tril(stats.mat, -1).any()

    def test_factor_across_qr_blocks(self):
        # stats_dim 330 spans more than ten QR blocks and the survived width
        # 150 of the trailing block's update more than four, each with a
        # ragged last block
        rng = np.random.default_rng(22)
        schema = _schema(30, 150, 3)
        assert schema.stats_dim > 10 * _QR_BLOCK and schema.stats_dim % _QR_BLOCK
        assert schema.survived > 4 * _QR_BLOCK and schema.survived % _QR_BLOCK
        hyper = Hyperparams(lam=0.5, rho=1.0)
        direct = init_stats(schema, hyper, DIRECT)
        factor = init_stats(schema, hyper, FACTOR)
        for batch in random_cstage_stream(rng, 4, 20, 30, 150, 3):
            absorb_batch(direct, batch)
            absorb_batch(factor, batch)
            assert _factor_error(factor, direct) <= 1e-14

    @pytest.mark.parametrize("d_v, d_s, n", [
        (0, 6, 4),  # no vanished block: the trailing block is half of R
        (3, 4, 1),  # one-row batches
        (40, 5, 7),  # survived narrower than a QR block, R wider than one
    ])
    def test_split_update_matches_dense_matrix(self, d_v, d_s, n):
        # the upper rows update all of R, the survived-only rows its trailing
        # block; after every batch R^T R is M and R stays upper-triangular
        rng = np.random.default_rng(28)
        schema = _schema(d_v, d_s, 3)
        hyper = Hyperparams(lam=0.8, rho=0.2)
        direct = init_stats(schema, hyper, DIRECT)
        factor = init_stats(schema, hyper, FACTOR)
        for batch in random_cstage_stream(rng, 6, n, d_v, d_s, 3):
            absorb_batch(direct, batch)
            absorb_batch(factor, batch)
            assert _factor_error(factor, direct) <= 1e-14
            assert not np.tril(factor.mat, -1).any()
        assert factor.mat.flags.f_contiguous

    def test_factor_mode_allocates_no_full_temporary(self, tmp_path):
        # one warm-up batch first, so lazy set-up is not counted; then an
        # absorb and a solve, and an absorb straight after a resume
        schema = _schema(60, 250, 3)
        warm, batch, after = random_cstage_stream(np.random.default_rng(23), 3, 20, 60, 250, 3)
        stats = absorb_batch(init_stats(schema, Hyperparams(), FACTOR), warm)
        path = tmp_path / "stats.npz"
        m = schema.stats_dim

        def traced_peak(step):
            tracemalloc.start()
            try:
                step()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert traced_peak(lambda: solve_model(absorb_batch(stats, batch))) < m * m * 8 / 2
        save_stats(stats, path)
        resumed = load_stats(path)
        assert traced_peak(lambda: absorb_batch(resumed, after)) < m * m * 8 / 2

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
        identity, _ = dpotrs(factor.mat, _coupled_system(direct)[0])
        np.testing.assert_allclose(identity, np.eye(schema.stats_dim), atol=1e-8)

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
            eigs = np.linalg.eigvalsh(_coupled_system(stats)[0])
            assert eigs.min() >= hyper.rho - 1e-10  # data adds a PSD increment

    def test_footprint_independent_of_stream_length(self):
        rng = np.random.default_rng(6)
        schema = _schema(2, 3, 2)
        stats = init_stats(schema, Hyperparams())
        shapes = (stats.mat.shape, stats.rhs.shape)
        for b in random_cstage_stream(rng, 10, 4, 2, 3, 2):
            absorb_batch(stats, b)
            assert (stats.mat.shape, stats.rhs.shape) == shapes


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


    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("mode", [DIRECT, FACTOR])
    def test_overflowing_features_raise_numeric_error(self, mode):
        # finite features overflow the Gram product (direct) or the scaled rows
        # sqrt(1 + lam) x (factor) to inf; the solve must fail typed
        value = _OVERFLOWING[mode]
        batch = Batch.cstage(
            np.full((4, 2), value), np.full((4, 3), value), one_hot_encode([0, 1, 0, 1], 2)
        )
        stats = init_stats(_schema(2, 3, 2), Hyperparams(lam=1.0), mode)
        with pytest.raises(NumericError, match="non-finite"):
            solve_model(absorb_batch(stats, batch))

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

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
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


# Features that overflow each mode's statistics: the Gram matrix squares
# them, while the factor only scales them by sqrt(1 + lam) = sqrt(2).
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
            {"format": 3},
            {"survived": 0},
            {"classes": 2.5},
            {"lam": -1.0},
            {"rho": 0.0},
            {"rho": np.inf},
            {"batches_seen": -1},
            {"lam": None},
            {"mode": np.array("inverse"), "mat": 0.3 * np.eye(8)},  # the layout before factors
            {"mode": np.array("factor"), "mat": np.eye(8) + np.eye(8, k=-3)},
            {"mode": np.array("factor"), "mat": np.diag([1.0] * 7 + [0.0])},
        ],
    )
    def test_invalid_snapshot_rejected(self, tmp_path, change):
        fields = self._snapshot_fields(tmp_path)
        fields.update(change)
        path = tmp_path / "bad.npz"
        np.savez(path, **{k: v for k, v in fields.items() if v is not None})
        with pytest.raises(SchemaError):
            load_stats(path)

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
