from __future__ import annotations

import dataclasses
import errno
import math
import re
import tracemalloc
import zlib

import numpy as np
import pytest
from scipy.linalg.lapack import dlange, dpotrs

from conftest import edit_snapshot, random_cstage_stream
from opid import cstage
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


def _packed(tri):
    """The upper triangle of the square ``tri`` packed column by column, the
    layout of a snapshot's triangles."""
    return tri.T[np.tri(len(tri), dtype=bool)]


def _halves_upper_with_one_corner(stats):
    """Both halves of a factor-mode ``mat`` are upper-triangular and their
    trailing (vanished, vanished) corners are bit-equal."""
    p, s = stats.schema.cstage_width, stats.schema.survived
    p1, p2 = stats.mat[:, :p], stats.mat[:, p:]
    return (not np.tril(p1, -1).any() and not np.tril(p2, -1).any()
            and p1[s:, s:].tobytes() == p2[s:, s:].tobytes())


class TestInitStats:
    def test_direct_init(self):
        # direct mode keeps only the (p, p) factor of the Gram matrix and the
        # (p, c) cross-moment
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

    # widths whose matrix has a dimension, or a size, past what numpy can
    # index, so that numpy refuses before allocating anything
    @pytest.mark.parametrize("vanished, survived", [(2**62, 2**62), (0, 2**32)])
    @pytest.mark.parametrize("mode", [DIRECT, FACTOR])
    def test_unallocatable_width_is_a_schema_error(self, mode, vanished, survived):
        schema = FeatureSchema(vanished=vanished, survived=survived, augmented=0, classes=2)
        with pytest.raises(SchemaError, match=rf"vanished={vanished}, survived={survived}.*"
                                              "cannot be allocated"):
            init_stats(schema, Hyperparams(), mode=mode)


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
        # after a warm-up batch, an absorb folds the batch into R in place,
        # and a solve folds a copy of R into the ridge-only [P1 | P2], one
        # (p, 2p) array, with no (m, m) coupled matrix
        schema = _schema(60, 250, 3)
        warm, batch = random_cstage_stream(np.random.default_rng(23), 2, 20, 60, 250, 3)
        stats = absorb_batch(init_stats(schema, Hyperparams(), DIRECT), warm)
        p, m = schema.cstage_width, schema.stats_dim
        factor = stats.mat
        assert _traced_peak(lambda: absorb_batch(stats, batch)) < p * p * 8 / 2
        assert stats.mat is factor
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

    def test_factor_norm_from_the_trapezoids_has_the_bits_of_the_whole(self):
        # _factor_norm reads only the upper trapezoids of mat and of its
        # corner; on factors whose columns span six decades it gives the bits
        # of dlange over the whole of each, zeros below the diagonals included
        rng = np.random.default_rng(53)
        for _ in range(300):
            p = int(rng.integers(1, 200))
            s = int(rng.integers(1, p + 1))
            mat = np.triu(rng.standard_normal((p, 2 * p)))
            mat[:, p:] = np.triu(mat[:, p:]) * 10.0 ** rng.uniform(-3, 3, p)
            mat[:, :p] *= 10.0 ** rng.uniform(-3, 3, p)
            mat[s:, p + s :] = mat[s:, s:p]
            mat = np.asfortranarray(mat)
            for factor in (mat, mat[:, :p]):  # factor mode's [P1 | P2], direct mode's R
                whole = dlange("F", factor)
                shared = factor.shape[1] > p and whole
                q = dlange("F", factor[s:, s:p]) / whole if shared else 0.0
                assert cstage._factor_norm(factor, s) == whole * math.sqrt((1.0 - q) * (1.0 + q))

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_direct_gram_is_the_upper_triangle(self, lam):
        # direct mode keeps the Gram matrix as an upper-triangular factor R
        # in split order (survived, then vanished), with R^T R = X^T X
        rng = np.random.default_rng(33)
        stream = random_cstage_stream(rng, 4, 6, 3, 4, 3)
        stats = init_stats(_schema(3, 4, 3), Hyperparams(lam=lam, rho=0.1), DIRECT)
        for batch in stream:
            absorb_batch(stats, batch)
        x_all, x_sur, _ = oracles.stack_stream(stream)
        w = np.hstack([x_sur, x_all[:, :3]])
        np.testing.assert_allclose(stats.mat.T @ stats.mat, w.T @ w, atol=1e-12)
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
    @pytest.mark.parametrize("dtype", [bool, np.int8, np.int64, np.uint8, np.float32])
    def test_real_numeric_dtypes_absorb_like_float64(self, mode, dtype):
        # four rows of one class: the cross-moment sums four features of half
        # the dtype's range per entry, which an integer or bool product wraps
        # or saturates
        half = np.iinfo(dtype).max // 2 + 1 if np.dtype(dtype).kind in "iu" else 1
        x = np.full((4, 5), half, dtype=dtype)
        labels = one_hot_encode([1, 1, 1, 1], 2)
        got, want = (init_stats(_schema(2, 3, 2), Hyperparams(), mode) for _ in range(2))
        absorb_batch(got, Batch(x, labels.astype(dtype), 2))
        absorb_batch(want, Batch(x.astype(np.float64), labels, 2))
        np.testing.assert_array_equal(got.mat, want.mat, strict=True)
        np.testing.assert_array_equal(got.rhs, want.rhs, strict=True)
        assert got.r_norm == want.r_norm


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

    @pytest.mark.parametrize("mode", [DIRECT, FACTOR])
    def test_solve_leaves_the_statistics_unchanged(self, mode):
        # one pass serves every (lam, rho), so neither mode's solve may write
        # into the statistics; width 40 spans two column blocks
        assert _QR_BLOCK < 40
        rng = np.random.default_rng(41)
        stats = init_stats(_schema(15, 25, 3), Hyperparams(lam=0.7, rho=0.2), mode)
        for b in random_cstage_stream(rng, 3, 30, 15, 25, 3):
            absorb_batch(stats, b)
        before = (stats.mat.copy(), stats.rhs.copy(), stats.r_norm)
        first = solve_model(stats)
        again = solve_model(stats)
        np.testing.assert_array_equal(stats.mat, before[0], strict=True)
        np.testing.assert_array_equal(stats.rhs, before[1], strict=True)
        assert stats.mat.flags.f_contiguous and stats.r_norm == before[2]
        np.testing.assert_array_equal(again.coef_full, first.coef_full, strict=True)
        np.testing.assert_array_equal(again.coef_survived, first.coef_survived, strict=True)

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
        # finite features overflow the factor's norm bound to inf in either
        # mode; the solve must fail typed
        value = _OVERFLOWING[mode]
        batch = Batch.cstage(
            np.full((4, 2), value), np.full((4, 3), value), one_hot_encode([0, 1, 0, 1], 2)
        )
        stats = init_stats(_schema(2, 3, 2), Hyperparams(lam=1.0), mode)
        with pytest.raises(NumericError, match="non-finite"):
            solve_model(absorb_batch(stats, batch))

    def test_direct_solve_that_overflows_raises(self):
        # R holds entries near 1e302, which direct mode absorbs, but
        # sqrt(2 + 2 lam) ||R||_F is past the norm that factor mode would
        # admit, so the solve refuses by factor mode's absorb rule, with no
        # warning first and with the statistics untouched
        rng = np.random.default_rng(36)
        batch = Batch(1e302 * rng.standard_normal((4, 5)), one_hot_encode([0, 1, 0, 1], 2), 2)
        stats = absorb_batch(init_stats(_schema(2, 3, 2), Hyperparams(lam=1e10), DIRECT), batch)
        assert np.isfinite(stats.mat).all()
        before = (stats.mat.copy(), stats.rhs.copy(), stats.r_norm)
        with pytest.raises(NumericError, match="non-finite"):
            solve_model(stats)
        np.testing.assert_array_equal(stats.mat, before[0], strict=True)
        np.testing.assert_array_equal(stats.rhs, before[1], strict=True)
        assert stats.r_norm == before[2]
        with pytest.raises(NumericError, match="non-finite"):
            absorb_batch(init_stats(_schema(2, 3, 2), Hyperparams(lam=1e10), FACTOR), batch)

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

    def test_largest_consistency_weight_solves_in_both_modes(self):
        # 1 + 2 lam is finite, near the largest double: both modes fold
        # sqrt(1 + 2 lam) into the rows of P2 and solve, to the same model
        hyper = Hyperparams(lam=0.49 * np.finfo(float).max)
        rng = np.random.default_rng(39)
        batch = Batch(rng.standard_normal((8, 5)), one_hot_encode(np.arange(8) % 2, 2), 2)
        factor, direct = (solve_model(absorb_batch(init_stats(_schema(2, 3, 2), hyper, mode), batch))
                          for mode in (FACTOR, DIRECT))
        for got, want in ((direct.coef_full, factor.coef_full),
                          (direct.coef_survived, factor.coef_survived)):
            assert np.isfinite(got).all() and np.isfinite(want).all()
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

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

    @pytest.mark.parametrize("round_trip", [False, True], ids=["fresh", "loaded"])
    def test_direct_batch_at_the_norm_edge_is_refused(self, tmp_path, round_trip):
        # ||w||_F = sqrt(10) 1e306 puts _QR_HEADROOM * r_norm past the
        # largest double, as in factor mode; a tenth of it is absorbed
        rng = np.random.default_rng(38)
        stats = init_stats(_schema(2, 3, 2), Hyperparams(lam=1.0), DIRECT)
        absorb_batch(stats, Batch(rng.standard_normal((4, 5)), one_hot_encode([0, 1, 0, 1], 2), 2))
        if round_trip:
            save_stats(stats, tmp_path / "stats.npz")
            stats = load_stats(tmp_path / "stats.npz")
        before = (stats.mat.copy(), stats.rhs.copy(), stats.batches_seen)
        labels = one_hot_encode([0, 1], 2)
        with pytest.raises(NumericError, match="non-finite"):
            absorb_batch(stats, Batch(np.full((2, 5), 1e306), labels, 2))
        np.testing.assert_array_equal(stats.mat, before[0], strict=True)
        np.testing.assert_array_equal(stats.rhs, before[1], strict=True)
        assert stats.batches_seen == before[2]
        absorb_batch(stats, Batch(np.full((2, 5), 1e305), labels, 2))
        assert np.isfinite(stats.mat).all()

    def test_direct_solve_whose_gram_overflows_succeeds(self):
        # a column of 2e154 fits in R, though G = R^T R would hold more than
        # the largest double; the solve never forms G, so it succeeds with
        # no warning (the suite turns warnings into errors) and agrees with
        # factor mode on the same full-rank stream
        x = np.random.default_rng(40).standard_normal((8, 5))
        x[:, 3] *= 2e154
        batch = Batch(x, one_hot_encode(np.arange(8) % 2, 2), 2)
        direct, factor = (absorb_batch(init_stats(_schema(2, 3, 2), Hyperparams(lam=1.0), mode), batch)
                          for mode in (DIRECT, FACTOR))
        with np.errstate(over="ignore"):
            assert np.isinf(x[:, 3] @ x[:, 3])
        d, f = solve_model(direct), solve_model(factor)
        for got, want in ((d.coef_full, f.coef_full), (d.coef_survived, f.coef_survived)):
            assert np.isfinite(got).all()
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

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
        # Batches of 10^k and 0.6 * 10^k around float max / _QR_HEADROOM ~
        # 1.4e306, where the norm bound of R overflows, in every column or in
        # one, then an ordinary batch. Each is refused with the statistics
        # unchanged, or leaves R finite.
        labels = one_hot_encode([0, 1], 2)
        one_column = np.zeros((2, 5))
        one_column[:, 0] = 1.0
        refused = 0
        for k in range(303, 309):
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


# Features that overflow each mode's norm bound, which scales their norm by
# 1 (direct) or sqrt(2 + 2 lam) = 2 (factor) and refuses it near float max /
# _QR_HEADROOM ~ 1.4e306.
_OVERFLOWING = {DIRECT: 1e306, FACTOR: 1.5e308}


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

    def test_block_that_is_not_a_matrix_rejected(self):
        model = CStageModel(np.zeros((5, 2)), np.zeros((3, 2)))
        with pytest.raises(SchemaError, match="survived block must be 2-D, got 1-D"):
            compress(np.ones(3), model)


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

    @staticmethod
    def _direct_snapshot(tmp_path, mat):
        stats = init_stats(_schema(1, 2, 2), Hyperparams(lam=1.0), DIRECT)
        stats.mat = mat
        path = tmp_path / "direct.npz"
        save_stats(stats, path)
        return path

    def test_direct_factor_with_zero_rows_loads(self, tmp_path):
        # a stream of fewer than p rows leaves zero rows in R
        mat = np.zeros((3, 3))
        mat[0] = [2.0, -1.0, 0.5]
        np.testing.assert_array_equal(load_stats(self._direct_snapshot(tmp_path, mat)).mat, mat)

    def test_gram_snapshot_of_format_3_rejected(self, tmp_path):
        # format 3 kept G's upper triangle in direct mode, itself an upper
        # triangle that would load silently as R
        x = np.random.default_rng(37).standard_normal((6, 3))
        path = self._direct_snapshot(tmp_path, np.triu(x.T @ x))
        path.write_bytes(edit_snapshot(path.read_bytes(), format=3))
        with pytest.raises(SchemaError, match="format 3, expected 6"):
            load_stats(path)

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

    @pytest.mark.parametrize("mode", [DIRECT, FACTOR])
    def test_snapshot_stores_the_packed_triangles(self, tmp_path, mode):
        # the header, rhs row by row, then each triangle of mat packed column
        # by column, p (p + 1) / 2 entries, as little-endian doubles, then a
        # CRC-32 of every byte before it; the zeros below the diagonals are
        # not stored
        stats = init_stats(_schema(2, 3, 2), Hyperparams(lam=0.9, rho=0.3), mode)
        for b in random_cstage_stream(np.random.default_rng(31), 3, 4, 2, 3, 2):
            absorb_batch(stats, b)
        path = tmp_path / "stats.npz"
        save_stats(stats, path)
        data = path.read_bytes()
        header = cstage._HEADER.size
        assert header == 80
        assert cstage._HEADER.unpack(data[:header]) == (
            b"OPIDSTAT", 6, int(mode == FACTOR), 2, 3, 0, 2, 3, 0.9, 0.3)
        arrays = [stats.rhs.ravel()] + [
            _packed(stats.mat[:, k : k + 5]) for k in range(0, stats.mat.shape[1], 5)]
        end = header
        for array in arrays:
            start, end = end, end + 8 * array.size
            assert data[start:end] == array.astype("<f8").tobytes()
        assert end == header + 8 * (10 + (1 if mode == DIRECT else 2) * 15)
        assert data[end:] == zlib.crc32(data[:end]).to_bytes(4, "little")

    def test_format_4_snapshot_rejected(self, tmp_path):
        # format 4 stored the whole (p, 2p) factor, zeros below the diagonals
        # included
        path = tmp_path / "format4.npz"
        mat = np.hstack([np.triu(np.ones((5, 5)))] * 2)
        whole = lambda doubles: np.concatenate([doubles[:10], mat.ravel(order="F")])
        path.write_bytes(edit_snapshot(self._factor_bytes(tmp_path), whole, format=4))
        with pytest.raises(SchemaError, match="format 4, expected 6"):
            load_stats(path)

    def test_undefined_member_rejected(self, tmp_path):
        # data the format does not define, such as format 4's whole factor
        # after the triangles, is refused rather than ignored
        path = tmp_path / "extra.npz"
        extra = np.hstack([np.eye(5)] * 2).ravel()
        path.write_bytes(edit_snapshot(self._factor_bytes(tmp_path), lambda d: np.append(d, extra)))
        with pytest.raises(SchemaError, match="takes 404 bytes, the file has 804"):
            load_stats(path)

    def test_bad_settings_rejected_before_the_triangles_are_read(self, tmp_path, monkeypatch):
        path = tmp_path / "bad.npz"
        path.write_bytes(edit_snapshot(self._factor_bytes(tmp_path), lam=-1.0))

        def read_triangle(*args):
            raise AssertionError("a triangle was read")

        monkeypatch.setattr(cstage, "_read_triangle", read_triangle)
        with pytest.raises(SchemaError, match="bad settings"):
            load_stats(path)

    def test_load_holds_one_copy_of_the_factor(self, tmp_path):
        # the triangles are read one at a time into the factor itself; at
        # p = 600 one packed triangle takes 1.4 MB, more than the 1 MiB slack,
        # so a load that held both at once would break the bound
        stats = init_stats(_schema(200, 400, 2), Hyperparams(lam=0.9, rho=0.3), FACTOR)
        path = tmp_path / "stats.npz"
        save_stats(stats, path)
        triangle = 600 * 601 // 2 * 8
        assert _traced_peak(lambda: load_stats(path)) <= stats.mat.nbytes + triangle + 2**20

    @staticmethod
    def _snapshot_bytes(tmp_path, mode=DIRECT):
        """A snapshot of a few batches, p = 5 and 2 classes: an 80-byte
        header, 10 doubles of rhs, 15 of each triangle and a 4-byte CRC."""
        stats = init_stats(_schema(2, 3, 2), Hyperparams(lam=0.9, rho=0.3), mode)
        for b in random_cstage_stream(np.random.default_rng(30), 3, 4, 2, 3, 2):
            absorb_batch(stats, b)
        path = tmp_path / f"{mode}.npz"
        save_stats(stats, path)
        return path.read_bytes()

    @staticmethod
    def _factor_bytes(tmp_path):
        return TestSnapshot._snapshot_bytes(tmp_path, FACTOR)

    @pytest.mark.parametrize(
        "change",
        [
            {"mode": 7},
            {"payload": lambda d: d[:-1]},  # one entry short of the 5-wide triangle's 15
            {"payload": lambda d: np.insert(d, 10, np.zeros(6))},  # rhs of (8, 2)
            {"payload": lambda d: np.insert(d[:-1], 13, np.nan)},
            {"payload": lambda d: np.append(d[:10], np.full(15, np.inf))},
            {"format": 2},  # the single-triangle factor's format
            {"survived": 0},
            {"classes": 1},
            {"lam": -1.0},
            {"rho": 0.0},
            {"rho": np.inf},
            {"batches_seen": -1},
            {"cut": cstage._HEADER.size - 8},  # the header without rho
            {"mode": 2},  # the code after factor's, as inverse mode's M^-1 was once stored
            # P2 one entry long: the packed layout's form of an entry below the diagonal
            {"mode": 1, "payload": lambda d: np.concatenate([d, _packed(np.eye(5)), [0.0]])},
            {"mode": 1, "payload": lambda d: np.concatenate(  # a zero on P2's diagonal
                [d[:10], _packed(np.eye(5)), _packed(np.diag([1.0, 1.0, 0.0, 1.0, 1.0]))])},
            {"payload": lambda d: np.append(d, 0.0)},  # one entry long
            {"mode": 1},  # R where factor mode needs P1 and P2
        ],
    )
    def test_invalid_snapshot_rejected(self, tmp_path, change):
        # each edit is of a direct snapshot, the CRC recomputed over it
        change = dict(change)
        cut = change.pop("cut", None)
        path = tmp_path / "bad.npz"
        path.write_bytes(edit_snapshot(self._snapshot_bytes(tmp_path), **change)[:cut])
        with pytest.raises(SchemaError, match=rf"^{re.escape(str(path))}: "):
            load_stats(path)

    @pytest.mark.parametrize(
        "fields",
        [{"vanished": 10**6}, {"classes": 2**28}, {"cut": 40}],
        ids=["widths-of-7-tib", "rhs-of-10-gib", "cut-mid-header"],
    )
    def test_header_that_is_not_the_format_rejected(self, tmp_path, fields):
        # the header and the file's size are checked before any of the arrays
        # is read: nothing the header declares is allocated
        path, fields = tmp_path / "stats.npz", dict(fields)
        cut = fields.pop("cut", None)
        path.write_bytes(edit_snapshot(self._snapshot_bytes(tmp_path), **fields)[:cut])

        def load():
            with pytest.raises(SchemaError, match=rf"^{re.escape(str(path))}: "):
                load_stats(path)

        assert _traced_peak(load) < 1 << 20

    @pytest.mark.parametrize("key", ["lam", "rho"])
    def test_snapshot_whose_solve_constants_overflow_rejected(self, tmp_path, key):
        path = tmp_path / "bad.npz"
        path.write_bytes(edit_snapshot(self._snapshot_bytes(tmp_path), **{key: 1e308}))
        with pytest.raises(SchemaError, match="bad settings: .* finite, got 1e"):
            load_stats(path)

    def test_single_triangle_factor_snapshot_rejected(self, tmp_path):
        # format 2 stored one (m, m) upper triangle R with R^T R = M
        path = tmp_path / "format2.npz"
        triangle = lambda doubles: np.append(doubles[:10], _packed(np.triu(np.ones((8, 8)))))
        path.write_bytes(edit_snapshot(self._factor_bytes(tmp_path), triangle, format=2))
        with pytest.raises(SchemaError, match="format 2, expected 6"):
            load_stats(path)

    def test_factor_corners_that_differ_rejected(self, tmp_path):
        # one ulp on P2's last packed entry, the last diagonal entry of its corner
        path = tmp_path / "nudged.npz"

        def nudge(doubles):
            doubles[-1] = np.nextafter(doubles[-1], np.inf)
            return doubles

        path.write_bytes(edit_snapshot(self._factor_bytes(tmp_path), nudge))
        with pytest.raises(SchemaError, match="corner"):
            load_stats(path)

    def test_npy_file_rejected(self, tmp_path):
        # a lone .npy array is not a snapshot
        path = tmp_path / "stats.npy"
        np.save(path, np.eye(3))
        with pytest.raises(SchemaError, match="not a statistics snapshot of format 6"):
            load_stats(path)

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_snapshot_is_a_schema_error(self, tmp_path, kind):
        # open() fails with FileNotFoundError or IsADirectoryError, typed here
        path = tmp_path / "stats.bin"
        if kind == "directory":
            path.mkdir()
        pattern = f"^{re.escape(str(path))}: not a readable statistics snapshot: "
        with pytest.raises(SchemaError, match=pattern) as info:
            load_stats(path)
        assert isinstance(info.value.__cause__, OSError)

    def test_unversioned_snapshot_rejected(self, tmp_path):
        # the layout from before format versions: a coupled (m, m) matrix in
        # an .npz archive
        path = tmp_path / "old.npz"
        np.savez(path, mode="inverse", vanished=2, survived=3, augmented=0, classes=2, lam=0.9,
                 rho=0.3, batches_seen=0, mat=0.3 * np.eye(8), rhs=np.zeros((8, 2)))
        with pytest.raises(SchemaError, match="format"):
            load_stats(path)

    @pytest.mark.parametrize("mode", [DIRECT, FACTOR])
    def test_format_5_snapshot_rejected(self, tmp_path, mode):
        # format 5 stored the same arrays as npy members of a zip archive,
        # written with np.savez; the error names the file
        stats = init_stats(_schema(2, 3, 2), Hyperparams(lam=0.9, rho=0.3), mode)
        halves = np.hsplit(stats.mat, 1 if mode == DIRECT else 2)
        triangles = dict(zip(["r"] if mode == DIRECT else ["p1", "p2"], map(_packed, halves)))
        path = tmp_path / "format5.npz"
        np.savez(path, format=5, mode=np.array(mode), vanished=2, survived=3, augmented=0,
                 classes=2, lam=0.9, rho=0.3, batches_seen=0, rhs=stats.rhs, **triangles)
        with pytest.raises(SchemaError,
                           match=rf"^{re.escape(str(path))}: not a statistics snapshot of format 6"):
            load_stats(path)

    # byte offsets into a factor snapshot of p = 5: lam's lowest byte, where
    # little-endian order keeps its last mantissa bit, and the lowest byte of
    # P1's second packed entry
    @pytest.mark.parametrize("offset", [64, 80 + 8 * 11], ids=["lam", "triangle"])
    def test_flipped_bit_fails_the_crc(self, tmp_path, offset):
        data = bytearray(self._factor_bytes(tmp_path))
        data[offset] ^= 1
        path = tmp_path / "flipped.npz"
        path.write_bytes(bytes(data))
        with pytest.raises(SchemaError, match=rf"^{re.escape(str(path))}: .*fails its CRC-32"):
            load_stats(path)

    @pytest.mark.parametrize("mode", [DIRECT, FACTOR])
    def test_failed_save_keeps_the_old_snapshot(self, tmp_path, monkeypatch, mode):
        # a pass that resumes from stats.npz and saves onto it: a save that
        # fails midway, as on a full disk, leaves the old snapshot loadable
        # and bit for bit as it was, and no temporary file behind
        first, second = random_cstage_stream(np.random.default_rng(42), 2, 5, 2, 3, 2)
        stats = absorb_batch(init_stats(_schema(), Hyperparams(), mode), first)
        path = tmp_path / "stats.npz"
        save_stats(stats, path)
        old, mat, rhs = path.read_bytes(), stats.mat.copy(), stats.rhs.copy()

        def full_disk(tri):
            # the header and rhs are written by now
            raise OSError(errno.ENOSPC, "No space left on device")

        absorb_batch(stats, second)
        with monkeypatch.context() as patch:
            patch.setattr(cstage, "_pack", full_disk)
            with pytest.raises(OSError, match="No space left"):
                save_stats(stats, path)
        assert [f.name for f in tmp_path.iterdir()] == ["stats.npz"]
        assert path.read_bytes() == old
        loaded = load_stats(path)
        np.testing.assert_array_equal(loaded.mat, mat, strict=True)
        np.testing.assert_array_equal(loaded.rhs, rhs, strict=True)
        assert loaded.batches_seen == 1

    def test_save_error_names_the_given_path(self, tmp_path):
        # a missing directory, and a directory in the snapshot's place: the
        # error names the path asked for, and no temporary file is left
        (tmp_path / "dir").mkdir()
        stats = init_stats(_schema(), Hyperparams())
        for path in (tmp_path / "missing" / "stats.npz", tmp_path / "dir"):
            with pytest.raises(OSError) as info:
                save_stats(stats, path)
            assert info.value.filename == str(path)
        assert [f.name for f in tmp_path.iterdir()] == ["dir"]
        assert not any((tmp_path / "dir").iterdir())

    @pytest.mark.parametrize("content", [b"", b"not a snapshot", b"PK\x03\x04broken"])
    def test_unreadable_file_rejected(self, tmp_path, content):
        path = tmp_path / "junk.npz"
        path.write_bytes(content)
        with pytest.raises(SchemaError):
            load_stats(path)
