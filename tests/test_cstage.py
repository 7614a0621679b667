from __future__ import annotations

import numpy as np
import pytest

from conftest import random_cstage_stream
from opid.cstage import (
    DIRECT,
    INVERSE,
    _coupled_system,
    absorb_batch,
    compress,
    init_stats,
    load_stats,
    save_stats,
    solve_model,
    update_columns,
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


class TestInitStats:
    def test_direct_init(self):
        # direct mode keeps only the (p, p) Gram matrix and (p, c) cross-moment
        stats = init_stats(_schema(1, 2, 3), Hyperparams(rho=2.0), mode=DIRECT)
        np.testing.assert_array_equal(stats.mat, np.zeros((3, 3)))
        np.testing.assert_array_equal(stats.rhs, np.zeros((3, 3)))
        np.testing.assert_array_equal(_coupled_system(stats)[0], 2.0 * np.eye(5))
        assert stats.batches_seen == 0

    def test_inverse_init(self):
        stats = init_stats(_schema(1, 2, 3), Hyperparams(rho=2.0), mode=INVERSE)
        np.testing.assert_array_equal(stats.mat, 0.5 * np.eye(5))

    def test_zero_ridge_rejected(self):
        with pytest.raises(ValueError):
            Hyperparams(rho=0.0)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
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

    def test_increment_equals_update_columns_outer_product(self):
        rng = np.random.default_rng(1)
        schema = _schema(2, 3, 2)
        hyper = Hyperparams(lam=0.5, rho=1.0)
        (batch,) = random_cstage_stream(rng, 1, 5, 2, 3, 2)
        stats = absorb_batch(init_stats(schema, hyper), batch)
        u = update_columns(batch, hyper.lam, schema)
        expected = hyper.rho * np.eye(schema.stats_dim) + u @ u.T
        np.testing.assert_allclose(_coupled_system(stats)[0], expected, atol=1e-12)

    def test_inverse_mode_matches_dense_inversion(self):
        rng = np.random.default_rng(2)
        schema = _schema(2, 3, 2)
        hyper = Hyperparams(lam=0.5, rho=1.0)
        (batch,) = random_cstage_stream(rng, 1, 5, 2, 3, 2)
        direct = absorb_batch(init_stats(schema, hyper, DIRECT), batch)
        inverse = absorb_batch(init_stats(schema, hyper, INVERSE), batch)
        np.testing.assert_allclose(
            inverse.mat, np.linalg.inv(_coupled_system(direct)[0]), atol=1e-8
        )

    def test_symmetry_after_every_absorption(self):
        rng = np.random.default_rng(3)
        schema = _schema(3, 4, 3)
        stats = init_stats(schema, Hyperparams(lam=1.0, rho=0.1), INVERSE)
        for batch in random_cstage_stream(rng, 6, 7, 3, 4, 3):
            absorb_batch(stats, batch)
            np.testing.assert_allclose(stats.mat, stats.mat.T, atol=1e-12)

    def test_single_instance_batches(self):
        rng = np.random.default_rng(4)
        schema = _schema(2, 2, 2)
        hyper = Hyperparams(lam=0.7, rho=0.5)
        stream = random_cstage_stream(rng, 5, 1, 2, 2, 2)
        direct = init_stats(schema, hyper, DIRECT)
        inverse = init_stats(schema, hyper, INVERSE)
        for b in stream:
            absorb_batch(direct, b)
            absorb_batch(inverse, b)
        np.testing.assert_allclose(
            inverse.mat @ _coupled_system(direct)[0], np.eye(schema.stats_dim), atol=1e-8
        )

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
        stats = init_stats(schema, hyper, INVERSE)
        for t, batch in enumerate(stream, start=1):
            absorb_batch(stats, batch)
            model = solve_model(stats)
            ref_full, ref_sur = oracles.batch_normal_solve(stream[:t], hyper.lam, hyper.rho)
            np.testing.assert_allclose(model.coef_full, ref_full, atol=1e-8)
            np.testing.assert_allclose(model.coef_survived, ref_sur, atol=1e-8)

    def test_direct_and_inverse_paths_agree(self):
        rng = np.random.default_rng(9)
        schema = _schema(3, 4, 3)
        hyper = Hyperparams(lam=2.0, rho=0.05)
        stream = random_cstage_stream(rng, 5, 7, 3, 4, 3)
        direct = init_stats(schema, hyper, DIRECT)
        inverse = init_stats(schema, hyper, INVERSE)
        for b in stream:
            absorb_batch(direct, b)
            absorb_batch(inverse, b)
        m_d = solve_model(direct)
        m_i = solve_model(inverse)
        scale = max(np.abs(m_d.coef_full).max(), np.abs(m_d.coef_survived).max())
        assert np.abs(m_d.coef_full - m_i.coef_full).max() <= 1e-6 * scale
        assert np.abs(m_d.coef_survived - m_i.coef_survived).max() <= 1e-6 * scale

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
    @pytest.mark.parametrize("mode", [DIRECT, INVERSE])
    def test_overflowing_features_raise_numeric_error(self, mode):
        # finite 1e200 features overflow the Gram (direct) or Woodbury core
        # (inverse) products to inf; the solve must fail typed
        batch = Batch.cstage(
            np.full((4, 2), 1e200), np.full((4, 3), 1e200), one_hot_encode([0, 1, 0, 1], 2)
        )
        stats = init_stats(_schema(2, 3, 2), Hyperparams(), mode)
        with pytest.raises(NumericError, match="non-finite"):
            solve_model(absorb_batch(stats, batch))


    @pytest.mark.parametrize("mode", [DIRECT, INVERSE])
    def test_overflowing_batch_leaves_statistics_unchanged(self, mode):
        rng = np.random.default_rng(21)
        schema = _schema(2, 3, 2)
        stats = init_stats(schema, Hyperparams(), mode)
        labels = one_hot_encode([0, 1, 0, 1], 2)
        good = Batch.cstage(rng.standard_normal((4, 2)), rng.standard_normal((4, 3)), labels)
        absorb_batch(stats, good)
        before = (stats.mat.copy(), stats.rhs.copy(), stats.batches_seen)
        huge = Batch.cstage(np.full((4, 2), 1e200), np.full((4, 3), 1e200), labels)
        with pytest.raises(NumericError, match="non-finite"):
            absorb_batch(stats, huge)
        np.testing.assert_array_equal(stats.mat, before[0])
        np.testing.assert_array_equal(stats.rhs, before[1])
        assert stats.batches_seen == before[2]


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
    @pytest.mark.parametrize("mode", [DIRECT, INVERSE])
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
        assert loaded.lam == stats.lam and loaded.rho == stats.rho
        assert loaded.batches_seen == stats.batches_seen
        np.testing.assert_array_equal(loaded.mat, stats.mat)
        np.testing.assert_array_equal(loaded.rhs, stats.rhs)

    def test_resume_continues_identically(self, tmp_path):
        rng = np.random.default_rng(16)
        schema = _schema(2, 3, 2)
        hyper = Hyperparams(lam=0.9, rho=0.3)
        stream = random_cstage_stream(rng, 4, 5, 2, 3, 2)
        whole = init_stats(schema, hyper)
        for b in stream:
            absorb_batch(whole, b)
        first = init_stats(schema, hyper)
        for b in stream[:2]:
            absorb_batch(first, b)
        path = tmp_path / "half.npz"
        save_stats(first, path)
        resumed = load_stats(path)
        for b in stream[2:]:
            absorb_batch(resumed, b)
        np.testing.assert_array_equal(resumed.mat, whole.mat)
        np.testing.assert_array_equal(resumed.rhs, whole.rhs)

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
