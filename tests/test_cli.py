from __future__ import annotations

import numpy as np
import pytest

from opid.cli import main
from opid.cstage import absorb_batch, init_stats, load_stats
from opid.ingest import parse_manifest, stream_batches
from opid.model import Hyperparams, SchemaError


def _synth_args(out_dir, seed=0):
    return [
        "synth", "--out", str(out_dir),
        "--classes", "3", "--vanished", "2", "--survived", "4", "--augmented", "2",
        "--batches", "3", "--batch-size", "20", "--estage-size", "30",
        "--separation", "3.0", "--noise", "0.8", "--seed", str(seed),
    ]


class TestSynthCommand:
    def test_writes_a_parseable_stream(self, tmp_path, capsys):
        assert main(_synth_args(tmp_path / "data")) == 0
        manifest_path = capsys.readouterr().out.strip()
        manifest = parse_manifest(manifest_path)
        assert manifest.schema.classes == 3
        assert len(list(stream_batches(manifest))) == 3

    def test_same_seed_same_bytes(self, tmp_path):
        main(_synth_args(tmp_path / "a", seed=5))
        main(_synth_args(tmp_path / "b", seed=5))
        for name in ("manifest.json", "cstage_000.csv", "estage_train.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestCStageCommand:
    def test_snapshot_matches_library_pass(self, tmp_path, capsys):
        main(_synth_args(tmp_path / "data"))
        manifest_path = capsys.readouterr().out.strip()
        out = tmp_path / "stats.npz"
        assert main([
            "cstage", "--manifest", manifest_path, "--out", str(out),
            "--lambda", "0.5", "--rho", "0.2",
        ]) == 0
        snapshot = load_stats(out)

        manifest = parse_manifest(manifest_path)
        stats = init_stats(manifest.schema, Hyperparams(lam=0.5, rho=0.2))
        for batch in stream_batches(manifest):
            absorb_batch(stats, batch)
        np.testing.assert_array_equal(snapshot.mat, stats.mat)
        np.testing.assert_array_equal(snapshot.rhs, stats.rhs)
        assert snapshot.batches_seen == 3

    def test_resume_round_trip(self, tmp_path, capsys):
        main(_synth_args(tmp_path / "data"))
        manifest_path = capsys.readouterr().out.strip()
        whole = tmp_path / "whole.npz"
        main(["cstage", "--manifest", manifest_path, "--out", str(whole)])
        resumed = tmp_path / "resumed.npz"
        # resuming from a finished snapshot re-absorbs the stream: twice the data
        main(["cstage", "--manifest", manifest_path, "--out", str(resumed),
              "--resume", str(whole)])
        assert load_stats(resumed).batches_seen == 2 * load_stats(whole).batches_seen

    @pytest.fixture
    def snapshot(self, tmp_path, capsys):
        main(_synth_args(tmp_path / "data"))
        manifest_path = capsys.readouterr().out.strip()
        out = tmp_path / "stats.npz"
        main(["cstage", "--manifest", manifest_path, "--out", str(out), "--lambda", "0.5"])
        capsys.readouterr()
        return manifest_path, out

    def test_resume_rejects_another_schema(self, snapshot, tmp_path, capsys):
        _, out = snapshot
        args = _synth_args(tmp_path / "other")
        args[args.index("--augmented") + 1] = "3"  # only the augmented width differs
        main(args)
        other = capsys.readouterr().out.strip()
        with pytest.raises(SchemaError, match="schema .* conflicts with the snapshot"):
            main(["cstage", "--manifest", other, "--out", str(tmp_path / "x.npz"),
                  "--resume", str(out)])

    @pytest.mark.parametrize("flags", [["--lambda", "1.0"], ["--rho", "0.5"], ["--mode", "inverse"]])
    def test_resume_rejects_conflicting_flags(self, snapshot, tmp_path, flags):
        manifest_path, out = snapshot
        with pytest.raises(SchemaError, match=f"{flags[0]} .* conflicts"):
            main(["cstage", "--manifest", manifest_path, "--out", str(tmp_path / "x.npz"),
                  "--resume", str(out), *flags])

    def test_resume_rejects_standardize(self, snapshot, tmp_path):
        # the snapshot stores no affine transform, so a standardized resume
        # would re-derive it from the new manifest and silently diverge
        manifest_path, out = snapshot
        with pytest.raises(SchemaError, match="--standardize"):
            main(["cstage", "--manifest", manifest_path, "--out", str(tmp_path / "x.npz"),
                  "--resume", str(out), "--standardize"])
        assert not (tmp_path / "x.npz").exists()

    def test_resume_accepts_matching_flags(self, snapshot, tmp_path):
        manifest_path, out = snapshot
        assert main([
            "cstage", "--manifest", manifest_path, "--out", str(tmp_path / "x.npz"),
            "--resume", str(out), "--lambda", "0.5", "--rho", "0.1", "--mode", "auto",
        ]) == 0


class TestRunAndReportCommands:
    @pytest.fixture
    def stream_dir(self, tmp_path, capsys):
        main(_synth_args(tmp_path / "data"))
        return capsys.readouterr().out.strip()

    def test_run_writes_report_and_csv(self, stream_dir, tmp_path, capsys):
        out = tmp_path / "results"
        code = main([
            "run", "--manifest", stream_dir, "--out", str(out),
            "--methods", "OPID,BASE_S", "--repeats", "3", "--seed", "1",
        ])
        assert code == 0
        assert (out / "report.txt").is_file()
        assert (out / "results.csv").is_file()
        stdout = capsys.readouterr().out
        assert "OPID" in stdout and "BASE_S" in stdout

    def test_run_is_byte_deterministic(self, stream_dir, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            main([
                "run", "--manifest", stream_dir, "--out", str(out),
                "--methods", "OPIDe,BASE_A", "--repeats", "3", "--seed", "7",
            ])
            outs.append(out)
        assert (outs[0] / "report.txt").read_bytes() == (outs[1] / "report.txt").read_bytes()
        assert (outs[0] / "results.csv").read_bytes() == (outs[1] / "results.csv").read_bytes()

    def test_report_recomputes_table(self, stream_dir, tmp_path, capsys):
        out = tmp_path / "results"
        main([
            "run", "--manifest", stream_dir, "--out", str(out),
            "--methods", "BASE_ALL,BASE_A", "--repeats", "4", "--seed", "2",
        ])
        run_report = (out / "report.txt").read_text()
        capsys.readouterr()
        assert main(["report", "--results", str(out / "results.csv")]) == 0
        rebuilt = capsys.readouterr().out
        # aggregate rows agree (the rebuilt header lacks the original seed)
        assert run_report.splitlines()[1:] == rebuilt.splitlines()[1:]

    def test_unknown_method_rejected(self, stream_dir, tmp_path):
        with pytest.raises(SystemExit):
            main([
                "run", "--manifest", stream_dir, "--out", str(tmp_path / "x"),
                "--methods", "NOPE",
            ])

    def test_aborted_repeats_exit_nonzero(self, tmp_path, capsys):
        main([
            "synth", "--out", str(tmp_path / "tiny"),
            "--classes", "2", "--vanished", "2", "--survived", "3", "--augmented", "2",
            "--batches", "2", "--batch-size", "10", "--estage-size", "5", "--seed", "1",
        ])
        manifest_path = capsys.readouterr().out.strip()
        code = main([
            "run", "--manifest", manifest_path, "--out", str(tmp_path / "res"),
            "--methods", "OPIDe", "--folds", "8", "--repeats", "2", "--seed", "0",
        ])
        assert code == 1
