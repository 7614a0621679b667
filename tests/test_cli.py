from __future__ import annotations

import re

import numpy as np
import pytest

from opid.cli import main
from opid.cstage import absorb_batch, init_stats, load_stats
from opid.ingest import parse_manifest, stream_batches
from opid.model import Hyperparams


def _synth_args(out_dir, seed=0):
    return [
        "synth", "--out", str(out_dir),
        "--classes", "3", "--vanished", "2", "--survived", "4", "--augmented", "2",
        "--batches", "3", "--batch-size", "20", "--estage-size", "30",
        "--separation", "3.0", "--noise", "0.8", "--seed", str(seed),
    ]


def _assert_rejected(capsys, argv, pattern):
    """``main`` ends a rejected input with exit code 2 and one stderr line."""
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("opid: error: ")
    assert re.search(pattern, err), err


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
        _assert_rejected(
            capsys,
            ["cstage", "--manifest", other, "--out", str(tmp_path / "x.npz"), "--resume", str(out)],
            "schema .* conflicts with the snapshot",
        )

    @pytest.mark.parametrize("flags", [["--lambda", "1.0"], ["--rho", "0.5"], ["--mode", "inverse"]])
    def test_resume_rejects_conflicting_flags(self, snapshot, tmp_path, capsys, flags):
        manifest_path, out = snapshot
        _assert_rejected(
            capsys,
            ["cstage", "--manifest", manifest_path, "--out", str(tmp_path / "x.npz"),
             "--resume", str(out), *flags],
            f"{flags[0]} .* conflicts",
        )

    @pytest.mark.parametrize("mode", ["direct", "inverse"])
    def test_overflowing_batch_writes_no_snapshot(self, tmp_path, capsys, mode):
        main(_synth_args(tmp_path / "data"))
        manifest_path = capsys.readouterr().out.strip()
        # finite 1e200 features overflow the Gram update (direct) or the
        # rank-update core (inverse) to inf
        batch_file = tmp_path / "data" / "cstage_001.csv"
        lines = batch_file.read_text().splitlines()
        width = lines[0].count(",")  # feature columns; the label comes last
        batch_file.write_text("".join("1e200," * width + ln.rsplit(",", 1)[1] + "\n" for ln in lines))
        out = tmp_path / "stats.npz"
        _assert_rejected(
            capsys,
            ["cstage", "--manifest", manifest_path, "--out", str(out), "--mode", mode],
            "non-finite",
        )
        assert not out.exists()

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


class TestRejectedInput:
    @pytest.fixture
    def manifest_path(self, tmp_path, capsys):
        main(_synth_args(tmp_path / "data"))
        return capsys.readouterr().out.strip()

    @pytest.mark.parametrize("argv, pattern", [
        (["run", "--rho", "0"], "ridge must be > 0"),
        (["run", "--repeats", "0"], "repeats must be >= 1"),
        (["run", "--folds", "1", "--methods", "OPIDe"], "folds must be >= 2"),
        (["cstage", "--rho", "-1"], "ridge must be > 0"),
    ])
    def test_bad_flag_values(self, manifest_path, tmp_path, capsys, argv, pattern):
        argv = [*argv, "--manifest", manifest_path, "--out", str(tmp_path / "out")]
        _assert_rejected(capsys, argv, pattern)
        assert not (tmp_path / "out").exists()

    def test_bad_synth_flag_value(self, tmp_path, capsys):
        args = _synth_args(tmp_path / "data")
        args[args.index("--batches") + 1] = "0"
        _assert_rejected(capsys, args, "batch counts and sizes must be >= 1")

    def test_missing_manifest(self, tmp_path, capsys):
        argv = ["run", "--manifest", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]
        _assert_rejected(capsys, argv, "manifest not found")

    def test_missing_results_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        _assert_rejected(capsys, ["report", "--results", str(missing)], re.escape(str(missing)))

    @pytest.mark.parametrize("body, pattern", [
        (b"method,repeat,accuracy\nOPID,0,0.5\nOPID,\xff\xfe\n", r"results\.csv:3: not UTF-8"),
        (b"method,repeat,accuracy\nOPID,0\n", r"results\.csv:2: expected method,repeat"),
    ])
    def test_malformed_results_file(self, tmp_path, capsys, body, pattern):
        path = tmp_path / "results.csv"
        path.write_bytes(body)
        _assert_rejected(capsys, ["report", "--results", str(path)], pattern)
