from __future__ import annotations

import re

import numpy as np
import pytest

from opid import cli, harness
from opid.cli import main
from opid.cstage import FACTOR, absorb_batch, init_stats, load_stats, save_stats
from opid.ensemble import SolverError
from opid.harness import ExperimentSpec
from opid.ingest import SynthConfig, parse_manifest, stream_batches
from opid.model import FeatureSchema, Hyperparams, SchemaError


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

    def test_snapshot_written_at_the_given_path(self, tmp_path, capsys):
        main(_synth_args(tmp_path / "data"))
        manifest_path = capsys.readouterr().out.strip()
        out = tmp_path / "stats.bin"
        assert main(["cstage", "--manifest", manifest_path, "--out", str(out)]) == 0
        assert capsys.readouterr().out.rstrip().endswith(f"-> {out}")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "stats.bin"]
        resumed = tmp_path / "resumed.bin"
        assert main(["cstage", "--manifest", manifest_path, "--out", str(resumed),
                     "--resume", str(out)]) == 0
        assert load_stats(resumed).batches_seen == 6

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

    @pytest.mark.parametrize("flags", [["--lambda", "1.0"], ["--rho", "0.5"]])
    def test_resume_rejects_conflicting_flags(self, snapshot, tmp_path, capsys, flags):
        manifest_path, out = snapshot
        _assert_rejected(
            capsys,
            ["cstage", "--manifest", manifest_path, "--out", str(tmp_path / "x.npz"),
             "--resume", str(out), *flags],
            f"{flags[0]} .* conflicts",
        )

    @pytest.mark.parametrize("mode", ["direct", "factor"])
    def test_overflowing_batch_writes_no_snapshot(self, tmp_path, capsys, mode):
        main(_synth_args(tmp_path / "data"))
        manifest_path = capsys.readouterr().out.strip()
        # finite features overflow the Gram update (direct, 1e200) or the
        # factor's norm bound (factor, 1.5e308) to inf
        value = "1.5e308," if mode == FACTOR else "1e200,"
        batch_file = tmp_path / "data" / "cstage_001.csv"
        lines = batch_file.read_text().splitlines()
        width = lines[0].count(",")  # feature columns; the label comes last
        batch_file.write_text("".join(value * width + ln.rsplit(",", 1)[1] + "\n" for ln in lines))
        argv = ["cstage", "--manifest", manifest_path, "--out", str(tmp_path / "stats.npz")]
        if mode == FACTOR:
            # a new pass is direct; a factor pass resumes a library-written snapshot
            start = tmp_path / "start.npz"
            schema = parse_manifest(manifest_path).schema
            save_stats(init_stats(schema, Hyperparams(), FACTOR), start)
            argv += ["--resume", str(start)]
        _assert_rejected(capsys, argv, "non-finite")
        assert not (tmp_path / "stats.npz").exists()

    def test_new_pass_defaults_to_direct_mode(self, tmp_path, capsys):
        # stats_dim 2 * 1025 = 2050 lies above the harness's auto-mode limit
        main([
            "synth", "--out", str(tmp_path / "data"), "--classes", "2", "--vanished", "0",
            "--survived", "1025", "--augmented", "0", "--batches", "1", "--batch-size", "3",
            "--estage-size", "2",
        ])
        manifest_path = capsys.readouterr().out.strip()
        out = tmp_path / "stats.npz"
        assert main(["cstage", "--manifest", manifest_path, "--out", str(out)]) == 0
        assert load_stats(out).mode == "direct"

    def test_resume_accepts_matching_flags(self, snapshot, tmp_path):
        manifest_path, out = snapshot
        assert main([
            "cstage", "--manifest", manifest_path, "--out", str(tmp_path / "x.npz"),
            "--resume", str(out), "--lambda", "0.5", "--rho", "0.1",
        ]) == 0

    def test_resume_continues_a_factor_snapshot(self, tmp_path, capsys):
        main(_synth_args(tmp_path / "data"))
        manifest_path = capsys.readouterr().out.strip()
        manifest = parse_manifest(manifest_path)
        start = tmp_path / "start.npz"
        save_stats(init_stats(manifest.schema, Hyperparams(lam=0.5), FACTOR), start)
        out = tmp_path / "stats.npz"
        assert main(["cstage", "--manifest", manifest_path, "--out", str(out),
                     "--resume", str(start)]) == 0
        stats = init_stats(manifest.schema, Hyperparams(lam=0.5), FACTOR)
        for batch in stream_batches(manifest):
            absorb_batch(stats, batch)
        snapshot = load_stats(out)
        assert snapshot.mode == FACTOR
        np.testing.assert_array_equal(snapshot.mat, stats.mat)
        np.testing.assert_array_equal(snapshot.rhs, stats.rhs)

    def test_mode_flag_is_rejected(self, snapshot, tmp_path):
        manifest_path, _ = snapshot
        with pytest.raises(SystemExit):
            main(["cstage", "--manifest", manifest_path, "--out", str(tmp_path / "x.npz"),
                  "--mode", "direct"])


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
        # aggregate rows agree; the rebuilt header lacks the original seed
        assert run_report.splitlines()[0] == "repeats=4 seed=2"
        assert rebuilt.splitlines()[0] == "repeats=4 seed=unknown"
        assert run_report.splitlines()[1:] == rebuilt.splitlines()[1:]

    def test_unknown_method_rejected(self, stream_dir, tmp_path, capsys):
        argv = [
            "run", "--manifest", stream_dir, "--out", str(tmp_path / "x"),
            "--methods", "NOPE",
        ]
        _assert_rejected(
            capsys, argv,
            re.escape("unknown methods ['NOPE']; choose from OPID, OPIDe, BASE_ALL, BASE_S, BASE_A"),
        )
        assert not (tmp_path / "x").exists()

    @pytest.fixture
    def tiny_stream(self, tmp_path, capsys):
        # 10 pooled expanding-stage rows: a training half of 5
        main([
            "synth", "--out", str(tmp_path / "tiny"),
            "--classes", "2", "--vanished", "2", "--survived", "3", "--augmented", "2",
            "--batches", "2", "--batch-size", "10", "--estage-size", "5", "--seed", "1",
        ])
        return capsys.readouterr().out.strip()

    def test_aborted_repeats_exit_nonzero(self, tiny_stream, tmp_path, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise SolverError("no convergence to gradient norm 1e-06 within 50 iterations")

        monkeypatch.setattr(harness, "train_ensemble", no_convergence)
        code = main([
            "run", "--manifest", tiny_stream, "--out", str(tmp_path / "res"),
            "--methods", "OPIDe", "--folds", "2", "--repeats", "2", "--seed", "0",
        ])
        assert code == 1
        assert "# repeat 1 aborted (OPIDe)" in (tmp_path / "res" / "report.txt").read_text()

    def test_more_folds_than_training_rows_rejected(self, tiny_stream, tmp_path, capsys):
        argv = [
            "run", "--manifest", tiny_stream, "--out", str(tmp_path / "res"),
            "--methods", "OPIDe", "--folds", "8", "--repeats", "2", "--seed", "0",
        ]
        _assert_rejected(capsys, argv, "--folds 8 exceeds the 5 rows of the training half")
        assert not (tmp_path / "res").exists()

    def test_folds_ignored_by_single_point_opid(self, tiny_stream, tmp_path):
        code = main([
            "run", "--manifest", tiny_stream, "--out", str(tmp_path / "res"),
            "--methods", "OPID", "--folds", "8", "--repeats", "2", "--seed", "0",
        ])
        assert code == 0
        assert (tmp_path / "res" / "results.csv").read_text().count("OPID,") == 2


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
        (["cstage", "--rho", "nan"], "ridge must be > 0"),
        (["run", "--gamma", "0"], "expanding-stage ridge must be > 0"),
        (["run", "--gamma", "nan"], "expanding-stage ridge must be > 0"),
        (["run", "--alpha", "0"], "logistic loss weights must be > 0"),
        (["run", "--rho", "nan"], "ridge must be > 0"),
        (["run", "--lambda", "inf"], "consistency weight must be >= 0"),
        (["run", "--methods", ""], "no methods selected"),
        (["run", "--methods", "OPID,OPID,BASE_S"], "methods selected more than once: OPID"),
        (["run", "--seed", "-1"], "seed must be >= 0"),
        (["synth", "--seed", "-1"], "seed must be >= 0"),
        (["run", "--lambda", "1e308"], "1 \\+ 2 lam finite"),
        (["cstage", "--lambda", "1e308"], "1 \\+ 2 lam finite"),
        (["cstage", "--rho", "1e308"], "2 rho finite"),
    ])
    def test_bad_flag_values(self, manifest_path, tmp_path, capsys, argv, pattern):
        source = [] if argv[0] == "synth" else ["--manifest", manifest_path]
        argv = [*argv, *source, "--out", str(tmp_path / "out")]
        _assert_rejected(capsys, argv, pattern)
        assert not (tmp_path / "out").exists()

    def test_bad_synth_flag_value(self, tmp_path, capsys):
        args = _synth_args(tmp_path / "data")
        args[args.index("--batches") + 1] = "0"
        _assert_rejected(capsys, args, "batch counts and sizes must be >= 1")

    @pytest.mark.parametrize("flag, value, pattern", [
        ("--separation", "nan", "separation and noise must be >= 0 and finite"),
        ("--noise", "inf", "separation and noise must be >= 0 and finite"),
        ("--signal", "2,nan,1", "signal must be three finite fractions >= 0"),
    ], ids=["separation-nan", "noise-inf", "signal-nan"])
    def test_non_finite_synth_flag_value(self, tmp_path, capsys, flag, value, pattern):
        out = tmp_path / "data"
        _assert_rejected(capsys, [*_synth_args(out), flag, value], pattern)
        assert not out.exists()

    def test_signal_needs_three_fractions(self, tmp_path, capsys):
        out = tmp_path / "data"
        _assert_rejected(capsys, [*_synth_args(out), "--signal", "1,2"],
                         re.escape("signal must be three finite fractions >= 0, got (1.0, 2.0)"))
        assert not out.exists()

    def test_missing_manifest(self, tmp_path, capsys):
        argv = ["run", "--manifest", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]
        _assert_rejected(capsys, argv, "manifest not found")

    def test_missing_results_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        _assert_rejected(capsys, ["report", "--results", str(missing)], re.escape(str(missing)))

    @pytest.mark.parametrize("body, pattern", [
        (b"method,repeat,accuracy\nOPID,0,0.5\nOPID,\xff\xfe\n", r"results\.csv:3: not UTF-8"),
        (b"method,repeat,accuracy\rOPID,0,0.5\rOPID,\xff\xfe\r", r"results\.csv:3: not UTF-8"),
        (b"method,repeat,accuracy\nOPID,0\n", r"results\.csv:2: expected method,repeat"),
    ])
    def test_malformed_results_file(self, tmp_path, capsys, body, pattern):
        path = tmp_path / "results.csv"
        path.write_bytes(body)
        _assert_rejected(capsys, ["report", "--results", str(path)], pattern)


class TestFlagDefaults:
    """Flags left unset are not passed, so the dataclass defaults hold."""

    @staticmethod
    def _captured(monkeypatch, name, argv):
        seen = []

        def capture(value):
            seen.append(value)
            raise SchemaError("captured")

        monkeypatch.setattr(cli, name, capture)
        assert main(argv) == 2
        (value,) = seen
        return value

    def test_synth_builds_the_default_config(self, tmp_path, monkeypatch):
        cfg = self._captured(monkeypatch, "generate_synthetic", ["synth", "--out", str(tmp_path)])
        schema = FeatureSchema(vanished=25, survived=50, augmented=25, classes=3)
        assert cfg == SynthConfig(schema=schema, batches=10, batch_size=60, estage_size=60)

    def test_run_builds_the_default_spec(self, tmp_path, capsys, monkeypatch):
        main(_synth_args(tmp_path / "data"))
        manifest_path = capsys.readouterr().out.strip()
        argv = ["run", "--manifest", manifest_path, "--out", str(tmp_path / "out")]
        spec = self._captured(monkeypatch, "run_experiment", argv)
        assert spec == ExperimentSpec(source=parse_manifest(manifest_path))


# ``opid run`` output on the stream of ``_PINNED_SYNTH``, written by an earlier
# version of the program: reports must not change by a byte.
_PINNED_SYNTH = [
    "--classes", "3", "--vanished", "3", "--survived", "4", "--augmented", "3",
    "--batches", "3", "--batch-size", "20", "--estage-size", "30", "--seed", "7",
]
_PINNED_RUN = ["--lambda", "0.5,1", "--repeats", "3", "--seed", "7"]
_PINNED_REPORT = """\
repeats=3 seed=7
method         mean      std      vs OPID     vs OPIDe  vs BASE_ALL    vs BASE_S    vs BASE_A
OPID         0.9111   0.1018            -            =            =            =            =
OPIDe        0.9556   0.0509            =            -            =            =            >
BASE_ALL     0.9333   0.0333            =            =            -            =            =
BASE_S       0.7889   0.0509            =            =            =            -            =
BASE_A       0.9222   0.0509            =            <            =            =            -
"""
_PINNED_RESULTS = """\
method,repeat,accuracy
OPID,0,1.0
OPID,1,0.9333333333333333
OPID,2,0.8
OPIDe,0,1.0
OPIDe,1,0.9666666666666667
OPIDe,2,0.9
BASE_ALL,0,0.9666666666666667
BASE_ALL,1,0.9333333333333333
BASE_ALL,2,0.9
BASE_S,0,0.7333333333333333
BASE_S,1,0.8333333333333334
BASE_S,2,0.8
BASE_A,0,0.9666666666666667
BASE_A,1,0.9333333333333333
BASE_A,2,0.8666666666666667
"""


def test_report_bytes_are_pinned(tmp_path, capsys):
    # all five methods, and a two-point lambda grid so cross validation runs
    assert main(["synth", "--out", str(tmp_path / "data"), *_PINNED_SYNTH]) == 0
    manifest_path = capsys.readouterr().out.strip()
    out = tmp_path / "out"
    assert main(["run", "--manifest", manifest_path, "--out", str(out), *_PINNED_RUN]) == 0
    assert (out / "report.txt").read_bytes() == _PINNED_REPORT.encode()
    assert (out / "results.csv").read_bytes() == _PINNED_RESULTS.encode()
