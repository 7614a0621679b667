"""The benchmark's own tests.

Run with ``python3 -m pytest -q perfbench/tests/bench_selftest.py`` from the
repository root. The file name keeps them out of the repository's default
test collection: they start many processes and test the benchmark, not
``opid``.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import metrics  # noqa: E402
import spans as spanlib  # noqa: E402
from workloads import NAMES, TINY  # noqa: E402


def _run(*args, cwd=ROOT, root=ROOT):
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One tiny untraced and one tiny traced run of every workload."""
    out = tmp_path_factory.mktemp("smoke")
    runs = {}
    for trace in (0, 1):
        result = out / f"trace{trace}.json"
        proc = _run("--workload", "all", "--seed", "3", "--seconds", "0.5", "--scale", "tiny",
                    "--trace", str(trace), "--out", str(result))
        assert proc.returncode == 0, proc.stderr
        runs[trace] = (_last_json(proc.stdout), json.loads(result.read_text()), proc.stdout)
    return runs


def test_untraced_smoke_reports_every_end_to_end_metric(smoke):
    summary, record, _ = smoke[0]
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True and summary["failed"] == 0
    for name in NAMES:
        result = record["results"][name]
        assert set(result["metrics"]) == set(metrics.END_TO_END)
        assert all(c["ok"] for c in result["checks"])
        for key, metric in result["metrics"].items():
            assert metric["unit"] == metrics.END_TO_END[key][0]
            assert metric["value"] > 0, key
    env = record["env"]
    for key in ("python", "numpy", "scipy", "numpy_blas", "nproc", "OPENBLAS_NUM_THREADS", "seed"):
        assert key in env
    assert env["OPENBLAS_NUM_THREADS"] == "1" and env["seed"] == 3


def test_traced_smoke_reports_every_per_layer_metric(smoke):
    summary, record, stdout = smoke[1]
    assert summary["correct"] is True
    for name in NAMES:
        result = record["results"][name]
        assert set(result["metrics"]) == set(metrics.PER_LAYER)
        assert result["notes"]["missing_targets"] == []
    grid = record["results"]["grid"]["metrics"]
    assert grid["ingest.passes"]["value"] == 4
    assert grid["ingest.rows_read_per_row"]["value"] == 4.0
    assert grid["ensemble.logistic_fits"]["value"] == 0
    wide = record["results"]["wide_stream"]["metrics"]
    assert wide["cstage.snapshot_mb"]["value"] > 0
    assert wide["estage.fit_calls"]["value"] == 0
    assert "self_s" in stdout


def test_span_self_times_sum_to_root_duration(smoke):
    _, record, _ = smoke[1]
    for name in NAMES:
        data = json.loads((ROOT / record["results"][name]["notes"]["spans_file"]).read_text())
        span_list = data["spans"]
        assert span_list and {"id", "name", "start", "end", "parent", "run"} <= set(span_list[0])
        selfs = spanlib.self_times(span_list)
        roots = [s for s in span_list if s["parent"] is None]
        assert roots
        for root in roots:
            own = sum(t for s, t in zip(span_list, selfs) if s["run"] == root["run"])
            assert own == pytest.approx(root["end"] - root["start"], rel=1e-9, abs=1e-9)
            assert all(s["parent"] is not None for s in span_list
                       if s["run"] == root["run"] and s is not root)


def test_self_times_subtract_children():
    span_list = [
        {"name": "a", "start": 0.0, "end": 10.0, "parent": None, "run": "r"},
        {"name": "b", "start": 1.0, "end": 4.0, "parent": 0, "run": "r"},
        {"name": "c", "start": 2.0, "end": 3.0, "parent": 1, "run": "r"},
        {"name": "d", "start": 5.0, "end": 9.0, "parent": 0, "run": "r"},
    ]
    assert spanlib.self_times(span_list) == [3.0, 2.0, 1.0, 4.0]


@pytest.mark.parametrize("workload", ["experiment", "grid"])
def test_tracing_leaves_results_unchanged(tmp_path, workload):
    from opid import cli

    spec = TINY[workload]
    manifest = gen.generate(spec.stream, 5, NAMES.index(workload), tmp_path / "data")
    outputs = []
    rec = spanlib.Recorder()
    tracer = spanlib.Tracer(rec)
    originals = dict(vars(sys.modules["opid.harness"]))
    for traced in (False, True, False):
        out = tmp_path / f"out{len(outputs)}"
        if traced:
            tracer.install()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["run", "--manifest", str(manifest), "--out", str(out),
                                 "--seed", "5", *spec.run_args])
        finally:
            tracer.uninstall()
        assert code == 0
        outputs.append((out / "results.csv").read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    assert rec.spans and tracer.missing == []
    assert all(vars(sys.modules["opid.harness"])[k] is v for k, v in originals.items())


def test_compare_prints_each_metric(smoke, tmp_path):
    _, record, _ = smoke[0]
    old = tmp_path / "old.json"
    new = tmp_path / "new.json"
    old.write_text(json.dumps(record))
    bumped = json.loads(json.dumps(record))
    bumped["results"]["grid"]["metrics"]["wall_s"]["value"] *= 2
    new.write_text(json.dumps(bumped))
    proc = _run("--compare", str(old), str(new))
    assert proc.returncode == 0, proc.stderr
    for name in NAMES:
        assert f"== {name}" in proc.stdout
    grid = proc.stdout.split("== grid")[1].split("==")[0]
    assert "+100.00%" in grid and "worse" in grid
    for key in metrics.END_TO_END:
        assert key in grid


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("--workload", "experiment", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path, root=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_matches_metric_table():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(NAMES)
    e2e = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]}
    assert e2e == {k: v[:3] for k, v in metrics.END_TO_END.items()}
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert layers == {k: v[:2] for k, v in metrics.PER_LAYER.items()}
    assert max(b for _, _, b in e2e.values()) == e2e["setup_s"][2]


def test_speed_probe_scales_segments_and_skips_loops():
    from speed import REF_S, SpeedProbe

    probe = SpeedProbe()
    # Loops of REF_S, then 2 * REF_S (a core half as fast), then REF_S; each
    # mark is (wall before, cpu before, wall after, cpu after).
    probe.marks = [(1.0, 0.0, 1.0 + REF_S, REF_S),
                   (2.0, 0.9, 2.0 + 2 * REF_S, 0.9 + 2 * REF_S),
                   (3.0, 1.9, 3.0 + REF_S, 1.9 + REF_S)]
    probe.seal()
    first = 1.0 - REF_S  # segment between the first two loops
    t = probe.scaled(1.0 + REF_S, 2.0)
    assert t["raw_wall_s"] == pytest.approx(first)
    assert t["wall_s"] == pytest.approx(first / 1.5)
    assert t["raw_cpu_s"] == pytest.approx(0.9 - REF_S)
    assert t["cpu_s"] == pytest.approx((0.9 - REF_S) / 1.5)
    # An interval over everything counts the time before the first loop at
    # that loop's speed and leaves every loop out.
    t = probe.scaled(0.5, 3.0 + REF_S)
    second = 1.0 - 2 * REF_S
    assert t["raw_wall_s"] == pytest.approx(0.5 + first + second)
    assert t["wall_s"] == pytest.approx(0.5 + first / 1.5 + second / 1.5)
    # Part of a segment counts its share.
    assert probe.scaled(1.5, 1.75)["wall_s"] == pytest.approx(0.25 / 1.5)
