"""Benchmark runner for opid.

Run one workload, or all of them, from the root of a checkout:

    python3 perfbench/run.py --workload experiment --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Compare two result files metric by metric:

    python3 perfbench/run.py --compare OLD.json NEW.json

The runner generates the workload's stream in its own process, then starts
worker processes (worker.py) with BLAS threads pinned to one and ``src`` of
this checkout on ``PYTHONPATH``. Untraced (``--trace 0``) runs report the
end-to-end metrics; traced runs report the per-layer metrics. Every run
writes a result file with the environment under ``perfbench/out/`` and
prints one JSON object as its last line of output.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import NAMES, SCALES  # noqa: E402

# Set-up is measured in every worker plus this many set-up-only processes,
# and reported as the median.
SETUP_PROBES = 1
# A run must end within 180 s; children are killed when this passes.
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONPATH=str(ROOT / "src"),
    )
    return env


def _run_child(cmd: list[str], deadline: float) -> str:
    """Run one child to completion before ``deadline``; kill it otherwise."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("ran out of time before starting " + Path(cmd[1]).name)
    proc = subprocess.Popen(cmd, env=_child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{Path(cmd[1]).name} did not finish before the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:3])} exited with {proc.returncode}:\n{err[-3000:]}")
    return out


def _worker(args, name: str, manifest: Path, work: Path, tag: str, deadline: float, *,
            budget: float = 0.0, setup_only: bool = False, trace: int = 0,
            spans: Path | None = None) -> dict:
    result = work / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--scale", args.scale, "--manifest", str(manifest), "--seed", str(args.seed),
           "--budget", repr(budget), "--trace", str(trace), "--work", str(work / tag),
           "--result", str(result), "--tag", tag]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    cmd += ["--t0", repr(time.perf_counter())]
    _run_child(cmd, deadline)
    return json.loads(result.read_text())


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count) at the highest percentile that has
    at least ten samples beyond it; the maximum when there are too few."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _accuracy_mean(op: dict) -> float:
    return statistics.fmean(op["accuracy"].values())


def _end_to_end(workload, workers: list[dict], setups: list[dict]) -> tuple[dict, dict, dict]:
    ops = [op for w in workers for op in w["ops"]]
    good = [op for op in ops if "error" not in op]
    if not good:
        raise BenchError("no operation completed:\n" + ops[0]["error"] if ops else "no operation ran")
    checks = [dict(c, name=f"{w['tag']}: {c['name']}") for w in workers for c in w["checks"]]
    if workload.run_args is not None:
        digests = {op["digest"] for op in good}
        checks.append({"name": "results.csv byte-identical across processes",
                       "ok": len(digests) == 1, "detail": f"{len(digests)} distinct digests"})
    else:
        accs = {op["accuracy"]["prequential"] for op in good}
        checks.append({"name": "prequential accuracy identical across processes",
                       "ok": len(accs) == 1, "detail": str(sorted(accs))})
    attempted = sum(op["attempted"] for op in ops) + len(checks)
    failed = sum(op["failed"] for op in ops) + sum(not c["ok"] for c in checks)

    latencies = [x for op in good for x in op["latencies_ms"]]
    raw_setups = [s["raw_setup_s"] for s in setups]
    setups = [s["setup_s"] for s in setups]
    tail_value, tail_pct, samples = tail(latencies)
    stream = workload.stream
    rows = stream.batches * stream.batch_size
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(op["wall_s"] for op in good),
        "cpu_s": statistics.median(op["cpu_s"] for op in good),
        "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in workers),
        "ok_frac": 1.0 - failed / attempted,
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": tail_value,
        "ops_per_s": statistics.median(len(op["latencies_ms"]) / op["wall_s"] for op in good),
        "rows_per_s": statistics.median(rows / op["wall_s"] for op in good),
        "acc_mean": statistics.median(_accuracy_mean(op) for op in good),
    }
    raw_latencies = [x for op in good for x in op["raw_latencies_ms"]]
    notes = {
        "operations": len(good),
        "wall_samples": [op["wall_s"] for op in good],
        "raw_wall_samples": [op["raw_wall_s"] for op in good],
        "raw_op_p50_ms": statistics.median(raw_latencies),
        "speed_probe": [w["speed_probe"] for w in workers],
        "op_tail_percentile": tail_pct,
        "op_samples": samples,
        "setup_samples": setups,
        "raw_setup_samples": raw_setups,
        "accuracy": good[0]["accuracy"],
        "errors": [op["error"] for op in ops if "error" in op],
    }
    counts = {"attempted": attempted, "failed": failed, "checks": checks}
    return {k: _metric(v, END_TO_END[k][0]) for k, v in metrics.items()}, notes, counts


def _per_layer(worker: dict) -> tuple[dict, dict, dict]:
    ops = worker["ops"]
    good = [op for op in ops if "error" not in op]
    traced = [op["wall_s"] for op in good if op["traced"]]
    plain = [op["wall_s"] for op in ops[1:] if "error" not in op and not op["traced"]]
    if not traced or not plain:
        errors = [op["error"] for op in ops if "error" in op]
        raise BenchError("a traced and an untraced operation must both complete:\n"
                         + "\n".join(errors))
    layers = dict(worker["layers"])
    layers["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    checks = list(worker["checks"])
    attempted = sum(op["attempted"] for op in ops) + len(checks)
    failed = sum(op["failed"] for op in ops) + sum(not c["ok"] for c in checks)
    notes = {"operations": len(good), "traced_operations": len(traced),
             "layer_table": worker["layer_table"], "missing_targets": worker["missing_targets"],
             "errors": [op["error"] for op in ops if "error" in op]}
    counts = {"attempted": attempted, "failed": failed, "checks": checks}
    return {k: _metric(layers[k], PER_LAYER[k][0]) for k in PER_LAYER}, notes, counts


def run_workload(args, name: str) -> dict:
    """Generate the stream, run the workers, and reduce their results."""
    deadline = time.monotonic() + DEADLINE_S
    workload = SCALES[args.scale][name]
    OUT.mkdir(parents=True, exist_ok=True)
    work = OUT / f"work-{name}-s{args.seed}-{os.getpid()}"
    try:
        data = work / "data"
        _run_child([sys.executable, str(HERE / "gen.py"), "--workload", name, "--seed",
                    str(args.seed), "--out", str(data), "--scale", args.scale], deadline)
        manifest = data / "manifest.json"
        if args.trace:
            spans = OUT / f"spans_{name}_s{args.seed}.json"
            worker = _worker(args, name, manifest, work, "w0", deadline, budget=args.seconds,
                             trace=1, spans=spans)
            metrics, notes, counts = _per_layer(worker)
            notes["spans_file"] = str(spans.relative_to(ROOT))
            workers = [worker]
        else:
            setups = [_worker(args, name, manifest, work, f"setup{i}", deadline,
                              setup_only=True)
                      for i in range(SETUP_PROBES)]
            workers = [_worker(args, name, manifest, work, f"w{i}", deadline,
                               budget=args.seconds / workload.workers)
                       for i in range(workload.workers)]
            setups += workers
            metrics, notes, counts = _end_to_end(workload, workers, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    checks = counts.pop("checks")
    return {"correct": counts["failed"] == 0 and all(c["ok"] for c in checks),
            **counts, "metrics": metrics, "checks": checks, "notes": notes,
            "env": workers[-1]["env"]}


def _print_result(name: str, seed: int, result: dict) -> None:
    print(f"== {name}  seed={seed}  correct={result['correct']}  "
          f"attempted={result['attempted']}  failed={result['failed']}")
    for key, m in result["metrics"].items():
        print(f"  {key:<26} {m['value']:>14.6g} {m['unit']}")
    notes = result["notes"]
    if "op_samples" in notes:
        print(f"  op_tail_ms is p{notes['op_tail_percentile']:.1f} of {notes['op_samples']} "
              f"operation samples; {notes['operations']} runs")
        accs = "  ".join(f"{k}={v:.4f}" for k, v in notes["accuracy"].items())
        print(f"  accuracy: {accs}")
    if "layer_table" in notes:
        print(f"  per traced operation: {'layer':<10} {'calls':>10} {'busy_s':>10} {'self_s':>10}")
        for layer, calls, busy, own in notes["layer_table"]:
            print(f"  {'':<22}{layer:<10} {calls:>10.1f} {busy:>10.4f} {own:>10.4f}")
        if notes["missing_targets"]:
            print(f"  not traced (missing): {', '.join(notes['missing_targets'])}")
    for check in result["checks"]:
        print(f"  [{'PASS' if check['ok'] else 'FAIL'}] {check['name']}: {check['detail']}")


def compare(old_path: str, new_path: str) -> int:
    """Print each metric's change, per workload, between two result files."""
    old = json.loads(Path(old_path).read_text())["results"]
    new = json.loads(Path(new_path).read_text())["results"]
    better = {k: v[1] for k, v in END_TO_END.items()}
    better.update({k: v[1] for k, v in PER_LAYER.items()})
    for name in [w for w in old if w in new]:
        print(f"== {name}")
        print(f"  {'metric':<26} {'old':>12} {'new':>12} {'delta':>12} {'rel':>8}  unit")
        for key, o in old[name]["metrics"].items():
            if key not in new[name]["metrics"]:
                continue
            a, b = o["value"], new[name]["metrics"][key]["value"]
            rel = (b - a) / abs(a) if a else math.nan
            direction = better.get(key)
            verdict = ""
            if b != a and direction:
                verdict = "better" if (b > a) == (direction == "higher") else "worse"
            print(f"  {key:<26} {a:>12.6g} {b:>12.6g} {b - a:>+12.4g} {rel:>+8.2%}  "
                  f"{o['unit']} {verdict}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark runner for opid.")
    parser.add_argument("--workload", choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(SCALES), default="full")
    parser.add_argument("--out", help="result file (default perfbench/out/BENCH_<workload>_s<seed>_t<trace>.json)")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required")
    if not (ROOT / "src" / "opid" / "__init__.py").is_file():
        print(f"error: no opid sources at {ROOT / 'src' / 'opid'}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(ROOT / "src" / "opid"), quiet=1)

    names = NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(args, name)
            _print_result(name, args.seed, results[name])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out = Path(args.out) if args.out else OUT / f"BENCH_{args.workload}_s{args.seed}_t{args.trace}.json"
    record = {"env": results[names[-1]]["env"],
              "args": {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                       "trace": args.trace, "scale": args.scale},
              "results": results}
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}/{k}": v for n in names for k, v in results[n]["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
