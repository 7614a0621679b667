"""One benchmark process: set up, run timed operations, check the outputs.

The runner (run.py) starts this script with BLAS threads pinned and
``PYTHONPATH`` pointing at the checkout's ``src``. The worker measures its
own set-up from ``--t0`` (the runner's ``perf_counter``, a system-wide
monotonic clock on Linux, just before it started the process), then runs
operations until ``--budget`` seconds have been spent, and finally checks the
outputs outside the timed region. Untraced, it reports times scaled to a
reference speed by ``speed.SpeedProbe`` and keeps the raw ones beside them.
It writes one JSON result file; with ``--trace 1`` it alternates untraced and
traced operations and also writes the traced spans.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans as spanlib  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import SCALES  # noqa: E402


def _import_opid():
    import opid
    import opid.cli
    import opid.cstage
    import opid.harness
    import opid.ingest
    import opid.model  # noqa: F401

    where = Path(opid.__file__).resolve().parent
    expected = ROOT / "src" / "opid"
    if where != expected:
        raise SystemExit(f"opid imported from {where}, expected the checkout's {expected}")
    return opid


class RepeatClock:
    """Per-repeat latency of ``opid run``, from outside the program.

    A repeat is the run of every method on one split; it starts when the
    harness evaluates the first method and ends when the last evaluation
    returns. ``_MethodRunner.evaluate`` is the only per-repeat boundary the
    harness exposes, so this hook names it; the benchmark fails loudly if it
    disappears.
    """

    def __init__(self, harness, first_method: str):
        try:
            runner = harness._MethodRunner
            original = runner.evaluate
        except AttributeError as exc:
            raise RuntimeError("per-repeat hook harness._MethodRunner.evaluate is gone") from exc
        self.samples: list[tuple[float, float]] = []
        self._start = self._end = None
        clock = self

        def evaluate(runner_self, method, *args, **kwargs):
            now = time.perf_counter()
            if method == first_method:
                clock.flush()
                clock._start = now
            try:
                return original(runner_self, method, *args, **kwargs)
            finally:
                clock._end = time.perf_counter()

        runner.evaluate = evaluate

    def flush(self) -> None:
        if self._start is not None:
            self.samples.append((self._start, self._end))
        self._start = None

    def take(self) -> list[tuple[float, float]]:
        self.flush()
        out, self.samples = self.samples, []
        return out


class ExperimentOps:
    """``opid run`` driven in-process through ``opid.cli.main``."""

    def __init__(self, opid, workload, manifest_path: Path, seed: int, work: Path):
        self.opid = opid
        self.workload = workload
        self.manifest_path = manifest_path
        self.seed = seed
        self.work = work
        self.methods = workload.run_arg("--methods").split(",")
        self.clock = RepeatClock(opid.harness, self.methods[0])
        self.classes = workload.stream.classes

    def setup(self) -> None:
        self.opid.ingest.parse_manifest(self.manifest_path)

    def run(self, index: int) -> dict:
        out = self.work / f"op{index}"
        argv = ["run", "--manifest", str(self.manifest_path), "--out", str(out),
                "--seed", str(self.seed), *self.workload.run_args]
        t0, c0 = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.opid.cli.main(argv)
        t1, c1 = time.perf_counter(), time.process_time()
        op = {"span": (t0, t1), "wall_s": t1 - t0, "cpu_s": c1 - c0,
              "op_spans": self.clock.take(), "exit_code": code,
              "attempted": self.workload.ops_per_run}
        data = (out / "results.csv").read_bytes()
        op["digest"] = hashlib.sha256(data).hexdigest()
        per_method: dict[str, list[float]] = {}
        for line in data.decode().splitlines()[1:]:
            method, _, acc = line.split(",")
            per_method.setdefault(method, []).append(float(acc))
        op["accuracy"] = {m: statistics.fmean(v) for m, v in per_method.items() if v}
        done = min((len(per_method.get(m, [])) for m in self.methods), default=0)
        op["failed"] = self.workload.ops_per_run - done
        return op

    def checks(self, ops: list[dict]) -> list[dict]:
        out = [_check("exit code 0 on every run", all(op["exit_code"] == 0 for op in ops),
                      str(sorted({op["exit_code"] for op in ops})))]
        digests = {op["digest"] for op in ops}
        out.append(_check("results.csv byte-identical across runs", len(digests) == 1,
                          f"{len(digests)} distinct digests over {len(ops)} runs"))
        chance = 1.0 / self.classes
        for method in ("OPID", "OPIDe"):
            if method in self.methods:
                acc = ops[0]["accuracy"].get(method, 0.0)
                out.append(_check(f"{method} mean accuracy above chance + 0.05",
                                  acc > chance + 0.05, f"{acc:.4f} vs chance {chance:.4f}"))
        return out


class WideStreamOps:
    """Prequential (test-then-train) pass through the library API with one
    suspend/resume at the midpoint."""

    def __init__(self, opid, workload, manifest_path: Path, seed: int, work: Path):
        self.opid = opid
        self.workload = workload
        self.manifest_path = manifest_path
        self.work = work
        self.coefs = []

    def setup(self) -> None:
        manifest = self.opid.ingest.parse_manifest(self.manifest_path)
        self._init(manifest.schema)

    def _init(self, schema):
        hyper = self.opid.model.Hyperparams(lam=self.workload.lam, rho=self.workload.rho)
        mode = self.opid.harness.resolve_mode("auto", schema)
        return self.opid.cstage.init_stats(schema, hyper, mode=mode)

    def run(self, index: int) -> dict:
        cstage, ingest = self.opid.cstage, self.opid.ingest
        snapshot = self.work / f"op{index}-stats.npz"
        op_spans = []
        correct = seen = 0
        t0, c0 = time.perf_counter(), time.process_time()
        manifest = ingest.parse_manifest(self.manifest_path)
        stats = self._init(manifest.schema)
        mid = len(manifest.cstage_batches) // 2
        tick = time.perf_counter()
        for i, batch in enumerate(ingest.stream_batches(manifest)):
            scores = cstage.compress(batch.survived, cstage.solve_model(stats))
            pred = self.opid.model.argmax_decode(scores)
            correct += int((pred == batch.labels.argmax(axis=1)).sum())
            seen += batch.n
            cstage.absorb_batch(stats, batch)
            if i + 1 == mid:
                cstage.save_stats(stats, snapshot)
                stats = cstage.load_stats(snapshot)
            now = time.perf_counter()
            op_spans.append((tick, now))
            tick = now
        final = cstage.solve_model(stats)
        t1, c1 = time.perf_counter(), time.process_time()
        self.coefs.append((final.coef_full.copy(), final.coef_survived.copy()))
        snapshot.unlink()
        return {"span": (t0, t1), "wall_s": t1 - t0, "cpu_s": c1 - c0, "op_spans": op_spans,
                "attempted": self.workload.ops_per_run,
                "failed": self.workload.ops_per_run - len(op_spans),
                "accuracy": {"prequential": correct / seen}}

    def _reference(self):
        """Coefficients from one batch solve of the whole stream. The first
        worker of a run computes them; later ones load its copy, which sits
        beside the stream they were computed from."""
        import numpy as np
        import scipy.linalg

        cached = self.manifest_path.parent / "reference_coef.npy"
        if cached.exists():
            return np.load(cached)
        s = self.workload.stream
        manifest = json.loads(self.manifest_path.read_text())
        raw = np.vstack([np.loadtxt(self.manifest_path.parent / name, delimiter=",", ndmin=2)
                         for name in manifest["cstage_batches"]])
        x, labels = raw[:, :-1], raw[:, -1].astype(int)
        y = np.eye(s.classes)[labels]
        # Reference: the coupled normal system built in one batch solve from
        # the Gram matrix, independent of opid's accumulation code.
        p, v, lam, rho = x.shape[1], s.vanished, self.workload.lam, self.workload.rho
        gram = x.T @ x
        mat = np.zeros((p + s.survived, p + s.survived))
        mat[:p, :p] = (1.0 + lam) * gram + rho * np.eye(p)
        mat[:p, p:] = -lam * gram[:, v:]
        mat[p:, :p] = mat[:p, p:].T
        mat[p:, p:] = (1.0 + lam) * gram[v:, v:] + rho * np.eye(s.survived)
        rhs = np.vstack([x.T @ y, x[:, v:].T @ y])
        ref = scipy.linalg.solve(mat, rhs, assume_a="pos")
        np.save(cached, ref)
        return ref

    def checks(self, ops: list[dict]) -> list[dict]:
        import numpy as np

        s = self.workload.stream
        ref = self._reference()
        errors = [float(np.linalg.norm(np.vstack(c) - ref) / np.linalg.norm(ref)) for c in self.coefs]
        worst = max(errors) if errors else float("inf")
        accs = {op["accuracy"]["prequential"] for op in ops}
        chance = 1.0 / s.classes
        return [
            _check("final coefficients after suspend/resume match a direct batch solve (rel 1e-8)",
                   worst <= 1e-8, f"worst relative error {worst:.3e} over {len(errors)} passes"),
            _check("prequential accuracy identical across passes", len(accs) == 1, str(sorted(accs))),
            _check("prequential accuracy above chance + 0.05", min(accs) > chance + 0.05,
                   f"{min(accs):.4f} vs chance {chance:.4f}"),
        ]


def _setup_times(probe: SpeedProbe | None, setup: tuple[float, float]) -> dict:
    if probe is None:
        return {"setup_s": setup[1] - setup[0]}
    t = probe.scaled(*setup)
    return {"setup_s": t["wall_s"], "raw_setup_s": setup[1] - setup[0]}


def _finish(op: dict, probe: SpeedProbe | None) -> None:
    """Turn an operation's recorded intervals into its reported times:
    scaled to the reference speed when a probe ran, raw otherwise."""
    spans = op.pop("op_spans", [])
    span = op.pop("span", None)
    if probe is None:
        op["latencies_ms"] = [1e3 * (end - start) for start, end in spans]
        return
    if span is not None:
        t = probe.scaled(*span)
        op.update(wall_s=t["wall_s"], cpu_s=t["cpu_s"],
                  raw_wall_s=t["raw_wall_s"], raw_cpu_s=t["raw_cpu_s"])
    scaled = [probe.scaled(*s) for s in spans]
    op["latencies_ms"] = [1e3 * t["wall_s"] for t in scaled]
    op["raw_latencies_ms"] = [1e3 * t["raw_wall_s"] for t in scaled]


def _check(name: str, ok: bool, detail: str) -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    def blas(config):
        deps = config.get("Build Dependencies", {}) if isinstance(config, dict) else {}
        info = deps.get("blas", {})
        return f"{info.get('name', '?')} {info.get('version', '?')}"

    with contextlib.redirect_stdout(io.StringIO()):
        np_blas = blas(np.show_config(mode="dicts"))
        sp_blas = blas(scipy.show_config(mode="dicts"))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": np_blas,
        "scipy_blas": sp_blas,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "machine": platform.machine(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--work", required=True, help="scratch directory for run outputs")
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", help="where the traced run writes its spans")
    parser.add_argument("--tag", default="w0")
    args = parser.parse_args(argv)

    # Untraced processes scale the times they report to the reference speed
    # (see speed.py). Traced ones report raw times: a reference loop run
    # inside a span would be charged to that span's layer.
    probe = None if args.trace else SpeedProbe()
    if probe:
        probe.start()
    workload = SCALES[args.scale][args.workload]
    opid = _import_opid()
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    ops_cls = WideStreamOps if workload.run_args is None else ExperimentOps
    runner = ops_cls(opid, workload, Path(args.manifest), args.seed, work)
    runner.setup()
    setup = (args.t0, time.perf_counter())
    result = {"tag": args.tag}
    if args.setup_only:
        probe.stop()
        result.update(_setup_times(probe, setup))
        Path(args.result).write_text(json.dumps(result))
        return 0

    rec = spanlib.Recorder()
    tracer = spanlib.Tracer(rec)
    ops: list[dict] = []
    start = time.perf_counter()

    def more() -> bool:
        # A traced run needs a traced and an untraced operation after the
        # warm-up one.
        if args.trace and not ({True, False} <= {op["traced"] for op in ops[1:]}):
            return True
        if not ops:
            return True
        elapsed = time.perf_counter() - start
        pace = statistics.fmean(op["wall_s"] for op in ops)
        return elapsed + 0.5 * pace < args.budget

    while more():
        index = len(ops)
        # Traced runs: operation 0 warms the process up untraced, then traced
        # and untraced operations follow in T U U T order, so a slow drift of
        # the machine biases neither side of trace.overhead_frac.
        traced = bool(args.trace) and index > 0 and (index - 1) % 4 in (0, 3)
        if traced:
            rec.run = f"{args.workload}-s{args.seed}-{args.tag}-op{index}"
            tracer.install()
            root = rec.open(f"bench.{args.workload}")
        op_start = time.perf_counter()
        try:
            op = runner.run(index)
        except Exception:  # an operation that raises is counted as failed, not fatal
            op = {"wall_s": time.perf_counter() - op_start, "cpu_s": 0.0,
                  "attempted": workload.ops_per_run,
                  "error": traceback.format_exc()}
            op["failed"] = op["attempted"]
        finally:
            if traced:
                rec.close(root)
                tracer.uninstall()
        op["traced"] = traced
        ops.append(op)
        if "error" in op:
            break
    if probe:
        probe.stop()
        result["speed_probe"] = probe.summary()
    result.update(_setup_times(probe, setup))
    for op in ops:
        _finish(op, probe)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["ops"] = ops

    good = [op for op in ops if "error" not in op]
    try:
        result["checks"] = runner.checks(good) if good else []
    except Exception:
        result["checks"] = [_check("output checks ran", False, traceback.format_exc())]
    result["env"] = environment(args.seed)

    if args.trace:
        span_list = rec.as_json()
        units = sum(1 for op in ops if op["traced"])
        stream = workload.stream
        rows_per_pass = stream.batches * stream.batch_size
        result["layers"] = spanlib.layer_metrics(span_list, rec.counts, rec.gauges, units, rows_per_pass)
        result["layer_table"] = spanlib.layer_table(span_list, units)
        result["missing_targets"] = tracer.missing
        if args.spans:
            Path(args.spans).write_text(json.dumps({"spans": span_list}))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
