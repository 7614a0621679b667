"""Span recorder and the wrappers that trace ``opid`` from outside.

Tracing replaces public functions of each ``opid`` module with timing
wrappers, in every ``opid`` module namespace that holds the original object,
so a caller sees the wrapper wherever it looks the name up. Nothing in
``opid`` is edited and nothing runs on another thread, so every span nests
properly inside the span that was open when it started.

A span is ``[name, start, end, parent, run]``: ``start``/``end`` are
``time.perf_counter()`` seconds, ``parent`` is the index of the enclosing
span (``None`` for a root) and ``run`` identifies the operation the span
belongs to.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

# (layer, module, attribute path, kind). ``kind`` is "fn" for a timed
# function or method, "gen" for a generator whose every next() is timed,
# "count" for a function whose calls are only counted, and "cv" for
# k_fold_cv, whose scorer calls are counted too.
TARGETS = (
    ("cli", "opid.cli", "main", "fn"),
    ("harness", "opid.harness", "run_experiment", "fn"),
    ("harness", "opid.harness", "run_cstage_pass", "fn"),
    ("harness", "opid.harness", "resolve_mode", "fn"),
    ("harness", "opid.harness", "k_fold_cv", "cv"),
    ("harness", "opid.harness", "build_table", "fn"),
    ("harness", "opid.harness", "emit_report", "fn"),
    ("harness", "opid.harness", "format_report", "fn"),
    ("ingest", "opid.ingest", "parse_manifest", "fn"),
    ("ingest", "opid.ingest", "stream_batches", "gen"),
    ("ingest", "opid.ingest", "load_estage", "fn"),
    ("model", "opid.model", "Batch.cstage", "fn"),
    ("model", "opid.model", "Batch.estage", "fn"),
    ("model", "opid.model", "validate_batch", "fn"),
    ("cstage", "opid.cstage", "init_stats", "fn"),
    ("cstage", "opid.cstage", "absorb_batch", "fn"),
    ("cstage", "opid.cstage", "solve_model", "fn"),
    ("cstage", "opid.cstage", "compress", "fn"),
    ("cstage", "opid.cstage", "save_stats", "fn"),
    ("cstage", "opid.cstage", "load_stats", "fn"),
    ("estage", "opid.estage", "build_stacked", "fn"),
    ("estage", "opid.estage", "train_unified", "fn"),
    ("estage", "opid.estage", "fit_unified", "fn"),
    ("estage", "opid.estage", "update_coefficients", "fn"),
    ("estage", "opid.estage", "predict_unified", "fn"),
    ("ensemble", "opid.ensemble", "train_ensemble", "fn"),
    ("ensemble", "opid.ensemble", "train_ovr", "fn"),
    ("ensemble", "opid.ensemble", "train_logistic", "fn"),
    ("ensemble", "opid.ensemble", "logistic_objective", "count"),
    ("ensemble", "opid.ensemble", "predict_ensemble", "fn"),
    ("ensemble", "opid.ensemble", "LogisticModel.predict", "fn"),
    ("ensemble", "opid.ensemble", "LogisticModel.proba", "fn"),
)

LAYERS = ("cli", "harness", "ingest", "model", "cstage", "estage", "ensemble")

MIB = 1024.0 * 1024.0


class Recorder:
    """Spans and counters of one traced process, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.gauges: dict[str, float] = {}
        self._stack: list[int] = []
        self.run: str | None = None

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.run])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} closed while span {popped} was innermost")

    def gauge_max(self, name: str, value: float) -> None:
        self.gauges[name] = max(self.gauges.get(name, value), value)

    def as_json(self) -> list[dict]:
        return [
            {"id": i, "name": n, "start": s, "end": e, "parent": p, "run": r}
            for i, (n, s, e, p, r) in enumerate(self.spans)
        ]


def _observe(rec: Recorder, name: str, args, result) -> None:
    """Counts taken from a traced call's arguments and result."""
    if name == "ingest.stream_batches.next":
        width = result.vanished.shape[1] + result.survived.shape[1] + 1
        rec.counts["ingest.rows"] += result.n
        rec.counts["ingest.floats"] += result.n * width
    elif name == "ingest.load_estage":
        for batch in result:
            width = batch.survived.shape[1] + batch.augmented.shape[1] + 1
            rec.counts["ingest.floats"] += batch.n * width
    elif name == "cstage.init_stats":
        rec.gauge_max("cstage.state_bytes", result.mat.nbytes + result.rhs.nbytes)
    elif name == "cstage.save_stats":
        path = os.fspath(args[1])
        if not path.endswith(".npz"):
            path += ".npz"
        rec.gauge_max("cstage.snapshot_bytes", os.path.getsize(path))
    elif name == "harness.run_experiment":
        rec.counts["harness.aborted_repeats"] += len(result.failures)


_OBSERVED = {
    "ingest.stream_batches.next",
    "ingest.load_estage",
    "cstage.init_stats",
    "cstage.save_stats",
    "harness.run_experiment",
}


def _timed(rec: Recorder, name: str, fn):
    observed = name in _OBSERVED

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(sid)
        if observed:
            _observe(rec, name, args, result)
        return result

    return wrapper


def _counted(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _generator(rec: Recorder, name: str, fn):
    next_name = name + ".next"

    def timed(gen):
        while True:
            sid = rec.open(next_name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                rec.close(sid)
            _observe(rec, next_name, (), item)
            yield item

    start = _timed(rec, name, fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.counts[name] += 1
        return timed(start(*args, **kwargs))

    return wrapper


def _cross_validation(rec: Recorder, name: str, fn):
    """k_fold_cv: a timed span, plus a count of scorer calls (one per fit)."""

    def counting(scorer):
        @functools.wraps(scorer)
        def wrapper(*args, **kwargs):
            rec.counts["harness.cv_fits"] += 1
            return scorer(*args, **kwargs)

        return wrapper

    timed = _timed(rec, name, fn)

    @functools.wraps(fn)
    def wrapper(x, y, grid, k, scorer, *args, **kwargs):
        return timed(x, y, grid, k, counting(scorer), *args, **kwargs)

    return wrapper


_FACTORIES = {"fn": _timed, "count": _counted, "gen": _generator, "cv": _cross_validation}


class Tracer:
    """Installs the wrappers of ``TARGETS`` and removes them again.

    A target missing from the program (renamed or deleted) is skipped and
    listed in ``missing``; its metrics then read 0.
    """

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.missing = []
        modules = [m for k, m in sys.modules.items() if k == "opid" or k.startswith("opid.")]
        for layer, module_name, path, kind in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            name = f"{layer}.{attr}"
            if isinstance(raw, classmethod):
                self._set(owner, attr, classmethod(_timed(self.rec, name, raw.__func__)))
            elif owner_name:
                self._set(owner, attr, _timed(self.rec, name, raw))
            else:
                wrapper = _FACTORIES[kind](self.rec, name, raw)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            self._set(mod, key, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []


# -- analysis ---------------------------------------------------------------


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children of one span never overlap (one thread), so the covered part is
    the sum of the children's durations clipped to the parent's interval.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        parent = span["parent"]
        if parent is not None:
            p = spans[parent]
            covered[parent] += min(span["end"], p["end"]) - max(span["start"], p["start"])
    return [s["end"] - s["start"] - c for s, c in zip(spans, covered)]


def _outermost(spans: list[dict], names: set[str]) -> list[dict]:
    """Spans named in ``names`` with no ancestor also named there, so nested
    calls of one group are not counted twice."""
    out = []
    for span in spans:
        if span["name"] not in names:
            continue
        parent = span["parent"]
        while parent is not None and spans[parent]["name"] not in names:
            parent = spans[parent]["parent"]
        if parent is None:
            out.append(span)
    return out


def _total(spans):
    return sum(s["end"] - s["start"] for s in spans)


def _self_by_layer(spans: list[dict]) -> Counter:
    out: Counter = Counter()
    for span, own in zip(spans, self_times(spans)):
        out[span["name"].split(".", 1)[0]] += own
    return out


def layer_table(spans: list[dict], units: int) -> list[tuple[str, float, float, float]]:
    """(layer, outermost calls, busy seconds, self seconds) per layer, per
    traced operation. ``bench`` is the benchmark's own root span."""
    by_layer: dict[str, set[str]] = defaultdict(set)
    for span in spans:
        by_layer[span["name"].split(".", 1)[0]].add(span["name"])
    self_by_layer = _self_by_layer(spans)
    rows = []
    for layer in ("bench",) + LAYERS:
        outer = _outermost(spans, by_layer.get(layer, set()))
        rows.append((layer, len(outer) / units, _total(outer) / units, self_by_layer[layer] / units))
    return rows


def layer_metrics(spans: list[dict], counts: dict, gauges: dict, units: int, rows_per_pass: int) -> dict:
    """Per-layer metrics, normalised per traced operation where they are
    totals (see NOTES.md)."""

    def group(*names):
        return _outermost(spans, set(names))

    def per_unit(value):
        return value / units

    def mean_duration(found):
        return _total(found) / len(found) if found else 0.0

    self_by_layer = _self_by_layer(spans)
    read = group("ingest.stream_batches.next", "ingest.load_estage")
    absorb = group("cstage.absorb_batch")
    rows_read = counts.get("ingest.rows", 0)
    return {
        "ingest.read_s": per_unit(_total(read)),
        "ingest.mfloat_per_s": counts.get("ingest.floats", 0) / 1e6 / _total(read) if read else 0.0,
        "ingest.passes": per_unit(counts.get("ingest.stream_batches", 0)),
        "ingest.rows_read_per_row": per_unit(rows_read / rows_per_pass),
        "ingest.manifest_s": mean_duration(group("ingest.parse_manifest")),
        "ingest.self_s": per_unit(self_by_layer["ingest"]),
        "model.batch_s": per_unit(_total(group("model.cstage", "model.estage", "model.validate_batch"))),
        "cstage.init_s": mean_duration(group("cstage.init_stats")),
        "cstage.absorb_s": per_unit(_total(absorb)),
        "cstage.absorb_calls": per_unit(len(absorb)),
        "cstage.absorb_p50_ms": 1e3 * statistics.median(s["end"] - s["start"] for s in absorb) if absorb else 0.0,
        "cstage.solve_s": per_unit(_total(group("cstage.solve_model"))),
        "cstage.solve_calls": per_unit(len(group("cstage.solve_model"))),
        "cstage.state_mb": gauges.get("cstage.state_bytes", 0) / MIB,
        "cstage.snapshot_s": per_unit(_total(group("cstage.save_stats", "cstage.load_stats"))),
        "cstage.snapshot_mb": gauges.get("cstage.snapshot_bytes", 0) / MIB,
        "cstage.self_s": per_unit(self_by_layer["cstage"]),
        "estage.fit_s": per_unit(_total(group("estage.train_unified", "estage.fit_unified"))),
        "estage.fit_calls": per_unit(len(group("estage.train_unified", "estage.fit_unified"))),
        "estage.coef_updates": per_unit(len(group("estage.update_coefficients"))),
        "estage.stack_s": per_unit(_total(group("estage.build_stacked"))),
        "estage.predict_s": per_unit(_total(group("estage.predict_unified"))),
        "estage.self_s": per_unit(self_by_layer["estage"]),
        "ensemble.ensemble_s": per_unit(_total(group("ensemble.train_ensemble"))),
        "ensemble.ovr_s": per_unit(_total(group("ensemble.train_ovr"))),
        "ensemble.logistic_s": per_unit(_total(group("ensemble.train_logistic"))),
        "ensemble.logistic_fits": per_unit(len(group("ensemble.train_logistic"))),
        "ensemble.objective_evals": per_unit(counts.get("ensemble.logistic_objective", 0)),
        "ensemble.predict_s": per_unit(_total(group(
            "ensemble.predict_ensemble", "ensemble.predict", "ensemble.proba"))),
        "ensemble.self_s": per_unit(self_by_layer["ensemble"]),
        "harness.cstage_pass_s": per_unit(_total(group("harness.run_cstage_pass"))),
        "harness.cv_s": per_unit(_total(group("harness.k_fold_cv"))),
        "harness.cv_fits": per_unit(counts.get("harness.cv_fits", 0)),
        "harness.report_s": per_unit(_total(group("harness.emit_report", "harness.format_report"))),
        "harness.self_s": per_unit(self_by_layer["harness"]),
        "harness.aborted_repeats": per_unit(counts.get("harness.aborted_repeats", 0)),
        "cli.self_s": per_unit(self_by_layer["cli"]),
    }
