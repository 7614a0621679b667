"""Command-line entry points.

Subcommands: ``synth`` writes a seeded synthetic stream to disk, ``cstage``
runs a one-pass compressing-stage accumulation over a manifest in direct mode
(or resumes one in its snapshot's mode), ``run`` executes the full experiment
protocol, and ``report`` rebuilds the human-readable table from a
machine-readable results file. A flag left unset is not passed, so the
library dataclass it sets keeps its own default. Rejected input (a typed
library error or an unreadable path) prints one ``opid: error:`` line to
stderr and exits with code 2, as a rejected flag does.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import fields

from .cstage import absorb_batch, init_stats, load_stats, save_stats
from .harness import ExperimentSpec, emit_report, format_report, load_results, run_experiment
from .ingest import SynthConfig, generate_synthetic, parse_manifest, stream_batches, write_stream
from .model import FeatureSchema, Hyperparams, NumericError, SchemaError


def _float_tuple(raw: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in raw.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {raw!r}") from exc


def _methods(raw: str) -> tuple[str, ...]:
    return tuple(m.strip() for m in raw.split(",") if m.strip())


def _given(args, cls) -> dict:
    """The parsed flags named after fields of the dataclass ``cls`` that are
    set, as keyword arguments; a flag left unset is None."""
    names = {f.name for f in fields(cls)}
    return {k: v for k, v in vars(args).items() if k in names and v is not None}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opid",
        description="One-pass learning over streams with vanished, survived, and augmented features.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a seeded synthetic stream on disk")
    synth.add_argument("--out", required=True, help="output directory")
    synth.add_argument("--classes", type=int, default=3)
    synth.add_argument("--vanished", type=int, default=25)
    synth.add_argument("--survived", type=int, default=50)
    synth.add_argument("--augmented", type=int, default=25)
    synth.add_argument("--batches", type=int, default=10, help="compressing-stage batch count")
    synth.add_argument("--batch-size", type=int, default=60)
    synth.add_argument("--estage-size", type=int, default=60,
                       help="instances in each expanding-stage set, train and test")
    synth.add_argument("--separation", type=float)
    synth.add_argument("--noise", type=float)
    synth.add_argument("--signal", type=_float_tuple,
                       help="signal fractions vanished,survived,augmented")
    synth.add_argument("--seed", type=int)

    cstage = sub.add_parser("cstage", help="run or resume a one-pass compressing-stage accumulation")
    cstage.add_argument("--manifest", required=True)
    cstage.add_argument("--out", required=True, help="statistics snapshot file")
    cstage.add_argument("--resume", help="snapshot to continue from")
    # A resumed pass must also tell explicit flags from unset ones.
    cstage.add_argument("--lambda", dest="lam", type=float, help=f"default {Hyperparams.lam}")
    cstage.add_argument("--rho", type=float, help=f"default {Hyperparams.rho}")

    run = sub.add_parser("run", help="run the full experiment protocol")
    run.add_argument("--manifest", required=True)
    run.add_argument("--out", required=True, help="report output directory")
    run.add_argument("--methods", type=_methods)
    run.add_argument("--lambda", dest="lam_grid", type=_float_tuple,
                     help="consistency weight grid (comma-separated)")
    run.add_argument("--rho", dest="rho_grid", type=_float_tuple,
                     help="compressing-stage ridge grid")
    run.add_argument("--gamma", dest="gamma_grid", type=_float_tuple,
                     help="expanding-stage ridge grid")
    run.add_argument("--alpha", dest="alpha_grid", type=_float_tuple,
                     help="logistic loss weight grid")
    run.add_argument("--repeats", type=int)
    run.add_argument("--folds", type=int)
    run.add_argument("--seed", type=int)

    report = sub.add_parser("report", help="rebuild the table from a results.csv record")
    report.add_argument("--results", required=True)
    report.add_argument("--out", help="directory to rewrite report files into")
    return parser


def _cmd_synth(args) -> int:
    schema = FeatureSchema(**_given(args, FeatureSchema))
    cfg = SynthConfig(schema=schema, **_given(args, SynthConfig))
    cbatches, etrain, etest = generate_synthetic(cfg)
    manifest_path = write_stream(cbatches, etrain, etest, args.out, schema)
    print(manifest_path)
    return 0


def _cmd_cstage(args) -> int:
    manifest = parse_manifest(args.manifest)
    if args.resume:
        stats = load_stats(args.resume)
        for name, given, stored in (
            ("schema", manifest.schema, stats.schema),
            ("--lambda", args.lam, stats.hyper.lam), ("--rho", args.rho, stats.hyper.rho),
        ):
            if given is not None and given != stored:
                raise SchemaError(f"{name} {given} conflicts with the snapshot's {stored}")
    else:
        stats = init_stats(manifest.schema, Hyperparams(**_given(args, Hyperparams)))
    for batch in stream_batches(manifest):
        absorb_batch(stats, batch)
    save_stats(stats, args.out)
    print(
        f"mode={stats.mode} batches={stats.batches_seen} "
        f"width={stats.schema.cstage_width} classes={stats.schema.classes} -> {args.out}"
    )
    return 0


def _cmd_run(args) -> int:
    manifest = parse_manifest(args.manifest)
    spec = ExperimentSpec(source=manifest, **_given(args, ExperimentSpec))
    table = run_experiment(spec)
    report_path, csv_path = emit_report(table, args.out)
    sys.stdout.write(format_report(table))
    print(f"wrote {report_path} and {csv_path}")
    return 1 if table.failures else 0


def _cmd_report(args) -> int:
    table = load_results(args.results)
    if args.out:
        emit_report(table, args.out)
    sys.stdout.write(format_report(table))
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "cstage": _cmd_cstage,
    "run": _cmd_run,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (SchemaError, NumericError, OSError) as exc:
        # Rejected input ends like an argparse error: one line and exit code 2.
        print(f"opid: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
