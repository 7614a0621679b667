"""Command-line entry points.

Subcommands: ``synth`` writes a seeded synthetic stream to disk, ``cstage``
runs (or resumes) a one-pass compressing-stage accumulation over a manifest,
``run`` executes the full experiment protocol, and ``report`` rebuilds the
human-readable table from a machine-readable results file.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .cstage import absorb_batch, init_stats, load_stats, save_stats
from .harness import (
    ALL_METHODS,
    ExperimentSpec,
    emit_report,
    format_report,
    load_results,
    resolve_mode,
    run_experiment,
)
from .ingest import SynthConfig, generate_synthetic, parse_manifest, stream_batches, write_stream
from .model import FeatureSchema, Hyperparams, SchemaError


def _float_tuple(raw: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in raw.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {raw!r}") from exc


def _methods(raw: str) -> tuple[str, ...]:
    methods = tuple(m.strip() for m in raw.split(",") if m.strip())
    unknown = set(methods) - set(ALL_METHODS)
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown methods {sorted(unknown)}; choose from {', '.join(ALL_METHODS)}"
        )
    return methods


def _signal(raw: str) -> tuple[float, float, float]:
    values = _float_tuple(raw)
    if len(values) != 3:
        raise argparse.ArgumentTypeError("signal needs exactly three fractions: vanished,survived,augmented")
    return values


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
    synth.add_argument("--estage-size", type=int, default=60, help="instances per expanding-stage batch")
    synth.add_argument("--separation", type=float, default=2.0)
    synth.add_argument("--noise", type=float, default=1.0)
    synth.add_argument("--signal", type=_signal, default=(1.0, 1.0, 1.0),
                       help="signal fractions vanished,survived,augmented")
    synth.add_argument("--seed", type=int, default=0)

    cstage = sub.add_parser("cstage", help="run or resume a one-pass compressing-stage accumulation")
    cstage.add_argument("--manifest", required=True)
    cstage.add_argument("--out", required=True, help="statistics snapshot file (.npz)")
    cstage.add_argument("--resume", help="snapshot to continue from")
    # No defaults here: a resumed pass must tell explicit flags from unset ones.
    cstage.add_argument("--mode", choices=("auto", "direct", "inverse"), help="default auto")
    cstage.add_argument("--lambda", dest="lam", type=float, help="default 1.0")
    cstage.add_argument("--rho", type=float, help="default 0.1")
    cstage.add_argument("--standardize", action="store_true",
                        help="affine-scale features with first-batch statistics (not with --resume)")

    run = sub.add_parser("run", help="run the full experiment protocol")
    run.add_argument("--manifest", required=True)
    run.add_argument("--out", required=True, help="report output directory")
    run.add_argument("--methods", type=_methods, default=ALL_METHODS)
    run.add_argument("--lambda", dest="lam", type=_float_tuple, default=(1.0,),
                     help="consistency weight grid (comma-separated)")
    run.add_argument("--rho", type=_float_tuple, default=(0.1,), help="compressing-stage ridge grid")
    run.add_argument("--gamma", type=_float_tuple, default=(1.0,), help="expanding-stage ridge grid")
    run.add_argument("--alpha", type=_float_tuple, default=(1.0,), help="logistic loss weight grid")
    run.add_argument("--repeats", type=int, default=20)
    run.add_argument("--folds", type=int, default=5)
    run.add_argument("--seed", type=int, default=0)

    report = sub.add_parser("report", help="rebuild the table from a results.csv record")
    report.add_argument("--results", required=True)
    report.add_argument("--out", help="directory to rewrite report files into")
    return parser


def _cmd_synth(args) -> int:
    schema = FeatureSchema(
        vanished=args.vanished,
        survived=args.survived,
        augmented=args.augmented,
        classes=args.classes,
    )
    cfg = SynthConfig(
        schema=schema,
        batches=args.batches,
        batch_size=args.batch_size,
        estage_size=args.estage_size,
        separation=args.separation,
        noise=args.noise,
        signal=args.signal,
        seed=args.seed,
    )
    cbatches, etrain, etest = generate_synthetic(cfg)
    manifest_path = write_stream(cbatches, etrain, etest, args.out, schema)
    print(manifest_path)
    return 0


def _cmd_cstage(args) -> int:
    manifest = parse_manifest(args.manifest)
    mode = resolve_mode(args.mode or "auto", manifest.schema)
    if args.resume:
        if args.standardize:
            raise SchemaError("--standardize cannot resume: the snapshot stores no affine transform")
        stats = load_stats(args.resume)
        for name, given, stored in (
            ("schema", manifest.schema, stats.schema), ("--mode", args.mode and mode, stats.mode),
            ("--lambda", args.lam, stats.lam), ("--rho", args.rho, stats.rho),
        ):
            if given is not None and given != stored:
                raise SchemaError(f"{name} {given} conflicts with the snapshot's {stored}")
    else:
        given = {"lam": args.lam, "rho": args.rho}
        hyper = Hyperparams(**{k: v for k, v in given.items() if v is not None})
        stats = init_stats(manifest.schema, hyper, mode=mode)
    for batch in stream_batches(manifest, standardize=args.standardize):
        absorb_batch(stats, batch)
    save_stats(stats, args.out)
    print(
        f"mode={stats.mode} batches={stats.batches_seen} "
        f"dim={stats.schema.stats_dim} classes={stats.schema.classes} -> {args.out}"
    )
    return 0


def _cmd_run(args) -> int:
    manifest = parse_manifest(args.manifest)
    spec = ExperimentSpec(
        source=manifest,
        methods=args.methods,
        lam_grid=args.lam,
        rho_grid=args.rho,
        gamma_grid=args.gamma,
        alpha_grid=args.alpha,
        repeats=args.repeats,
        folds=args.folds,
        seed=args.seed,
    )
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
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
