"""Workload definitions shared by the generator, the worker and the runner.

Plain data only: this module imports nothing heavier than the standard
library, so the runner can read it before any BLAS library is loaded.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Stream:
    """Shape of one seeded synthetic stream (see gen.py)."""

    classes: int
    vanished: int
    survived: int
    augmented: int
    batches: int
    batch_size: int
    estage_size: int
    separation: float
    signal: tuple[float, float, float]
    noise: float = 1.0


@dataclass(frozen=True)
class Workload:
    stream: Stream
    # ``opid run`` arguments after --manifest/--out/--seed; None for the
    # library-driven prequential pass.
    run_args: tuple[str, ...] | None
    lam: float = 1.0
    rho: float = 0.1
    # Untraced measurement is split over this many processes, one after the
    # other: speed differs a little from process to process, so more of them
    # steady the medians, as long as each still has time for an operation.
    workers: int = 4

    def run_arg(self, flag: str) -> str:
        return self.run_args[self.run_args.index(flag) + 1]

    @property
    def ops_per_run(self) -> int:
        """Operations in one run: repeats of ``opid run``, or batches."""
        if self.run_args is None:
            return self.stream.batches
        return int(self.run_arg("--repeats"))


ALL_METHODS = "OPID,OPIDe,BASE_ALL,BASE_S,BASE_A"

# Why each workload exists (also in BENCHMARK.json):
# experiment  -- the paper's results-table protocol; time is in the ensemble
#                layer (OPIDe, logistic baselines), ingest/cstage are tiny.
# grid        -- OPID only over a 2x2x2 grid: four stream re-reads, direct-mode
#                absorb (stats_dim 500) and k-fold CV; no ensemble work.
# wide_stream -- a test-then-train pass through the library API in inverse
#                mode (stats_dim 2220); no estage, ensemble or harness work.
FULL = {
    "experiment": Workload(
        stream=Stream(classes=3, vanished=25, survived=50, augmented=25, batches=40,
                      batch_size=60, estage_size=200, separation=1.5, signal=(1.0, 1.0, 0.0)),
        run_args=("--methods", ALL_METHODS, "--lambda", "1", "--rho", "0.1",
                  "--gamma", "1", "--alpha", "1", "--repeats", "60"),
    ),
    "grid": Workload(
        stream=Stream(classes=5, vanished=100, survived=200, augmented=50, batches=40,
                      batch_size=100, estage_size=100, separation=3.0, signal=(1.0, 1.0, 1.0)),
        run_args=("--methods", "OPID", "--lambda", "0.1,1", "--rho", "0.1,1",
                  "--gamma", "0.1,1", "--repeats", "20"),
    ),
    "wide_stream": Workload(
        stream=Stream(classes=5, vanished=300, survived=960, augmented=50, batches=30,
                      batch_size=60, estage_size=20, separation=4.0, signal=(1.0, 1.0, 1.0)),
        run_args=None,
        # A pass takes 5-8 s, so three processes already fill the run.
        workers=3,
    ),
}

# Same code paths at a size that runs in well under a second; used by the
# benchmark's own tests.
TINY = {
    "experiment": Workload(
        stream=Stream(classes=3, vanished=3, survived=5, augmented=3, batches=4,
                      batch_size=20, estage_size=40, separation=2.0, signal=(1.0, 1.0, 0.0)),
        run_args=("--methods", ALL_METHODS, "--repeats", "3"),
    ),
    "grid": Workload(
        stream=Stream(classes=3, vanished=3, survived=5, augmented=3, batches=4,
                      batch_size=20, estage_size=40, separation=2.0, signal=(1.0, 1.0, 1.0)),
        run_args=("--methods", "OPID", "--lambda", "0.1,1", "--rho", "0.1,1",
                  "--gamma", "0.1,1", "--repeats", "2"),
    ),
    "wide_stream": Workload(
        # stats_dim 2058 keeps resolve_mode("auto") on the inverse path.
        stream=Stream(classes=3, vanished=10, survived=1024, augmented=2, batches=6,
                      batch_size=12, estage_size=10, separation=6.0, signal=(1.0, 1.0, 1.0)),
        run_args=None,
    ),
}

SCALES = {"full": FULL, "tiny": TINY}
NAMES = tuple(FULL)
