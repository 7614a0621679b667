"""Write one workload's seeded synthetic stream to disk.

The stream is made here, with numpy alone, so that the program under test
receives only files: comma-separated batch files (features first, integer
label last) plus a JSON manifest, the format ``opid`` reads. Class means
are random unit directions per partition scaled by ``separation`` times the
partition's signal fraction; features are those means plus Gaussian noise.
The same (workload, seed) always writes the same bytes.

    python3 perfbench/gen.py --workload grid --seed 3 --out DIR [--scale tiny]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import NAMES, SCALES, Stream  # noqa: E402


def _write(path: Path, feats: np.ndarray, labels: np.ndarray) -> None:
    lines = [
        ",".join(map(repr, row)) + f",{label}\n"
        for row, label in zip(feats.tolist(), labels.tolist())
    ]
    path.write_text("".join(lines))


def generate(stream: Stream, seed: int, workload_id: int, out: Path) -> Path:
    # The class means depend on the workload only, so every seed poses a
    # problem of the same difficulty and solver iteration counts (hence run
    # times) vary little from seed to seed; the seed draws the instances.
    structure = np.random.default_rng([workload_id])
    rng = np.random.default_rng([workload_id, seed])
    widths = (stream.vanished, stream.survived, stream.augmented)
    means = np.zeros((stream.classes, sum(widths)))
    offset = 0
    for width, fraction in zip(widths, stream.signal):
        directions = structure.standard_normal((stream.classes, width))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        means[:, offset:offset + width] = stream.separation * fraction * directions
        offset += width

    def draw(n: int, start: int, stop: int):
        labels = rng.permutation(np.arange(n) % stream.classes)
        feats = means[labels, start:stop] + stream.noise * rng.standard_normal((n, stop - start))
        return feats, labels

    out.mkdir(parents=True, exist_ok=True)
    c_width = stream.vanished + stream.survived
    names = []
    for i in range(stream.batches):
        name = f"cstage_{i:03d}.csv"
        _write(out / name, *draw(stream.batch_size, 0, c_width))
        names.append(name)
    for name in ("estage_train.csv", "estage_test.csv"):
        _write(out / name, *draw(stream.estage_size, stream.vanished, sum(widths)))

    e_width = stream.survived + stream.augmented
    manifest = {
        "classes": stream.classes,
        "vanished": stream.vanished,
        "survived": stream.survived,
        "augmented": stream.augmented,
        "cstage_batches": names,
        "estage_train": "estage_train.csv",
        "estage_test": "estage_test.csv",
        "cstage_columns": {"vanished": [0, stream.vanished], "survived": [stream.vanished, c_width]},
        "estage_columns": {"survived": [0, stream.survived], "augmented": [stream.survived, e_width]},
    }
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--scale", choices=tuple(SCALES), default="full")
    args = parser.parse_args(argv)
    workload = SCALES[args.scale][args.workload]
    print(generate(workload.stream, args.seed, NAMES.index(args.workload), Path(args.out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
