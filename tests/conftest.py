from __future__ import annotations

import io
import zipfile
from pathlib import Path

import pytest

from opid.ingest import StreamManifest, SynthConfig, generate_synthetic, parse_manifest, write_stream
from opid.model import Batch, FeatureSchema, one_hot_encode


def random_cstage_stream(rng, n_batches, n, d_v, d_s, c):
    """Standard-normal batches with uniformly random labels."""
    batches = []
    for _ in range(n_batches):
        labels = one_hot_encode(rng.integers(0, c, size=n), c)
        batches.append(
            Batch.cstage(
                vanished=rng.standard_normal((n, d_v)),
                survived=rng.standard_normal((n, d_s)),
                labels=labels,
            )
        )
    return batches


@pytest.fixture
def small_schema():
    return FeatureSchema(vanished=2, survived=3, augmented=2, classes=2)


def synth_manifest(cfg: SynthConfig, out_dir) -> StreamManifest:
    """``cfg``'s stream written to ``out_dir`` and read back, as ``opid synth``
    writes a stream and ``opid run`` reads it: the one experiment source."""
    return parse_manifest(write_stream(*generate_synthetic(cfg), out_dir, cfg.schema))


def rewrite_member_header(path, member: str, edit=lambda header: header, version=(1, 0)) -> None:
    """Rewrite the .npy header of ``member`` in the .npz archive at ``path``:
    its format version bytes, and its header dict text through ``edit``. The
    member's data and every other member are kept as they were."""
    archive = Path(path).read_bytes()
    out = io.BytesIO()
    with zipfile.ZipFile(io.BytesIO(archive)) as src, zipfile.ZipFile(out, "w") as dst:
        for info in src.infolist():
            raw = src.read(info)
            if info.filename == f"{member}.npy":
                end = 10 + int.from_bytes(raw[8:10], "little")  # magic, version, length, header
                header = edit(raw[10:end].decode("latin1")).encode("latin1")
                length = len(header).to_bytes(2, "little")
                raw = raw[:6] + bytes(version) + length + header + raw[end:]
            dst.writestr(info, raw)
    Path(path).write_bytes(out.getvalue())
