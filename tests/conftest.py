from __future__ import annotations

import zlib

import numpy as np
import pytest

from opid import cstage
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


# The fields of a snapshot's header, in order
SNAPSHOT_HEADER = ("magic", "format", "mode", "vanished", "survived", "augmented", "classes",
                   "batches_seen", "lam", "rho")


def edit_snapshot(data: bytes, payload=None, crc: bool = True, **fields) -> bytes:
    """The snapshot bytes ``data`` with the named header ``fields`` set, its
    doubles (``rhs``, then the packed triangles) passed through ``payload``,
    and its trailing CRC-32 recomputed over the edit, or with ``crc=False``
    kept as it was."""
    size = cstage._HEADER.size
    header = dict(zip(SNAPSHOT_HEADER, cstage._HEADER.unpack_from(data)), **fields)
    doubles = np.frombuffer(data[size:-4], "<f8")
    if payload is not None:
        doubles = payload(doubles.copy())
    body = cstage._HEADER.pack(*header.values()) + np.asarray(doubles, "<f8").tobytes()
    return body + (zlib.crc32(body).to_bytes(4, "little") if crc else data[-4:])
