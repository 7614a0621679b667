from __future__ import annotations

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
