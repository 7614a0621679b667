"""Malformed bytes at every file boundary end in a typed error.

Each reader gets valid file contents with a few bytes overwritten and the
tail optionally cut, or plain random bytes. Whatever the reader makes of
them, only a :class:`SchemaError` (which covers ``ManifestError``) or a
:class:`NumericError` may escape. A snapshot also gets one member's header
rewritten, to declare another shape, dtype or order, to end mid-dict or to
carry another format version.
"""

from __future__ import annotations

import re
import zipfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import rewrite_member_header
from opid.cstage import init_stats, load_stats, save_stats
from opid.harness import build_table, emit_report, format_report, load_results
from opid.ingest import (
    SynthConfig,
    generate_synthetic,
    parse_manifest,
    read_estage,
    stream_batches,
    write_stream,
)
from opid.model import FeatureSchema, Hyperparams, NumericError, SchemaError

SCHEMA = FeatureSchema(vanished=1, survived=2, augmented=1, classes=2)
FUZZ = settings(
    derandomize=True, max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def malformed(original: bytes):
    """``original`` with up to four chunks overwritten and the tail maybe cut,
    or arbitrary bytes."""
    edits = st.lists(
        st.tuples(st.integers(0, len(original) - 1), st.binary(min_size=1, max_size=4)),
        min_size=1, max_size=4,
    )
    cuts = st.one_of(st.none(), st.integers(0, len(original)))

    def apply(args):
        edits, cut = args
        data = bytearray(original)
        for pos, chunk in edits:
            data[pos : pos + len(chunk)] = chunk
        return bytes(data[:cut])

    return st.one_of(st.tuples(edits, cuts).map(apply), st.binary(max_size=64))


def _only_typed_errors(read) -> None:
    try:
        read()
    except (SchemaError, NumericError):
        pass


@pytest.fixture(scope="module")
def stream(tmp_path_factory):
    out = tmp_path_factory.mktemp("stream")
    cfg = SynthConfig(schema=SCHEMA, batches=1, batch_size=3, estage_size=3, seed=1)
    return write_stream(*generate_synthetic(cfg), out, SCHEMA)


@pytest.fixture(scope="module")
def valid_files(stream):
    base = stream.parent
    return {
        "manifest": stream.read_bytes(),
        "batch": (base / "cstage_000.csv").read_bytes(),
        "estage": (base / "estage_test.csv").read_bytes(),
    }


@FUZZ
@given(data=st.data())
def test_batch_csv(stream, valid_files, data):
    target = stream.parent / "cstage_000.csv"
    target.write_bytes(data.draw(malformed(valid_files["batch"])))
    try:
        _only_typed_errors(lambda: list(stream_batches(parse_manifest(stream))))
    finally:
        target.write_bytes(valid_files["batch"])


@FUZZ
@given(data=st.data())
def test_estage_csv(stream, valid_files, data):
    target = stream.parent / "estage_test.csv"
    target.write_bytes(data.draw(malformed(valid_files["estage"])))
    try:
        _only_typed_errors(lambda: read_estage(parse_manifest(stream)))
    finally:
        target.write_bytes(valid_files["estage"])


@FUZZ
@given(data=st.data())
def test_manifest(stream, valid_files, data):
    stream.write_bytes(data.draw(malformed(valid_files["manifest"])))
    try:
        _only_typed_errors(lambda: parse_manifest(stream))
    finally:
        stream.write_bytes(valid_files["manifest"])


@pytest.fixture(scope="module", params=["direct", "factor"])
def snapshot_bytes(request, tmp_path_factory):
    stats = init_stats(SCHEMA, Hyperparams(), mode=request.param)
    path = tmp_path_factory.mktemp("snap") / "stats.npz"
    save_stats(stats, path)
    return path.read_bytes()


@FUZZ
@given(data=st.data())
def test_snapshot(tmp_path, snapshot_bytes, data):
    path = tmp_path / "fuzzed.npz"
    path.write_bytes(data.draw(malformed(snapshot_bytes)))
    _only_typed_errors(lambda: load_stats(path))


def header_rewrite(members):
    """Arguments for ``rewrite_member_header``: one of ``members`` with its
    header declaring another shape, dtype or order, its dict cut short, or
    another format version."""
    dims = st.one_of(st.integers(-1, 20), st.integers(0, 10**13))
    shape = st.lists(dims, max_size=3).map(
        lambda s: lambda h: re.sub(r"'shape': \([^)]*\)", f"'shape': {tuple(s)!r}", h))
    descrs = ["<f8", ">f8", "<f4", "<f16", "<i8", ">i4", "|u1", "|b1", "<c16", "|O", "|V8",
              "<M8[D]", "<U6", "<U7", "<U100000000", [("a", "<f8")], [("a", "<f8", (10**12,))],
              "?"]
    descr = st.sampled_from(descrs).map(
        lambda d: lambda h: re.sub(r"'descr': [^,]*,", f"'descr': {d!r},", h))
    cut = st.integers(0, 60).map(lambda n: lambda h: h[:n])
    order = st.just(lambda h: h.replace("False", "True"))
    edit = st.one_of(shape, descr, cut, order)
    version = st.tuples(st.integers(0, 255), st.integers(0, 255))
    return st.one_of(
        st.tuples(st.sampled_from(members), edit, st.just((1, 0))),
        st.tuples(st.sampled_from(members), st.just(lambda h: h), version),
    )


@FUZZ
@given(data=st.data())
def test_snapshot_member_header(tmp_path, snapshot_bytes, data):
    path = tmp_path / "rewritten.npz"
    path.write_bytes(snapshot_bytes)
    with zipfile.ZipFile(path) as archive:
        members = sorted(name.removesuffix(".npy") for name in archive.namelist())
    rewrite_member_header(path, *data.draw(header_rewrite(members)))
    _only_typed_errors(lambda: load_stats(path))


@pytest.fixture(scope="module")
def results_bytes(tmp_path_factory):
    rng = np.random.default_rng(0)
    table = build_table(
        ("OPID", "BASE_S"), {"OPID": list(rng.random(3)), "BASE_S": list(rng.random(3))}, seed=0
    )
    _, csv_path = emit_report(table, tmp_path_factory.mktemp("results"))
    return csv_path.read_bytes()


@FUZZ
@given(data=st.data())
def test_results_csv(tmp_path, results_bytes, data):
    path = tmp_path / "results.csv"
    path.write_bytes(data.draw(malformed(results_bytes)))
    _only_typed_errors(lambda: format_report(load_results(path)))
