"""Checkpoint binary format: round trips and corruption detection."""
import struct

import numpy as np
import pytest

from atent.checkpoint import (
    MAGIC,
    CheckpointError,
    checkpoint_bytes,
    load_checkpoint,
    read_checkpoint,
    save_checkpoint,
)
from atent.models import build_mlp, build_small_cnn


@pytest.fixture
def saved(tmp_path):
    params = build_mlp([3, 8, 2], seed=4)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    return params, path


class TestRoundTrip:
    def test_bitwise_equality(self, saved):
        params, path = saved
        loaded = load_checkpoint(path)
        assert loaded.descriptor == params.descriptor
        assert loaded.names == params.names
        for name in params.names:
            assert np.array_equal(loaded.weights[name].data, params.weights[name].data)

    def test_cnn_round_trip(self, tmp_path):
        params = build_small_cnn([2, 4], [16, 10], seed=1)
        path = tmp_path / "cnn.ckpt"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.descriptor == params.descriptor
        for name in params.names:
            assert np.array_equal(loaded.weights[name].data, params.weights[name].data)

    def test_binary_layout_prefix(self, saved):
        _, path = saved
        blob = path.read_bytes()
        assert blob[:4] == MAGIC
        version, header_len = struct.unpack("<II", blob[4:12])
        assert version == 3
        header = blob[12:12 + header_len]
        assert header == b'{"model":{"kind":"mlp","widths":[3,8,2]}}'
        (count,) = struct.unpack("<I", blob[12 + header_len:16 + header_len])
        assert count == 4  # w0, b0, w1, b1

    def test_trainer_counters_ride_in_header(self, saved):
        params, path = saved
        counters = {"name": "toy", "seed": 9, "epoch": 2, "best_metric": float("-inf"),
                    "best_epoch": -1}
        blob = checkpoint_bytes(params, counters)
        plain = path.read_bytes()
        # only the header differs from a plain save
        assert blob[_header_len(blob):] == plain[_header_len(plain):]
        assert blob[12:_header_len(blob)] == (
            b'{"model":{"kind":"mlp","widths":[3,8,2]},"trainer":{"best_epoch":-1,'
            b'"best_metric":-Infinity,"epoch":2,"name":"toy","seed":9}}')
        path.write_bytes(blob)
        loaded, read_back = read_checkpoint(path)
        assert read_back == counters
        assert loaded.descriptor == params.descriptor
        assert load_checkpoint(path).names == params.names

    def test_plain_save_has_no_trainer_counters(self, saved):
        _, path = saved
        assert read_checkpoint(path)[1] is None

    def test_single_file(self, saved, tmp_path):
        _, path = saved
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]

    def test_save_is_deterministic(self, saved, tmp_path):
        params, path = saved
        other = tmp_path / "again.ckpt"
        save_checkpoint(params, other)
        assert path.read_bytes() == other.read_bytes()


def _header_len(blob: bytes) -> int:
    """Bytes before the entry count: magic, version, length, header."""
    (header_len,) = struct.unpack("<I", blob[8:12])
    return 12 + header_len


def _assert_refused(tmp_path, blob: bytes, match: str) -> None:
    """Loading ``blob`` from a file raises CheckpointError naming the file."""
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match=match) as info:
        load_checkpoint(bad)
    assert str(bad) in str(info.value)


def _with_header(blob: bytes, header: bytes) -> bytes:
    rest = blob[_header_len(blob):]
    return blob[:8] + struct.pack("<I", len(header)) + header + rest


class TestCorruption:
    def test_bad_magic(self, saved, tmp_path):
        _, path = saved
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        _assert_refused(tmp_path, blob, "magic")

    def test_version_mismatch(self, saved, tmp_path):
        _, path = saved
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 99)
        _assert_refused(tmp_path, blob, "version 99 != 3")

    def test_version_one_file_refused(self, saved, tmp_path):
        # the sidecar-era layout: magic, version 1, entry count, entries
        _, path = saved
        blob = path.read_bytes()
        v1 = MAGIC + struct.pack("<I", 1) + blob[_header_len(blob):]
        _assert_refused(tmp_path, v1, "version 1 != 3")

    def test_version_two_file_refused(self, saved, tmp_path):
        # version 2: the bare descriptor where version 3 has the header
        _, path = saved
        v2 = bytearray(_with_header(path.read_bytes(), b'{"kind":"mlp","widths":[3,8,2]}'))
        v2[4:8] = struct.pack("<I", 2)
        _assert_refused(tmp_path, v2, "version 2 != 3")

    def test_truncated_in_descriptor(self, saved, tmp_path):
        _, path = saved
        blob = path.read_bytes()
        _assert_refused(tmp_path, blob[:_header_len(blob) - 3], "truncated")

    def test_truncated_weights(self, saved, tmp_path):
        _, path = saved
        blob = path.read_bytes()[:-16]
        _assert_refused(tmp_path, blob, "truncated")

    def test_trailing_bytes(self, saved, tmp_path):
        _, path = saved
        blob = path.read_bytes() + b"\0" * 3
        _assert_refused(tmp_path, blob, "3 trailing bytes")

    def test_huge_extents_read_as_truncated(self, saved, tmp_path):
        # one rank-4 entry of extents 2**32 - 1: its element count overflows
        # int64, so it must be computed exactly to be seen as out of range
        _, path = saved
        blob = path.read_bytes()
        entry = (struct.pack("<H", 2) + b"w0" + struct.pack("<B", 4)
                 + struct.pack("<4I", *[2**32 - 1] * 4))
        bad = blob[:_header_len(blob)] + struct.pack("<I", 1) + entry
        _assert_refused(tmp_path, bad, "truncated")

    def test_entry_name_not_utf8(self, saved, tmp_path):
        _, path = saved
        blob = bytearray(path.read_bytes())
        first_name = _header_len(blob) + 4 + 2  # after the count and name length
        assert blob[first_name:first_name + 2] == b"w0"
        blob[first_name] = 0xFF
        _assert_refused(tmp_path, blob, "UnicodeDecodeError")

    @pytest.mark.parametrize("header", [
        b"{not json",
        b"[]",
        b'{"kind":"mlp","widths":[3,8,2]}',
        b'{"model":[]}',
        b'{"model":{"widths":[3,8,2]}}',
        b'{"model":{"kind":"rnn","widths":[3,8,2]}}',
        b'{"model":{"kind":"mlp","widths":[3,9,2]}}',
    ])
    def test_malformed_descriptor_names_file(self, saved, tmp_path, header):
        _, path = saved
        bad = _with_header(path.read_bytes(), header)
        _assert_refused(tmp_path, bad, "malformed checkpoint")

    def test_duplicate_entry(self, saved, tmp_path):
        _, path = saved
        blob = path.read_bytes()
        start = _header_len(blob)
        (count,) = struct.unpack("<I", blob[start:start + 4])
        entries = blob[start + 4:]
        w0 = entries[:2 + 2 + 1 + 8 + 8 * 3 * 8]  # name len, name, rank, 2 extents, 3x8 values
        bad = blob[:start] + struct.pack("<I", count + 1) + w0 + entries
        _assert_refused(tmp_path, bad, "duplicate entry 'w0'")
