"""Checkpoint binary format: round trips and corruption detection."""
import json
import re
import struct

import numpy as np
import pytest

from atent.checkpoint import (
    MAGIC,
    CheckpointError,
    load_checkpoint,
    manifest_path,
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
        version, count = struct.unpack("<II", blob[4:12])
        assert version == 1 and count == 4  # w0, b0, w1, b1

    def test_save_is_deterministic(self, saved, tmp_path):
        params, path = saved
        other = tmp_path / "again.ckpt"
        save_checkpoint(params, other)
        assert path.read_bytes() == other.read_bytes()


class TestCorruption:
    def test_bad_magic(self, saved, tmp_path):
        _, path = saved
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(blob))
        (tmp_path / "bad.ckpt.manifest.json").write_text(open(manifest_path(path)).read())
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(bad)

    def test_version_mismatch(self, saved, tmp_path):
        _, path = saved
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 99)
        bad = tmp_path / "v.ckpt"
        bad.write_bytes(bytes(blob))
        (tmp_path / "v.ckpt.manifest.json").write_text(open(manifest_path(path)).read())
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(bad)

    def test_manifest_shape_mismatch(self, saved):
        _, path = saved
        mpath = manifest_path(path)
        manifest = json.loads(open(mpath).read())
        manifest["entries"][0]["shape"] = [7, 7]
        open(mpath, "w").write(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="shape"):
            load_checkpoint(path)

    def test_truncated_weights(self, saved, tmp_path):
        _, path = saved
        blob = path.read_bytes()[:-16]
        bad = tmp_path / "t.ckpt"
        bad.write_bytes(blob)
        (tmp_path / "t.ckpt.manifest.json").write_text(open(manifest_path(path)).read())
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(bad)

    def test_missing_manifest(self, saved, tmp_path):
        _, path = saved
        orphan = tmp_path / "orphan.ckpt"
        orphan.write_bytes(path.read_bytes())
        with pytest.raises(CheckpointError, match="manifest"):
            load_checkpoint(orphan)


    @pytest.mark.parametrize("case", ["json_list", "no_entries", "no_descriptor",
                                      "entry_without_shape", "unknown_kind",
                                      "descriptor_disagrees_with_weights"])
    def test_malformed_manifest_names_it(self, saved, case):
        # each parses as JSON but is not a manifest of these weights
        _, path = saved
        mpath = manifest_path(path)
        manifest = json.loads(open(mpath).read())
        if case == "json_list":
            manifest = [manifest]
        elif case == "no_entries":
            del manifest["entries"]
        elif case == "no_descriptor":
            del manifest["descriptor"]
        elif case == "entry_without_shape":
            del manifest["entries"][0]["shape"]
        elif case == "unknown_kind":
            manifest["descriptor"]["kind"] = "rnn"
        else:
            manifest["descriptor"]["widths"] = [3, 9, 2]
        open(mpath, "w").write(json.dumps(manifest))
        with pytest.raises(CheckpointError, match=re.escape(mpath)):
            load_checkpoint(path)
