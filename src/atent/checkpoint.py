"""Bit-exact model persistence in one self-describing file.

Binary layout (little-endian): magic ``ATNT``, version u32 = 3, header
length u32, the header as compact JSON with sorted keys (utf-8), entry
count u32, then per entry: name length u16, name bytes (utf-8), rank u8,
extents u32 x rank, values f64 x prod(extents). The header holds the
architecture descriptor under ``model`` and, in a training run's
``last.ckpt``, the trainer's counters under ``trainer`` (see
``experiment.train_with_persistence``). Load rebuilds the model from the
descriptor, which rejects weights whose names or shapes disagree with it;
any failure to decode or validate a file raises :class:`CheckpointError`
naming it. A file of any other version is refused.

Every file is written atomically: to ``<file>.tmp``, fsynced, then moved
over the old one with ``os.replace``, so weights and the counters beside
them commit together. Out of scope: the directory is not fsynced after the
rename, so a crash of the machine, not of the process, can still lose a
rename or data that was written but not fsynced.
"""
from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from .models import ModelParams
from .tensor import Tensor

MAGIC = b"ATNT"
VERSION = 3


class CheckpointError(ValueError):
    """Corrupt or inconsistent checkpoint."""


def atomic_write_bytes(path, blob: bytes) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as f:
        f.write(blob)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def checkpoint_bytes(params: ModelParams, trainer: dict | None = None) -> bytes:
    """The file's bytes; ``trainer``, when given, rides in the header."""
    tree = {"model": params.descriptor}
    if trainer is not None:
        tree["trainer"] = trainer
    header = json.dumps(tree, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts = [MAGIC, struct.pack("<II", VERSION, len(header)), header,
             struct.pack("<I", len(params.weights))]
    for name, t in params.weights.items():
        encoded = name.encode("utf-8")
        shape = t.shape
        parts.append(struct.pack("<H", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<B", len(shape)))
        parts.append(struct.pack(f"<{len(shape)}I", *shape))
        parts.append(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
    return b"".join(parts)


def save_checkpoint(params: ModelParams, path) -> None:
    atomic_write_bytes(path, checkpoint_bytes(params))


class _Reader:
    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointError(f"{self.path}: truncated checkpoint")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_checkpoint(path) -> ModelParams:
    return read_checkpoint(path)[0]


def read_checkpoint(path) -> tuple[ModelParams, object]:
    """The stored model and the header's ``trainer`` entry (None if absent)."""
    with open(path, "rb") as f:
        reader = _Reader(f.read(), path)
    try:
        if reader.take(4) != MAGIC:
            raise CheckpointError(f"{path}: bad magic")
        version, header_len = reader.unpack("<II")
        if version != VERSION:
            raise CheckpointError(f"{path}: version {version} != {VERSION}")
        header = json.loads(reader.take(header_len).decode("utf-8"))
        descriptor = header["model"]
        if "in_shape" in descriptor:
            descriptor["in_shape"] = tuple(descriptor["in_shape"])
        (count,) = reader.unpack("<I")
        weights = {}
        for _ in range(count):
            (name_len,) = reader.unpack("<H")
            name = reader.take(name_len).decode("utf-8")
            (rank,) = reader.unpack("<B")
            shape = reader.unpack(f"<{rank}I")
            if name in weights:
                raise CheckpointError(f"{path}: duplicate entry {name!r}")
            values = np.frombuffer(reader.take(8 * math.prod(shape)), dtype="<f8")
            weights[name] = Tensor(values.reshape(shape).astype(np.float64))
        if reader.pos != len(reader.blob):
            raise CheckpointError(f"{path}: {len(reader.blob) - reader.pos} trailing bytes")
        return ModelParams(descriptor, list(weights.items())), header.get("trainer")
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError) as exc:  # includes TensorError and JSON/UTF-8 decoding
        raise CheckpointError(f"{path}: malformed checkpoint ({type(exc).__name__}: {exc})") from exc
