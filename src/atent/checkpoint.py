"""Bit-exact model persistence.

Binary layout (little-endian): magic ``ATNT``, version u32 = 1, entry count
u32, then per entry: name length u16, name bytes (utf-8), rank u8, extents
u32 x rank, values f64 x prod(extents). A JSON manifest sidecar at
``<path>.manifest.json`` records the architecture descriptor and entry
shapes; load validates the weights against it.

Every file is written atomically: to ``<file>.tmp``, fsynced, then moved
over the old one with ``os.replace``. The directory is not fsynced after
the rename (out of scope so far), so a crash of the machine, not of the
process, can still lose a rename. :func:`save_checkpoint` always writes
the weights but leaves a sidecar alone whose bytes already match; the
descriptor and shapes of a model never change during training, so within
a run each sidecar is written at most once. A training epoch (see
``experiment.train_with_persistence``) thus writes ``last.ckpt`` and
``trainer_state.json``, plus ``best.ckpt`` when the epoch improved the
tracked metric or is the first of its process.
"""
from __future__ import annotations

import json
import os
import struct

import numpy as np

from .models import ModelParams, expected_shapes
from .tensor import Tensor

MAGIC = b"ATNT"
VERSION = 1


class CheckpointError(ValueError):
    """Corrupt or inconsistent checkpoint."""


def manifest_path(path) -> str:
    return f"{path}.manifest.json"


def atomic_write_bytes(path, blob: bytes) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as f:
        f.write(blob)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def save_checkpoint(params: ModelParams, path) -> None:
    parts = [MAGIC, struct.pack("<II", VERSION, len(params.weights))]
    entries = []
    for name, t in params.weights.items():
        encoded = name.encode("utf-8")
        shape = t.shape
        parts.append(struct.pack("<H", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<B", len(shape)))
        parts.append(struct.pack(f"<{len(shape)}I", *shape))
        parts.append(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
        entries.append({"name": name, "shape": list(shape)})
    manifest = {
        "format": "atnt-checkpoint",
        "version": VERSION,
        "descriptor": _jsonable(params.descriptor),
        "entries": entries,
    }
    atomic_write_bytes(path, b"".join(parts))
    mpath = manifest_path(path)
    encoded = json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8")
    try:
        with open(mpath, "rb") as f:
            unchanged = f.read() == encoded
    except FileNotFoundError:
        unchanged = False
    if not unchanged:
        atomic_write_bytes(mpath, encoded)


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


def _read_manifest(mpath) -> tuple[dict, dict[str, tuple]]:
    """Architecture descriptor and declared entry shapes of the sidecar
    ``mpath``. A sidecar that is missing, is not JSON, or whose structure
    is not a manifest's (including a descriptor whose shapes disagree with
    the entries) raises :class:`CheckpointError` naming it."""
    try:
        with open(mpath, "r", encoding="utf-8") as f:
            manifest = json.load(f)
    except FileNotFoundError:
        raise CheckpointError(f"missing manifest sidecar {mpath}")
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{mpath}: invalid JSON ({exc})")
    if not isinstance(manifest, dict):
        raise CheckpointError(f"{mpath}: manifest is not a JSON object")
    if manifest.get("version") != VERSION:
        raise CheckpointError(f"{mpath}: manifest version {manifest.get('version')} != {VERSION}")
    try:
        declared = {e["name"]: tuple(e["shape"]) for e in manifest["entries"]}
        descriptor = _descriptor_from_manifest(manifest["descriptor"])
        expected = expected_shapes(descriptor)
    except (KeyError, TypeError, ValueError) as exc:  # ValueError includes TensorError
        raise CheckpointError(f"{mpath}: malformed manifest ({type(exc).__name__}: {exc})")
    if expected != declared:
        raise CheckpointError(f"{mpath}: descriptor shapes {expected} != entry shapes {declared}")
    return descriptor, declared


def load_checkpoint(path) -> ModelParams:
    descriptor, declared = _read_manifest(manifest_path(path))
    with open(path, "rb") as f:
        reader = _Reader(f.read(), path)
    if reader.take(4) != MAGIC:
        raise CheckpointError(f"{path}: bad magic")
    version, count = reader.unpack("<II")
    if version != VERSION:
        raise CheckpointError(f"{path}: version {version} != {VERSION}")
    if count != len(declared):
        raise CheckpointError(
            f"{path}: {count} entries in weights vs {len(declared)} in manifest"
        )
    weights = []
    for _ in range(count):
        (name_len,) = reader.unpack("<H")
        name = reader.take(name_len).decode("utf-8")
        (rank,) = reader.unpack("<B")
        shape = reader.unpack(f"<{rank}I") if rank else ()
        if name not in declared:
            raise CheckpointError(f"{path}: entry {name!r} absent from manifest")
        if tuple(shape) != declared[name]:
            raise CheckpointError(
                f"{path}: entry {name!r} shape {tuple(shape)} != manifest {declared[name]}"
            )
        n_vals = int(np.prod(shape)) if shape else 1
        values = np.frombuffer(reader.take(8 * n_vals), dtype="<f8").reshape(shape)
        weights.append((name, Tensor(values.astype(np.float64))))
    if reader.pos != len(reader.blob):
        raise CheckpointError(f"{path}: {len(reader.blob) - reader.pos} trailing bytes")
    return ModelParams(descriptor, weights)


def _jsonable(descriptor: dict) -> dict:
    out = {}
    for k, v in descriptor.items():
        out[k] = list(v) if isinstance(v, tuple) else v
    return out


def _descriptor_from_manifest(d: dict) -> dict:
    out = dict(d)
    if "in_shape" in out:
        out["in_shape"] = tuple(out["in_shape"])
    return out
