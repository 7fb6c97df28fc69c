"""Dataset ingestion and synthesis.

IDX files (big-endian, magics 0x00000803 / 0x00000801, optionally gzipped)
are read as uint8, an uncompressed file through a memory map; a two-class
subset picks its rows there and copies and converts only those to float64
pixels scaled to [0, 1] by /255 — attack radii are stated in raw pixel
units, so no mean/std normalization is applied.

Two synthetic tasks cover desk-scale work without external downloads:
2-D Gaussian blobs, and rendered stroke digits (seven-segment glyphs with
random affine jitter, blur-ish edges and pixel noise) that stand in for
MNIST-style images when no IDX corpus is on disk. Digits are rendered a
block of ``_RENDER_BLOCK`` instances of one class at a time: each instance
draws its random numbers in the order it would alone, then each segment's
stroke is computed for the whole block in one vectorized pass. The pixels
equal, bit for bit, those of the per-digit renderer, which the tests keep as
the oracle (``tests/data_oracles.py``).

``synth_digits`` and ``subset_binary`` return a ``Dataset`` that owns the
one float64 buffer of its rows: ``synth_digits`` shuffles its rendered rows
in place (``permute_rows``), and ``subset_binary`` converts only the rows it
keeps.
"""
from __future__ import annotations

import copy
import gzip
import mmap
import os
import struct
from dataclasses import dataclass

import numpy as np

from .models import Batch, _validate_one_hot
from .seeding import derive_rng
from .tensor import Tensor, _unchecked

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """Malformed IDX file: bad magic, truncation, or count mismatch."""


@dataclass
class Dataset:
    """Inputs in [0, 1], one-hot labels, immutable after construction; both
    are checked once, here."""

    inputs: Tensor
    labels: Tensor
    value_range: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        if not isinstance(self.inputs, Tensor):
            self.inputs = Tensor(self.inputs)
        if not isinstance(self.labels, Tensor):
            self.labels = Tensor(self.labels)
        if self.inputs.shape[0] != self.labels.shape[0]:
            raise ValueError("inputs and labels disagree on sample count")
        _validate_one_hot(self.labels.data)
        lo, hi = self.value_range
        if self.inputs.size and (self.inputs.data.min() < lo or self.inputs.data.max() > hi):
            raise ValueError(f"input values leave the declared range [{lo}, {hi}]")

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def n_classes(self) -> int:
        return self.labels.shape[1]

    def take(self, indices) -> "Dataset":
        idx = np.asarray(indices)
        return Dataset(Tensor(self.inputs.data[idx]), Tensor(self.labels.data[idx]),
                       self.value_range)

    def as_batch(self) -> Batch:
        return Batch(self.inputs, self.labels, self.value_range)


# ---------------------------------------------------------------------------
# IDX files


def _idx_bytes(path):
    """The bytes of IDX file ``path``: a read-only memory map of an
    uncompressed file, so that only the pages of the rows a caller copies
    out are read, or the decompressed bytes of a gzipped one."""
    with open(path, "rb") as f:
        if f.read(2) == b"\x1f\x8b":
            f.seek(0)
            return gzip.decompress(f.read())
        if not os.fstat(f.fileno()).st_size:  # mmap refuses an empty file
            return b""
        return mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)


def _parse_idx_images(raw, path) -> np.ndarray:
    if len(raw) < 16:
        raise IdxFormatError(f"{path}: truncated header")
    magic, count, rows, cols = struct.unpack(">iiii", raw[:16])
    if magic != IMAGE_MAGIC:
        raise IdxFormatError(f"{path}: bad image magic 0x{magic:08x}")
    expected = 16 + count * rows * cols
    if len(raw) != expected:
        raise IdxFormatError(f"{path}: expected {expected} bytes, found {len(raw)}")
    return np.frombuffer(raw, dtype=np.uint8, offset=16).reshape(count, rows, cols)


def _parse_idx_labels(raw, path) -> np.ndarray:
    if len(raw) < 8:
        raise IdxFormatError(f"{path}: truncated header")
    magic, count = struct.unpack(">ii", raw[:8])
    if magic != LABEL_MAGIC:
        raise IdxFormatError(f"{path}: bad label magic 0x{magic:08x}")
    if len(raw) != 8 + count:
        raise IdxFormatError(f"{path}: expected {8 + count} bytes, found {len(raw)}")
    return np.frombuffer(raw, dtype=np.uint8, offset=8)


def read_idx_pair(images_path, labels_path) -> tuple[np.ndarray, np.ndarray]:
    """The (n, h, w) uint8 images and (n,) uint8 labels of an IDX pair, as
    read-only views of the files' bytes (:func:`_idx_bytes`)."""
    images = _parse_idx_images(_idx_bytes(images_path), images_path)
    labels = _parse_idx_labels(_idx_bytes(labels_path), labels_path)
    if images.shape[0] != labels.shape[0]:
        raise IdxFormatError(
            f"count mismatch: {images.shape[0]} images vs {labels.shape[0]} labels"
        )
    return images, labels


# ---------------------------------------------------------------------------
# Subsetting / reordering / batching


def subset_binary(images: np.ndarray, digits: np.ndarray, class_a: int, class_b: int,
                  cap_per_class: int, seed: int = 0) -> Dataset:
    """Balanced two-class subset of uint8 ``images`` labeled ``digits``,
    relabeled to {0, 1} and seed-shuffled. Only the kept rows become float64
    pixels, /255."""
    idx_a = np.flatnonzero(digits == class_a)
    idx_b = np.flatnonzero(digits == class_b)
    if idx_a.size == 0 or idx_b.size == 0:
        raise ValueError(f"classes {class_a}/{class_b} not both present")
    per = min(int(cap_per_class), idx_a.size, idx_b.size)
    keep = np.concatenate([idx_a[:per], idx_b[:per]])
    new_labels = np.zeros((keep.size, 2))
    new_labels[:per, 0] = 1.0
    new_labels[per:, 1] = 1.0
    order = derive_rng(seed, "subset-shuffle").permutation(keep.size)
    inputs = images[keep[order]].astype(np.float64)
    inputs /= 255.0
    return Dataset(Tensor(inputs.reshape(keep.size, 1, *images.shape[1:])),
                   Tensor(new_labels[order]))


def synth_two_gaussians(n: int, separation: float, seed: int) -> Dataset:
    """Two 2-D unit-variance blobs offset by +/- separation/2 along axis 1,
    min-max scaled into [0, 1]^2."""
    if n % 2 != 0:
        raise ValueError("n must be even")
    rng = derive_rng(seed, "two-gaussians")
    half = n // 2
    pts = rng.standard_normal((n, 2))
    pts[:half, 1] -= separation / 2.0
    pts[half:, 1] += separation / 2.0
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    pts = (pts - lo) / span
    labels = np.zeros((n, 2))
    labels[:half, 0] = 1.0
    labels[half:, 1] = 1.0
    order = rng.permutation(n)
    return Dataset(Tensor(pts[order]), Tensor(labels[order]))


def permute_rows(order: np.ndarray, *arrays: np.ndarray) -> None:
    """Reorder the rows of each of ``arrays`` in place into ``array[order]``,
    one cycle of ``order`` at a time, holding one row of each aside."""
    order = order.tolist()
    done = bytearray(len(order))
    for start, first in enumerate(order):
        if done[start] or first == start:
            continue
        held = [a[start].copy() for a in arrays]
        at, src = start, first
        while src != start:
            for a in arrays:
                a[at] = a[src]
            done[at] = 1
            at, src = src, order[src]
        for a, row in zip(arrays, held):
            a[at] = row
        done[at] = 1


def batch_iter(ds: Dataset, batch_size: int, seed: int, epoch: int):
    """Seeded per-epoch shuffle; the last short batch is kept.

    Each batch is a copy of the whole-set batch holding the rows of the
    dataset's checked tensors, so neither its values nor its one-hot labels
    are checked again."""
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    order = derive_rng(seed, "shuffle", epoch).permutation(ds.n)
    whole = ds.as_batch()
    for start in range(0, ds.n, batch_size):
        idx = order[start:start + batch_size]
        batch = copy.copy(whole)
        batch.inputs = _unchecked(ds.inputs.data[idx])
        batch.labels = _unchecked(ds.labels.data[idx])
        yield batch


# ---------------------------------------------------------------------------
# Rendered stroke digits

# seven-segment endpoints in a unit box, y growing downward
_SEGMENTS = {
    "A": ((0.0, 0.0), (1.0, 0.0)),
    "B": ((1.0, 0.0), (1.0, 0.5)),
    "C": ((1.0, 0.5), (1.0, 1.0)),
    "D": ((0.0, 1.0), (1.0, 1.0)),
    "E": ((0.0, 0.5), (0.0, 1.0)),
    "F": ((0.0, 0.0), (0.0, 0.5)),
    "G": ((0.0, 0.5), (1.0, 0.5)),
}

_DIGIT_SEGMENTS = {
    0: "ABCDEF",
    1: "BC",
    2: "ABGED",
    3: "ABGCD",
    4: "FGBC",
    5: "AFGCD",
    6: "AFGECD",
    7: "ABC",
    8: "ABCDEFG",
    9: "ABCDFG",
}

# pixel coordinates as a row (x) and a column (y), which broadcast to the grid
_GRID_X = np.arange(28.0)
_GRID_Y = _GRID_X[:, None]

# the parameters each digit draws, in draw order, as uniform [low, high)
# ranges: centre offsets, scale, shear and stroke thickness, then four
# endpoint jitters per segment, then the ink scale
_POSE_RANGES = ((-0.8, 0.8), (-0.8, 0.8), (11.5, 13.5), (14.5, 16.5), (-0.12, 0.12), (1.2, 1.8))
_JITTER_RANGE = (-0.3, 0.3)
_INK_RANGE = (0.9, 1.0)
# digits rendered together; each scratch array of a block is 16 x 784 floats
_RENDER_BLOCK = 16


def _render_block(digit: int, rng: np.random.Generator, out: np.ndarray) -> None:
    """Render ``len(out)`` instances of ``digit`` into ``out``, a
    (count, 28, 28) float64 array.

    Each instance draws from ``rng`` what it would draw alone, in the same
    order: its pose, jitter and ink uniforms, then its 28x28 pixel noise. A
    uniform on [low, high) is ``low + (high - low) * u``, as
    ``Generator.uniform`` computes it. Each segment's stroke is then computed
    for the whole block at once, with (count, 1, 1) parameters against the
    pixel grid, in the elementwise order of one instance alone; so the
    pixels equal those of rendering one digit at a time, bit for bit."""
    names = _DIGIT_SEGMENTS[digit]
    ranges = np.array(_POSE_RANGES + (_JITTER_RANGE,) * (4 * len(names)) + (_INK_RANGE,))
    count = out.shape[0]
    u = np.empty((count, len(ranges)))
    noise = np.empty((count, 28, 28))
    for i in range(count):
        rng.random(out=u[i])
        rng.standard_normal(out=noise[i])
    low, high = ranges.T
    params = (low + (high - low) * u)[:, :, None, None]
    # centered and size-normalized like scanned-digit corpora; robustness
    # hinges on pixel-aligned stroke cores existing across instances
    cx, cy = 13.5 + params[:, 0], 13.5 + params[:, 1]
    sx, sy, shear, thickness = params[:, 2], params[:, 3], params[:, 4], params[:, 5]
    out[:] = 0.0
    for s, name in enumerate(names):
        (u0, v0), (u1, v1) = _SEGMENTS[name]
        jit = params[:, 6 + 4 * s:10 + 4 * s]
        x0 = cx + sx * (u0 - 0.5) + shear * sy * (v0 - 0.5) + jit[:, 0]
        y0 = cy + sy * (v0 - 0.5) + jit[:, 1]
        x1 = cx + sx * (u1 - 0.5) + shear * sy * (v1 - 0.5) + jit[:, 2]
        y1 = cy + sy * (v1 - 0.5) + jit[:, 3]
        dx, dy = x1 - x0, y1 - y0
        # never near 0: a vertical segment spans at least sy/2 - 0.6 >= 6.65
        # px (sy >= 14.5, each end jitters at most 0.3), a horizontal one at
        # least sx - 0.6 >= 10.9 px, so norm_sq >= 44
        norm_sq = dx * dx + dy * dy
        t = ((_GRID_X - x0) * dx + (_GRID_Y - y0) * dy) / norm_sq
        np.clip(t, 0.0, 1.0, out=t)
        dist = np.hypot(_GRID_X - (x0 + t * dx), _GRID_Y - (y0 + t * dy))
        # near-binary strokes like scanned digits: saturated core, crisp edge
        np.maximum(out, np.clip(1.6 * np.exp(-0.5 * (dist / thickness) ** 2), 0, 1), out=out)
    out *= params[:, -1]
    noise *= 0.05
    out += noise
    np.clip(out, 0.0, 1.0, out=out)


def synth_digits(n_per_class: int, classes=(5, 8), seed: int = 0) -> Dataset:
    """Deterministic 28x28 stroke-digit corpus, one-hot over ``classes``."""
    classes = list(classes)
    rng = derive_rng(seed, "synth-digits")
    n = n_per_class * len(classes)
    inputs = np.empty((n, 1, 28, 28))
    labels = np.zeros((n, len(classes)))
    for ci, digit in enumerate(classes):
        rows = slice(ci * n_per_class, (ci + 1) * n_per_class)
        for start in range(rows.start, rows.stop, _RENDER_BLOCK):
            _render_block(digit, rng, inputs[start:min(start + _RENDER_BLOCK, rows.stop), 0])
        labels[rows, ci] = 1.0
    permute_rows(rng.permutation(n), inputs, labels)
    return Dataset(Tensor(inputs), Tensor(labels))
