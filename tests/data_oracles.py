"""Test oracles: the data paths that ``atent`` replaced, kept to pin the new
ones byte for byte. Each converts or copies more than the package does:

- ``load_mnist_idx`` + ``subset_binary``: every IDX image becomes float64
  before two classes are picked, then the kept rows are gathered twice;
- ``synth_digits``: each digit is rendered alone by ``_render_digit``, its
  random draws made one parameter at a time, and the rendered rows are
  shuffled into a second copy;
- ``split_train_val``: train and val are two ``take`` copies of the pool.
"""
import numpy as np

from atent.data import _DIGIT_SEGMENTS, _SEGMENTS, Dataset, read_idx_pair
from atent.seeding import derive_rng
from atent.tensor import Tensor

TRAIN_VAL_SEED = 13
_GRID_Y, _GRID_X = np.mgrid[0:28, 0:28].astype(np.float64)


def load_mnist_idx(images_path, labels_path) -> Dataset:
    """An IDX pair as a 10-class dataset, every pixel float64, /255."""
    images, labels = read_idx_pair(images_path, labels_path)
    n, h, w = images.shape
    inputs = images.astype(np.float64).reshape(n, 1, h, w) / 255.0
    one_hot = np.zeros((n, 10))
    one_hot[np.arange(n), labels] = 1.0
    return Dataset(Tensor(inputs), Tensor(one_hot))


def subset_binary(ds: Dataset, class_a: int, class_b: int, cap_per_class: int,
                  seed: int = 0) -> Dataset:
    """Balanced two-class subset of a float64 dataset, relabeled to {0, 1},
    then seed-shuffled."""
    owners = ds.labels.data.argmax(axis=1)
    idx_a = np.flatnonzero(owners == class_a)
    idx_b = np.flatnonzero(owners == class_b)
    if idx_a.size == 0 or idx_b.size == 0:
        raise ValueError(f"classes {class_a}/{class_b} not both present")
    per = min(int(cap_per_class), idx_a.size, idx_b.size)
    keep = np.concatenate([idx_a[:per], idx_b[:per]])
    new_labels = np.zeros((keep.size, 2))
    new_labels[:per, 0] = 1.0
    new_labels[per:, 1] = 1.0
    order = derive_rng(seed, "subset-shuffle").permutation(keep.size)
    return Dataset(Tensor(ds.inputs.data[keep][order]), Tensor(new_labels[order]),
                   ds.value_range)


def _render_digit(digit: int, rng: np.random.Generator) -> np.ndarray:
    # centered and size-normalized like scanned-digit corpora; robustness
    # hinges on pixel-aligned stroke cores existing across instances
    cx = 13.5 + rng.uniform(-0.8, 0.8)
    cy = 13.5 + rng.uniform(-0.8, 0.8)
    sx = rng.uniform(11.5, 13.5)
    sy = rng.uniform(14.5, 16.5)
    shear = rng.uniform(-0.12, 0.12)
    thickness = rng.uniform(1.2, 1.8)
    img = np.zeros((28, 28))
    for name in _DIGIT_SEGMENTS[digit]:
        (u0, v0), (u1, v1) = _SEGMENTS[name]
        jit = rng.uniform(-0.3, 0.3, size=4)
        x0 = cx + sx * (u0 - 0.5) + shear * sy * (v0 - 0.5) + jit[0]
        y0 = cy + sy * (v0 - 0.5) + jit[1]
        x1 = cx + sx * (u1 - 0.5) + shear * sy * (v1 - 0.5) + jit[2]
        y1 = cy + sy * (v1 - 0.5) + jit[3]
        dx, dy = x1 - x0, y1 - y0
        norm_sq = dx * dx + dy * dy
        if norm_sq < 1e-12:
            continue
        t = ((_GRID_X - x0) * dx + (_GRID_Y - y0) * dy) / norm_sq
        t = np.clip(t, 0.0, 1.0)
        dist = np.hypot(_GRID_X - (x0 + t * dx), _GRID_Y - (y0 + t * dy))
        # near-binary strokes like scanned digits: saturated core, crisp edge
        img = np.maximum(img, np.clip(1.6 * np.exp(-0.5 * (dist / thickness) ** 2), 0, 1))
    img *= rng.uniform(0.9, 1.0)
    img += 0.05 * rng.standard_normal((28, 28))
    return np.clip(img, 0.0, 1.0)


def synth_digits(n_per_class: int, classes=(5, 8), seed: int = 0) -> Dataset:
    classes = list(classes)
    rng = derive_rng(seed, "synth-digits")
    n = n_per_class * len(classes)
    inputs = np.empty((n, 1, 28, 28))
    labels = np.zeros((n, len(classes)))
    i = 0
    for ci, digit in enumerate(classes):
        for _ in range(n_per_class):
            inputs[i, 0] = _render_digit(digit, rng)
            labels[i, ci] = 1.0
            i += 1
    order = rng.permutation(n)
    return Dataset(Tensor(inputs[order]), Tensor(labels[order]))


def split_train_val(ds: Dataset, val_fraction: float = 0.1,
                    seed: int = TRAIN_VAL_SEED) -> tuple[Dataset, Dataset]:
    order = derive_rng(seed, "train-val-split").permutation(ds.n)
    n_val = int(round(val_fraction * ds.n))
    return ds.take(order[n_val:]), ds.take(order[:n_val])
