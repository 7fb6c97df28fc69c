"""Randomized-smoothing inference: majority vote over Gaussian input noise.

Noise is added to the inputs before the forward pass. Certification is out
of scope; the optional abstain margin is a plain vote-share threshold, not
a hypothesis test.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import ModelParams, predict
from .seeding import derive_rng

ABSTAIN = -1
# Noisy copies per forward batch in vote_counts.
VOTE_CHUNK = 2048


@dataclass
class SmoothingConfig:
    sigma: float
    n_samples: int = 1000
    abstain_margin: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        if not 0.0 <= self.abstain_margin < 0.5:
            raise ValueError("abstain_margin must lie in [0, 0.5)")


def vote_counts(params: ModelParams, x: np.ndarray, cfg: SmoothingConfig,
                rng: np.random.Generator, n_classes: int) -> np.ndarray:
    """Per-class prediction counts over cfg.n_samples noisy copies of one
    input; counts always sum to exactly n_samples."""
    x = np.asarray(x, dtype=np.float64)
    counts = np.zeros(n_classes, dtype=np.int64)
    remaining = cfg.n_samples
    while remaining > 0:
        m = min(VOTE_CHUNK, remaining)
        remaining -= m
        if cfg.sigma > 0:
            noisy = np.empty((m, *x.shape))
            rng.standard_normal(out=noisy)
            noisy *= cfg.sigma
            noisy += x
        else:
            noisy = np.broadcast_to(x, (m, *x.shape)).copy()
        counts += np.bincount(predict(params, noisy), minlength=n_classes)
    return counts


def smooth_predict(params: ModelParams, x: np.ndarray, cfg: SmoothingConfig,
                   n_classes: int | None = None, stream: int = 0) -> int:
    """Majority-vote class, or ABSTAIN when the top vote share falls below
    0.5 + abstain_margin. Ties break to the lowest class index."""
    if n_classes is None:
        n_classes = _output_classes(params)
    rng = derive_rng(cfg.seed, "smoothing", stream)
    counts = vote_counts(params, x, cfg, rng, n_classes)
    top = int(counts.argmax())
    if counts[top] / cfg.n_samples < 0.5 + cfg.abstain_margin:
        return ABSTAIN
    return top


def smooth_accuracy(params: ModelParams, dataset, cfg: SmoothingConfig,
                    count_abstain_as_error: bool = True) -> float:
    """Fraction of correct smoothed predictions; abstentions either count
    as errors or are dropped from the denominator."""
    n_classes = dataset.n_classes
    truths = dataset.labels.data.argmax(axis=1)
    correct = 0
    decided = 0
    for i in range(dataset.n):
        pred = smooth_predict(params, dataset.inputs.data[i], cfg,
                              n_classes=n_classes, stream=i)
        if pred == ABSTAIN:
            continue
        decided += 1
        correct += int(pred == truths[i])
    denom = dataset.n if count_abstain_as_error else max(decided, 1)
    return correct / denom


def _output_classes(params: ModelParams) -> int:
    d = params.descriptor
    return d["widths"][-1] if d["kind"] == "mlp" else d["fc_widths"][-1]
