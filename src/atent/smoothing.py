"""Randomized-smoothing inference: majority vote over Gaussian input noise.

Noise is added to the inputs before the forward pass. Certification is out
of scope; the optional abstain margin is a plain vote-share threshold, not
a hypothesis test, and ``smooth_accuracy`` counts an abstention as an
error.

``smooth_predict`` casts its ``n_samples`` votes in chunks of
``VOTE_CHUNK`` and stops after the first chunk past which no way of
casting the remaining votes can change the outcome: the leader can no
longer be overtaken and already holds its vote share, or no class can
still reach the share. The noise is one stream drawn in order, so the
answer equals the answer from counting all ``n_samples`` votes.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .models import ModelParams, predict
from .seeding import derive_rng

ABSTAIN = -1
# The votes in one forward batch of noisy copies, and between two looks at
# smooth_predict's stop rule. It bounds the memory of the noisy copies and
# of their (n, flat) CNN features; the conv blocks take any batch in spans
# of models._FORWARD_SPAN samples. The chunk decides whether these buffers
# fall into the allocator's refault trap (ROADMAP P1). Median minor faults
# per cnn_attack_eval unit (PGD and the ATENT attack on 20 examples, then one
# example smoothed with 1000 votes), read with getrusage around each unit of
# 12 s benchmark runs at seeds 2, 7 and 11: 0 at 128, 3.7k-4.9k at 256 and
# 3.9k at 512. A vote runs at most VOTE_CHUNK - 1 votes past the first vote
# that decides it.
VOTE_CHUNK = 128


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
                   n_classes: int, stream: int = 0) -> int:
    """Majority-vote class among ``n_classes``, or ABSTAIN when the top vote
    share falls below 0.5 + abstain_margin. Ties break to the lowest class
    index.

    Votes are cast in chunks of VOTE_CHUNK, each one vote_counts call; only
    the last chunk may be short. With r votes left after a chunk, the
    lowest-index leader L wins once counts[L] / n_samples already reaches
    the share and every rival j has counts[j] + r < counts[L] (or
    == counts[L] with j > L); ABSTAIN is returned once
    (counts[j] + r) / n_samples falls below the share for every j. The
    answer equals the answer from counting all n_samples votes."""
    rng = derive_rng(cfg.seed, "smoothing", stream)
    counts = np.zeros(n_classes, dtype=np.int64)
    remaining = cfg.n_samples
    while True:
        m = min(VOTE_CHUNK, remaining)
        remaining -= m
        counts += vote_counts(params, x, replace(cfg, n_samples=m), rng, n_classes)
        outcome = _vote_outcome(counts, remaining, cfg)
        if outcome is not None:
            return outcome


def _vote_outcome(counts: np.ndarray, remaining: int, cfg: SmoothingConfig) -> int | None:
    """The vote's outcome if no casting of the ``remaining`` votes can
    change it, else None; with none remaining it always decides."""
    share = 0.5 + cfg.abstain_margin
    top = int(counts.argmax())
    lead = counts[top]
    if lead / cfg.n_samples >= share:
        safe = ((counts[:top] + remaining < lead).all()
                and (counts[top + 1:] + remaining <= lead).all())
        return top if safe else None
    if ((counts + remaining) / cfg.n_samples < share).all():
        return ABSTAIN
    return None


def smooth_accuracy(params: ModelParams, dataset, cfg: SmoothingConfig) -> float:
    """Fraction of correct smoothed predictions over all of ``dataset``; an
    abstention counts as an error."""
    n_classes = dataset.n_classes
    truths = dataset.labels.data.argmax(axis=1)
    correct = 0
    for i in range(dataset.n):
        pred = smooth_predict(params, dataset.inputs.data[i], cfg,
                              n_classes=n_classes, stream=i)
        correct += int(pred == truths[i])
    return correct / dataset.n
