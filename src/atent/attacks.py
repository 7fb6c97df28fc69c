"""Evaluation-time adversaries and robust-accuracy measurement.

All attacks return perturbed inputs inside the configured l-p ball; when the
batch carries a value range (image data) the result is also clipped back
into it after every projection. Multi-restart attacks keep, per sample, the
restart with the highest final loss.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .models import Batch, ModelParams, loss_and_grads, per_sample_losses, predict
from .sampler import L2, LINF, GibbsSamplerConfig, _clip_range, run_chain
from .seeding import derive_rng

FGSM = "fgsm"
PGD = "pgd"
ATENT_ATTACK = "atent"


@dataclass
class AttackConfig:
    radius: float
    kind: str = PGD
    norm: str = LINF
    steps: int = 1
    step_size: float = 0.0
    restarts: int = 1
    random_start: bool = False
    seed: int = 0
    sampler: GibbsSamplerConfig | None = None  # for kind == "atent"

    def __post_init__(self):
        if self.kind not in (FGSM, PGD, ATENT_ATTACK):
            raise ValueError(f"unknown attack kind {self.kind!r}")
        if self.norm not in (L2, LINF):
            raise ValueError(f"norm must be '{L2}' or '{LINF}'")
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.kind == FGSM and self.norm != LINF:
            raise ValueError("fgsm is an l-inf attack")
        if self.kind == PGD:
            if self.steps < 1:
                raise ValueError("pgd needs at least one step")
            if self.step_size <= 0:
                raise ValueError("pgd step_size must be positive")
        if self.kind == ATENT_ATTACK and self.sampler is None:
            raise ValueError("atent attack needs a sampler config")


def _flat_rows(x: np.ndarray) -> np.ndarray:
    return x.reshape(x.shape[0], -1)


def _project(x_adv: np.ndarray, x: np.ndarray, norm: str, radius: float) -> np.ndarray:
    delta = x_adv - x
    if norm == LINF:
        return x + np.clip(delta, -radius, radius)
    rows = _flat_rows(delta)
    norms = np.linalg.norm(rows, axis=1)
    factor = np.ones_like(norms)
    over = norms > radius
    factor[over] = radius / norms[over]
    return x + (rows * factor[:, None]).reshape(delta.shape)


def _random_start(x: np.ndarray, norm: str, radius: float, rng: np.random.Generator) -> np.ndarray:
    if radius == 0.0:
        return x.copy()
    if norm == LINF:
        return x + rng.uniform(-radius, radius, size=x.shape)
    # uniform in the l2 ball: gaussian direction, radius ~ eps * U^(1/d)
    g = rng.standard_normal(x.shape)
    rows = _flat_rows(g)
    d = rows.shape[1]
    unit = rows / np.maximum(np.linalg.norm(rows, axis=1, keepdims=True), 1e-30)
    r = radius * rng.random(x.shape[0]) ** (1.0 / d)
    return x + (unit * r[:, None]).reshape(x.shape)


def _pgd_single(params, batch, cfg: AttackConfig, rng) -> np.ndarray:
    x = batch.inputs.data
    x_adv = _random_start(x, cfg.norm, cfg.radius, rng) if cfg.random_start else x.copy()
    x_adv = _clip_range(_project(x_adv, x, cfg.norm, cfg.radius), batch)
    for _ in range(cfg.steps):
        _, _, g = loss_and_grads(params, batch.with_inputs(x_adv), wrt="inputs")
        if cfg.norm == LINF:
            x_adv = x_adv + cfg.step_size * np.sign(g)
        else:
            rows = _flat_rows(g)
            unit = rows / np.maximum(np.linalg.norm(rows, axis=1, keepdims=True), 1e-30)
            x_adv = x_adv + cfg.step_size * unit.reshape(g.shape)
        x_adv = _clip_range(_project(x_adv, x, cfg.norm, cfg.radius), batch)
    return x_adv


def pgd_attack(params: ModelParams, batch: Batch, cfg: AttackConfig,
               stream: int = 0) -> np.ndarray:
    """Iterated projected ascent with optional random starts; with several
    restarts the per-sample worst (max final loss) one is returned."""
    if cfg.restarts == 1:
        rng = derive_rng(cfg.seed, "pgd", stream, 0)
        return _pgd_single(params, batch, cfg, rng)
    best = None
    best_loss = np.full(batch.n, -np.inf)
    for r in range(cfg.restarts):
        rng = derive_rng(cfg.seed, "pgd", stream, r)
        cand = _pgd_single(params, batch, cfg, rng)
        losses = per_sample_losses(params, batch.with_inputs(cand))
        if best is None:
            best, best_loss = cand, losses
        else:
            win = losses > best_loss
            best[win] = cand[win]
            best_loss = np.maximum(best_loss, losses)
    return best


def atent_attack(params: ModelParams, batch: Batch, sampler_cfg: GibbsSamplerConfig,
                 radius: float, seed: int = 0, stream: int = 0) -> np.ndarray:
    """Final Langevin-chain point, projected into the l-inf ball of
    ``radius`` around the clean inputs.

    The chain runs without range clipping: it is handed the batch without
    its value range, so every gradient is taken at an unclipped iterate.
    The value range is applied once, after the final l-inf projection.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    x = batch.inputs.data
    if radius == 0.0:
        return x.copy()
    rng = derive_rng(seed, "atent-attack", stream)
    run = run_chain(params, Batch(batch.inputs, batch.labels, None), sampler_cfg, rng)
    x_adv = _project(run.samples[-1], x, LINF, radius)
    return _clip_range(x_adv, batch)


def run_attack(params: ModelParams, batch: Batch, cfg: AttackConfig,
               stream: int = 0) -> np.ndarray:
    if cfg.kind == FGSM:  # one signed-gradient step of the whole radius
        cfg = replace(cfg, steps=1, step_size=cfg.radius, random_start=False, restarts=1)
    if cfg.kind in (FGSM, PGD):
        return pgd_attack(params, batch, cfg, stream=stream)
    return atent_attack(params, batch, cfg.sampler, cfg.radius,
                        seed=cfg.seed, stream=stream)


def robust_accuracy(params: ModelParams, dataset, cfg: AttackConfig,
                    batch_size: int = 256) -> float:
    """Fraction of samples still classified correctly after the attack.

    Deterministic under cfg.seed: per-batch streams are derived, not
    consumed sequentially.
    """
    correct = 0
    n = dataset.n
    for bi, start in enumerate(range(0, n, batch_size)):
        idx = np.arange(start, min(start + batch_size, n))
        sub = dataset.take(idx)
        batch = sub.as_batch()
        x_adv = run_attack(params, batch, cfg, stream=bi)
        pred = predict(params, x_adv)
        correct += int(np.sum(pred == sub.labels.data.argmax(axis=1)))
    return correct / n

