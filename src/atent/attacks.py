"""Evaluation-time adversaries and robust-accuracy measurement.

``run_attack`` is the one attack function, PGD-AT's inner attack included.
Every attack's output lies in its configured ball (``norm``, ``radius``)
around the clean inputs; when the batch carries a value range (image data)
it is also clipped back into it after every projection. At radius 0 the
clean inputs come back and no gradient is taken. Multi-restart PGD keeps,
per sample, the restart with the highest final loss.
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
    """One attack. Every kind reads ``radius``, ``norm`` and ``seed``, and
    no other key than those named here:

    fgsm (l-inf only): one signed-gradient step of the whole radius.
    pgd: ``steps`` steps of ``step_size`` from the clean inputs, or from a
        uniform draw in the ball with ``random_start``; ``restarts`` runs.
    atent: the last point of the ``sampler`` chain, projected into the ball.
    """

    radius: float
    kind: str = PGD
    norm: str = LINF
    steps: int = 1
    step_size: float = 0.0
    restarts: int = 1
    random_start: bool = False
    seed: int = 0
    sampler: GibbsSamplerConfig | None = None

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


def _unit_rows(x: np.ndarray) -> np.ndarray:
    """The flattened rows of ``x`` at unit l2 norm; a zero row stays zero."""
    rows = x.reshape(len(x), -1)
    return rows / np.maximum(np.linalg.norm(rows, axis=1, keepdims=True), 1e-30)


def _project(x_adv: np.ndarray, x: np.ndarray, norm: str, radius: float) -> np.ndarray:
    delta = x_adv - x
    if norm == LINF:
        return x + np.clip(delta, -radius, radius)
    rows = delta.reshape(len(delta), -1)
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    return x + (rows * (radius / np.maximum(norms, radius))).reshape(delta.shape)


def _random_start(x: np.ndarray, norm: str, radius: float, rng: np.random.Generator) -> np.ndarray:
    if norm == LINF:
        return x + rng.uniform(-radius, radius, size=x.shape)
    # uniform in the l2 ball: gaussian direction, radius ~ eps * U^(1/d)
    unit = _unit_rows(rng.standard_normal(x.shape))
    r = radius * rng.random(x.shape[0]) ** (1.0 / unit.shape[1])
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
            x_adv = x_adv + cfg.step_size * _unit_rows(g).reshape(g.shape)
        x_adv = _clip_range(_project(x_adv, x, cfg.norm, cfg.radius), batch)
    return x_adv


def _pgd(params: ModelParams, batch: Batch, cfg: AttackConfig, stream: int) -> np.ndarray:
    """Iterated projected ascent with optional random starts; with several
    restarts the per-sample worst (max final loss) one is returned."""
    best = _pgd_single(params, batch, cfg, derive_rng(cfg.seed, "pgd", stream, 0))
    if cfg.restarts > 1:
        best_loss = per_sample_losses(params, batch.with_inputs(best))
    for r in range(1, cfg.restarts):
        cand = _pgd_single(params, batch, cfg, derive_rng(cfg.seed, "pgd", stream, r))
        losses = per_sample_losses(params, batch.with_inputs(cand))
        win = losses > best_loss
        best[win] = cand[win]
        best_loss = np.maximum(best_loss, losses)
    return best


def _atent(params: ModelParams, batch: Batch, cfg: AttackConfig, stream: int) -> np.ndarray:
    """Final Langevin-chain point, projected into the ``cfg.norm`` ball of
    ``cfg.radius`` around the clean inputs.

    The chain runs without range clipping: it is handed the batch without
    its value range, so every gradient is taken at an unclipped iterate.
    The value range is applied once, after the final projection.
    """
    rng = derive_rng(cfg.seed, "atent-attack", stream)
    run = run_chain(params, Batch(batch.inputs, batch.labels, None), cfg.sampler, rng)
    return _clip_range(_project(run.samples[-1], batch.inputs.data, cfg.norm, cfg.radius), batch)


def run_attack(params: ModelParams, batch: Batch, cfg: AttackConfig,
               stream: int = 0) -> np.ndarray:
    """Adversarial inputs for ``batch`` under ``cfg``, drawn from generators
    keyed by (``cfg.seed``, ``stream``); at radius 0, a copy of the inputs."""
    if cfg.radius == 0.0:
        return batch.inputs.data.copy()
    if cfg.kind == ATENT_ATTACK:
        return _atent(params, batch, cfg, stream)
    if cfg.kind == FGSM:  # one signed-gradient step of the whole radius
        cfg = replace(cfg, steps=1, step_size=cfg.radius, random_start=False, restarts=1)
    return _pgd(params, batch, cfg, stream)


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

