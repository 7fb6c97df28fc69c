"""Trainers: vanilla SGD, Entropy-SGD, PGD-AT, and ATENT (l2 / l-inf).

All five share one outer loop: per batch, a defense-specific routine
produces an update direction per named weight tensor, then
w <- w - lr * (direction + weight_decay * w). They consume identical
(params, cfg, train, val) surfaces and emit identical per-epoch metric
records, so experiment code can treat them interchangeably.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .attacks import AttackConfig, pgd_attack, robust_accuracy
from .data import Dataset, batch_iter
from .models import Batch, ModelParams, batch_loss, forward_logits, loss_and_grads
from .models import accuracy  # noqa: F401  perfbench/tracer.py patches this name
from .sampler import GibbsSamplerConfig, langevin_step_l2, run_chain
from .seeding import derive_rng
from .tensor import NonFiniteError, Tensor, softmax_cross_entropy

SGD = "sgd"
ENTROPY_SGD = "entropy_sgd"
PGD_AT = "pgd_at"
ATENT_L2 = "atent_l2"
ATENT_LINF = "atent_linf"

DEFENSES = (SGD, ENTROPY_SGD, PGD_AT, ATENT_L2, ATENT_LINF)

_SAMPLER_DEFENSES = (ENTROPY_SGD, ATENT_L2, ATENT_LINF)


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""


@dataclass
class EarlyStopConfig:
    metric: str = "natural"                  # "natural" | "robust"
    patience: int | None = None              # epochs without improvement; None = never stop
    eval_attack: AttackConfig | None = None  # required when metric == "robust"

    def __post_init__(self):
        if self.metric not in ("natural", "robust"):
            raise ValueError("early-stop metric must be 'natural' or 'robust'")
        if self.patience is not None and self.patience < 1:
            raise ValueError("patience must be positive when set")


@dataclass
class TrainerConfig:
    defense: str
    lr: float
    epochs: int
    batch_size: int
    seed: int = 0
    lr_schedule: list[tuple[int, float]] | None = None  # None -> x0.1 at 75% of epochs
    weight_decay: float = 0.0
    sampler: GibbsSamplerConfig | None = None
    pgd: AttackConfig | None = None
    early_stop: EarlyStopConfig = field(default_factory=EarlyStopConfig)
    record_timing: bool = False

    def __post_init__(self):
        if self.defense not in DEFENSES:
            raise ValueError(f"unknown defense {self.defense!r}")
        if self.lr < 0:
            raise ValueError("lr must be nonnegative")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        needs_sampler = self.defense in _SAMPLER_DEFENSES
        if needs_sampler and self.sampler is None:
            raise ValueError(f"{self.defense} requires a sampler config")
        if not needs_sampler and self.sampler is not None:
            raise ValueError(f"{self.defense} does not take a sampler config")
        if self.defense == ATENT_L2 and self.sampler.norm != "l2":
            raise ValueError("atent_l2 requires an l2 sampler")
        if self.defense == ATENT_LINF and self.sampler.norm != "linf":
            raise ValueError("atent_linf requires an linf sampler")
        if self.defense == PGD_AT and self.pgd is None:
            raise ValueError("pgd_at requires inner-attack parameters")
        if self.early_stop.metric == "robust" and self.early_stop.eval_attack is None:
            self.early_stop = replace(
                self.early_stop, eval_attack=default_eval_attack(self)
            )

    def schedule(self) -> list[tuple[int, float]]:
        if self.lr_schedule is not None:
            return [(int(e), float(f)) for e, f in self.lr_schedule]
        return [(max(1, int(round(0.75 * self.epochs))), 0.1)]


def default_eval_attack(cfg: TrainerConfig) -> AttackConfig:
    """PGD at the training-time radius: the inner-attack radius for PGD-AT,
    1/gamma for the ATENT defenses."""
    if cfg.defense == PGD_AT:
        radius, norm = cfg.pgd.radius, cfg.pgd.norm
    elif cfg.defense in (ATENT_L2, ATENT_LINF):
        radius = 1.0 / cfg.sampler.gamma
        norm = cfg.sampler.norm
    else:
        raise ValueError(
            f"{cfg.defense} has no training-time radius; set early_stop.eval_attack"
        )
    steps = 20
    return AttackConfig(kind="pgd", norm=norm, radius=radius, steps=steps,
                        step_size=2.5 * radius / steps, random_start=True, seed=cfg.seed)


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    nat_acc: float | None
    rob_acc: float | None
    lr: float
    wall_ms: int


@dataclass
class TrainerState:
    params: ModelParams
    epoch: int = 0
    best_metric: float = -math.inf
    best_epoch: int = -1
    best_robust_acc: float | None = None
    best_params: ModelParams | None = None
    history: list[EpochRecord] = field(default_factory=list)

    def snapshot_params(self) -> ModelParams:
        """Early-stopped snapshot, falling back to the final params."""
        return self.best_params if self.best_params is not None else self.params


def early_stop_update(state: TrainerState, record: EpochRecord,
                      es: EarlyStopConfig) -> TrainerState:
    """Track the configured metric, snapshotting params on improvement."""
    state.history.append(record)
    state.epoch = record.epoch
    tracked = record.rob_acc if es.metric == "robust" else record.nat_acc
    if tracked is None:
        if es.metric == "robust":
            raise ValueError("robust early stopping configured but no robust metric evaluated")
        return state  # no validation data: nothing to track
    if tracked > state.best_metric:
        state.best_metric = tracked
        state.best_epoch = record.epoch
        state.best_params = state.params.clone()
        state.best_robust_acc = record.rob_acc
    return state


def training_finished(state: TrainerState, cfg: TrainerConfig) -> bool:
    """The run is over: it reached ``cfg.epochs``, or ``early_stop.patience``
    epochs have passed without improvement."""
    patience = cfg.early_stop.patience
    return state.epoch >= cfg.epochs or (
        patience is not None and state.epoch - state.best_epoch >= patience)


# ---------------------------------------------------------------------------
# Per-defense update directions


def _stream_id(epoch: int, batch_index: int) -> int:
    return epoch * 1_000_003 + batch_index


def _direction_sgd(params, batch, cfg, epoch, bidx):
    loss, wg, _ = loss_and_grads(params, batch, wrt="weights")
    return loss, wg


def _direction_pgd_at(params, batch, cfg, epoch, bidx):
    x_adv = pgd_attack(params, batch, cfg.pgd, stream=_stream_id(epoch, bidx))
    loss, wg, _ = loss_and_grads(params, batch.with_inputs(x_adv), wrt="weights")
    return loss, wg


def _direction_atent(params, batch, cfg, epoch, bidx):
    """Outer gradient of the loss EMA with sampled inputs held fixed,
    accumulated by the chain from its own passes."""
    rng = derive_rng(cfg.seed, "chain", epoch, bidx)
    run = run_chain(params, batch, cfg.sampler, rng, weight_grads=True)
    return run.ema_loss, run.weight_grads


def weight_langevin_chain(grad_fn, w0: dict[str, np.ndarray], anchor: dict[str, np.ndarray],
                          cfg: GibbsSamplerConfig, rng) -> dict[str, np.ndarray]:
    """Weight-space Langevin chain of the local-entropy objective.

    ``grad_fn(w) -> dict`` returns the loss gradient at weights ``w``. Each
    tensor takes the sampler's l2 step with the gradient negated, so the
    chain drifts along -grad + gamma (anchor - w'); ``cfg.norm`` is ignored.
    It accumulates the weight EMA mu <- (1-alpha) mu + alpha w'; mu starts
    at the anchor. Returns mu.
    """
    w_prime = {k: v.copy() for k, v in w0.items()}
    mu = {k: v.copy() for k, v in anchor.items()}
    for _ in range(cfg.steps):
        grads = grad_fn(w_prime)
        for k in w_prime:
            w_prime[k] = langevin_step_l2(w_prime[k], anchor[k], -grads[k], cfg, rng)
            mu[k] = (1.0 - cfg.ema) * mu[k] + cfg.ema * w_prime[k]
    return mu


def _direction_entropy_sgd(params, batch, cfg, epoch, bidx):
    rng = derive_rng(cfg.seed, "wchain", epoch, bidx)
    anchor = {name: t.data.copy() for name, t in params.weights.items()}
    clean_loss = batch_loss(params, batch)

    def grad_at(w):
        at_w = ModelParams(params.descriptor, [(name, Tensor(w[name])) for name in w])
        return loss_and_grads(at_w, batch, wrt="weights")[1]

    mu = weight_langevin_chain(grad_at, anchor, anchor, cfg.sampler, rng)
    direction = {name: cfg.sampler.gamma * (anchor[name] - mu[name]) for name in anchor}
    return clean_loss, direction


_DIRECTIONS = {
    SGD: _direction_sgd,
    PGD_AT: _direction_pgd_at,
    ATENT_L2: _direction_atent,
    ATENT_LINF: _direction_atent,
    ENTROPY_SGD: _direction_entropy_sgd,
}


# ---------------------------------------------------------------------------
# Shared outer loop


def _lr_at(cfg: TrainerConfig, epoch: int) -> float:
    """Stateless learning rate: base times every decay at or before epoch."""
    lr = cfg.lr
    for e, f in cfg.schedule():
        if epoch >= e:
            lr *= f
    return lr


def train(params: ModelParams, cfg: TrainerConfig, train_ds: Dataset,
          val_ds: Dataset, resume_state: TrainerState | None = None,
          stop_after_epoch: int | None = None, on_epoch=None) -> TrainerState:
    """Run the configured defense; mutates a private clone of ``params``.

    ``resume_state`` continues a previous run from its recorded epoch; all
    randomness is keyed by (seed, epoch, batch), so a resumed run retraces
    the uninterrupted trajectory exactly, and a finished one
    (:func:`training_finished`) is returned as it is. ``stop_after_epoch``
    ends this invocation early (resumable later); ``on_epoch(state)`` fires
    after each epoch's record is appended.
    """
    if resume_state is not None:
        state = resume_state
        if training_finished(state, cfg):
            return state
        params = state.params
        first_epoch = state.epoch + 1
    else:
        params = params.clone()
        state = TrainerState(params=params)
        first_epoch = 1
    direction_fn = _DIRECTIONS[cfg.defense]
    probe = None if val_ds.n else _probe_batch(train_ds)
    for epoch in range(first_epoch, cfg.epochs + 1):
        lr = _lr_at(cfg, epoch)
        t0 = time.perf_counter() if cfg.record_timing else 0.0
        losses = []
        try:
            for bidx, batch in enumerate(batch_iter(train_ds, cfg.batch_size, cfg.seed, epoch)):
                loss, direction = direction_fn(params, batch, cfg, epoch, bidx)
                losses.append(loss)
                for name, t in params.weights.items():
                    d = direction[name]
                    if cfg.weight_decay:
                        d = d + cfg.weight_decay * t.data
                    t.data = t.data - lr * d
            epoch_loss = float(np.mean(losses)) if losses else 0.0
            if probe is None:
                nat, probe_loss = _validate(params, val_ds)
            else:
                nat, probe_loss = None, batch_loss(params, probe)
            if not math.isfinite(epoch_loss) or not math.isfinite(probe_loss):
                raise DivergenceError(f"non-finite loss at epoch {epoch}")
        except NonFiniteError as exc:
            raise DivergenceError(f"training diverged at epoch {epoch}: {exc}") from exc
        rob = None
        es = cfg.early_stop
        if es.eval_attack is not None and val_ds.n:
            rob = robust_accuracy(params, val_ds, es.eval_attack)
        wall_ms = int(round((time.perf_counter() - t0) * 1000)) if cfg.record_timing else 0
        record = EpochRecord(epoch=epoch, train_loss=epoch_loss, nat_acc=nat,
                             rob_acc=rob, lr=lr, wall_ms=wall_ms)
        early_stop_update(state, record, es)
        if on_epoch is not None:
            on_epoch(state)
        if training_finished(state, cfg):
            break
        if stop_after_epoch is not None and epoch >= stop_after_epoch:
            break
    return state


_PROBE_ROWS = 64


def _probe_batch(ds: Dataset) -> Batch:
    return ds.take(np.arange(min(_PROBE_ROWS, ds.n))).as_batch()


def _validate(params: ModelParams, val_ds: Dataset) -> tuple[float, float]:
    """Accuracy on ``val_ds`` and the divergence probe's mean cross-entropy
    over its first rows, both from one forward."""
    logits = forward_logits(params, val_ds.inputs).data
    labels = val_ds.labels.data
    rows = min(_PROBE_ROWS, val_ds.n)
    probe_loss = softmax_cross_entropy(Tensor(logits[:rows]), Tensor(labels[:rows])).item()
    return float(np.mean(logits.argmax(axis=1) == labels.argmax(axis=1))), probe_loss
